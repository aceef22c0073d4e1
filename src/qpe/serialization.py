"""JSON encoding of states, effects, probability vectors, and channels.

Matrices are stored entrywise; a cell is either a bare real or an [re, im]
pair, and whole-matrix encodings pick whichever form is lossless. Every
object may carry a "kind" tag; a present tag must match what the loader
expects, a missing one is accepted.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from .channels import Channel
from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import InputFormatError
from .orders import as_probability_vector
from .states import DensityMatrix, Effect

# largest off-diagonal entry of a state read as a probability vector
OFF_DIAGONAL_TOL = 1e-10


def _is_number(x) -> bool:
    """A JSON number; true/false parse to bool, which Python counts as int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_dim(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _decode_cell(cell):
    if _is_number(cell):
        parts = (cell,)
    elif (isinstance(cell, (list, tuple)) and len(cell) == 2
            and all(_is_number(c) for c in cell)):
        parts = cell
    else:
        raise InputFormatError(f"matrix cell must be a number or [re, im], got {cell!r}")
    try:
        return complex(*parts)
    except OverflowError as exc:
        # a JSON integer past the float range
        raise InputFormatError(f"matrix cell out of float range: {exc}") from exc


def decode_matrix(entries, shape=None) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise InputFormatError("matrix entries must be a non-empty list of rows")
    rows = []
    width = None
    for row in entries:
        if not isinstance(row, list) or not row:
            raise InputFormatError("matrix rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError("matrix rows have unequal length")
        rows.append([_decode_cell(c) for c in row])
    M = np.array(rows, dtype=complex)
    if shape is not None and M.shape != tuple(shape):
        raise InputFormatError(f"matrix shape {M.shape} does not match "
                               f"declared {tuple(shape)}")
    return M


def encode_matrix(M) -> list:
    A = np.asarray(M)
    if np.max(np.abs(A.imag), initial=0.0) == 0.0:
        return [[float(v.real) for v in row] for row in A]
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def _check_kind(obj, expected: str):
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind is not None and kind != expected:
        raise InputFormatError(f"kind {kind!r} where {expected!r} was expected")


def _square_dim(obj) -> int:
    dims = obj.get("dims")
    if not (isinstance(dims, list) and dims
            and all(_is_dim(d) for d in dims)):
        raise InputFormatError("dims must be a list of positive integers")
    if len(dims) == 1:
        return dims[0]
    if len(dims) == 2 and dims[0] == dims[1]:
        return dims[0]
    raise InputFormatError(f"dims {dims} does not describe a square matrix")


def decode_state(obj, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    _check_kind(obj, "state")
    n = _square_dim(obj)
    return DensityMatrix(decode_matrix(obj.get("entries"), (n, n)), cfg)


def decode_effect(obj, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    _check_kind(obj, "effect")
    n = _square_dim(obj)
    return Effect(decode_matrix(obj.get("entries"), (n, n)), cfg)


def decode_probvec(obj) -> np.ndarray:
    _check_kind(obj, "probvec")
    n = _square_dim(obj)
    probs = obj.get("probs")
    if not (isinstance(probs, list) and len(probs) == n
            and all(_is_number(p) for p in probs)):
        raise InputFormatError("probs must be a list of numbers matching dims")
    try:
        v = np.array(probs, dtype=float)
    except OverflowError as exc:
        raise InputFormatError(f"probs entry out of float range: {exc}") from exc
    return as_probability_vector(v)


def decode_channel(obj, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Channel:
    _check_kind(obj, "channel")
    n = obj.get("in_dim")
    k = obj.get("out_dim")
    if not (_is_dim(n) and _is_dim(k)):
        raise InputFormatError("in_dim and out_dim must be positive integers")
    rep = obj.get("repr", "choi")
    data = obj.get("data")
    if rep == "choi":
        return Channel.from_choi(decode_matrix(data, (n * k, n * k)), n, k, cfg)
    if rep == "kraus":
        if not isinstance(data, list) or not data:
            raise InputFormatError("kraus data must be a non-empty list")
        return Channel([decode_matrix(K, (k, n)) for K in data], n, k, cfg)
    raise InputFormatError(f"unknown channel repr {rep!r}")


def state_json(rho: DensityMatrix) -> dict:
    return {"kind": "state", "dims": [rho.dim],
            "entries": encode_matrix(rho.matrix)}


def effect_json(effect: Effect) -> dict:
    return {"kind": "effect", "dims": [effect.dim],
            "entries": encode_matrix(effect.matrix)}


def probvec_json(p) -> dict:
    v = np.asarray(p, dtype=float).reshape(-1)
    return {"kind": "probvec", "dims": [v.size], "probs": [float(x) for x in v]}


def channel_json(channel: Channel, rep: str = "choi") -> dict:
    base = {"kind": "channel", "in_dim": channel.in_dim,
            "out_dim": channel.out_dim, "repr": rep}
    if rep == "choi":
        base["data"] = encode_matrix(channel.choi.matrix)
    elif rep == "kraus":
        base["data"] = [encode_matrix(K) for K in channel.kraus]
    else:
        raise InputFormatError(f"unknown channel repr {rep!r}")
    return base


def read_json(path: str):
    """Parse a JSON document from a file, or from stdin when path is '-'."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, OSError) as exc:
        # ValueError: malformed JSON, or an integer past the digit limit
        raise InputFormatError(f"{path}: {exc}") from exc


def load_state(path: str, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    return decode_state(read_json(path), cfg)


def load_effect(path: str, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    return decode_effect(read_json(path), cfg)


def load_channel(path: str, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Channel:
    return decode_channel(read_json(path), cfg)


def load_distribution(path: str, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Probability vector from either a probvec or a diagonal state."""
    obj = read_json(path)
    if isinstance(obj, dict) and (obj.get("kind") == "probvec" or "probs" in obj):
        return decode_probvec(obj)
    rho = decode_state(obj, cfg)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    if np.abs(off).max() > OFF_DIAGONAL_TOL:
        raise InputFormatError("classical relations need a probability vector "
                               "or a diagonal state")
    return as_probability_vector(np.diag(rho.matrix).real)
