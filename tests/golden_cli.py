"""The golden CLI transcript: a fixed set of qpe invocations over
tests/fixtures, run in-process through qpe.cli.run, with each one's exit
code, stdout, stderr and warnings.

tests/golden/cli_transcript.json holds the transcript and
tests/golden/fingerprint.json the environment it was taken in (see
fingerprint); tests/test_golden_cli.py compares a fresh run against both.
A change that moves printed output regenerates the two files, and the git
diff of the transcript is its declared change:

    PYTHONPATH=src python tests/golden_cli.py

Before it overwrites the transcript, the script prints how many runs moved
against the committed one and, for each, its argv and the first thing that
moved: the exit code, or the first differing stdout, stderr or warning line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
TRANSCRIPT = GOLDEN / "cli_transcript.json"
FINGERPRINT = GOLDEN / "fingerprint.json"
# the projector onto u = (1, 2, 2i)/3, kept out of the generated pairs and
# run in a block of its own
PURE = "state_pure_122.json"


def _pairs(xs: list[str], span: int) -> list[tuple[str, str]]:
    """(xs[i], xs[i + k]) for k < span, indices mod len(xs): every operand
    on both sides, itself included, and span - 1 neighbours each."""
    return [(x, xs[(i + k) % len(xs)]) for i, x in enumerate(xs) for k in range(span)]


def commands() -> list[list[str]]:
    """Every command with its --relation, --alpha and flag variants, on
    fixture operands named relative to tests/fixtures; the demos at small
    budgets and the random draws on fixed seeds."""
    kinds = {path.name: json.loads(path.read_text())["kind"]
             for path in sorted(FIXTURES.glob("*.json")) if path.name != PURE}

    def of_kind(*wanted: str) -> list[str]:
        return [name for name, kind in kinds.items() if kind in wanted]

    states, channels, effects = of_kind("state"), of_kind("channel"), of_kind("effect")
    distributions = of_kind("state", "probvec")
    out = []
    out += [["order", "check", a, b] for a, b in _pairs(states, 4)]
    out += [["order", "check", "--relation", r, a, b]
            for r in ("lev", "primed") for a, b in _pairs(states, 2)]
    out += [["order", "check", "--relation", r, a, b]
            for r in ("classical", "majorization") for a, b in _pairs(distributions, 2)]
    out += [["order", "check", "--tol", "0", a, b] for a, b in _pairs(states, 2)]
    out += [["divergence", a, b] for a, b in _pairs(states, 2)]
    out += [["divergence", "--alpha", alpha, a, b]
            for alpha in ("0.5", "2", "inf") for a, b in _pairs(states, 1)[::2]]
    out += [["divergence", "--alpha", alpha, states[0], states[1]] for alpha in ("1", "0", "-1")]
    out += [["divergence", "--log-base", "2", a, b] for a, b in _pairs(states, 2)[::3]]
    out += [["entropy", "--alpha", alpha, s]
            for alpha in ("1", "0", "0.5", "2", "inf") for s in states[::2]]
    out += [["entropy", "--log-base", "2", s] for s in states[1::2]]
    out += [["bayes", "update", "--rule", rule, s, e]
            for rule in ("fls", "seq") for s in states for e in effects]
    out += [["bayes", "effect", a, b] for a, b in _pairs(states, 3)]
    out += [["domain", "waybelow", a, b] for a, b in _pairs(states, 3)]
    out += [["channel", "order", a, b] for a, b in _pairs(channels, 3)]
    out += [["channel", "divergence", a, b] for a, b in _pairs(channels, 3)]
    out += [["channel", "fidelity", c] for c in channels]
    out += [["demo", "counterexamples"], ["demo", "counterexamples", "--dim", "3"]]
    out += [["demo", "partial-trace"],
            ["demo", "partial-trace", "--dim", "3", "--t", "0.3", "--seed", "9"]]
    out += [["demo", "transitivity", "--budget", "20"],
            ["demo", "transitivity", "--dim", "2", "--budget", "10"],
            ["demo", "transitivity", "--dim", "4", "--budget", "3"],
            ["demo", "transitivity", "--dim", "5", "--seed", "1", "--budget", "8"]]
    out += [["random", "state", "--dim", "3"],
            ["random", "state", "--dim", "4", "--rank", "2", "--seed", "5"],
            ["random", "state", "--dim", "2", "--rank", "1", "--seed", "7"],
            ["random", "channel", "--in-dim", "2", "--out-dim", "3"],
            ["random", "channel", "--in-dim", "2", "--out-dim", "2", "--kraus-rank", "2",
             "--seed", "4"]]
    # refusals the library reports through run: a missing file and documents
    # of the wrong kind (operands of different dimensions are among the pairs)
    out += [["order", "check", states[0], "missing.json"],
            ["order", "check", effects[0], states[0]],
            ["channel", "order", states[0], channels[0]]]
    # the pure operand against every state of its dimension both ways; D_alpha
    # with state_diag_532.json (D_1/2 = log 3.6 both ways) and H_alpha (0 at
    # every alpha)
    diag = "state_diag_532.json"
    peers = [s for s in states if json.loads((FIXTURES / s).read_text())["dims"] == [3]]
    out += [["order", "check", a, b] for s in peers for a, b in ((PURE, s), (s, PURE))]
    out += [["divergence", "--alpha", alpha, a, b]
            for alpha in ("1", "0.5", "2") for a, b in ((PURE, diag), (diag, PURE))]
    out += [["entropy", "--alpha", alpha, PURE] for alpha in ("1", "0.5", "2", "inf")]
    return [argv + ["--format", fmt] for argv in out for fmt in ("text", "json")]


def record(argv: list[str]) -> dict:
    """argv run once in-process through qpe.cli.run: its argv, exit code,
    stdout and stderr lines, and the category and message of each warning
    it raised."""
    from qpe.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(list(argv))
    return {
        "argv": argv, "exit": code,
        "stdout": out.getvalue().splitlines(), "stderr": err.getvalue().splitlines(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def transcript() -> list[dict]:
    """The record of each of commands(), run from tests/fixtures."""
    cwd = os.getcwd()
    try:
        os.chdir(FIXTURES)
        return [record(argv) for argv in commands()]
    finally:
        os.chdir(cwd)


def fingerprint() -> dict:
    """What decides the transcript's last bits: the Python and numpy
    versions, the machine, and a digest of eigensolves, products and
    elementary functions on fixed inputs, which differs where the LAPACK,
    BLAS or libm build rounds differently."""
    from qpe.linalg import hermitian_eig, hermitian_part

    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for n in range(2, 10):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, V = hermitian_eig(hermitian_part(A))
        x = np.abs(w)
        for part in (w, V, A.dot(V), V.dot(A), np.sqrt(x), x ** -0.5, np.log(x), np.exp(w)):
            digest.update(np.ascontiguousarray(part).tobytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "probe": digest.hexdigest()}


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def _first_move(old: dict, new: dict) -> str | None:
    """What moved first between two records of one argv, or None."""
    if old["exit"] != new["exit"]:
        return f"exit {old['exit']} -> {new['exit']}"
    for key in ("stdout", "stderr", "warnings"):
        a, b = old[key], new[key]
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            line = [repr(lines[i]) if i < len(lines) else "(none)" for lines in (a, b)]
            return f"{key} line {i + 1}: {line[0]} -> {line[1]}"
    return None


def moves(old: list[dict], new: list[dict]) -> list[str]:
    """One report per run of new that moved against old, matched by argv:
    the argv, then what moved first (or that the run is new); and one per
    run of old that new no longer makes."""
    before = {tuple(record["argv"]): record for record in old}
    now = {tuple(record["argv"]) for record in new}
    out = []
    for record in new:
        argv = " ".join(record["argv"])
        was = before.get(tuple(record["argv"]))
        why = "new run" if was is None else _first_move(was, record)
        if why is not None:
            out.append(f"{argv}\n    {why}")
    out += [f"{' '.join(argv)}\n    run dropped" for argv in before if argv not in now]
    return out


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    records = transcript()
    if TRANSCRIPT.exists():
        moved = moves(json.loads(TRANSCRIPT.read_text(encoding="utf-8")), records)
        print(f"{len(moved)} of {len(records)} runs moved", *moved, sep="\n")
    _dump(records, TRANSCRIPT)
    _dump(fingerprint(), FINGERPRINT)
    print(f"{len(records)} runs -> {TRANSCRIPT.relative_to(HERE.parent)}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
