"""The four benchmark workloads: inputs, the timed op, and its output check.

Each workload yields items in batches (generation is untimed), runs one op
per item (timed by the caller), and checks each result by a route that does
not go through the call being checked. ``check`` returns None for a correct
result and a short reason otherwise.

Library functions are looked up on the ``qpe`` package at call time, so the
tracer's wrappers apply to the benchmark's own calls as well.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import inputs
from cli_launch import TRACE_TAG

ROUND_TRIP_TOL = 1e-8
GAP_TOL = 1e-8
WAY_BELOW_T_TOL = 1e-6
ROUTE_TOL = 1e-8
CLI_TOL = 1e-9
POOL_BATCH = 256
REFUSED = "refused"


def _qpe():
    import qpe
    return qpe


def _error(res) -> str | None:
    if isinstance(res, BaseException):
        return f"raised {type(res).__name__}: {res}"
    return None


def _witness_ok(verdict, M: np.ndarray) -> bool:
    """A fails verdict's witness w must give w* M w < 0, computed directly."""
    w = verdict.witness
    return w is not None and float(np.vdot(w, M @ w).real) < 0.0


def _close(a: float, b: float, tol: float) -> bool:
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class PairsWorkload:
    """Fresh pairs round-robin over dims, half ordered and half incomparable.

    One op builds both states from raw arrays, runs order_divergence_gap,
    then either the reconstruct/update round trip (ordered pair) or expects
    reconstruct_effect to refuse with NotBelow (incomparable pair).
    """

    def __init__(self, dims: tuple[int, ...], seed: int, batch: int,
                 warmup_ops: int, tail_percentile: float):
        self.dims = dims
        self.batch_size = batch
        self.warmup_ops = warmup_ops
        self.tail_percentile = tail_percentile
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def batch(self) -> list:
        items = []
        for _ in range(self.batch_size):
            i = self.count
            self.count += 1
            n = self.dims[(i // 2) % len(self.dims)]
            ordered = i % 2 == 0
            make = inputs.ordered_pair if ordered else inputs.incomparable_pair
            items.append((*make(self.rng, n), ordered))
        return items

    def warmup_items(self) -> list:
        items = []
        while len(items) < self.warmup_ops:
            items.extend(self.batch())
        return items[:self.warmup_ops]

    def run(self, item):
        q = _qpe()
        R, S, _, _, ordered = item
        rho = q.DensityMatrix(R)
        sigma = q.DensityMatrix(S)
        gap, verdict = q.order_divergence_gap(rho, sigma)
        if ordered:
            return gap, verdict, q.fls_update(rho, q.reconstruct_effect(rho, sigma))
        try:
            q.reconstruct_effect(rho, sigma)
        except q.NotBelow:
            return gap, verdict, REFUSED
        return gap, verdict, None

    def check(self, item, res) -> str | None:
        if (err := _error(res)) is not None:
            return err
        R, S, r_top, s_top, ordered = item
        gap, verdict, tail = res
        expected = "holds" if ordered else "fails"
        if verdict.relation != expected:
            return f"label {expected}, verdict {verdict.relation}"
        if (gap < GAP_TOL) != verdict.holds:
            return f"gap {gap:.3e} disagrees with verdict {verdict.relation}"
        if verdict.fails and not _witness_ok(verdict, s_top * R - r_top * S):
            return "fails verdict without a negative witness"
        if ordered:
            resid = float(np.abs(tail.matrix - S).max())
            if resid > ROUND_TRIP_TOL:
                return f"round trip residual {resid:.3e}"
        elif tail is not REFUSED:
            return "incomparable pair not refused with NotBelow"
        return None

    def close(self) -> None:
        pass


class PoolWorkload:
    """Read-only queries on pools of states and channels built once in set-up.

    State pool: at each dim 2-5, incomparable base pairs and their
    depolarization chains, so many pairs are ordered and way-below certifies.
    Channel pool: at n = 2-4, random channels and their mixtures with the
    completely depolarizing channel. One op is one query on one pool pair.
    """

    KINDS = ("qpe_leq", "max_divergence", "way_below_witness",
             "channel_qpe_leq", "channel_max_divergence")
    CHAIN_T = (0.0, 0.2, 0.5, 0.8)
    CHANNEL_T = (0.0, 0.3, 0.6)
    tail_percentile = 99.0

    def __init__(self, seed: int):
        q = _qpe()
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self.state_pairs = {"holds": [], "fails": []}
        for n in (2, 3, 4, 5):
            for _ in range(3):
                a, b, _, _ = inputs.incomparable_pair(self.rng, n)
                chains = []
                for base in (a, b):
                    top = q.DensityMatrix(base)
                    chains.append([(top, 0.0)] + [(q.depolarize(top, t), t)
                                                  for t in self.CHAIN_T[1:]])
                for chain in chains:
                    for i, (lower, t_i) in enumerate(chain):
                        for upper, t_j in chain[:i]:
                            t = (t_i - t_j) / (1.0 - t_j)
                            self.state_pairs["holds"].append((lower, upper, t))
                lo, hi = chains[0][0][0], chains[1][0][0]
                self.state_pairs["fails"] += [(lo, hi, None), (hi, lo, None)]
        self.channel_pairs = {"holds": [], "fails": []}
        self.divergence_pairs = []
        for n in (2, 3, 4):
            kraus_a, kraus_b = self._channel_bases(n)
            chains = [[q.Channel(inputs.depolarized_kraus(kraus, t) if t else kraus)
                       for t in self.CHANNEL_T] for kraus in (kraus_a, kraus_b)]
            for chain in chains:
                for i, lower in enumerate(chain):
                    self.channel_pairs["holds"] += [(lower, upper) for upper in chain[:i]]
            for i, j in itertools.product(range(len(self.CHANNEL_T)), repeat=2):
                self.channel_pairs["fails"] += [(chains[0][i], chains[1][j]),
                                                (chains[1][j], chains[0][i])]
            members = [(c, t) for chain in chains for c, t in zip(chain, self.CHANNEL_T)]
            for phi, t in members:
                if t:
                    self.divergence_pairs += [(psi, phi) for psi, _ in members
                                              if psi is not phi]
        self._expected: dict = {}

    def _channel_bases(self, n: int):
        """Kraus families of ranks 1 and 2 whose depolarization chains are
        incomparable across chains by the margin, in both directions, so the
        pool has the same shape (and cost) for every seed."""
        while True:
            bases = (inputs.random_kraus(self.rng, n, 1), inputs.random_kraus(self.rng, n, 2))
            chois = [[inputs.choi_via_output(inputs.depolarized_kraus(k, t) if t else k)
                      for t in self.CHANNEL_T] for k in bases]
            tops = [[inputs.top_eigenvalue(J) for J in chain] for chain in chois]
            if all(max(inputs.relative_slack(chois[0][i], chois[1][j], tops[0][i], tops[1][j]),
                       inputs.relative_slack(chois[1][j], chois[0][i], tops[1][j], tops[0][i]))
                   < -inputs.INCOMPARABLE_MARGIN
                   for i, j in itertools.product(range(len(self.CHANNEL_T)), repeat=2)):
                return bases

    def _item(self, kind: str, rng_value: float):
        if kind.startswith("channel_max"):
            pool = self.divergence_pairs
            return kind, None, pool[int(rng_value * len(pool))]
        label = "holds" if self.rng.random() < 0.5 else "fails"
        pool = (self.channel_pairs if kind.startswith("channel") else self.state_pairs)[label]
        return kind, label, pool[int(rng_value * len(pool))]

    def batch(self) -> list:
        items = []
        for _ in range(POOL_BATCH):
            kind = self.KINDS[self.count % len(self.KINDS)]
            self.count += 1
            items.append(self._item(kind, self.rng.random()))
        return items

    def warmup_items(self) -> list:
        """Every query on every pool pair once, so every cache is filled."""
        items = []
        for kind in self.KINDS:
            if kind == "channel_max_divergence":
                items += [(kind, None, p) for p in self.divergence_pairs]
                continue
            pools = self.channel_pairs if kind.startswith("channel") else self.state_pairs
            items += [(kind, label, p) for label, pool in pools.items() for p in pool]
        return items

    def run(self, item):
        q = _qpe()
        kind, _, pair = item
        if kind == "qpe_leq":
            return q.qpe_leq(pair[0], pair[1])
        if kind == "max_divergence":
            return q.max_divergence(pair[1], pair[0])
        if kind == "way_below_witness":
            return q.way_below_witness(pair[0], pair[1])
        if kind == "channel_qpe_leq":
            return q.channel_qpe_leq(pair[0], pair[1])
        return q.channel_max_divergence(pair[0], pair[1])

    def _memo(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    @staticmethod
    def _order_matrix(R: np.ndarray, S: np.ndarray) -> np.ndarray:
        return inputs.top_eigenvalue(S) * R - inputs.top_eigenvalue(R) * S

    @staticmethod
    def _log_max_ratio(sigma: np.ndarray, rho: np.ndarray) -> float:
        """log lambda_max(L^-1 sigma L^-dagger) with rho = L L^dagger (Cholesky route)."""
        L = np.linalg.cholesky(rho)
        X = np.linalg.solve(L, sigma)
        A = np.linalg.solve(L, X.conj().T)
        return float(np.log(np.linalg.eigvalsh(inputs.hermitize(A))[-1]))

    def _extended_output_divergence(self, psi, phi) -> float:
        q = _qpe()
        omega = q.maximally_entangled(psi.in_dim)
        return q.max_divergence(q.extended_output(psi, omega, psi.in_dim),
                                q.extended_output(phi, omega, phi.in_dim)).value

    def check(self, item, res) -> str | None:
        if (err := _error(res)) is not None:
            return err
        kind, label, pair = item
        key = (kind, id(pair))
        if kind in ("qpe_leq", "channel_qpe_leq"):
            if res.relation != label:
                return f"{kind}: label {label}, verdict {res.relation}"
            if res.fails:
                lower, upper = ((pair[0].choi, pair[1].choi) if kind == "channel_qpe_leq"
                                else pair[:2])
                M = self._memo(key, lambda: self._order_matrix(lower.matrix, upper.matrix))
                if not _witness_ok(res, M):
                    return f"{kind}: fails verdict without a negative witness"
            return None
        if kind == "max_divergence":
            want = self._memo(key, lambda: self._log_max_ratio(pair[1].matrix, pair[0].matrix))
            if not _close(res.value, want, ROUTE_TOL):
                return f"max_divergence {res.value!r} vs Cholesky route {want!r}"
            return None
        if kind == "way_below_witness":
            if label == "fails":
                return None if res.verdict == "not_below" else f"way-below {res.verdict} on incomparable pair"
            if not res.certified or abs(res.t - pair[2]) > WAY_BELOW_T_TOL:
                return f"way-below {res.verdict} t={res.t!r}, expected certified t={pair[2]!r}"
            return None
        want = self._memo(key, lambda: self._extended_output_divergence(*pair))
        if not _close(res.value, want, ROUTE_TOL):
            return f"channel_max_divergence {res.value!r} vs extended-output route {want!r}"
        return None

    def close(self) -> None:
        pass


class CliWorkload:
    """One ``qpe`` CLI process per op on freshly generated JSON documents.

    The command mix cycles order check, divergence --alpha inf, bayes effect,
    domain waybelow and channel order. Each result is checked against the
    exit code and the in-process result for the same raw arrays.
    """

    tail_percentile = 80.0
    warmup_ops = 1

    def __init__(self, seed: int, root: str):
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self.root = root
        os.makedirs(os.path.join(root, "bench", "out"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, "bench", "out"))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.set_traced(False)
        self.child_rss_kb: list[int] = []
        self.traces: list[dict] = []
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(root, "bench", "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=root)

    def set_traced(self, traced: bool) -> None:
        self.traced = traced
        if traced:
            self.prefix = [sys.executable, os.path.join(self.root, "bench", "cli_launch.py")]
        else:
            self.prefix = [sys.executable, "-m", "qpe.cli"]

    def _write(self, tag: str, doc: dict) -> str:
        path = os.path.join(self.workdir, f"{self.count}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _channel_pair(self, n: int, ordered: bool):
        base = inputs.random_kraus(self.rng, n, int(self.rng.integers(1, n + 1)))
        if ordered:
            return inputs.depolarized_kraus(base, float(self.rng.uniform(0.1, 0.9))), base
        while True:
            other = inputs.random_kraus(self.rng, n, int(self.rng.integers(1, n + 1)))
            J_a, J_b = inputs.choi_via_output(base), inputs.choi_via_output(other)
            a_top, b_top = inputs.top_eigenvalue(J_a), inputs.top_eigenvalue(J_b)
            if inputs.relative_slack(J_a, J_b, a_top, b_top) < -inputs.INCOMPARABLE_MARGIN:
                return base, other

    def _next(self):
        i = self.count
        cmd = i % 5
        round_ = i // 5
        n = 2 + round_ % 4
        ordered = round_ % 2 == 0
        pair = inputs.ordered_pair if ordered else inputs.incomparable_pair
        if cmd == 0:
            R, S, _, _ = pair(self.rng, n)
            data = (R, S)
            argv = ["order", "check"]
            docs = (inputs.state_doc(R), inputs.state_doc(S))
        elif cmd == 1:
            R, S, _, _ = pair(self.rng, n)
            data = (R, S)
            argv = ["divergence", "--alpha", "inf"]
            docs = (inputs.state_doc(S), inputs.state_doc(R))
        elif cmd == 2:
            R, S, _, _ = inputs.ordered_pair(self.rng, n)
            data = (R, S)
            argv = ["bayes", "effect"]
            docs = (inputs.state_doc(R), inputs.state_doc(S))
        elif cmd == 3:
            S = inputs.random_state(self.rng, n)
            t = float(self.rng.uniform(0.1, 0.9))
            data = (inputs.depolarized(S, t), S, t)
            argv = ["domain", "waybelow"]
            docs = (inputs.state_doc(data[0]), inputs.state_doc(S))
        else:
            lower, upper = self._channel_pair(2 + round_ % 2, ordered)
            data = (lower, upper)
            argv = ["channel", "order"]
            docs = (inputs.channel_doc(lower), inputs.channel_doc(upper))
        paths = [self._write(tag, doc) for tag, doc in zip(("a", "b"), docs)]
        self.count += 1
        return cmd, ordered, data, argv + ["--format", "json"] + paths

    def batch(self) -> list:
        return [self._next()]

    def warmup_items(self) -> list:
        return [self._next() for _ in range(self.warmup_ops)]

    def run(self, item):
        argv = item[3]
        out_path, err_path = argv[-1] + ".stdout", argv[-1] + ".stderr"
        self.spawner.stdin.write(json.dumps([self.prefix + argv, out_path, err_path]) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError(f"CLI spawner gave no result (exit {self.spawner.poll()})")
        code, rss_kb = map(int, reply)
        self.child_rss_kb.append(rss_kb)
        with open(out_path, "rb") as fh:
            out = fh.read().decode("utf-8", "replace")
        with open(err_path, "rb") as fh:
            err_text = fh.read().decode("utf-8", "replace")
        return code, out, err_text

    def _in_process(self, cmd, data):
        q = _qpe()
        if cmd == 4:
            return q.channel_qpe_leq(q.Channel(data[0]), q.Channel(data[1]))
        rho, sigma = q.DensityMatrix(data[0]), q.DensityMatrix(data[1])
        if cmd == 0:
            return q.qpe_leq(rho, sigma)
        if cmd == 1:
            return q.max_divergence(sigma, rho)
        if cmd == 2:
            return q.reconstruct_effect(rho, sigma)
        return q.way_below_witness(rho, sigma)

    def check(self, item, res) -> str | None:
        if (err := _error(res)) is not None:
            return err
        cmd, ordered, data, argv = item
        code, out, err_text = res
        if self.traced:
            record = None
            for line in err_text.splitlines():
                if line.startswith(TRACE_TAG):
                    record = json.loads(line[len(TRACE_TAG):])
            if record is None:
                return "traced CLI process left no trace record"
            self.traces.append(record)
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return f"{argv[0]}: exit {code}, output is not JSON: {err_text.strip()[-200:]}"
        want = self._in_process(cmd, data)
        if cmd in (0, 4):
            label = "holds" if ordered else "fails"
            want_code = 0 if ordered else 1
            if (payload.get("verdict") != want.relation or want.relation != label
                    or code != want_code):
                return (f"{argv[0]}: exit {code}, verdict {payload.get('verdict')}, "
                        f"in-process {want.relation}, label {label}")
            if not _close(payload["slack"], float(want.slack), CLI_TOL):
                return f"{argv[0]}: slack {payload['slack']!r} vs in-process {want.slack!r}"
            return None
        if code != 0:
            return f"{argv[0]}: exit {code}: {err_text.strip()[-200:]}"
        if cmd == 1:
            if not _close(payload["value"], want.value, CLI_TOL):
                return f"divergence {payload['value']!r} vs in-process {want.value!r}"
            return None
        if cmd == 2:
            entries = np.array(payload["entries"], dtype=float)
            got = entries[..., 0] + 1j * entries[..., 1] if entries.ndim == 3 else entries
            if float(np.abs(got - want.matrix).max()) > CLI_TOL:
                return "bayes effect differs from the in-process effect"
            return None
        t = data[2]
        if (payload.get("verdict") != "certified_below" or not want.certified
                or abs(payload["t"] - want.t) > CLI_TOL
                or abs(payload["t"] - t) > WAY_BELOW_T_TOL):
            return f"waybelow {payload.get('verdict')} t={payload.get('t')!r}, built with t={t!r}"
        return None

    def close(self) -> None:
        try:
            self.spawner.stdin.close()
        finally:
            self.spawner.wait()
            self.spawner.stdout.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: str):
    if name == "pairs_small":
        return PairsWorkload((2, 3, 4, 5), seed, batch=64, warmup_ops=200, tail_percentile=95.0)
    if name == "pairs_large":
        return PairsWorkload((64, 128, 256), seed, batch=1, warmup_ops=3, tail_percentile=80.0)
    if name == "pool_reuse":
        return PoolWorkload(seed)
    if name == "cli_cold":
        return CliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pairs_small", "pool_reuse", "pairs_large", "cli_cold")
