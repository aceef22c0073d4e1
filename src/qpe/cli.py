"""Command line front end.

Exit codes are uniform across subcommands: 0 for a holding relation or a
successful computation, 1 for a failing relation, 2 for invalid input,
3 for marginal, unknown, or not-found outcomes, and 4 for an internal error
(an exception that is not a QpeError). The default positivity
tolerance can be preset through the QPE_DEFAULT_TOL environment variable;
an explicit --tol always wins.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bayes import (
    fls_update,
    reconstruct_effect,
    sequential_transitivity_demo,
    sequential_update,
)
from .channels import (
    Channel,
    channel_max_divergence,
    channel_qpe_leq,
    entanglement_fidelity,
)
from .config import ToleranceConfig
from .divergence import renyi_divergence, renyi_entropy
from .domain import CERTIFIED_BELOW, NOT_BELOW, way_below_witness
from .exceptions import BadParameter, DegenerateDraw, NotBelow, QpeError
from .linalg import HOLDS, MARGINAL
from .oracle import counterexample_suite, partial_trace_counterexample
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
    common.add_argument("--tol", type=float, default=None,
                        help="positivity slack (default 1e-9, or QPE_DEFAULT_TOL)")
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
    tol = args.tol
    if tol is None:
        preset = os.environ.get("QPE_DEFAULT_TOL", "1e-9")
        try:
            tol = float(preset)
        except ValueError as exc:
            raise BadParameter(f"QPE_DEFAULT_TOL is not a number: {preset!r}") from exc
    return ToleranceConfig(
        psd_slack=tol,
        cluster_width=args.cluster,
        rank_cutoff=args.rank_cutoff,
        log_base="two" if args.log_base == "2" else "natural",
    )


def _verdict_exit(relation: str) -> int:
    if relation == HOLDS:
        return 0
    if relation == MARGINAL:
        return 3
    return 1


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
    payload = {"relation": rel, "verdict": verdict.relation,
               "slack": float(verdict.slack)}
    lines = [f"{rel}: {verdict.relation} (slack {verdict.slack:.3e})"]
    return _verdict_exit(verdict.relation), payload, lines


def _cmd_divergence(args, cfg):
    sigma = load_state(args.lhs, cfg)
    rho = load_state(args.rhs, cfg)
    d = renyi_divergence(sigma, rho, args.alpha, cfg)
    payload = {"alpha": args.alpha, "value": d.value,
               "log_base": d.log_base, "support_violation": d.support_violation}
    lines = [f"D_{args.alpha}(lhs || rhs) = {d.value:.12g}"
             + ("  [support violation]" if d.support_violation else "")]
    return 0, payload, lines


def _cmd_entropy(args, cfg):
    rho = load_state(args.state, cfg)
    value = renyi_entropy(rho, args.alpha, cfg)
    payload = {"alpha": args.alpha, "value": value, "log_base": cfg.log_base}
    lines = [f"H_{args.alpha} = {value:.12g}"]
    return 0, payload, lines


def _cmd_bayes_update(args, cfg):
    rho = load_state(args.state, cfg)
    effect = load_effect(args.effect, cfg)
    rule = fls_update if args.rule == "fls" else sequential_update
    out = rule(rho, effect, cfg)
    payload = state_json(out)
    lines = ["posterior:"] + _matrix_lines(out.matrix)
    return 0, payload, lines


def _cmd_bayes_effect(args, cfg):
    rho = load_state(args.lower, cfg)
    sigma = load_state(args.upper, cfg)
    effect = reconstruct_effect(rho, sigma, cfg)
    payload = effect_json(effect)
    lines = ["effect:"] + _matrix_lines(effect.matrix)
    return 0, payload, lines


def _cmd_domain_waybelow(args, cfg):
    rho = load_state(args.lower, cfg)
    sigma = load_state(args.upper, cfg)
    wit = way_below_witness(rho, sigma, cfg)
    payload = {"verdict": wit.verdict, "rule": wit.rule, "t": wit.t,
               "residual": wit.residual, "note": wit.note}
    lines = [f"way-below: {wit.verdict} via {wit.rule}"
             + (f" (t = {wit.t:.6g})" if wit.t is not None else "")]
    if wit.verdict == CERTIFIED_BELOW:
        return 0, payload, lines
    if wit.verdict == NOT_BELOW:
        return 1, payload, lines
    return 3, payload, lines


def _cmd_channel_order(args, cfg):
    phi = load_channel(args.lower, cfg)
    psi = load_channel(args.upper, cfg)
    verdict = channel_qpe_leq(phi, psi, cfg)
    payload = {"verdict": verdict.relation, "slack": float(verdict.slack)}
    lines = [f"channel order: {verdict.relation} (slack {verdict.slack:.3e})"]
    return _verdict_exit(verdict.relation), payload, lines


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


def _cmd_demo_counterexamples(args, cfg):
    reports = counterexample_suite(cfg)
    trace = partial_trace_counterexample(args.dim, seed=args.seed, cfg=cfg)
    payload = {
        "pairs": [
            {"name": r.name, "lower": list(map(float, r.lower)),
             "upper": list(map(float, r.upper)), "checks": r.checks,
             "values": r.values, "stable": r.stable, "witnessed": r.witnessed}
            for r in reports
        ],
        "partial_trace": {
            "dim": trace.dim, "t": trace.t, "seed": trace.seed,
            "order_slack": float(trace.order_verdict.slack),
            "marginal_deviation": trace.marginal_deviation,
            "monotone_broken": trace.monotone_broken,
        },
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
    trace = partial_trace_counterexample(args.dim, args.t, args.seed, cfg)
    payload = {
        "dim": trace.dim, "t": trace.t, "seed": trace.seed,
        "rho": encode_matrix(trace.rho),
        "order_slack": float(trace.order_verdict.slack),
        "marginal": encode_matrix(trace.marginal_rho),
        "marginal_deviation": trace.marginal_deviation,
        "monotone_broken": trace.monotone_broken,
    }
    lines = [
        f"state below the maximally entangled target (slack "
        f"{trace.order_verdict.slack:.3e})",
        f"marginal deviates from the bottom by {trace.marginal_deviation:.3g}",
        "partial trace is " + ("not monotone here"
                               if trace.monotone_broken else "monotone here"),
    ]
    return (0 if trace.monotone_broken else 3), payload, lines


def _cmd_demo_transitivity(args, cfg):
    report = sequential_transitivity_demo(cfg, budget=args.budget,
                                          seed=args.seed, dim=args.dim)
    payload = {
        "found": report.found, "trials": report.trials, "dim": report.dim,
        "seed": report.seed, "message": report.message,
        "candidate_overlap": report.candidate_overlap,
        "replay_residual": report.replay_residual,
    }
    if report.found:
        payload["rho"] = encode_matrix(report.rho)
        payload["first_effect"] = encode_matrix(report.first_effect)
        payload["second_effect"] = encode_matrix(report.second_effect)
        payload["final"] = encode_matrix(report.final)
    lines = [report.message]
    return (0 if report.found else 3), payload, lines


def _cmd_random_state(args, cfg):
    rho = random_state(args.dim, rank=args.rank,
                       rng=np.random.default_rng(args.seed), cfg=cfg)
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

    order = top.add_parser("order", help="order relations between states")
    order_sub = order.add_subparsers(dest="subcommand", metavar="subcommand")
    check = order_sub.add_parser("check", parents=[common],
                                 help="decide whether LOWER is below UPPER")
    check.add_argument("--relation", default="qpe",
                       choices=("qpe", "lev", "primed", "classical", "majorization"))
    check.add_argument("lower")
    check.add_argument("upper")
    check.set_defaults(handler=_cmd_order_check)

    div = top.add_parser("divergence", parents=[common],
                         help="sandwiched Renyi divergence D_alpha(LHS || RHS)")
    div.add_argument("--alpha", type=_alpha_arg, default=float("inf"),
                     help="order of the divergence; a number or 'inf'")
    div.add_argument("lhs")
    div.add_argument("rhs")
    div.set_defaults(handler=_cmd_divergence)

    ent = top.add_parser("entropy", parents=[common],
                         help="Renyi entropy of a state")
    ent.add_argument("--alpha", type=_alpha_arg, default=1.0,
                     help="order of the entropy; a number or 'inf'")
    ent.add_argument("state")
    ent.set_defaults(handler=_cmd_entropy)

    bayes = top.add_parser("bayes", help="Bayesian updates and their inverses")
    bayes_sub = bayes.add_subparsers(dest="subcommand", metavar="subcommand")
    upd = bayes_sub.add_parser("update", parents=[common],
                               help="condition STATE on EFFECT")
    upd.add_argument("--rule", choices=("fls", "seq"), default="fls",
                     help="state-sandwich (fls) or effect-sandwich (seq) rule")
    upd.add_argument("state")
    upd.add_argument("effect")
    upd.set_defaults(handler=_cmd_bayes_update)
    eff = bayes_sub.add_parser("effect", parents=[common],
                               help="reconstruct the evidence mapping LOWER to UPPER")
    eff.add_argument("lower")
    eff.add_argument("upper")
    eff.set_defaults(handler=_cmd_bayes_effect)

    dom = top.add_parser("domain", help="approximation-order witnesses")
    dom_sub = dom.add_subparsers(dest="subcommand", metavar="subcommand")
    wb = dom_sub.add_parser("waybelow", parents=[common],
                            help="certify LOWER way below UPPER, or refute it")
    wb.add_argument("lower")
    wb.add_argument("upper")
    wb.set_defaults(handler=_cmd_domain_waybelow)

    chan = top.add_parser("channel", help="order and divergence on channels")
    chan_sub = chan.add_subparsers(dest="subcommand", metavar="subcommand")
    c_ord = chan_sub.add_parser("order", parents=[common],
                                help="positive-evidence order between channels")
    c_ord.add_argument("lower")
    c_ord.add_argument("upper")
    c_ord.set_defaults(handler=_cmd_channel_order)
    c_div = chan_sub.add_parser("divergence", parents=[common],
                                help="worst-case max-divergence D_inf(LHS || RHS)")
    c_div.add_argument("lhs")
    c_div.add_argument("rhs")
    c_div.set_defaults(handler=_cmd_channel_divergence)
    c_fid = chan_sub.add_parser("fidelity", parents=[common],
                                help="entanglement fidelity and attaining input")
    c_fid.add_argument("channel")
    c_fid.set_defaults(handler=_cmd_channel_fidelity)

    demo = top.add_parser("demo", help="verified counterexamples and searches")
    demo_sub = demo.add_subparsers(dest="subcommand", metavar="subcommand")
    d_cx = demo_sub.add_parser("counterexamples", parents=[common],
                               help="replay the stored counterexample suite")
    d_cx.add_argument("--dim", type=int, default=2,
                      help="subsystem dimension for the partial-trace instance")
    d_cx.set_defaults(handler=_cmd_demo_counterexamples)
    d_pt = demo_sub.add_parser("partial-trace", parents=[common],
                               help="partial trace fails to be monotone")
    d_pt.add_argument("--dim", type=int, default=2)
    d_pt.add_argument("--t", type=float, default=0.5,
                      help="weight on the maximally entangled component")
    d_pt.set_defaults(handler=_cmd_demo_partial_trace)
    d_tr = demo_sub.add_parser("transitivity", parents=[common],
                               help="search for a non-composable two-step update chain")
    d_tr.add_argument("--dim", type=int, default=3)
    d_tr.add_argument("--budget", type=int, default=2000,
                      help="number of sampled chains")
    d_tr.set_defaults(handler=_cmd_demo_transitivity)

    rnd = top.add_parser("random", help="sample test objects")
    rnd_sub = rnd.add_subparsers(dest="subcommand", metavar="subcommand")
    r_st = rnd_sub.add_parser("state", parents=[common], help="random density matrix")
    r_st.add_argument("--dim", type=int, required=True)
    r_st.add_argument("--rank", type=int, default=None)
    r_st.set_defaults(handler=_cmd_random_state)
    r_ch = rnd_sub.add_parser("channel", parents=[common], help="random channel")
    r_ch.add_argument("--in-dim", type=int, required=True)
    r_ch.add_argument("--out-dim", type=int, required=True)
    r_ch.add_argument("--kraus-rank", type=int, default=1)
    r_ch.set_defaults(handler=_cmd_random_channel)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        cfg = _config(args)
        code, payload, lines = args.handler(args, cfg)
        if args.format == "json":
            text = json.dumps(payload, indent=2, default=_jsonable)
        else:
            text = "\n".join(lines)
    except NotBelow as exc:
        print(f"not below: {exc}", file=sys.stderr)
        return 1
    except DegenerateDraw as exc:
        print(f"degenerate draw: {exc}", file=sys.stderr)
        return 3
    except QpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(text)
    return code


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
