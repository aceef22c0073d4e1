from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qpe.cli
from qpe.cli import run
from qpe.oracle import shannon_entropy

FIXTURES = Path(__file__).parent / "fixtures"

MAX_DIV_SKEWED_PAIR = 0.4198538455602639
CHANNEL_FIDELITY_SEED_3 = 0.567038760742
PT_DEVIATION_SEED_9 = 0.125574


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv: str):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (("order", "check", fx("state_diag_64.json"),
          fx("state_diag_82.json")), 0),
        (("order", "check", fx("state_diag_532.json"),
          fx("state_diag_613.json")), 1),
        (("order", "check", "--relation", "primed", fx("state_diag_532.json"),
          fx("state_diag_613.json")), 0),
        (("order", "check", "--relation", "lev", fx("state_diag_64.json"),
          fx("state_diag_82.json")), 0),
        (("order", "check", "--relation", "classical",
          fx("probvec_532.json"), fx("state_onm_upper.json")), 0),
        (("order", "check", "--relation", "classical",
          fx("probvec_532.json"), fx("probvec_marginal.json")), 3),
        (("order", "check", "--relation", "classical",
          fx("probvec_532.json"), fx("state_diag_613.json")), 1),
        (("order", "check", "--relation", "majorization",
          fx("probvec_532.json"), fx("state_onm_upper.json")), 0),
        (("order", "check", "--relation", "majorization",
          fx("state_onm_lower.json"), fx("state_onm_upper.json")), 1),
        (("domain", "waybelow", fx("state_bottom3.json"),
          fx("state_diag_532.json")), 0),
        (("domain", "waybelow", fx("state_ordered_not_mixture.json"),
          fx("state_diag_532.json")), 3),
        (("domain", "waybelow", fx("state_diag_532.json"),
          fx("state_ordered_not_mixture.json")), 1),
        (("channel", "order", fx("channel_dep_half_choi.json"),
          fx("channel_identity2_kraus.json")), 0),
        (("channel", "order", fx("channel_identity2_kraus.json"),
          fx("channel_dep_half_choi.json")), 1),
        (("channel", "order", fx("channel_phase_kraus.json"),
          fx("channel_identity2_kraus.json")), 1),
        (("bayes", "effect", fx("state_diag_82.json"),
          fx("state_diag_64.json")), 1),
        (("demo", "counterexamples",), 0),
    ])
    def test_documented_exit_codes(self, capsys, argv, expected):
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected

    def test_no_command_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_relation_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["order", "check", "--relation", "entropy",
                 fx("probvec_532.json"), fx("probvec_532.json")])
        assert exc.value.code == 2

    def test_unreadable_alpha_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["divergence", "--alpha", "abc",
                 fx("state_diag_64.json"), fx("state_diag_82.json")])
        assert exc.value.code == 2
        assert "bad order 'abc'" in capsys.readouterr().err

    def test_dash_reads_the_document_from_stdin(self, capsys, monkeypatch):
        doc = (FIXTURES / "state_diag_532.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        from_stdin = run_cli(capsys, "entropy", "-")
        assert from_stdin == run_cli(capsys, "entropy", fx("state_diag_532.json"))
        assert from_stdin[0] == 0 and from_stdin[1].startswith("H_1.0 = ")

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "order", "check",
                               fx("absent.json"), fx("state_diag_64.json"))
        assert code == 2
        assert "absent.json" in err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "order", "check", str(bad),
                               fx("state_diag_64.json"))
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("entries", [
        [[float("nan"), 0.0], [0.0, 1.0]],
        [[0.5, float("nan")], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, float("inf")]],
    ])
    @pytest.mark.parametrize("command", [("order", "check"), ("divergence",)])
    def test_non_finite_cell_exits_two(self, capsys, tmp_path, entries, command):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"kind": "state", "dims": [2], "entries": entries}))
        code, out, err = run_cli(capsys, *command, str(bad), fx("state_diag_64.json"))
        assert code == 2
        assert out == ""
        assert "NaN or infinite" in err

    @pytest.mark.parametrize("entries", [
        [[0.5, [1.5e308, 1.5e308]], [[1.5e308, -1.5e308], 0.5]],
        [[1.5e308, 0.0], [0.0, 0.5]],
    ])
    def test_overflowing_cell_exits_two(self, capsys, tmp_path, entries):
        # finite cells whose modulus or Hermitian fold overflows: the state
        # used to load with spectrum [nan, nan] and the order read marginal
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"kind": "state", "dims": [2], "entries": entries}))
        for pair in ((str(bad), fx("state_diag_64.json")), (fx("state_diag_64.json"), str(bad))):
            code, out, err = run_cli(capsys, "order", "check", *pair)
            assert code == 2
            assert out == ""
            assert "Hermitian fold overflows" in err

    def test_overflowing_effect_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "huge_effect.json"
        bad.write_text(json.dumps({"kind": "effect", "dims": [2],
                                   "entries": [[1.5e308, 0.0], [0.0, 0.5]]}))
        code, out, err = run_cli(capsys, "bayes", "update", fx("state_diag_64.json"), str(bad))
        assert code == 2
        assert out == ""
        assert "Hermitian fold overflows" in err

    @pytest.mark.parametrize("doc", [
        {"kind": "state", "dims": [2], "entries": [[True, False], [False, False]]},
        {"kind": "probvec", "dims": [2], "probs": [True, False]},
    ])
    def test_boolean_cell_exits_two(self, capsys, tmp_path, doc):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "order", "check", "--relation", "classical",
                                 str(bad), fx("probvec_532.json"))
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("doc,relation,upper", [
        ({"kind": "state", "dims": [2], "entries": [[10**400, 0], [0, 0]]},
         "qpe", "state_diag_64.json"),
        ({"kind": "state", "dims": [2], "entries": [[0.5, [0, -10**400]], [0, 0.5]]},
         "qpe", "state_diag_64.json"),
        ({"kind": "state", "dims": [2], "entries": [[10**400, 0], [0, 0]]},
         "classical", "probvec_532.json"),
        ({"kind": "probvec", "dims": [2], "probs": [10**400, 0]},
         "classical", "probvec_532.json"),
    ])
    def test_oversized_integer_exits_two(self, capsys, tmp_path, doc, relation, upper):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "order", "check", "--relation", relation,
                                 str(bad), fx(upper))
        assert code == 2
        assert out == ""
        assert "out of float range" in err

    def test_oversized_kraus_cell_exits_two(self, capsys, tmp_path):
        doc = {"kind": "channel", "in_dim": 2, "out_dim": 2, "repr": "kraus",
               "data": [[[10**400, 0], [0, 1]]]}
        bad = tmp_path / "big_kraus.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "channel", "order", str(bad),
                                 fx("channel_identity2_kraus.json"))
        assert code == 2
        assert out == ""
        assert "out of float range" in err

    def test_integer_past_the_digit_limit_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "digits.json"
        bad.write_text('{"kind": "state", "dims": [1], "entries": [[1' + "0" * 5000 + "]]}")
        code, out, err = run_cli(capsys, "order", "check", str(bad), fx("state_diag_64.json"))
        assert code == 2
        assert out == ""
        assert "digits.json" in err

    def test_non_hermitian_choi_exits_two(self, capsys, tmp_path):
        doc = json.loads(Path(fx("channel_dep_half_choi.json")).read_text())
        doc["data"][0][1] = 0.2
        bad = tmp_path / "skew_choi.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "channel", "order", str(bad),
                                 fx("channel_identity2_kraus.json"))
        assert code == 2
        assert out == ""
        assert "Hermitian" in err

    def test_crash_exits_four_not_one(self, capsys, monkeypatch):
        def crash(rho, sigma, cfg):
            raise RuntimeError("handler bug")

        # the handler reads qpe_leq at call time; the parser, built once,
        # holds the handler itself
        monkeypatch.setattr(qpe.cli, "qpe_leq", crash)
        code, out, err = run_cli(capsys, "order", "check", fx("state_diag_64.json"),
                                 fx("state_diag_82.json"))
        assert code == 4
        assert out == ""
        assert "internal error: RuntimeError: handler bug" in err

    def test_crash_in_a_lazily_imported_handler_exits_four(self, capsys, monkeypatch):
        def crash(rho, sigma, cfg):
            raise RuntimeError("handler bug")

        # the handler imports reconstruct_effect when it runs, so it reads
        # the module attribute at call time
        monkeypatch.setattr(qpe.bayes, "reconstruct_effect", crash)
        code, out, err = run_cli(capsys, "bayes", "effect", fx("state_diag_64.json"),
                                 fx("state_diag_82.json"))
        assert code == 4
        assert out == ""
        assert "internal error: RuntimeError: handler bug" in err


FIXTURE_KINDS = {path.name: json.loads(path.read_text())["kind"]
                 for path in sorted(FIXTURES.glob("*.json"))}


def of_kind(*kinds: str) -> list[str]:
    return [fx(name) for name, kind in FIXTURE_KINDS.items() if kind in kinds]


STATES, CHANNELS = of_kind("state"), of_kind("channel")
DISTRIBUTIONS = of_kind("state", "probvec")
# every command, with the fixtures each of its operands is drawn from
COMMANDS = [
    *((("order", "check", "--relation", r), (STATES, STATES)) for r in ("qpe", "lev", "primed")),
    *((("order", "check", "--relation", r), (DISTRIBUTIONS, DISTRIBUTIONS))
      for r in ("classical", "majorization")),
    (("divergence",), (STATES, STATES)),
    (("entropy",), (STATES,)),
    (("bayes", "update", "--rule", "fls"), (STATES, of_kind("effect"))),
    (("bayes", "update", "--rule", "seq"), (STATES, of_kind("effect"))),
    (("bayes", "effect"), (STATES, STATES)),
    (("domain", "waybelow"), (STATES, STATES)),
    (("channel", "order"), (CHANNELS, CHANNELS)),
    (("channel", "divergence"), (CHANNELS, CHANNELS)),
    (("channel", "fidelity"), (CHANNELS,)),
    (("demo", "counterexamples"), ()),
    (("demo", "partial-trace"), ()),
    (("demo", "transitivity", "--budget", "20"), ()),
    (("random", "state", "--dim", "3"), ()),
    (("random", "channel", "--in-dim", "2", "--out-dim", "3"), ()),
]


class TestExitContract:
    @pytest.mark.parametrize("command,operands", COMMANDS,
                             ids=[" ".join(command) for command, _ in COMMANDS])
    def test_no_crash_and_one_code_in_both_formats(self, capsys, command, operands):
        for files in itertools.product(*operands):
            text_code, _, _ = run_cli(capsys, *command, *files)
            code, out, err = run_cli(capsys, *command, *files, "--format", "json")
            # exit 4 is a crash, which must never pass for a failing relation
            assert text_code == code != 4, files
            # no document only for invalid input or a refusal named on stderr
            # (a reconstruction refused, exit 1; a degenerate draw, exit 3)
            if out:
                json.loads(out)
            else:
                assert code == 2 or err.startswith(("not below: ", "degenerate draw: ")), files


class TestParserReuse:
    def test_two_runs_build_one_parser(self, capsys):
        argv = ("order", "check", fx("state_diag_64.json"), fx("state_diag_82.json"))
        qpe.cli._parser.cache_clear()
        with mock.patch.object(qpe.cli, "build_parser", wraps=qpe.cli.build_parser) as build:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
        assert build.call_count == 1
        assert first == second and first[0] == 0

    @pytest.mark.parametrize("argv", [
        ("order", "check", "--help"),
        ("order", "check", "a.json"),
        ("order",),
        (),
    ])
    def test_help_and_usage_errors_repeat_after_a_run(self, capsys, argv):
        outputs = []
        for _ in range(2):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
            run_cli(capsys, "entropy", fx("state_diag_532.json"))
        assert outputs[0] == outputs[1]


class TestOrderOutput:
    def test_text_reports_relation_and_slack(self, capsys):
        code, out, _ = run_cli(capsys, "order", "check",
                               fx("state_diag_532.json"),
                               fx("state_diag_613.json"))
        assert code == 1
        assert "fails" in out and "slack" in out

    def test_json_payload(self, capsys):
        code, payload = run_json(capsys, "order", "check",
                                 fx("state_diag_532.json"),
                                 fx("state_diag_613.json"))
        assert code == 1
        assert payload["relation"] == "qpe"
        assert payload["verdict"] == "fails"
        # 1 - rho+ max_i(sigma_i / rho_i) / sigma+ = 1 - 0.5 * 1.5 / 0.6
        assert_allclose(payload["slack"], -0.25, atol=1e-12)


class TestToleranceConfiguration:
    def test_environment_default_widens_the_band(self, capsys, monkeypatch):
        monkeypatch.setenv("QPE_DEFAULT_TOL", "1e-3")
        code, _, _ = run_cli(capsys, "order", "check", "--relation",
                             "classical", fx("probvec_532.json"),
                             fx("probvec_marginal.json"))
        assert code == 0

    def test_explicit_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QPE_DEFAULT_TOL", "1e-3")
        code, _, _ = run_cli(capsys, "order", "check", "--relation",
                             "classical", "--tol", "1e-12",
                             fx("probvec_532.json"),
                             fx("probvec_marginal.json"))
        assert code == 1

    def test_malformed_environment_default_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setenv("QPE_DEFAULT_TOL", "abc")
        code, out, err = run_cli(capsys, "order", "check",
                                 fx("state_onm_upper.json"),
                                 fx("state_onm_lower.json"))
        assert (code, out) == (2, "")
        assert "QPE_DEFAULT_TOL" in err

    @pytest.mark.parametrize("argv", [
        ("order", "check", "--tol", "inf"),
        ("order", "check", "--tol", "nan"),
        ("divergence", "--rank-cutoff", "nan", "--cluster", "nan"),
    ])
    def test_non_finite_tolerance_is_invalid_input(self, capsys, argv):
        # the upper state is not below the lower one (slack -2.5)
        code, out, err = run_cli(capsys, *argv, fx("state_onm_upper.json"),
                                 fx("state_onm_lower.json"))
        assert (code, out) == (2, "")
        assert "finite" in err


class TestDivergenceAndEntropy:
    def test_max_divergence_value(self, capsys):
        code, payload = run_json(capsys, "divergence", "--alpha", "inf",
                                 fx("state_onm_upper.json"),
                                 fx("state_onm_lower.json"))
        assert code == 0
        assert_allclose(payload["value"], MAX_DIV_SKEWED_PAIR, atol=1e-12)
        assert not payload["support_violation"]

    def test_support_violation_reports_infinity(self, capsys, tmp_path):
        pure = tmp_path / "pure.json"
        pure.write_text(json.dumps({
            "kind": "state", "dims": [3],
            "entries": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }))
        code, payload = run_json(capsys, "divergence",
                                 fx("state_diag_532.json"), str(pure))
        assert code == 0
        assert payload["value"] == float("inf")
        assert payload["support_violation"]

    def test_entropy_matches_direct_formula(self, capsys):
        code, payload = run_json(capsys, "entropy", "--alpha", "1",
                                 fx("state_diag_532.json"))
        assert code == 0
        assert_allclose(payload["value"], shannon_entropy([0.5, 0.3, 0.2]),
                        atol=1e-12)

    def test_entropy_base_two(self, capsys):
        code, payload = run_json(capsys, "entropy", "--log-base", "2",
                                 fx("state_half_mixed.json"))
        assert code == 0
        assert_allclose(payload["value"], 1.0, atol=1e-12)


class TestBayesCommands:
    def test_update_emits_a_state_document(self, capsys):
        code, payload = run_json(capsys, "bayes", "update",
                                 fx("state_half_mixed.json"),
                                 fx("effect_meas_1_half.json"))
        assert code == 0
        assert payload["kind"] == "state"
        entries = np.array(payload["entries"], dtype=float)
        assert_allclose(entries, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_update_output_pipes_back_in(self, capsys, tmp_path):
        _, payload = run_json(capsys, "bayes", "update",
                              fx("state_half_mixed.json"),
                              fx("effect_meas_1_half.json"))
        posterior = tmp_path / "posterior.json"
        posterior.write_text(json.dumps(payload))
        code, out = run_json(capsys, "entropy", "--alpha", "1",
                             str(posterior))
        assert code == 0
        assert_allclose(out["value"], shannon_entropy([2 / 3, 1 / 3]),
                        atol=1e-12)

    def test_effect_reconstruction_value(self, capsys):
        code, payload = run_json(capsys, "bayes", "effect",
                                 fx("state_diag_64.json"),
                                 fx("state_diag_82.json"))
        assert code == 0
        entries = np.array(payload["entries"], dtype=float)
        assert_allclose(entries, np.diag([1.0, 0.375]), atol=1e-12)

    def test_effect_failure_reports_not_below(self, capsys):
        code, _, err = run_cli(capsys, "bayes", "effect",
                               fx("state_diag_82.json"),
                               fx("state_diag_64.json"))
        assert code == 1
        assert "not below" in err


class TestDomainCommand:
    def test_certified_mixture_reports_weight(self, capsys):
        code, payload = run_json(capsys, "domain", "waybelow",
                                 fx("state_bottom3.json"),
                                 fx("state_diag_532.json"))
        assert code == 0
        assert payload["verdict"] == "certified_below"
        assert payload["rule"] == "mixture-with-bottom"
        assert_allclose(payload["t"], 1.0, atol=1e-9)

    def test_unresolved_pair_reports_no_rule(self, capsys):
        code, payload = run_json(capsys, "domain", "waybelow",
                                 fx("state_ordered_not_mixture.json"),
                                 fx("state_diag_532.json"))
        assert code == 3
        assert payload["verdict"] == "unknown"
        assert payload["rule"] == "no-rule"


class TestChannelCommands:
    def test_divergence_against_identity_is_infinite(self, capsys):
        code, payload = run_json(capsys, "channel", "divergence",
                                 fx("channel_dep_half_choi.json"),
                                 fx("channel_identity2_kraus.json"))
        assert code == 0
        assert payload["value"] == float("inf")
        assert payload["support_violation"]

    def test_divergence_other_direction_finite(self, capsys):
        code, payload = run_json(capsys, "channel", "divergence",
                                 fx("channel_identity2_kraus.json"),
                                 fx("channel_dep_half_choi.json"))
        assert code == 0
        assert 0.0 < payload["value"] < float("inf")

    def test_fidelity_of_half_depolarizing(self, capsys):
        code, payload = run_json(capsys, "channel", "fidelity",
                                 fx("channel_dep_half_choi.json"))
        assert code == 0
        assert_allclose(payload["value"], 0.625, atol=1e-12)
        assert payload["optimal_input"] is not None


class TestInvalidArguments:
    @pytest.mark.parametrize("argv", [
        ("demo", "partial-trace", "--dim", "0"),
        ("demo", "partial-trace", "--dim", "-1"),
        ("demo", "partial-trace", "--dim", "1"),
        ("demo", "counterexamples", "--dim", "0"),
        ("random", "channel", "--in-dim", "0", "--out-dim", "2"),
        ("random", "channel", "--in-dim", "-1", "--out-dim", "2"),
        ("random", "channel", "--in-dim", "2", "--out-dim", "0"),
    ])
    def test_bad_dimension_is_invalid_input(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestDemoCommands:
    def test_counterexamples_payload(self, capsys):
        code, payload = run_json(capsys, "demo", "counterexamples")
        assert code == 0
        assert len(payload["pairs"]) == 2
        assert all(p["witnessed"] and p["stable"] for p in payload["pairs"])
        assert payload["partial_trace"]["monotone_broken"]

    def test_partial_trace_frozen_deviation(self, capsys):
        code, payload = run_json(capsys, "demo", "partial-trace",
                                 "--dim", "2", "--seed", "9")
        assert code == 0
        assert_allclose(payload["marginal_deviation"], PT_DEVIATION_SEED_9,
                        atol=1e-6)

    def test_transitivity_found_at_dim_three(self, capsys):
        code, payload = run_json(capsys, "demo", "transitivity",
                                 "--dim", "3", "--seed", "1",
                                 "--budget", "500")
        assert code == 0
        assert payload["found"]
        assert payload["candidate_overlap"] < 0.5
        assert payload["replay_residual"] < 1e-8

    def test_transitivity_not_found_at_dim_two(self, capsys):
        code, payload = run_json(capsys, "demo", "transitivity",
                                 "--dim", "2", "--seed", "1",
                                 "--budget", "150")
        assert code == 3
        assert not payload["found"]
        assert payload["message"].startswith("NotFound")

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "0"), ("--budget", "-1"), ("--dim", "1"), ("--dim", "0"), ("--dim", "-2")])
    def test_transitivity_rejects_an_empty_search(self, capsys, flag, value):
        # a search that samples nothing must not report NotFound (exit 3)
        code, out, err = run_cli(capsys, "demo", "transitivity", flag, value)
        assert (code, out) == (2, "")
        assert "budget >= 1 and dim >= 2" in err


class TestRandomCommands:
    def test_random_state_respects_rank(self, capsys):
        code, payload = run_json(capsys, "random", "state", "--dim", "3",
                                 "--rank", "2", "--seed", "7")
        assert code == 0
        M = np.array([[c if isinstance(c, float) else complex(c[0], c[1])
                       for c in row] for row in payload["entries"]])
        eigs = np.linalg.eigvalsh(M)
        assert_allclose(np.trace(M).real, 1.0, atol=1e-9)
        assert (eigs > 1e-8).sum() == 2

    def test_random_state_reproducible(self, capsys):
        _, first = run_json(capsys, "random", "state", "--dim", "2",
                            "--seed", "5")
        _, second = run_json(capsys, "random", "state", "--dim", "2",
                             "--seed", "5")
        assert first == second

    def test_random_state_is_not_refused_under_zero_tolerance(self, capsys):
        """A draw is PSD by construction and not checked again: this rank-1
        draw reads lambda_min = -2.776e-16 from rounding, which --tol 0
        refused while the draw went through the validating constructor."""
        argv = ("random", "state", "--dim", "2", "--rank", "1", "--seed", "3")
        code, out, err = run_cli(capsys, *argv, "--tol", "0")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv)[1]

    def test_random_channel_pipes_into_fidelity(self, capsys, tmp_path):
        code, payload = run_json(capsys, "random", "channel", "--in-dim", "2",
                                 "--out-dim", "2", "--kraus-rank", "2",
                                 "--seed", "3")
        assert code == 0
        doc = tmp_path / "channel.json"
        doc.write_text(json.dumps(payload))
        code, out = run_json(capsys, "channel", "fidelity", str(doc))
        assert code == 0
        assert_allclose(out["value"], CHANNEL_FIDELITY_SEED_3, atol=1e-9)


# run in a fresh interpreter: qpe.cli.run on argv, its output discarded,
# then the exit code and the qpe modules loaded
LOADED_MODULES_PROBE = """
import contextlib, io, sys
import qpe.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qpe.cli.run(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("qpe.")))
"""
# what every command loads: the package's eager modules and the CLI's own
EAGER_MODULES = {"qpe.config", "qpe.exceptions", "qpe.linalg", "qpe.states",
                 "qpe.orders", "qpe.channels", "qpe.serialization", "qpe.cli"}


class TestLoadedModules:
    @pytest.mark.parametrize("argv, extra", [
        (("order", "check", fx("state_diag_64.json"), fx("state_diag_82.json")), set()),
        (("channel", "order", fx("channel_dep_half_choi.json"),
          fx("channel_identity2_kraus.json")), set()),
        (("channel", "divergence", fx("channel_dep_half_choi.json"),
          fx("channel_identity2_kraus.json")), {"qpe.divergence"}),
        (("bayes", "effect", fx("state_diag_64.json"), fx("state_diag_82.json")),
         {"qpe.bayes"}),
    ], ids=["order check", "channel order", "channel divergence", "bayes effect"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, extra):
        src = str(Path(qpe.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", LOADED_MODULES_PROBE, *argv],
                              capture_output=True, text=True, env=env, check=True)
        code, *loaded = done.stdout.split()
        assert code == "0"
        assert set(loaded) == EAGER_MODULES | extra
        assert "qpe.oracle" not in loaded
