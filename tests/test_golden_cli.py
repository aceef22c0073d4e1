"""The CLI's behaviour contract as a committed golden transcript.

golden_cli.transcript() runs a fixed set of qpe invocations in-process and
is compared with tests/golden/cli_transcript.json, record by record: argv,
exit code, stdout, stderr and warnings.

Where this environment's golden_cli.fingerprint() equals the committed
tests/golden/fingerprint.json, every record must match exactly, bit for bit
in every printed digit. Elsewhere (another LAPACK, BLAS or libm build rounds
the last bits otherwise) argv, exit codes and all text between the numbers
(relations, messages, keys, layout) must still match exactly, and each
printed number a with golden value b must satisfy

    |a - b| <= NUMBER_RTOL * max(1, |a|, |b|),   NUMBER_RTOL = 1e-5,

so a value printed to six decimals may round the other way in its last
digit; an infinity or NaN must match exactly.

A change that moves printed output regenerates both files
(PYTHONPATH=src python tests/golden_cli.py) and declares the diff.
"""
from __future__ import annotations

import json
import math
import re

import pytest

import golden_cli

NUMBER_RTOL = 1e-5
# a printed number: decimal or exponent form, or an infinity or NaN, not
# inside an identifier such as D_inf or H_0.5
NUMBER = re.compile(r"((?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|inf(?:inity)?\b|nan\b))", re.IGNORECASE)


def _close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (a != a and b != b)
    return abs(a - b) <= NUMBER_RTOL * max(1.0, abs(a), abs(b))


def same_up_to_rounding(got: str, want: str) -> bool:
    """got equals want in every character outside the numbers, and each
    number of got is within NUMBER_RTOL of want's."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    # split with one group alternates text (even) and numbers (odd)
    return all(g == w if i % 2 == 0 else _close(float(g), float(w))
               for i, (g, w) in enumerate(zip(got_parts, want_parts)))


def _mismatch(got: dict, want: dict, exact: bool) -> str | None:
    """The first field where got differs from want, or None."""
    for key in ("argv", "exit"):
        if got[key] != want[key]:
            return f"{key}: {got[key]!r} != {want[key]!r}"
    for key in ("stdout", "stderr", "warnings"):
        if exact:
            if got[key] != want[key]:
                return f"{key}: {got[key]!r} != {want[key]!r}"
        elif not same_up_to_rounding("\n".join(got[key]), "\n".join(want[key])):
            return f"{key} beyond rounding: {got[key]!r} != {want[key]!r}"
    return None


def test_transcript_matches_golden():
    golden = json.loads(golden_cli.TRANSCRIPT.read_text(encoding="utf-8"))
    exact = golden_cli.fingerprint() == json.loads(golden_cli.FINGERPRINT.read_text())
    got = golden_cli.transcript()
    assert len(got) == len(golden)
    diffs = [(" ".join(want["argv"]), why) for have, want in zip(got, golden)
             if (why := _mismatch(have, want, exact)) is not None]
    assert diffs == [], f"{len(diffs)} runs moved (exact={exact}); first: {diffs[:3]}"


@pytest.mark.parametrize("got, want, same", [
    ("qpe: holds (slack 1.000e-16)", "qpe: holds (slack -2.000e-16)", True),
    ("+0.500000 -0.000000", "+0.499999 +0.000000", True),
    ("D_inf(lhs || rhs) = inf", "D_inf(lhs || rhs) = inf", True),
    ('"slack": -Infinity', '"slack": -Infinity', True),
    ("qpe: marginal (slack -1.000e-09)", "qpe: holds (slack -1.000e-09)", False),
    ("H_0.5 = 0.7", "H_0.25 = 0.7", False),
    ("value 0.5001", "value 0.5", False),
    ('"slack": -Infinity', '"slack": -1e308', False),
    ("slack 1.0", "slack 1.0 ", False),
])
def test_rounding_comparison(got, want, same):
    assert same_up_to_rounding(got, want) is same


def test_regeneration_reports_what_moved():
    old = [{"argv": [name], "exit": 0, "stdout": ["a", "b"], "stderr": [], "warnings": []}
           for name in ("same", "exit", "out", "err", "gone")]
    new = [dict(old[0]), dict(old[1], exit=3), dict(old[2], stdout=["a", "c", "d"]),
           dict(old[3], stderr=["boom"]), dict(old[0], argv=["added"])]
    assert golden_cli.moves(old, new) == [
        "exit\n    exit 0 -> 3",
        "out\n    stdout line 2: 'b' -> 'c'",
        "err\n    stderr line 1: (none) -> 'boom'",
        "added\n    new run",
        "gone\n    run dropped",
    ]
