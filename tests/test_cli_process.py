"""The qpe command as a process: ``python -m qpe.cli`` runs cli.main, which
flushes the output and ends the process with os._exit, so no test may call
it in-process.

A slice of the golden transcript is replayed through real processes, with
stdout sent to a file and to a pipe; each must print what its in-process
record printed and exit with its code. An output that cannot be written (a
closed pipe, /dev/full), buffered or not, exits 4 as an internal error, and
so does a refusal whose message cannot be written to stderr.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import golden_cli
import qpe
from test_golden_cli import _mismatch

SRC = str(Path(qpe.__file__).resolve().parents[1])
# exit codes 0 to 3 in both formats, with and without a stderr line
REPLAYED = [
    ["bayes", "update", "--rule", "fls", "state_diag_64.json", "effect_meas_1_half.json",
     "--format", "json"],
    ["channel", "order", "channel_dep_half_choi.json", "channel_phase_kraus.json",
     "--format", "text"],
    ["bayes", "effect", "state_diag_532.json", "state_diag_613.json", "--format", "json"],
    ["channel", "order", "state_bottom3.json", "channel_dep_half_choi.json", "--format", "text"],
    ["domain", "waybelow", "state_diag_532.json", "state_diag_532.json", "--format", "json"],
    ["order", "check", "--relation", "classical", "probvec_532.json", "probvec_marginal.json",
     "--format", "text"],
]
# a document of about 320 KB: more than a pipe holds and than stdout buffers
LARGE = ["random", "state", "--dim", "64", "--format", "json"]


def _each(job, cases) -> list:
    """job(*case) for every case, two processes at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda case: job(*case), cases))


def _qpe(argv, stdout, unbuffered=False, stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "qpe.cli", *argv], cwd=golden_cli.FIXTURES,
                          stdout=stdout, stderr=stderr, env=env, text=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    records = json.loads(golden_cli.TRANSCRIPT.read_text(encoding="utf-8"))
    return {tuple(record["argv"]): record for record in records}


@pytest.fixture(scope="module")
def exact() -> bool:
    return golden_cli.fingerprint() == json.loads(golden_cli.FINGERPRINT.read_text())


def test_the_replayed_slice_covers_every_code_and_format(golden):
    wanted = [golden[tuple(argv)] for argv in REPLAYED]
    assert {record["exit"] for record in wanted} == {0, 1, 2, 3}
    assert {record["argv"][-1] for record in wanted} == {"text", "json"}
    assert not any(record["warnings"] for record in wanted)


def test_a_process_prints_and_exits_as_its_record(golden, exact, tmp_path):
    wanted = [(golden[tuple(argv)], exact) for argv in REPLAYED]
    wanted.append((golden_cli.record(LARGE), True))

    def replay(i, want, exact, target):
        if target == "pipe":
            done = _qpe(want["argv"], subprocess.PIPE)
            out = done.stdout
        else:
            path = tmp_path / f"out{i}"
            with open(path, "w") as sink:
                done = _qpe(want["argv"], sink)
            out = path.read_text()
        got = {"argv": want["argv"], "exit": done.returncode, "stdout": out.splitlines(),
               "stderr": done.stderr.splitlines(), "warnings": []}
        why = _mismatch(got, want, exact)
        return None if why is None else (" ".join(want["argv"]), target, why)

    cases = [(i, want, exact, target) for i, (want, exact) in enumerate(wanted)
             for target in ("file", "pipe")]
    moved = [why for why in _each(replay, cases) if why is not None]
    assert moved == []


def test_an_output_that_cannot_be_written_exits_four():
    # a small output fails at main's flush when buffered and at run's print
    # when not; the large one fails at run's print either way
    small = ["random", "state", "--dim", "2"]
    errors = {"closed pipe": "internal error: BrokenPipeError: [Errno 32] ",
              "/dev/full": "internal error: OSError: [Errno 28] "}
    cases = [(argv, target, unbuffered) for target in errors
             for argv, unbuffered in ((small, False), (small, True), (LARGE, False))
             if target != "/dev/full" or os.path.exists("/dev/full")]

    def broken(argv, target, unbuffered):
        if target == "/dev/full":
            sink = os.open("/dev/full", os.O_WRONLY)
        else:
            reader, sink = os.pipe()
            os.close(reader)
        try:
            done = _qpe(argv, sink, unbuffered)
        finally:
            os.close(sink)
        n = len(errors[target])
        return done.returncode, [line[:n] for line in done.stderr.splitlines()]

    assert _each(broken, cases) == [(4, [errors[target]]) for _, target, _ in cases]


def test_a_refusal_whose_message_cannot_be_written_exits_four():
    # a missing document exits 2 only once its message is on stderr
    def refused(unbuffered):
        reader, sink = os.pipe()
        os.close(reader)
        try:
            return _qpe(["order", "check", "state_diag_64.json", "missing.json"],
                        subprocess.DEVNULL, unbuffered, stderr=sink).returncode
        finally:
            os.close(sink)

    assert _each(refused, [(False,), (True,)]) == [4, 4]
