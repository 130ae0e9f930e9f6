"""Tests of the benchmark itself: its checks catch wrong results, its counts repeat.

Run with `python3 -m pytest perfbench`.  Faults are injected by swapping a
qclite entry point for a broken one for the length of one round.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_qclite()

import numpy as np  # noqa: E402

import qclite.machine  # noqa: E402
import qclite.session  # noqa: E402
from qclite.machine import MachineState, PrimitiveGate  # noqa: E402

import models  # noqa: E402
import workloads  # noqa: E402
from workloads import ERROR, OK, WRONG  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def statuses(workload, session=None):
    session = session if session is not None else workload.setup()
    return [status for _, status in workload.run_round(session)]


def broken_gate(match):
    """An apply_gate that turns every gate `match` accepts into its adjoint twin."""
    original = qclite.machine.apply_gate

    def apply_gate(amp, g):
        if match(g):
            g = PrimitiveGate(g.kind, -(g.param or 0.0) + 0.1, g.target, g.controls)
        original(amp, g)

    return apply_gate


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](seed=7)
    assert set(statuses(workload)) == {OK}


@pytest.mark.parametrize("size", [2, 8, 1 << 10])
def test_fourier_reference_equals_numpy_fft(size):
    state = np.array([1.0, 1j]) @ np.random.default_rng(5).standard_normal((2, size))
    reference = models.FourierReference(size)
    reference.keep(state)
    root = math.sqrt(size)
    assert np.allclose(reference.expect(inverse=True), np.fft.fft(state) / root, atol=1e-12)
    assert np.allclose(reference.expect(inverse=False), np.fft.ifft(state) * root, atol=1e-12)


def test_seeds_change_the_input_state_only():
    for name, workload in workloads.WORKLOADS.items():
        first, second = workload(seed=1), workload(seed=2)
        assert first.round_lines() == second.round_lines(), name
        assert not np.array_equal(first.state, second.state), name


def test_fourier_check_rejects_a_wrong_phase(monkeypatch):
    monkeypatch.setattr(qclite.machine, "apply_gate", broken_gate(lambda g: g.kind == "PHASE"))
    assert set(statuses(workloads.FourierWide(seed=7))) == {WRONG}


def test_routines_check_rejects_a_wrong_permutation(monkeypatch):
    original = qclite.machine.apply_gate

    def skip_doubly_controlled(amp, g):
        if len(g.controls) != 2:
            original(amp, g)

    monkeypatch.setattr(qclite.machine, "apply_gate", skip_doubly_controlled)
    assert WRONG in statuses(workloads.RoutinesNarrow(seed=7))


def test_routines_check_rejects_a_leaked_qubit(monkeypatch):
    workload = workloads.RoutinesNarrow(seed=7)
    workload.lines = ["inc(x);", "if a or e { inc(x); }", "inc(x);"]
    session = workload.setup()
    monkeypatch.setattr(MachineState, "free_register", lambda self, reg: None)
    # the synthesized enable of the `or` stays allocated, and so does the
    # widened state in the statement after it
    assert statuses(workload, session) == [OK, WRONG, WRONG]


def test_repl_check_rejects_a_wrong_rotation(monkeypatch):
    monkeypatch.setattr(qclite.machine, "apply_gate", broken_gate(lambda g: g.kind == "ROT"))
    assert WRONG in statuses(workloads.ReplEcho(seed=7))


def test_repl_check_rejects_a_misprinted_amplitude(monkeypatch):
    original = qclite.session.format_amplitude
    monkeypatch.setattr(qclite.session, "format_amplitude",
                        lambda c: original(c * (1 + 1e-4)))
    results = statuses(workloads.ReplEcho(seed=7))
    assert WRONG in results


def test_repl_error_lines_count_as_errors():
    workload = workloads.ReplEcho(seed=7)
    workload.lines[5] = "H(nosuch);"
    results = statuses(workload)
    assert results[5] == ERROR


def bench(tmp_root: Path | None, workload: str, trace: int, seconds: float = 0.05,
          seed: int = 3):
    script = (tmp_root / "perfbench" / "run.py") if tmp_root else HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=tmp_root or HERE.parent)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    counted = lambda result: {k: v["value"] for k, v in result["metrics"].items()
                              if v["unit"] in ("count/round", "qubits")}
    first, second, other_seed = (json.loads(bench(None, name, 1, seed=seed).stdout
                                            .splitlines()[-1]) for seed in (3, 3, 4))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["correct"] and first["failed"] == 0
    assert counted(first) == counted(second)
    # the seed changes only the input state; in repl_echo it also changes the
    # measurement outcomes, and with them which amplitudes cancel exactly
    seed_free = lambda counts: {k: v for k, v in counts.items() if k != "session.echo_terms"}
    assert seed_free(counted(first)) == seed_free(counted(other_seed))
    assert counted(first)["machine.gates"] > 0


def test_untraced_run_prints_the_end_to_end_metrics():
    result = json.loads(bench(None, "routines_narrow", 0).stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "routines_narrow", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
