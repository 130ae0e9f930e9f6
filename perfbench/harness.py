"""Measured and traced runs of one workload, for `run.py`.

`measure` gives the end-to-end metrics of an untraced run, `trace` the
per-layer metrics of a traced one.  Both repeat whole rounds of the
workload's fixed operation list for the requested number of seconds.
"""

from __future__ import annotations

import gc
import json
import resource
from array import array
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from qclite.interp import ExecContext, Recorder
from qclite.stdgates import LEVEL_PROCEDURE
from qclite.syntax import Dump, Measure, Reset, parse_interactive

from tracer import Tracer
from workloads import OK, WORKLOADS, WRONG

OUT = Path(__file__).resolve().parent / "out"
RECORD_ONLY_SECONDS = 1.0
MIN_SETUPS = 21             # setup_s is the median of at least this many set-ups
MACHINE_ONLY = (Measure, Reset, Dump)   # statements left out of the record-only pass
MIN_TAIL_OPS = 100          # op_p90_ms needs ten samples beyond it


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float) -> dict:
    """Untraced run: whole rounds for `seconds`, and the set-ups timed around them.

    A workload that starts each round from a fresh session times that
    set-up before every round.  One that keeps its session is set up once
    before the rounds and again after the last one, up to `MIN_SETUPS`, so
    no dropped session frees a state-sized array between rounds.  `setup_s`
    is the median of all set-ups.  As in `timeit`, no garbage collection runs
    inside a timed set-up: the garbage of earlier sessions is collected just
    before it, so a collection does not land on some set-ups and not on
    others.  A run that holds fewer than `MIN_TAIL_OPS` operations after
    `seconds` goes on until it holds that many.
    """
    setups = []

    def set_up():
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            fresh = workload.setup()
            setups.append(perf_counter() - start)
        finally:
            gc.enable()
        return fresh

    session = set_up()
    # 8 bytes an operation, so peak_rss_mb hardly depends on how many fit in the run
    latencies = array("d")
    statuses = Counter()
    start = perf_counter()
    while True:
        for latency, status in workload.run_round(session):
            latencies.append(latency)
            statuses[status] += 1
        if perf_counter() - start >= seconds and len(latencies) >= MIN_TAIL_OPS:
            break
        if workload.fresh_session_per_round:
            del session         # so that set_up collects it
            session = set_up()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del session
    while len(setups) < MIN_SETUPS:
        set_up()
    failed = len(latencies) - statuses[OK]
    metrics = {
        "setup_s": _metric(median(setups), "s"),
        "ops_per_s": _metric(statuses[OK] / sum(latencies), "1/s"),
        "op_p50_ms": _metric(float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "op_p90_ms": _metric(float(np.percentile(latencies, 90)) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }
    return {"correct": statuses[WRONG] == 0, "attempted": len(latencies),
            "failed": failed, "metrics": metrics}


def record_only(workload, seconds: float) -> float:
    """Milliseconds per operation to interpret the round with no gate applied.

    Each line is parsed and checked untimed, then its items run in an
    `ExecContext(apply=False)`, which records the tape without touching the
    state; the enable and auxiliary qubits deferred on the recorder are freed
    afterwards, untimed.  `measure`, `reset` and `dump` statements are left
    out: they act on the machine directly, with no tape to record.  Whole
    rounds repeat for at least `seconds`.
    """
    busy, ops = 0.0, 0
    start = perf_counter()
    while ops == 0 or perf_counter() - start < seconds:
        session = workload.setup()
        prog = session.prog
        for line in workload.round_lines():
            items = parse_interactive(line)
            if session.checker.check_items(items):
                raise RuntimeError(f"record-only line does not check: {line}")
            for item in items:
                if isinstance(item, MACHINE_ONLY):
                    continue
                recorder = Recorder()
                ctx = ExecContext(prog, LEVEL_PROCEDURE, prog.global_env, recorder,
                                  apply=False)
                t0 = perf_counter()
                session.interp.exec_item(item, ctx)
                busy += perf_counter() - t0
                for temp in reversed(recorder.temps):
                    session.machine.free_register(temp)
            ops += 1
    return busy * 1e3 / ops


def trace(workload, seconds: float, seed: int) -> dict:
    """Traced run: untraced and traced rounds alternate for `seconds`.

    Counts are those of one traced round, and every traced round must repeat
    them exactly.  Times are self milliseconds per operation over all traced
    rounds.  `trace.overhead_pct` compares the traced rounds' operation time
    with the untraced rounds'.
    """
    tracer = Tracer()
    session = workload.setup()
    wall = {False: 0.0, True: 0.0}
    traced_ops, round_counts = 0, None
    statuses = []
    start = perf_counter()
    pair = 0
    while pair == 0 or perf_counter() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                before = dict(tracer.counts)
                tracer.peak_qubits = max(tracer.peak_qubits, session.machine.materialized)
                tracer.install()
            try:
                results = workload.run_round(session)
            finally:
                tracer.uninstall()
            wall[traced] += sum(latency for latency, _ in results)
            statuses.extend(status for _, status in results)
            if traced:
                traced_ops += len(results)
                counts = {key: value - before.get(key, 0)
                          for key, value in tracer.counts.items()}
                if round_counts is None:
                    round_counts = counts
                elif counts != round_counts:
                    raise RuntimeError("per-layer counts differ between traced rounds")
            if workload.fresh_session_per_round:
                session = workload.setup()
        pair += 1

    def ms(*prefixes) -> float:
        return sum(tracer.self_seconds(p) for p in prefixes) * 1e3 / traced_ops

    total_gates = tracer.counts["machine.gates"]
    per_gate = lambda value: value / total_gates if total_gates else 0.0
    count_names = ["machine.gates"] + [f"machine.gates.{k}" for k in
                                       ("X", "H", "ROT", "PHASE", "c0", "c1", "c2", "c3plus")]
    count_names += ["machine.allocs", "interp.calls", "qcond.enables", "qcond.fork_paths",
                    "syntax.chars", "checks.items", "session.echo_terms"]
    metrics = {
        "machine.gate_ms": _metric(ms("machine.apply_gate"), "ms/op"),
        "machine.us_per_gate": _metric(
            per_gate(tracer.self_seconds("machine.apply_gate") * 1e6), "us"),
        "machine.minflt_per_gate": _metric(
            per_gate(tracer.minflt), "faults/gate"),
        "machine.alloc_ms": _metric(
            ms("machine.allocate_register", "machine.free_register"), "ms/op"),
        "machine.empty_check_ms": _metric(ms("machine.is_empty_register"), "ms/op"),
        "machine.peak_qubits": _metric(tracer.peak_qubits, "qubits"),
        "machine.measure_ms": _metric(ms("machine.measure_register"), "ms/op"),
        "machine.dump_ms": _metric(ms("machine.format_dump"), "ms/op"),
        "interp.self_ms": _metric(ms("interp."), "ms/op"),
        "interp.record_only_ms_per_op": _metric(
            record_only(workload, RECORD_ONLY_SECONDS), "ms/op"),
        "qcond.self_ms": _metric(ms("qcond."), "ms/op"),
        "syntax.parse_ms": _metric(ms("syntax."), "ms/op"),
        "checks.check_ms": _metric(ms("checks."), "ms/op"),
        "session.self_ms": _metric(ms("session.run_line"), "ms/op"),
        "session.echo_ms": _metric(ms("session.echo_state"), "ms/op"),
        "cli.self_ms": _metric(ms("cli."), "ms/op"),
        "trace.op_ms": _metric(wall[True] * 1e3 / traced_ops, "ms/op"),
        "trace.overhead_pct": _metric((wall[True] / wall[False] - 1.0) * 100.0, "%"),
    }
    for name in count_names:
        metrics[name] = _metric(round_counts.get(name, 0), "count/round")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w") as handle:
        json.dump({"workload": workload.name, "seed": seed, "traced_ops": traced_ops,
                   "round_counts": round_counts, "spans": tracer.table()}, handle, indent=1)
    return {"correct": WRONG not in statuses, "attempted": len(statuses),
            "failed": sum(status != OK for status in statuses), "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:

    workload = WORKLOADS[name](seed)
    return trace(workload, seconds, seed) if traced else measure(workload, seconds)
