"""Layer spans for qclite, recorded from outside the package.

A `Tracer` replaces public entry points with timing wrappers at the module or
class attribute their callers look up (``qclite.machine.apply_gate``,
``Checker.check_items``, ...), and puts the originals back on `uninstall`.
Every wrapper opens a span; a span's self time is its duration minus the
durations of the spans opened inside it, and each layer's self time is the sum
over its entry points.  Spans are aggregated per entry point as they close
(calls, total seconds, self seconds), so memory stays flat however long the
run is.  Counts (gates by kind and control count, allocations, enables, fork
paths, characters parsed, ...) are taken in the same wrappers.
"""

from __future__ import annotations

import resource
from collections import Counter
from time import perf_counter

import qclite.cli
import qclite.machine
import qclite.qcond
import qclite.session
from qclite.checks import Checker
from qclite.interp import ExecContext, Interpreter
from qclite.machine import MachineState
from qclite.qcond import SynthPlan
from qclite.session import Session


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # entry point -> [calls, total_s, self_s]
        self.counts: Counter = Counter()    # exact per-run counts
        self.minflt = 0                     # minor faults inside apply_gate
        self.peak_qubits = 0                # highest `materialized` seen
        self._open: list[float] = []       # child seconds of each open span
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        """Wrap `fn` in a span called `name`; `after(args, result)` takes counts."""
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                record[0] += 1
                record[1] += took
                record[2] += took - children
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        self._patch_with(owner, attr, lambda original: self._span(name, original, after))

    def _patch_with(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def count(key, by=lambda args, result: 1):
            def after(args, result):
                counts[key] += by(args, result)
            return after

        # syntax: the session looks the parsers up in its own module namespace
        chars = count("syntax.chars", lambda args, result: len(args[0]))
        self._patch(qclite.session, "parse_interactive", "syntax.parse_interactive", chars)
        self._patch(qclite.session, "parse_source", "syntax.parse_source", chars)
        # checks
        self._patch(Checker, "check_items", "checks.check_items",
                    count("checks.items", lambda args, result: len(args[1])))
        # interp: one span per top-level item and per subroutine call
        self._patch(Interpreter, "exec_item", "interp.exec_item")
        self._patch(Interpreter, "call_subroutine", "interp.call_subroutine",
                    count("interp.calls"))
        self._patch(ExecContext, "note_fork", "qcond.note_fork", count("qcond.fork_paths"))
        # qcond: interp calls these through the module; qcond calls its own globals
        self._patch(qclite.qcond, "to_xdnf", "qcond.to_xdnf")
        self._patch(qclite.qcond, "synthesize_enable", "qcond.synthesize_enable",
                    count("qcond.enables",
                          lambda args, result: isinstance(result, SynthPlan)))
        self._patch_with(qclite.qcond, "exec_quantum_if", self._quantum_if)
        self._patch_with(qclite.qcond, "exec_forking_if", self._forking_if)
        # machine
        self._patch_with(qclite.machine, "apply_gate", self._apply_gate)
        self._patch(MachineState, "allocate_register", "machine.allocate_register",
                    self._after_allocate)
        self._patch(MachineState, "free_register", "machine.free_register",
                    count("machine.allocs"))
        self._patch(MachineState, "is_empty_register", "machine.is_empty_register")
        self._patch(MachineState, "measure_register", "machine.measure_register")
        self._patch(MachineState, "format_dump", "machine.format_dump")
        # session and cli
        self._patch(Session, "run_line", "session.run_line")
        self._patch(Session, "echo_state", "session.echo_state",
                    count("session.echo_terms", lambda args, result: result.count("|")))
        self._patch(qclite.cli, "repl_loop", "cli.repl_loop")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers that need more than a count ------------------------------------

    def _after_allocate(self, args, result) -> None:
        self.counts["machine.allocs"] += 1
        self.peak_qubits = max(self.peak_qubits, args[0].materialized)

    def _apply_gate(self, original):
        counts = self.counts

        def kernel(amp, g):
            before = _minflt()
            original(amp, g)
            self.minflt += _minflt() - before

        traced = self._span("machine.apply_gate", kernel)
        control_keys = ("machine.gates.c0", "machine.gates.c1", "machine.gates.c2")

        def apply_gate(amp, g):
            traced(amp, g)
            counts["machine.gates"] += 1
            counts["machine.gates." + g.kind] += 1
            n = len(g.controls)
            counts[control_keys[n] if n < 3 else "machine.gates.c3plus"] += 1

        return apply_gate

    def _quantum_if(self, original):
        """The branch callbacks run interpreter code, so they get interp spans."""
        branch = lambda run: self._span("interp.branch", run) if run is not None else None

        def exec_quantum_if(ctx, cond, run_then, run_else=None):
            return original(ctx, cond, branch(run_then), branch(run_else))

        return self._span("qcond.exec_quantum_if", exec_quantum_if)

    def _forking_if(self, original):
        def exec_forking_if(ctx, path, cond, then_block, else_block, run_block, join):
            return original(ctx, path, cond, then_block, else_block,
                            self._span("interp.branch", run_block), join)

        return self._span("qcond.exec_forking_if", exec_forking_if)

    # -- results -----------------------------------------------------------------

    def self_seconds(self, prefix: str) -> float:
        """Summed self time of the entry points whose name starts with `prefix`."""
        return sum(rec[2] for name, rec in self.spans.items() if name.startswith(prefix))

    def table(self) -> dict:
        return {name: {"calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
                for name, rec in sorted(self.spans.items())}
