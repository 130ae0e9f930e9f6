"""The three benchmark workloads: inputs from a seed, set-up, rounds and checks.

A workload's `round_lines()` is a fixed list of input lines, the same for
every seed: it is drawn from `LINES_SEED`.  The run's seed picks only the
input state (and `repl_echo`'s measurement seed), so runs with different
seeds do the same work.  Every run repeats whole rounds of the list.
`run_round(session)` executes one round, timing each operation and checking
its result against `models` outside the timed section, and returns one
`(latency_s, status)` pair per operation.  Status is OK, ERROR (qclite
reported an error) or WRONG (the output check failed).
"""

from __future__ import annotations

import io
import math
from time import perf_counter

import numpy as np

import qclite.cli
from qclite import corpus_source
from qclite.errors import QclError
from qclite.session import Session, SessionConfig

import models

OK, ERROR, WRONG = "ok", "error", "wrong"
LINES_SEED = 2002       # draws the operation lists of routines_narrow and repl_echo


def _session(seed: int = 0, echo: bool = False) -> Session:
    return Session(SessionConfig(total_qubits=32, seed=seed, echo=echo), out=io.StringIO())


def _random_state(rng: np.random.Generator, size: int) -> np.ndarray:
    """Normal real and imaginary parts, normalized; drawn in place, no temporaries."""
    state = np.empty(size, dtype=complex)
    rng.standard_normal(out=state.view(np.float64))
    state /= np.linalg.norm(state)
    return state


def _timed_line(session: Session, line: str) -> tuple[float, bool]:
    """Run one line through `Session.run_line`; returns (seconds, raised)."""
    start = perf_counter()
    try:
        session.run_line(line)
    except QclError:
        return perf_counter() - start, True
    return perf_counter() - start, False


class Workload:
    name = ""
    fresh_session_per_round = False

    def round_lines(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> Session:
        raise NotImplementedError

    def run_round(self, session: Session) -> list[tuple[float, str]]:
        raise NotImplementedError


class FourierWide(Workload):
    """dft and !dft alternate on one 16-qubit register of a 32-qubit session."""

    name = "fourier_wide"
    WIDTH = 16
    LINES = ("dft(q);", "!dft(q);")

    def __init__(self, seed: int):
        self.state = _random_state(np.random.default_rng(seed), 1 << self.WIDTH)
        self.reference = models.FourierReference(1 << self.WIDTH)

    def round_lines(self) -> list[str]:
        return list(self.LINES)

    def setup(self) -> Session:
        session = _session()
        session.run_source(corpus_source("dft.qcl"))
        session.run_line(f"qureg q[{self.WIDTH}];")
        session.machine.amp[:] = self.state
        return session

    def run_round(self, session: Session) -> list[tuple[float, str]]:
        results = []
        for line in self.LINES:
            self.reference.keep(session.machine.amp)
            latency, raised = _timed_line(session, line)
            ok = self.reference.ok(session.machine.amp, line.startswith("!"))
            results.append((latency, ERROR if raised else OK if ok else WRONG))
        return results


class RoutinesNarrow(Workload):
    """A fixed shuffled sequence of corpus-routine statements on 8 qubits, echo off."""

    name = "routines_narrow"
    REPEATS = 25        # each unit appears this often in a round, in shuffled order
    SOURCES = ("inc_cond.qcl", "cinc.qcl", "parity.qcl", "scratch_parity.qcl", "demux.qcl")
    DECLS = "qureg x[4]; qureg a[1]; qureg e[1]; qureg y[1]; qureg s[1];"
    # A pair leaves the quvoid target y empty again before the next unit.
    UNITS = (
        ("inc(x);",), ("!inc(x);",), ("cinc(x, e);",), ("!cinc(x, e);",),
        ("parity(x, y);", "!parity(x, y);"),
        ("scratch_parity(x, y, s);", "!scratch_parity(x, y, s);"),
        ("demux(e & a, x);",), ("!demux(e & a, x);",),
        ("if a and e { inc(x); }",),                        # direct enable
        ("if a or e { inc(x); }",),                         # synthesized enable
        ("if a or e { inc(x); } else { !inc(x); }",),
    )

    def __init__(self, seed: int):
        deck = [unit for unit in self.UNITS for _ in range(self.REPEATS)]
        order = np.random.default_rng(LINES_SEED).permutation(len(deck))
        self.lines = [line for k in order for line in deck[k]]
        # random amplitudes over x, a and e; the quvoid y and quscratch s stay |0>
        self.state = np.zeros(1 << models.NARROW_QUBITS, dtype=complex)
        self.state[:64] = _random_state(np.random.default_rng(seed), 64)

    def round_lines(self) -> list[str]:
        return list(self.lines)

    def setup(self) -> Session:
        session = _session()
        for name in self.SOURCES:
            session.run_source(corpus_source(name))
        session.run_line(self.DECLS)
        session.machine.amp[:] = self.state
        return session

    def run_round(self, session: Session) -> list[tuple[float, str]]:
        machine = session.machine
        results = []
        for line in self.lines:
            before = machine.amp.copy()
            allocated, materialized = set(machine.allocated), machine.materialized
            latency, raised = _timed_line(session, line)
            ok = (machine.allocated == allocated and machine.materialized == materialized
                  and machine.amp.size == before.size == 1 << models.NARROW_QUBITS
                  and float(np.max(np.abs(machine.amp - models.apply_permutation(
                      before, models.narrow_permutation(line))))) <= 1e-12)
            results.append((latency, ERROR if raised else OK if ok else WRONG))
        return results


class _TimedInput:
    """stdin for `repl_loop` that notes when each line is handed out and asked for."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.asked: list[float] = []
        self.given: list[float] = []

    def readline(self) -> str:
        self.asked.append(perf_counter())
        k = len(self.given)
        line = self.lines[k] + "\n" if k < len(self.lines) else ""
        self.given.append(perf_counter())
        return line

    def latencies(self) -> list[float]:
        """Line k runs from being handed out to the loop asking for line k+1."""
        return [self.asked[k + 1] - self.given[k] for k in range(len(self.lines))]


class ReplEcho(Workload):
    """A fixed transcript piped through `cli.repl_loop` with echo on."""

    name = "repl_echo"
    fresh_session_per_round = True      # a round redefines its routines
    WIDTH = 6
    # line kind -> lines of that kind in the transcript (2000 lines)
    MIX = {"gate": 600, "phase_if": 320, "call": 240, "def": 120, "decl": 180,
           "print": 180, "hall": 80, "dump": 80, "measure": 160, "reset": 40}

    def __init__(self, seed: int):
        self.seed = seed
        self.state = _random_state(np.random.default_rng(seed), 1 << self.WIDTH)
        rng = np.random.default_rng(LINES_SEED)
        self.lines: list[str] = []
        self.plan: list[tuple] = []      # what the model does for each line
        self._routines: dict[str, list[tuple]] = {}
        self._ints: dict[str, int] = {}
        # a definition and two declarations first, so every call and print has
        # something to use; the rest of the fixed mix follows in shuffled order
        deck = [kind for kind, count in self.MIX.items() for _ in range(count)]
        for kind in ("def", "decl", "decl"):
            deck.remove(kind)
            self._add(kind, rng)
        for k in rng.permutation(len(deck)):
            self._add(deck[k], rng)

    # -- transcript generation ----------------------------------------------------

    @staticmethod
    def _angle(rng) -> float:
        return float(f"{rng.uniform(-math.pi, math.pi):.4f}")

    def _gate(self, rng, width: int, name: str) -> tuple[tuple, str]:
        """One builtin gate over register `name` of `width` qubits, and its text."""
        kind = ("H", "Rot", "CNot")[int(rng.integers(3))]
        i, j = (int(v) for v in rng.choice(width, size=2, replace=False))
        if kind == "H":
            return ("H", i), f"H({name}[{i}]);"
        if kind == "Rot":
            theta = self._angle(rng)
            return ("Rot", theta, i), f"Rot({theta}, {name}[{i}]);"
        return ("CNot", i, j), f"CNot({name}[{i}], {name}[{j}]);"

    def _phase_if(self, rng, width: int, name: str) -> tuple[tuple, str]:
        conn = ("and", "or", "xor", "not")[int(rng.integers(4))]
        i, j = (int(v) for v in rng.choice(width, size=2, replace=False))
        phi = self._angle(rng)
        if conn == "not":
            return ("Phase", phi, "not", i, None), f"if not {name}[{i}] {{ Phase({phi}); }}"
        return (("Phase", phi, conn, i, j),
                f"if {name}[{i}] {conn} {name}[{j}] {{ Phase({phi}); }}")

    def _add(self, kind: str, rng) -> None:
        k = len(self.lines)
        if kind == "gate":
            op, text = self._gate(rng, self.WIDTH, "q")
            self._emit(text, ("gates", [op]))
        elif kind == "phase_if":
            op, text = self._phase_if(rng, self.WIDTH, "q")
            self._emit(text, ("gates", [op]))
        elif kind == "hall":
            self._emit("H(q);", ("gates", [("H", i) for i in range(self.WIDTH)]))
        elif kind == "def":
            body, texts = [], []
            for _ in range(int(rng.integers(1, 4))):
                op, text = (self._gate if rng.random() < 0.7 else self._phase_if)(rng, 3, "p")
                body.append(op)
                texts.append(text)
            name = f"r{k}"
            self._routines[name] = body
            self._emit(f"operator {name}(qureg p) {{ {' '.join(texts)} }}", ("none",))
        elif kind == "call":
            names = sorted(self._routines)
            name = names[int(rng.integers(len(names)))]
            offset = int(rng.integers(self.WIDTH - 2))
            invert = bool(rng.random() < 0.5)
            text = f"{'!' if invert else ''}{name}(q[{offset}:{offset + 2}]);"
            self._emit(text, ("call", name, invert, offset))
        elif kind == "decl":
            value = int(rng.integers(-50, 50))
            name = f"c{k}"
            self._ints[name] = value
            self._emit(f"int {name} = {value};", ("none",))
        elif kind == "print":
            names = sorted(self._ints)
            a, b = (names[int(v)] for v in rng.choice(len(names), size=2, replace=False))
            self._emit(f"print {a} * 3 + {b};",
                       ("print", self._ints[a] * 3 + self._ints[b]))
        elif kind == "dump":
            self._emit("dump;", ("dump",))
        elif kind == "measure":
            i = int(rng.integers(self.WIDTH))
            self._emit(f"measure q[{i}], m; print m;", ("measure", i))
        elif kind == "reset":
            self._emit("reset; H(q);", ("reset",))

    def _emit(self, text: str, plan: tuple) -> None:
        self.lines.append(text)
        self.plan.append(plan)

    # -- running ---------------------------------------------------------------------

    def round_lines(self) -> list[str]:
        return list(self.lines)

    def setup(self) -> Session:
        session = _session(seed=self.seed, echo=True)
        session.run_line(f"qureg q[{self.WIDTH}]; int m;")
        session.machine.amp[:] = self.state
        return session

    def run_round(self, session: Session) -> list[tuple[float, str]]:
        feed = _TimedInput(self.lines)
        qclite.cli.repl_loop(session, stdin=feed)
        statuses = self.check_transcript(session.out.getvalue())
        return list(zip(feed.latencies(), statuses))

    # -- checking --------------------------------------------------------------------

    def check_transcript(self, text: str) -> list[str]:
        """Status of every line, replayed on an independent NumPy model."""
        blocks = text.split("qcl> ")[1:]
        model = models.StateModel(self.state)
        qubits = list(range(self.WIDTH))
        statuses = []
        for k, plan in enumerate(self.plan):
            block = blocks[k].split("\n") if k < len(blocks) else []
            if not block or block[0] != self.lines[k]:
                statuses.append(WRONG)
                continue
            out = block[1:-1]
            if any(line.startswith("! ") for line in out):
                statuses.append(ERROR)
                continue
            statuses.append(OK if self._check_line(plan, out, model, qubits) else WRONG)
        return statuses

    def _echo_ok(self, line: str, model: models.StateModel) -> bool:
        prefix = f"[{self.WIDTH}/32] "
        return (line.startswith(prefix)
                and models.terms_match(models.parse_terms(line[len(prefix):]), model.amp))

    def _check_line(self, plan: tuple, out: list[str], model, qubits) -> bool:
        kind = plan[0]
        if kind == "none":
            return not out
        if kind == "print":
            return out == [str(plan[1])]
        if kind == "dump":
            free = 32 - self.WIDTH
            header = f": STATE: {self.WIDTH} / 32 qubits allocated, {free} / 32 qubits free"
            return (len(out) == 2 and out[0] == header
                    and models.terms_match(models.parse_terms(out[1]), model.amp))
        if kind == "measure":
            if len(out) != 2 or out[1] not in ("0", "1"):
                return False
            if model.measure(plan[1], int(out[1])) <= 1e-12:
                return False
            return self._echo_ok(out[0], model)
        if kind == "reset":
            if len(out) != 2:
                return False
            model.reset()
            first = self._echo_ok(out[0], model)
            for i in qubits:
                model.gate(("H", i), qubits)
            return first and self._echo_ok(out[1], model)
        if kind == "gates":
            for op in plan[1]:
                model.gate(op, qubits)
        elif kind == "call":
            _, name, invert, offset = plan
            body = self._routines[name]
            window = qubits[offset:offset + 3]
            for op in (reversed(body) if invert else body):
                model.gate(op, window, adjoint=invert)
        return len(out) == 1 and self._echo_ok(out[0], model)


WORKLOADS = {w.name: w for w in (FourierWide, RoutinesNarrow, ReplEcho)}
