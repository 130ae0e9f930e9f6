"""Replay of recorded tapes for pure calls: a warm cache changes nothing, and its limits hold."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclite import MachineState, QclRuntimeError, interp, parse_source, run_program
from qclite.interp import Interpreter, ProgramState
from conftest import make_session

CORPUS = ("inc_cond.qcl", "cinc.qcl", "parity.qcl", "dft.qcl")


def corpus_session(corpus, width: int, qubits: int = 12):
    s = make_session(qubits=qubits)
    for name in CORPUS:
        s.run_source(corpus[name])
    s.run_line(f"qureg x[{width}]; qureg a[1]; qureg e[1]; qureg y[1]; qureg s[1];")
    return s


@pytest.fixture
def bodies(monkeypatch):
    """Names of the routines whose bodies the interpreter walks, in call order."""
    calls = []
    original = Interpreter.run_body

    def run_body(self, decl, ctx):
        calls.append(decl.name)
        return original(self, decl, ctx)

    monkeypatch.setattr(Interpreter, "run_body", run_body)
    return calls


# -- a warm cache changes nothing --------------------------------------------------

PLAIN = ("inc(x);", "!inc(x);", "inc(x[0:1]);", "cinc(x, e);", "!cinc(x, e);",
         "parity(x, y); !parity(x, y);", "dft(x);", "!dft(x);", "dft(x[0:1]);")
CONDITIONED = ("inc(x);", "!inc(x);", "inc(x[0:1]);")    # inc is the cond routine
GUARDS = ("if a and e {{ {} }}",      # direct enable: a two-qubit control
          "if a or e {{ {} }}",       # synthesized enable qubit
          "if e {{ {} }}",
          "if a or e {{ if a {{ {} }} }}",    # same guard set as the line above, more enable
          "if a or e {{ {} }} else {{ !inc(x); }}")

statements = st.one_of(
    st.sampled_from(PLAIN),
    st.builds(str.format, st.sampled_from(GUARDS), st.sampled_from(CONDITIONED)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10_000), st.lists(statements, min_size=1, max_size=8))
def test_warm_cache_matches_cold_session(corpus, width, seed, lines):
    warm = corpus_session(corpus, width)
    machine = warm.machine
    # random amplitudes over x, a and e; y and s stay |0>
    rng = np.random.default_rng(seed)
    live = 1 << (width + 2)
    machine.amp[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    machine.amp /= np.linalg.norm(machine.amp)
    for line in lines:
        cold = corpus_session(corpus, width)
        cold.machine.amp[:] = machine.amp
        warm.run_line(line)
        cold.run_line(line)
        assert machine.amp.tobytes() == cold.machine.amp.tobytes(), line
        assert machine.allocated == cold.machine.allocated
        assert machine.materialized == cold.machine.materialized
    assert warm.prog.tapes


WIDE_LINES = ("dft(x);", "!dft(x);", "dft(x[0:5]);", "cinc(x, e);",
              *(GUARDS[k].format("inc(x);") for k in range(3)))


def test_warm_cache_matches_cold_session_on_a_wide_state(corpus):
    # 2^16 amplitudes: the machine holds runs of PHASE and X gates and fuses
    # them, on the replayed tapes and on the walked bodies alike
    warm = corpus_session(corpus, 12, qubits=20)
    machine = warm.machine
    rng = np.random.default_rng(7)
    live = 1 << 14
    machine.amp[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    machine.amp /= np.linalg.norm(machine.amp)
    for line in WIDE_LINES * 2:
        cold = corpus_session(corpus, 12, qubits=20)
        cold.machine.amp[:] = machine.amp
        warm.run_line(line)
        cold.run_line(line)
        assert machine.amp.tobytes() == cold.machine.amp.tobytes(), line
        assert machine.allocated == cold.machine.allocated
        assert machine.materialized == cold.machine.materialized == 16
    assert len(warm.prog.tapes) >= 5


# -- what is stored, and under which key ----------------------------------------------

def test_pure_call_walks_its_body_once(corpus, bodies):
    s = corpus_session(corpus, 3)
    for _ in range(3):
        s.run_line("dft(x);")
    assert bodies == ["dft"]
    assert len(s.prog.tapes) == 1


@pytest.mark.parametrize("line,stored", [("parity(x, y);", 1),
                                         ("wrap(x, y);", 1),     # parity's tape, not wrap's
                                         ("copy(x, y);", 0)])
def test_quvoid_entry_check_is_never_skipped(corpus, line, stored):
    s = corpus_session(corpus, 1)
    s.run_source("qufunct wrap(quconst x, qureg y) { parity(x, y); }\n"
                 "qufunct copy(quconst x, qureg y) { fanout(x, y); }")
    s.run_line("Not(x);")
    s.run_line(line)
    assert len(s.prog.tapes) == stored
    with pytest.raises(QclRuntimeError, match="quvoid argument (.y. )?of '(parity|fanout)' is not empty"):
        s.run_line(line)


@pytest.mark.parametrize("defs,decls,line,routine", [
    ("qufunct g(qureg x) { qureg t[1]; CNot(t, x); CNot(t, x); }",
     "qureg x[2];", "g(x);", "g"),
    ("qufunct h(qureg x, qureg y) { if x[0] or x[1] { Not(y); } }",
     "qureg x[2]; qureg y[1];", "h(x, y);", "h"),
    ("demux.qcl", "qureg s[2]; qureg x[4];", "demux(s, x);", "demux"),
    ("scratch_parity.qcl", "qureg x[2]; qureg y[1]; qureg s[1];",
     "scratch_parity(x, y, s); !scratch_parity(x, y, s);", "scratch_parity"),
], ids=["local-qureg", "synthesized-enable", "fork", "quscratch"])
def test_calls_that_allocate_or_fork_are_interpreted_every_time(corpus, bodies, defs,
                                                                decls, line, routine):
    s = make_session(qubits=12)
    s.run_source(corpus.get(defs, defs))
    s.run_line(decls)
    s.run_line("H(x[0]);")
    s.run_line(line)
    once = bodies.count(routine)
    s.run_line(line)
    assert once > 0 and bodies.count(routine) == 2 * once
    assert not s.prog.tapes


def test_enable_and_inversion_get_their_own_entries(corpus, bodies):
    s = corpus_session(corpus, 2)
    lines = ["inc(x);", "if a { inc(x); }", "if e { inc(x); }", "if a and e { inc(x); }",
             "if a or e { inc(x); }", "if a or e { if a { inc(x); } }",
             "!inc(x);", "if a { !inc(x); }"]
    for k, line in enumerate(lines):
        s.run_line(line)
        assert len(s.prog.tapes) == k + 1
    for line in lines:
        s.run_line(line)
    assert bodies == ["inc"] * len(lines)


def test_signed_zero_angles_get_their_own_entries():
    s = make_session(qubits=4)
    s.run_source("operator r(qureg x, real t) { Rot(t, x); }")
    s.run_line("qureg q[1]; r(q, 0.0); r(q, -0.0);")
    signs = sorted(math.copysign(1.0, tape[0].param) for tape in s.prog.tapes.values())
    assert signs == [-1.0, 1.0]


def test_call_that_raised_is_not_stored(bodies):
    s = make_session(qubits=4)
    s.run_source("operator bad(qureg x, int k) { int d; H(x); d = 1 / k; }")
    s.run_line("qureg q[1];")
    for _ in range(2):
        with pytest.raises(QclRuntimeError, match="division by zero"):
            s.run_line("bad(q, 0);")
    assert not s.prog.tapes
    assert bodies == ["bad", "bad"]
    s.run_line("bad(q, 1);")
    assert len(s.prog.tapes) == 1


def test_sweep_of_distinct_angles_stays_within_the_entry_cap(bodies):
    s = make_session(qubits=4)
    s.run_source("operator r(qureg x, real t) { Rot(t, x); }\n"
                 "procedure sweep(qureg q) { int i; for i = 1 to 10000 { r(q, i * 0.0001); } }")
    s.run_line("qureg q[1]; sweep(q);")
    assert len(s.prog.tapes) == interp.TAPE_CACHE_ENTRIES
    assert s.prog.tape_gates == interp.TAPE_CACHE_ENTRIES <= interp.TAPE_CACHE_GATES
    del bodies[:]
    s.run_line("r(q, 0.0001); r(q, 0.9999);")     # the first angle was stored, the last not
    assert bodies == ["r"]
    assert len(s.prog.tapes) == interp.TAPE_CACHE_ENTRIES


def test_gate_cap_stops_storing(corpus, bodies, monkeypatch):
    monkeypatch.setattr(interp, "TAPE_CACHE_GATES", 3)
    s = corpus_session(corpus, 2)
    s.run_line("inc(x); !inc(x); inc(x); !inc(x);")     # two gates each
    assert s.prog.tape_gates == 2 and len(s.prog.tapes) == 1
    assert bodies == ["inc", "inc", "inc"]


# -- purity by scoping, and rebinding ---------------------------------------------------

def run_unchecked(source: str, qubits: int = 4):
    out = io.StringIO()
    prog = ProgramState(MachineState(qubits, seed=0), out=out)
    run_program(parse_source(source), prog)
    return prog, out.getvalue()


@pytest.mark.parametrize("body", ["Rot(g, x);", "Not(q);"])
def test_operator_cannot_name_a_global_variable(body):
    with pytest.raises(QclRuntimeError, match="unknown name"):
        run_unchecked(f"real g = 1.0; qureg q[1]; operator f(qureg x) {{ {body} }} f(q);")


def test_function_cannot_name_a_global_variable():
    with pytest.raises(QclRuntimeError, match="unknown name 'g'"):
        run_unchecked("int g = 1; int f(int k) { return k + g; } print f(2);")


def test_procedures_still_read_and_write_globals():
    _, out = run_unchecked("int g = 1; procedure p() { g = g + 1; } p(); p(); print g;")
    assert out == "3\n"


def test_operators_see_global_constants():
    prog, _ = run_unchecked("const c = pi; qureg q[1]; operator f(qureg x) { Rot(c, x); } f(q);")
    assert abs(prog.machine.amp[1]) == pytest.approx(1.0)


def test_redefining_a_routine_clears_the_tapes():
    prog, _ = run_unchecked("qureg q[1]; operator g(qureg x) { Not(x); } "
                            "operator f(qureg x) { g(x); } f(q); "
                            "operator g(qureg x) { H(x); } f(q);")
    assert prog.machine.amp == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)])


def test_redefining_a_constant_clears_the_tapes():
    prog, _ = run_unchecked("const c = 1.0; qureg q[1]; operator f(qureg x) { Rot(c, x); } "
                            "f(q); const c = 2.0; f(q);")
    assert prog.machine.amp == pytest.approx([math.cos(1.5), -math.sin(1.5)])
