"""Replay of recorded tapes: a warm cache changes nothing, also when a replay fails,
and its limits hold."""

import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclite import MachineState, QclError, QclRuntimeError, interp, parse_source, run_program
from qclite.interp import Interpreter, ProgramState
from conftest import make_session, session_output

CORPUS = ("inc_cond.qcl", "cinc.qcl", "parity.qcl", "dft.qcl", "demux.qcl",
          "scratch_parity.qcl")
# a local register, a fork on a synthesized enable, calls of stored routines
# made with another register allocated, and output
EXTRA = ("qufunct loc(qureg x) { qureg t[1]; CNot(t, x[0]); CNot(x[1], t); CNot(t, x[0]); }\n"
         "cond qufunct fk(quconst p, quconst q, qureg x) "
         "{ int n = 0; if p or q { n = 1; } Not(x[n]); }\n"
         "qufunct nest(quconst p, qureg x) { qureg u[1]; loc(x); CNot(u, p); "
         "fk(p, u, x); CNot(u, p); inc(x); }\n"
         "qufunct pr(qureg x) { print #x; inc(x); }\n"
         "cond qufunct mix(quconst p, quconst q, qureg x) "
         "{ !loc(x); fk(p, q, x); !fk(p, q, x); !inc(x); }\n"
         "qufunct smix(quconst p, quconst q, qureg x, qureg y, qureg s) "
         "{ scratch_parity(x, y, s); !mix(p, q, x); }\n"
         "operator omix(quconst p, quconst q, qureg x) { !dft(x); mix(p, q, x); dft(x); }")


def corpus_session(corpus, width: int, qubits: int = 12, echo: bool = False):
    s = make_session(qubits=qubits, echo=echo)
    for name in CORPUS:
        s.run_source(corpus[name])
    s.run_source(EXTRA)
    s.run_line(f"qureg x[{width}]; qureg a[1]; qureg e[1]; qureg y[1]; qureg s[1];")
    return s


def run_both(warm, cold, line: str):
    """Run `line` on both sessions; their error text, output and machines must agree."""
    outcomes = []
    for session in (warm, cold):
        before = len(session_output(session))
        try:
            session.run_line(line)
            error = None
        except QclError as err:
            error = str(err)
        outcomes.append((error, session_output(session)[before:]))
    assert outcomes[0] == outcomes[1], line
    assert warm.machine.amp.tobytes() == cold.machine.amp.tobytes(), line
    assert warm.machine.allocated == cold.machine.allocated, line
    assert warm.machine.materialized == cold.machine.materialized, line
    return outcomes[0][0]


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

# calls that allocate (a local register, a scratch auxiliary, a synthesized
# enable), check and fork; demux(a & e, x) indexes past a short x and fails;
# mix, smix and omix nest inverted calls and a scratch call, whose recorded
# gates leave the log while their allocations stay
ALLOCATING = ("demux(a, x);", "!demux(a, x);", "demux(a & e, x);", "!demux(a & e, x);",
              "scratch_parity(x, y, s);", "!scratch_parity(x, y, s);",
              "loc(x);", "!loc(x);", "fk(a, e, x);", "!fk(a, e, x);",
              "nest(a, x);", "!nest(a, x);", "pr(x);",
              "mix(a, e, x);", "!mix(a, e, x);", "!smix(a, e, x, y, s);",
              "omix(a, e, x);", "!omix(a, e, x);")
PLAIN = ("inc(x);", "!inc(x);", "inc(x[0:1]);", "cinc(x, e);", "!cinc(x, e);",
         "parity(x, y); !parity(x, y);", "dft(x);", "!dft(x);", "dft(x[0:1]);", *ALLOCATING)
# the cond routines
CONDITIONED = ("inc(x);", "!inc(x);", "inc(x[0:1]);", "demux(a, x);", "!demux(a, x);",
               "fk(a, e, x);", "!fk(a, e, x);")
GUARDS = ("if a and e {{ {} }}",      # direct enable: a two-qubit control
          "if a or e {{ {} }}",       # synthesized enable qubit
          "if e {{ {} }}",
          "if a or e {{ if a {{ {} }} }}",    # same guard set as the line above, more enable
          "if a or e {{ {} }} else {{ !inc(x); }}")

statements = st.one_of(
    st.sampled_from(PLAIN),
    st.builds(str.format, st.sampled_from(GUARDS), st.sampled_from(CONDITIONED)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000), st.lists(statements, min_size=1, max_size=8))
def test_warm_cache_matches_cold_session(corpus, width, seed, lines):
    warm = corpus_session(corpus, width, echo=True)
    machine = warm.machine
    # random amplitudes over x, a and e; y and s stay |0>
    rng = np.random.default_rng(seed)
    live = 1 << (width + 2)
    machine.amp[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    machine.amp /= np.linalg.norm(machine.amp)
    errors = []
    for line in lines * 2:
        cold = corpus_session(corpus, width, echo=True)
        cold.machine.amp[:] = machine.amp
        errors.append(run_both(warm, cold, line))
    assert warm.prog.tapes or None not in errors


WIDE_LINES = ("dft(x);", "!dft(x);", "dft(x); !dft(x);", "dft(x[0:5]);", "cinc(x, e);",
              *(GUARDS[k].format("inc(x);") for k in range(3)),
              "demux(a & e, x);", "!demux(a & e, x);",
              "scratch_parity(x, y, s); !scratch_parity(x, y, s);",
              "loc(x);", "!loc(x);", "fk(a, e, x);", "!fk(a, e, x);",
              "nest(e, x);", "!nest(e, x);")


def test_warm_cache_matches_cold_session_on_a_wide_state(corpus):
    # 2^16 amplitudes: the machine holds runs of PHASE and X gates and fuses
    # them, and defers the factor of every uncontrolled H to the flush that
    # ends each statement, on the replayed tapes and on the walked bodies alike
    warm = corpus_session(corpus, 12, qubits=20)
    machine = warm.machine
    rng = np.random.default_rng(7)
    live = 1 << 14
    machine.amp[:live] = rng.normal(size=live) + 1j * rng.normal(size=live)
    machine.amp /= np.linalg.norm(machine.amp)
    for line in WIDE_LINES * 2:
        cold = corpus_session(corpus, 12, qubits=20)
        cold.machine.amp[:] = machine.amp
        assert run_both(warm, cold, line) is None
        assert machine.materialized == 16
    assert len(warm.prog.tapes) >= len(WIDE_LINES)


# -- what is stored, and under which key ----------------------------------------------

def test_pure_call_walks_its_body_once(corpus, bodies):
    s = corpus_session(corpus, 3)
    for _ in range(3):
        s.run_line("dft(x);")
    assert bodies == ["dft"]
    assert len(s.prog.tapes) == 1


@pytest.mark.parametrize("line,stored", [("parity(x, y);", 1),
                                         ("wrap(x, y);", 2),     # wrap's tape and parity's
                                         ("copy(x, y);", 1)])
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
def test_calls_that_allocate_or_fork_replay_every_step(corpus, bodies, monkeypatch,
                                                       defs, decls, line, routine):
    s = make_session(qubits=12)
    s.run_source(corpus.get(defs, defs))
    s.run_line(decls)
    s.run_line("H(x[0]);")
    steps = Counter()
    for name in ("allocate_register", "free_register", "is_empty_register"):
        def counted(self, reg, original=getattr(MachineState, name), name=name):
            steps[name] += 1
            return original(self, reg)
        monkeypatch.setattr(MachineState, name, counted)
    s.run_line(line)
    once, first = bodies.count(routine), dict(steps)
    steps.clear()
    s.run_line(line)
    assert once > 0 and bodies.count(routine) == once
    assert dict(steps) == first
    assert first or routine == "demux"      # demux forks on direct enables
    assert s.prog.tapes


# -- a replay that fails fails as the walk would --------------------------------------

FAILING = ("cond qufunct cpar(quconst x, quvoid y) { CNot(y, x); }\n"
           "qufunct wrap2(quconst x, qureg y, qureg z) { CNot(z, x);\n"
           "  parity(x, y); }\n"
           "qufunct branch(quconst c, quconst x, qureg y) { if c {\n"
           "  cpar(x, y); } }\n"
           "qufunct leak(quconst x) { qureg t[1]; CNot(t, x); }\n"
           "qufunct outer(quconst x, qureg z) { CNot(z, x);\n"
           "  leak(x); }\n"
           "qufunct wrap3(quconst x, qureg y, qureg z) { wrap2(x, y, z); }\n")


@pytest.mark.parametrize("store,spoil,line,error", [
    # the call's own checks and frees fail at the call
    ("parity(x, y);", "Not(y);", "H(a); parity(x, y);",
     "at 1:7: quvoid argument 'y' of 'parity' is not empty"),
    ("scratch_parity(x, y, s);", "Not(y);", "Not(a); scratch_parity(x, y, s);",
     "at 1:9: quvoid argument 'y' of 'scratch_parity' is not empty"),
    ("scratch_parity(x, y, s);", "Not(s);", "scratch_parity(x, y, s);",
     "at 1:1: quscratch argument 's' of 'scratch_parity' is not empty"),
    ("!scratch_parity(x, y, s);", "Not(s); H(x);", "!scratch_parity(x, y, s);",
     "at 1:1: quscratch argument 's' of 'scratch_parity' after the call is not empty"),
    ("leak(x[0]);", "Not(x[0]);", "leak(x[0]);",
     "at 1:1: local register 't' is not empty at the end of its scope"),
    # those of a call in the body fail at its statement in the body
    ("wrap2(x, y, e);", "Not(y); Not(x);", "wrap2(x, y, e);",
     "at 3:3: quvoid argument 'y' of 'parity' is not empty"),
    ("branch(a, x, y);", "H(a); Not(y);", "branch(a, x, y);",
     "at 5:3: quvoid argument 'y' of 'cpar' is not empty"),
    ("outer(x[0], e);", "Not(x[0]);", "outer(x[0], e);",
     "at 8:3: local register 't' is not empty at the end of its scope"),
    # the call was stored in a body: its own check is placed at the call
    ("wrap2(x, y, e);", "Not(y);", "parity(x, y);",
     "at 1:1: quvoid argument 'y' of 'parity' is not empty"),
    # the call was stored before the body that calls it
    ("parity(x, y); wrap2(x, y, e);", "Not(y);", "wrap2(x, y, e);",
     "at 3:3: quvoid argument 'y' of 'parity' is not empty"),
    ("wrap2(x, y, e); wrap3(x, y, e);", "Not(y);", "wrap3(x, y, e);",
     "at 3:3: quvoid argument 'y' of 'parity' is not empty"),
], ids=["quvoid", "scratch-quvoid", "quscratch", "quscratch-exit", "local", "nested-quvoid",
        "nested-in-branch", "nested-local", "stored-in-a-body", "stored-before-its-caller",
        "stored-two-deep"])
def test_failed_replay_matches_cold_session(corpus, bodies, store, spoil, line, error):
    """A call stored on an input that passes fails on one that does not, with the
    walk's message and position, after the same steps."""
    warm = corpus_session(corpus, 2)
    warm.run_source(FAILING)
    warm.run_line(store)
    warm.run_line(spoil)
    cold = corpus_session(corpus, 2)
    cold.run_source(FAILING)
    cold.machine.amp[:] = warm.machine.amp
    walked = len(bodies)
    with pytest.raises(QclRuntimeError) as replayed:
        warm.run_line(line)
    assert len(bodies) == walked
    with pytest.raises(QclRuntimeError) as walking:
        cold.run_line(line)
    assert str(replayed.value) == str(walking.value) == f"runtime error {error}"
    assert warm.machine.amp.tobytes() == cold.machine.amp.tobytes()
    assert warm.machine.allocated == cold.machine.allocated
    assert warm.machine.materialized == cold.machine.materialized


def test_call_past_the_fork_limit_walks_and_fails_like_a_cold_session(corpus, bodies,
                                                                     monkeypatch):
    monkeypatch.setattr(interp, "FORK_PATH_LIMIT", 8)
    twice = "procedure twice(quconst s, qureg x) { demux(s, x); demux(s, x); }"
    warm = corpus_session(corpus, 4)
    warm.run_source(twice)
    warm.run_line("H(a); H(e);")
    warm.run_line("demux(a & e, x);")      # 6 fork paths
    cold = corpus_session(corpus, 4)
    cold.run_source(twice)
    cold.machine.amp[:] = warm.machine.amp
    walked = len(bodies)
    error = run_both(warm, cold, "twice(a & e, x);")
    # the warm session replays the first call and walks the second; the cold
    # session walks both
    assert bodies[walked:] == ["twice", "demux", "twice", "demux", "demux"]
    assert error == "runtime error at 5:5: forking exceeded 8 classical paths"


def test_calls_with_output_are_walked_every_time(corpus, bodies):
    s = corpus_session(corpus, 2)
    s.run_source("qufunct calls(qureg x) { inc(x); pr(x); inc(x); }")
    for _ in range(2):
        s.run_line("calls(x);")
    assert session_output(s) == "2\n2\n"
    assert bodies == ["calls", "inc", "pr", "calls", "pr"]     # inc replays
    assert len(s.prog.tapes) == 1


@pytest.mark.parametrize("body,out", [("print 1;", "1\n1\n0\n"), ("real r = random();", "0\n"),
                                      ("measure x;", "0\n"), ("p();", "2\n")])
def test_unchecked_calls_with_effects_are_walked_every_time(body, out):
    prog, printed = run_unchecked("int g = 0; procedure p() { g = g + 1; } qureg q[1]; "
                                  f"operator f(qureg x) {{ H(x); {body} }} f(q); f(q); print g;")
    assert not prog.tapes
    assert printed == out


def test_calls_recorded_for_an_adjoint_replay_their_record_only_tapes(corpus, bodies):
    # loc runs in record-only mode inside both adjoints, with the same qubits
    # allocated; its deferred free and its gates pass through the replay
    warm = corpus_session(corpus, 2)
    warm.run_source("qufunct nest2(qureg x) { qureg u[1]; loc(x); Not(u); Not(u); }")
    warm.run_line("H(x); Rot(0.3, x[1]); H(a);")
    warm.run_line("!nest(a, x);")
    cold = corpus_session(corpus, 2)
    cold.run_source("qufunct nest2(qureg x) { qureg u[1]; loc(x); Not(u); Not(u); }")
    cold.machine.amp[:] = warm.machine.amp
    walked = len(bodies)
    assert run_both(warm, cold, "!nest2(x);") is None
    assert bodies[walked:] == ["nest2", "nest2", "loc"]


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
    signs = sorted(math.copysign(1.0, tape.steps[0].param) for tape in s.prog.tapes.values())
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
