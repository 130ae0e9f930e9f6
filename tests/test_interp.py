"""Interpreter behaviour: evaluation, calls, adjoints, scratch management."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from qclite import (ExecContext, PrimitiveGate, QclRuntimeError, Recorder, StaticErrorList,
                    adjoint_of_tape, parse_interactive, tape_matrix)
from qclite.stdgates import LEVEL_PROCEDURE
from conftest import make_session, permutation_of, routine_matrix, session_output


def peek_value(session, name):
    return session.prog.global_env.get(name)


class TestEvalExpr:
    @pytest.mark.parametrize("expr,expected", [
        ("2^3", 8),
        ("2^10", 1024),
        ("5 mod 2", 1),
        ("7 / 2", 3),
        ("7.0 / 2", 3.5),
        ("1 + 2 * 3", 7),
        ("-2^2", 4),
        ("2^3^2", 512),
        ("(1+2)*4", 12),
    ])
    def test_arithmetic(self, expr, expected):
        s = make_session()
        s.run_line(f"int v; v = {expr};" if isinstance(expected, int)
                   else f"real v; v = {expr};")
        assert peek_value(s, "v") == expected

    def test_register_length(self):
        s = make_session()
        s.run_line("qureg q[4]; int n; n = #q;")
        assert peek_value(s, "n") == 4

    def test_pi(self):
        s = make_session()
        s.run_line("real x; x = pi;")
        assert peek_value(s, "x") == pytest.approx(math.pi)

    def test_division_by_zero(self):
        s = make_session()
        s.run_line("int a;")
        with pytest.raises(QclRuntimeError):
            s.run_line("a = 1 / 0;")
        with pytest.raises(QclRuntimeError):
            s.run_line("a = 1 mod 0;")

    @pytest.mark.parametrize("line,message,column", [
        ("print 2.0^10000;", "result of '^' is out of range", 1),
        ("print 0^-1;", "division by zero", 1),
        ("int k = 2^3000; print k/1.5;", "result of '/' is out of range", 17),
    ])
    def test_arithmetic_faults_are_runtime_errors(self, line, message, column):
        with pytest.raises(QclRuntimeError) as err:
            make_session().run_line(line)
        assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)

    @pytest.mark.parametrize("line,message,column", [
        ("print 2^20000;", "integer too large to print", 1),
        ("int k = 2^3000; real r = k;", "value is out of range for a real", 17),
        ("int k = 2^3000; complex z; z = k;", "value is out of range for a complex", 28),
        ("qureg q[2^20000];", "out of qubits: requested ~2^20000, only 16 free", 1),
        ("qureg q[40];", "out of qubits: requested 40, only 16 free", 1),
        ("qureg a[2]; H(a[2^20000]);", "register index ~2^20000 out of range for length 2", 13),
        ("qureg a[2]; H(a[0:2^70]);", "register slice 0:~2^70 out of range for length 2", 13),
    ])
    def test_large_integers_are_runtime_errors(self, line, message, column):
        with pytest.raises(QclRuntimeError) as err:
            make_session().run_line(line)
        assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)

    @pytest.mark.parametrize("call", ["Rot(1e400, q);", "Rot(1e400-1e400, q);",
                                      "Phase(1e400);", "Rot(2^1024, q);"])
    def test_non_finite_angle_leaves_the_state_alone(self, call):
        s = make_session()
        s.run_line("qureg q[1]; H(q);")
        before = s.machine.amp.copy()
        with pytest.raises(QclRuntimeError, match="a gate angle must be finite"):
            s.run_line(call)
        assert np.array_equal(s.machine.amp, before)

    def test_random_is_seeded(self):
        a = make_session(seed=42)
        b = make_session(seed=42)
        for s in (a, b):
            s.run_line("real r; r = random();")
        assert peek_value(a, "r") == peek_value(b, "r")
        assert 0.0 <= peek_value(a, "r") < 1.0

    def test_boolean_ops(self):
        s = make_session()
        s.run_line("boolean b; b = true and not false xor false;")
        assert peek_value(s, "b") is True

    def test_function_call(self):
        s = make_session()
        s.run_line("int twice(int k) { return 2 * k; }")
        s.run_line("int v; v = twice(21);")
        assert peek_value(s, "v") == 42

    def test_function_must_return(self):
        s = make_session()
        s.run_line("int bad(int k) { int j; j = k; }")
        with pytest.raises(QclRuntimeError):
            s.run_line("int v; v = bad(1);")


class TestClassicalControl:
    def test_for_default_step(self):
        s = make_session()
        s.run_line("int total = 0; int i;")
        s.run_line("for i = 1 to 5 { total = total + i; }")
        assert peek_value(s, "total") == 15

    def test_for_negative_step(self):
        s = make_session()
        s.run_line("int last = -1; int i;")
        s.run_line("for i = 3 to 1 step -1 { last = i; }")
        assert peek_value(s, "last") == 1

    def test_for_empty_range(self):
        s = make_session()
        s.run_line("int hits = 0; int i;")
        s.run_line("for i = 1 to 0 { hits = hits + 1; }")
        s.run_line("for i = 0 to 1 step -1 { hits = hits + 1; }")
        assert peek_value(s, "hits") == 0

    def test_while(self):
        s = make_session()
        s.run_line("int n = 1; while n < 100 { n = n * 2; }")
        assert peek_value(s, "n") == 128

    def test_classical_if_else(self):
        s = make_session()
        s.run_line("int v = 0; if 3 > 2 { v = 1; } else { v = 2; }")
        assert peek_value(s, "v") == 1
        s.run_line("if 1 > 2 { v = 3; } else { v = 4; }")
        assert peek_value(s, "v") == 4

    def test_print(self):
        s = make_session()
        s.run_line("print 1 + 1, 0.25, true;")
        assert session_output(s) == "2 0.25 true\n"


class TestPrograms:
    def test_superposition_session(self):
        s = make_session(qubits=4)
        s.run_source("""
            qureg a[1];
            qureg b[1];
            Rot(-pi/3, a);
            H(b);
        """)
        dump = s.machine.format_dump()
        assert dump.endswith("0.612372 |0000> + 0.612372 |0010> + "
                             "0.353553 |0001> + 0.353553 |0011>")

    def test_empty_program(self):
        s = make_session()
        s.run_source("")
        assert s.machine.version == 0

    def test_measure_into_variable(self):
        s = make_session()
        s.run_line("qureg q[2]; Not(q); int m; measure q, m;")
        assert peek_value(s, "m") == 3

    def test_static_rejection_before_execution(self):
        s = make_session()
        with pytest.raises(StaticErrorList):
            s.run_source("""
                qureg q[1];
                H(q);
                operator bad(qureg p) { measure p; }
            """)
        # nothing ran: the H above came after parse but the check failed first
        assert s.machine.version == 0


INC = """
qufunct inc(qureg x) {
  int i;
  for i = #x-1 to 1 step -1 {
    CNot(x[i], x[0:i-1]);
  }
  Not(x[0]);
}
"""


class TestCallsAndAdjoints:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_inc_is_plus_one(self, m, corpus):
        matrix = routine_matrix(corpus["inc.qcl"], f"qureg x[{m}];", "inc(x);", m)
        perm = permutation_of(matrix)
        assert perm == [(k + 1) % (1 << m) for k in range(1 << m)]

    def test_inverted_inc_is_minus_one(self, corpus):
        matrix = routine_matrix(corpus["inc.qcl"], "qureg x[3];", "!inc(x);", 3)
        perm = permutation_of(matrix)
        assert perm == [(k - 1) % 8 for k in range(8)]

    def test_dft_roundtrip_identity(self, corpus):
        s = make_session()
        s.run_source(corpus["dft.qcl"])
        s.run_line("qureg q[2]; dft(q); !dft(q);")
        assert abs(s.machine.amp[0]) == pytest.approx(1.0, abs=1e-9)

    def test_operator_determinism(self, corpus):
        runs = []
        for _ in range(2):
            s = make_session()
            s.run_source(corpus["dft.qcl"])
            s.run_line("qureg q[3]; Not(q[1]); dft(q);")
            runs.append(s.machine.amp.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_nested_call_inversion(self, corpus):
        source = corpus["inc.qcl"] + """
        operator twostep(qureg q) {
          inc(q);
          Rot(0.4, q[0]);
        }
        """
        matrix = routine_matrix(source, "qureg q[3];", "twostep(q); !twostep(q);", 3)
        assert np.max(np.abs(matrix - np.eye(8))) < 1e-9

    def test_register_argument_overlap_rejected(self, corpus):
        s = make_session()
        s.run_source(corpus["cinc.qcl"])
        s.run_line("qureg q[3];")
        with pytest.raises(QclRuntimeError):
            s.run_line("cinc(q, q[0]);")

    def test_builtin_inversion(self):
        rot = routine_matrix(None, "qureg q[1];", "Rot(0.5, q); !Rot(0.5, q);", 1)
        assert np.allclose(rot, np.eye(2))
        flip = routine_matrix(None, "qureg q[2];", "!flip(q); flip(q);", 2)
        assert np.allclose(flip, np.eye(4))

    def test_while_inside_operator(self):
        source = ("operator rep(qureg q) { int k = 3; "
                  "while k > 0 { Not(q[0]); k = k - 1; } }")
        matrix = routine_matrix(source, "qureg q[1];", "rep(q);", 1)
        assert np.allclose(matrix, [[0, 1], [1, 0]])

    def test_adjoint_of_tape_order_and_params(self):
        h0 = PrimitiveGate("H", None, 0, frozenset())
        x1 = PrimitiveGate("X", None, 1, frozenset({0}))
        rot = PrimitiveGate("ROT", 0.5, 0, frozenset())
        phase = PrimitiveGate("PHASE", 0.25, None, frozenset({1}))
        adj = adjoint_of_tape([h0, x1, rot, phase])
        assert adj[0] == PrimitiveGate("PHASE", -0.25, None, frozenset({1}))
        assert adj[1] == PrimitiveGate("ROT", -0.5, 0, frozenset())
        assert adj[2] == x1
        assert adj[3] == h0


class TestQuantumTypes:
    def test_quvoid_entry_check(self, corpus):
        s = make_session()
        s.run_source(corpus["parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; Not(y);")
        with pytest.raises(QclRuntimeError):
            s.run_line("parity(x, y);")

    def test_quvoid_accumulates_when_unchecked(self, corpus):
        s = make_session(checks=False)
        s.run_source(corpus["parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; Not(y); Not(x[0]);")
        s.run_line("parity(x, y);")
        # y started at 1 and parity(1) == 1 flipped it back to zero
        index = int(np.argmax(np.abs(s.machine.amp)))
        assert index >> 2 == 0

    def test_quconst_invariance_basis_sweep(self, corpus):
        for value in range(4):
            s = make_session()
            s.run_source(corpus["parity.qcl"])
            s.run_line("qureg x[2]; qureg y[1];")
            for bit in range(2):
                if value >> bit & 1:
                    s.run_line(f"Not(x[{bit}]);")
            s.run_line("parity(x, y);")
            for index, amp in s.machine.state_terms():
                assert index & 3 == value

    def test_local_register_scope(self, corpus):
        s = make_session()
        s.run_source(corpus["inc.qcl"] + """
        operator balanced(qureg q) {
          qureg t[1];
          CNot(t, q[0]);
          CNot(t, q[0]);
          inc(q);
        }
        """)
        s.run_line("qureg q[2]; Not(q[0]); balanced(q);")
        assert abs(s.machine.amp[2]) == pytest.approx(1.0)
        assert s.machine.allocated == {0, 1}

    def test_local_register_left_full_is_error(self):
        s = make_session()
        s.run_source("""
        operator leaky(qureg q) {
          qureg t[1];
          CNot(t, q[0]);
        }
        """)
        s.run_line("qureg q[1]; Not(q);")
        with pytest.raises(QclRuntimeError) as err:
            s.run_line("leaky(q);")
        assert "not empty" in err.value.message

    def test_registers_never_share_qubits(self):
        s = make_session()
        s.run_line("qureg a[2]; qureg b[2]; qureg c[1];")
        regs = [peek_value(s, n).reg.qubits for n in "abc"]
        flat = [q for qs in regs for q in qs]
        assert len(flat) == len(set(flat))

    def test_procedure_local_register_released(self):
        s = make_session(qubits=6)
        s.run_source("""
            procedure mix(qureg q) {
              qureg t[1];
              CNot(t, q[0]);
              CNot(t, q[0]);
              H(q);
            }
            qureg q[2];
            mix(q);
            mix(q);
        """)
        assert s.machine.allocated == {0, 1}

    @pytest.mark.parametrize("defs,decls,call,const_mask", [
        ("parity.qcl", "qureg x[3]; qureg y[1];", "parity(x, y);", 0b0111),
        ("cinc.qcl", "qureg x[2]; qureg e[1];", "cinc(x, e);", 0b100),
        ("demux.qcl", "qureg s[2]; qureg q[4];", "demux(s, q);", 0b11),
        ("scratch_parity.qcl", "qureg x[2]; qureg y[1]; qureg s[1];",
         "scratch_parity(x, y, s);", 0b0011),
    ])
    def test_quconst_arguments_invariant(self, corpus, defs, decls, call, const_mask):
        # every basis value of a quconst operand survives the call with certainty
        n = const_mask.bit_length()
        s = make_session(qubits=12)
        s.run_source(corpus[defs])
        s.run_line(decls)
        machine = s.machine
        dim = machine.amp.size
        for k in range(dim):
            if k & ~const_mask & (dim - 1):
                continue  # non-const operands start at zero
            machine.amp[:] = 0.0
            machine.amp[k] = 1.0
            s.run_line(call)
            for index, _ in machine.state_terms():
                assert index & const_mask == k & const_mask
            machine.reset_state()


SCRATCH_COPY = """
qufunct copyjunk(quconst x, quvoid y, quscratch s) {
  fanout(x, s);
  fanout(s, y);
}
"""


class TestScratchManagement:
    def test_identity_function_with_junk_copy(self):
        # f(i) = i computed through an intermediate copy held in scratch
        for value in range(4):
            s = make_session()
            s.run_source(SCRATCH_COPY)
            s.run_line("qureg x[2]; qureg y[2]; qureg s[2];")
            for bit in range(2):
                if value >> bit & 1:
                    s.run_line(f"Not(x[{bit}]);")
            s.run_line("copyjunk(x, y, s);")
            terms = s.machine.state_terms()
            assert len(terms) == 1
            index = terms[0][0]
            assert index & 3 == value          # x preserved
            assert (index >> 2) & 3 == value   # y = f(x) = x
            assert index >> 4 == 0             # scratch and aux returned to zero

    def test_parity_with_scratch_junk(self, corpus):
        for value in range(8):
            s = make_session()
            s.run_source(corpus["scratch_parity.qcl"])
            s.run_line("qureg x[3]; qureg y[1]; qureg s[1];")
            for bit in range(3):
                if value >> bit & 1:
                    s.run_line(f"Not(x[{bit}]);")
            s.run_line("scratch_parity(x, y, s);")
            terms = s.machine.state_terms()
            assert len(terms) == 1
            index = terms[0][0]
            assert index & 7 == value
            assert (index >> 3) & 1 == bin(value).count("1") % 2
            assert index >> 4 == 0
            assert s.machine.allocated == {0, 1, 2, 3, 4}

    def test_scratch_on_superposition(self, corpus):
        s = make_session()
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; qureg s[1];")
        s.run_line("H(x);")
        s.run_line("scratch_parity(x, y, s);")
        expected = {value | (bin(value).count("1") % 2) << 2: 0.5 for value in range(4)}
        terms = dict(s.machine.state_terms())
        assert set(terms) == set(expected)
        for index, amp in terms.items():
            assert abs(amp) == pytest.approx(0.5)

    def test_scratch_entry_check(self, corpus):
        s = make_session()
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; qureg s[1]; Not(s);")
        with pytest.raises(QclRuntimeError):
            s.run_line("scratch_parity(x, y, s);")

    def test_inverted_scratch_call_uncomputes(self, corpus):
        s = make_session()
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; qureg s[1];")
        s.run_line("Not(x[0]);")
        s.run_line("scratch_parity(x, y, s);")
        s.run_line("!scratch_parity(x, y, s);")
        index = int(np.argmax(np.abs(s.machine.amp)))
        assert index == 1  # only x survives; y and s are back to zero

    def test_out_of_qubits_for_auxiliary(self, corpus):
        s = make_session(qubits=4)
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_line("qureg x[2]; qureg y[1]; qureg s[1];")
        with pytest.raises(QclRuntimeError):
            s.run_line("scratch_parity(x, y, s);")

    # The body runs in apply mode and frees its own registers before the
    # uncompute, whose adjoint then touches the freed qubits; the auxiliary
    # leaks.  An adjoint with allocate and free swapped would mend it.
    @pytest.mark.xfail(strict=True, raises=QclRuntimeError,
                       reason="a quscratch body that allocates fails at its uncompute")
    @pytest.mark.parametrize("body,value", [
        ("qureg t[1]; CNot(t, x[0]); CNot(s, t); CNot(t, x[0]); CNot(y, s);", lambda v: v & 1),
        ("if x[0] xor x[1] { Not(y); }", lambda v: bin(v).count("1") % 2),
        ("scratch_parity(x, y, s);", lambda v: bin(v).count("1") % 2),
    ], ids=["local-qureg", "synthesized-enable", "nested-quscratch"])
    def test_scratch_body_that_allocates(self, corpus, body, value):
        s = make_session(qubits=12)
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_source(f"qufunct f(quconst x, quvoid y, quscratch s) {{ {body} }}")
        s.run_line("qureg x[2]; qureg y[1]; qureg s[1]; H(x);")
        s.run_line("f(x, y, s);")
        assert s.machine.allocated == {0, 1, 2, 3}
        assert {k for k, _ in s.machine.state_terms()} == {v | value(v) << 2 for v in range(4)}


class TestRecords:
    def test_top_level_gates_are_not_held(self):
        # nothing reads the gates of a statement outside every call
        s = make_session(qubits=4)
        s.run_line("qureg q[1];")
        tracemalloc.start()
        try:
            s.run_line("int i; for i = 1 to 200000 { Not(q[0]); }")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("line", ["!loc(x);", "if a or e { inc(x); }",
                                      "scratch_parity(x, y, s); !loc(x);"])
    def test_record_only_run_frees_what_it_deferred(self, corpus, line):
        # the benchmark's record-only pass: run each item in an
        # ExecContext(apply=False), then free the recorder's deferred registers
        s = make_session(qubits=12)
        s.run_source(corpus["scratch_parity.qcl"])
        s.run_source(corpus["inc_cond.qcl"])
        s.run_source("qufunct loc(qureg x) { qureg t[1]; CNot(t, x[0]); CNot(x[1], t); "
                     "CNot(t, x[0]); }")
        s.run_line("qureg x[2]; qureg a[1]; qureg e[1]; qureg y[1]; qureg s[1]; H(x); H(a);")
        allocated, amp = set(s.machine.allocated), s.machine.amp.tobytes()
        for _ in range(2):      # walked, then replayed from the record-only tapes
            items = parse_interactive(line)
            assert not s.checker.check_items(items)
            for item in items:
                recorder = Recorder()
                ctx = ExecContext(s.prog, LEVEL_PROCEDURE, s.prog.global_env, recorder,
                                  apply=False)
                s.interp.exec_item(item, ctx)
                assert recorder.temps
                for temp in reversed(recorder.temps):
                    s.machine.free_register(temp)
            assert s.machine.allocated == allocated
            assert s.machine.amp.tobytes() == amp
        assert s.prog.tapes


class TestCpsControlFlow:
    def test_classical_if_selects_branch_containing_fork(self):
        # a classical guard inside an operator must still thread forks through
        source = """
        cond qufunct pick(quconst s, qureg q, int wide) {
          int n = 0;
          if wide > 0 {
            if s[0] { n = 1; }
            Not(q[n]);
          } else {
            Not(q[0]);
          }
        }
        """
        take = routine_matrix(source, "qureg s[1]; qureg q[2];", "pick(s, q, 1);", 3,
                              qubits=8)
        skip = routine_matrix(source, "qureg s[1]; qureg q[2];", "pick(s, q, 0);", 3,
                              qubits=8)
        expect_take = np.zeros((8, 8))
        expect_skip = np.zeros((8, 8))
        for col in range(8):
            s, q = col & 1, col >> 1
            expect_take[((q ^ (1 << s)) << 1) | s, col] = 1
            expect_skip[((q ^ 1) << 1) | s, col] = 1
        assert np.max(np.abs(take - expect_take)) < 1e-9
        assert np.max(np.abs(skip - expect_skip)) < 1e-9

    def test_quantum_if_with_else_inside_operator(self, corpus):
        source = corpus["inc_cond.qcl"] + """
        cond operator swing(qureg x, quconst e) {
          if e { inc(x); } else { !inc(x); }
        }
        """
        inner = routine_matrix(source, "qureg x[2]; qureg e[1];", "swing(x, e);", 3)
        direct = routine_matrix(corpus["inc_cond.qcl"], "qureg x[2]; qureg e[1];",
                                "if e { inc(x); } else { !inc(x); }", 3)
        assert np.max(np.abs(inner - direct)) < 1e-9

    def test_zero_for_step_rejected(self):
        s = make_session()
        s.run_line("int i;")
        with pytest.raises(QclRuntimeError):
            s.run_line("for i = 1 to 3 step 0 { print i; }")
        source = "operator z(qureg q) { int i; for i = 1 to 2 step 1-1 { H(q); } }"
        s2 = make_session()
        s2.run_source(source)
        s2.run_line("qureg q[1];")
        with pytest.raises(QclRuntimeError):
            s2.run_line("z(q);")


class TestLongPathsAndDeepForks:
    """Loop length and fork depth do not depend on the Python stack."""

    def test_qufunct_for_loop_of_100000_iterations(self):
        s = make_session(qubits=4)
        s.run_source("qufunct f(qureg x) { int i; for i = 1 to 100000 { Not(x); } }")
        s.run_line("qureg x[1];")
        before = s.machine.version
        s.run_line("f(x);")
        assert s.machine.version - before == 100000
        assert s.machine.amp[0] == 1

    def test_operator_while_loop_of_2000_iterations(self):
        source = ("operator w(qureg x) { int k = 0; "
                  "while k < 2001 { Not(x); k = k + 1; } }")
        matrix = routine_matrix(source, "qureg x[1];", "w(x);", 1)
        assert np.allclose(matrix, [[0, 1], [1, 0]])

    def test_fork_chain_2000_deep(self):
        # the then-path forks again on every iteration; each else-path stops
        source = """
        cond qufunct chain(quconst s, qureg q) {
          int go = 1;
          int k = 0;
          while go == 1 and k < 2000 {
            k = k + 1;
            if s[0] { go = 1; } else { go = 0; }
          }
          if go == 1 { Not(q); }
        }
        """
        matrix = routine_matrix(source, "qureg s[1]; qureg q[1];", "chain(s, q);", 2,
                                qubits=8)
        # only the path that took every then-branch, s = 1, flips q
        assert permutation_of(matrix) == [0, 3, 2, 1]

    def test_for_header_error_points_at_the_loop(self):
        s = make_session()
        s.run_source("operator f(qureg q, int d) { int i;\n for i = 1 to 3 / d { H(q); }\n}")
        s.run_line("qureg q[1];")
        with pytest.raises(QclRuntimeError) as err:
            s.run_line("f(q, 0);")
        assert (err.value.line, err.value.column) == (2, 2)


class TestRecursionLimit:
    """Routine recursion is bounded by a limit raised for one item at a time."""

    @pytest.mark.parametrize("defs,decls,call", [
        ("procedure p(int n) { if n > 0 { p(n-1); } }", "", "p(998);"),
        ("operator o(qureg x, int n) { if n > 0 { o(x, n-1); } }", "qureg x[1];",
         "o(x, 767);"),
        ("cond operator c(qureg x, qureg e, int n) { if n > 0 { if e { c(x, e, n-1); } } }",
         "qureg x[1]; qureg e[1];", "c(x, e, 587);"),
    ])
    def test_recursion_depth(self, defs, decls, call):
        s = make_session(qubits=4)
        s.run_source(defs)
        if decls:
            s.run_line(decls)
        s.run_line(call)

    def test_process_limit_unchanged(self):
        limit = sys.getrecursionlimit()
        s = make_session(qubits=4)
        assert sys.getrecursionlimit() == limit
        s.run_source("procedure p(int n) { if n > 0 { p(n-1); } }")
        for line in ("qureg x[1];", "p(10);", "H(x);", "p(20000);", "Not(x);"):
            try:
                s.run_line(line)
            except QclRuntimeError:
                pass
            assert sys.getrecursionlimit() == limit


class TestRunProgramApi:
    def test_run_program_executes_checked_tree(self):
        import io
        from qclite import MachineState, check_static_semantics, parse_source, run_program
        from qclite.interp import ProgramState
        tree = parse_source("qureg q[2]; Not(q); int m; measure q, m; print m;")
        assert check_static_semantics(tree) == []
        out = io.StringIO()
        prog = ProgramState(MachineState(4, seed=0), out=out)
        run_program(tree, prog)
        assert out.getvalue() == "3\n"


class TestLinearity:
    def test_operator_acts_linearly(self, corpus):
        # applying the operator to a random superposition equals the
        # matrix-vector product of its basis-state columns
        matrix = routine_matrix(corpus["dft.qcl"], "qureg q[3];", "dft(q);", 3)
        rng = np.random.default_rng(12)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        s = make_session()
        s.run_source(corpus["dft.qcl"])
        s.run_line("qureg q[3];")
        s.machine.amp[:] = vec
        s.run_line("dft(q);")
        assert np.max(np.abs(s.machine.amp - matrix @ vec)) < 1e-9

    def test_fork_acts_linearly(self, corpus):
        matrix = routine_matrix(corpus["demux.qcl"], "qureg s[2]; qureg q[4];",
                                "demux(s, q);", 6, qubits=12)
        rng = np.random.default_rng(13)
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        vec /= np.linalg.norm(vec)
        s = make_session(qubits=12)
        s.run_source(corpus["demux.qcl"])
        s.run_line("qureg s[2]; qureg q[4];")
        s.machine.amp[:] = vec
        s.run_line("demux(s, q);")
        assert np.max(np.abs(s.machine.amp - matrix @ vec)) < 1e-9


class TestEcho:
    def test_echo_after_state_change_only(self):
        s = make_session(qubits=8)
        s.config.echo = True
        s.run_line("qureg q[2];")
        assert session_output(s) == ""
        s.run_line("H(q[0]);")
        assert session_output(s).count("[2/8]") == 1
        s.run_line("int v; v = 3;")
        assert session_output(s).count("[2/8]") == 1

    def test_echo_per_statement(self):
        s = make_session(qubits=8)
        s.config.echo = True
        s.run_line("qureg q[1]; Not(q); Not(q);")
        assert session_output(s).count("[1/8]") == 2
