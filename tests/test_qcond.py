"""Condition compiler: polynomial form, enable synthesis, conditional execution."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclite import (CondAtom, CondBin, CondConst, CondNot, DirectPlan, ExecContext,
                    PrimitiveGate, Recorder, RegisterError, SynthPlan, ZhegalkinPoly,
                    cond_truth, parse_interactive, synthesize_enable, tape_matrix, to_xdnf)
from qclite.machine import MachineState
from qclite.stdgates import LEVEL_PROCEDURE
from conftest import enable_column, is_subcube, make_session, routine_matrix


def atom(q):
    return CondAtom(frozenset({q}))


def assignments(n):
    for bits in itertools.product([False, True], repeat=n):
        yield dict(enumerate(bits))


def poly_of(expr):
    return to_xdnf(expr)


class TestToXdnf:
    def test_single_conjunction(self):
        poly = poly_of(CondBin("and", atom(0), atom(1)))
        assert poly.const is False
        assert poly.monomials == frozenset({frozenset({0, 1})})

    def test_or(self):
        poly = poly_of(CondBin("or", atom(0), atom(1)))
        assert poly.const is False
        assert poly.monomials == frozenset({
            frozenset({0}), frozenset({1}), frozenset({0, 1})})

    def test_negated_or(self):
        poly = poly_of(CondNot(CondBin("or", atom(0), atom(1))))
        assert poly.const is True
        assert poly.monomials == frozenset({
            frozenset({0}), frozenset({1}), frozenset({0, 1})})

    def test_classical_folding(self):
        assert poly_of(CondBin("and", atom(0), CondConst(False))).is_false()
        assert poly_of(CondBin("or", atom(0), CondConst(True))).is_true()
        kept = poly_of(CondBin("and", atom(0), CondConst(True)))
        assert kept.monomials == frozenset({frozenset({0})})

    def test_xor_cancellation(self):
        poly = poly_of(CondBin("xor", atom(0), atom(0)))
        assert poly.is_false()

    def test_not_false_is_true(self):
        assert poly_of(CondNot(CondConst(False))).is_true()

    def test_multiqubit_atom_is_conjunction(self):
        poly = poly_of(CondAtom(frozenset({2, 3, 5})))
        assert poly.monomials == frozenset({frozenset({2, 3, 5})})

    def test_canonical_order(self):
        poly = ZhegalkinPoly(False, frozenset({
            frozenset({4}), frozenset({1, 2}), frozenset({0}), frozenset({0, 3})}))
        assert poly.canonical_monomials() == [
            frozenset({0}), frozenset({4}), frozenset({0, 3}), frozenset({1, 2})]


def random_cond(rng, qubits, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return CondConst(bool(rng.integers(0, 2)))
        return atom(int(rng.integers(0, qubits)))
    op = rng.choice(["and", "or", "xor", "not"])
    if op == "not":
        return CondNot(random_cond(rng, qubits, depth - 1))
    return CondBin(op, random_cond(rng, qubits, depth - 1),
                   random_cond(rng, qubits, depth - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_xdnf_matches_truth_table(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    cond = random_cond(rng, n, 4)
    poly = to_xdnf(cond)
    for assignment in assignments(n):
        assert poly.truth(assignment) == cond_truth(cond, assignment)


class TestSynthesizeEnable:
    def test_direct_plan_for_single_monomial(self):
        machine = MachineState(8)
        machine.allocate_register(4)
        plan = synthesize_enable(poly_of(CondBin("and", atom(0), atom(1))), machine)
        assert isinstance(plan, DirectPlan)
        assert plan.controls == (0, 1)
        assert machine.allocated == {0, 1, 2, 3}  # no scratch taken

    def test_constant_rejected(self):
        machine = MachineState(4)
        with pytest.raises(Exception):
            synthesize_enable(poly_of(CondConst(True)), machine)

    def test_or_plan_tape(self):
        machine = MachineState(8)
        machine.allocate_register(2)
        plan = synthesize_enable(poly_of(CondBin("or", atom(0), atom(1))), machine)
        assert isinstance(plan, SynthPlan)
        e = plan.scratch.qubits[0]
        assert [g.controls for g in plan.compute] == [
            frozenset({0}), frozenset({1}), frozenset({0, 1})]
        assert all(g.target == e for g in plan.compute)

    def test_constant_term_emits_plain_flip(self):
        machine = MachineState(8)
        machine.allocate_register(2)
        poly = poly_of(CondNot(CondBin("xor", atom(0), atom(1))))
        plan = synthesize_enable(poly, machine)
        assert isinstance(plan, SynthPlan)
        assert plan.compute[0].controls == frozenset()

    def test_negated_literals_become_zero_controls(self):
        machine = MachineState(8)
        machine.allocate_register(3)
        nor = poly_of(CondNot(CondBin("or", atom(0), atom(1))))
        assert synthesize_enable(nor, machine) == DirectPlan((~0, ~1))
        mixed = poly_of(CondBin("and", atom(2), CondNot(atom(0))))
        assert synthesize_enable(mixed, machine) == DirectPlan((2, ~0))
        assert synthesize_enable(poly_of(CondNot(atom(1))), machine) == DirectPlan((~1,))
        assert machine.allocated == {0, 1, 2}

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 4), st.booleans(), min_size=1),
           st.booleans(), st.randoms(use_true_random=False))
    def test_conjunctions_of_literals_are_direct(self, literals, de_morgan, rnd):
        # q -> True is "q at 1", False is "q at 0"; written as an AND of the
        # literals, or as the NOT of an OR of their negations
        items = list(literals.items())
        rnd.shuffle(items)
        cond = None
        for q, positive in items:
            lit = atom(q) if positive != de_morgan else CondNot(atom(q))
            cond = lit if cond is None else CondBin("or" if de_morgan else "and", cond, lit)
        if de_morgan:
            cond = CondNot(cond)
        machine = MachineState(8)
        machine.allocate_register(5)
        plan = synthesize_enable(to_xdnf(cond), machine)
        pos = sorted(q for q, positive in literals.items() if positive)
        neg = sorted(q for q, positive in literals.items() if not positive)
        assert plan == DirectPlan((*pos, *(~q for q in neg)))
        assert enable_column(plan, machine, 5) == [
            cond_truth(cond, {q: bool(k >> q & 1) for q in range(5)}) for k in range(32)]

    def _enable_truth(self, cond, n):
        """Build the plan and read its enable on every basis state."""
        machine = MachineState(8)
        machine.allocate_register(n)
        plan = synthesize_enable(to_xdnf(cond), machine)
        return plan, enable_column(plan, machine, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_enable_equals_condition_on_every_basis_state(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        cond = random_cond(rng, n, 3)
        poly = to_xdnf(cond)
        if poly.is_true() or poly.is_false():
            return
        plan, values = self._enable_truth(cond, n)
        truth = [cond_truth(cond, {q: bool(k >> q & 1) for q in range(n)})
                 for k in range(1 << n)]
        assert values == truth
        # direct exactly when the truth set is a subcube of the basis states
        assert isinstance(plan, DirectPlan) == is_subcube(truth, n)


class TestConditionalizeTape:
    def test_block_diagonal_structure(self, corpus):
        # the recorded tape of a quantum if acts as identity wherever the enable bit is 0
        inc_matrix = routine_matrix(corpus["inc.qcl"], "qureg x[3];", "inc(x);", 3)
        s = make_session()
        s.run_source(corpus["inc_cond.qcl"])
        s.run_line("qureg x[3]; qureg e[1];")
        ctx = ExecContext(s.prog, LEVEL_PROCEDURE, s.prog.global_env, Recorder(), apply=False)
        (stmt,) = parse_interactive("if e { inc(x); }")
        steps, _ = s.interp.record(s.interp.exec_stmt, stmt, ctx)
        matrix = tape_matrix([g for g in steps if isinstance(g, PrimitiveGate)], 4)
        expected = np.eye(16, dtype=complex)
        expected[8:, 8:] = inc_matrix
        assert np.max(np.abs(matrix - expected)) < 1e-9

    def test_enabled_subspace_matches_plain_action(self, corpus):
        plain = routine_matrix(corpus["inc.qcl"], "qureg x[2];", "inc(x);", 2)
        both = routine_matrix(corpus["inc_cond.qcl"], "qureg x[2]; qureg e[1];",
                              "if e { inc(x); }", 3, qubits=8)
        expected = np.eye(8, dtype=complex)
        expected[4:, 4:] = plain
        assert np.max(np.abs(both - expected)) < 1e-9


class TestQuantumIf:
    def test_transcript_and(self, corpus):
        s = make_session(qubits=32)
        s.run_source(corpus["inc_cond.qcl"])
        s.run_line("qureg q[4]; qureg b[1]; qureg a[1];")
        s.run_line("H(a & b);")
        s.run_line("if a and b { inc(q); }")
        assert s.echo_state() == ("[6/32] 0.5 |000000> + 0.5 |010000> + "
                                  "0.5 |100000> + 0.5 |110001>")

    def test_transcript_or_then_nor(self, corpus):
        s = make_session(qubits=32)
        s.run_source(corpus["inc_cond.qcl"])
        s.run_line("qureg q[4]; qureg b[1]; qureg a[1];")
        s.run_line("H(a & b);")
        s.run_line("if a and b { inc(q); }")
        s.run_line("if a or b { inc(q); }")
        assert s.echo_state() == ("[6/32] 0.5 |000000> + 0.5 |010001> + "
                                  "0.5 |100001> + 0.5 |110010>")
        s.run_line("if not (a or b) { inc(q); }")
        assert s.echo_state() == ("[6/32] 0.5 |000001> + 0.5 |010001> + "
                                  "0.5 |100001> + 0.5 |110010>")

    def test_else_expansion_matches_explicit_sequence(self, corpus):
        source = corpus["inc_cond.qcl"] + corpus["cinc.qcl"]
        via_if = routine_matrix(source, "qureg x[3]; qureg e[1];",
                                "if e { inc(x); } else { !inc(x); }", 4)
        explicit = routine_matrix(
            source, "qureg x[3]; qureg e[1];",
            "cinc(x, e); Not(e); !cinc(x, e); Not(e);", 4)
        assert np.max(np.abs(via_if - explicit)) < 1e-9

    def test_else_with_multiqubit_condition(self, corpus):
        matrix = routine_matrix(
            corpus["inc_cond.qcl"], "qureg x[2]; qureg a[1]; qureg b[1];",
            "if a and b { inc(x); } else { !inc(x); }", 4)
        plus = routine_matrix(corpus["inc.qcl"], "qureg x[2];", "inc(x);", 2)
        minus = routine_matrix(corpus["inc.qcl"], "qureg x[2];", "!inc(x);", 2)
        # register order: x bits 0..1, a bit 2, b bit 3; the branch is a AND b
        expected = np.zeros((16, 16), dtype=complex)
        for col in range(16):
            x, ab = col & 3, col >> 2
            block = plus if ab == 3 else minus
            for row in range(4):
                expected[(ab << 2) | row, col] = block[row, x]
        assert np.max(np.abs(matrix - expected)) < 1e-9

    def test_else_on_one_qubit_under_a_condition_on_it(self):
        s = make_session(qubits=8)
        s.run_line("qureg a[1]; qureg b[1]; qureg c[1];")
        s.run_line("H(a);")
        s.run_line("if a { if a { Not(b); } else { Not(c); } }")
        assert s.echo_state() == "[3/8] 0.707107 |000> + 0.707107 |011>"
        assert len(s.machine.allocated) == 3

    def test_else_branch_reads_one_qubit_condition_uninverted(self):
        s = make_session(qubits=8)
        s.run_source("cond qufunct f(quconst s, qureg q) "
                     "{ if s[0] { Not(q); } else { CNot(q, s[0]); } }")
        s.run_line("qureg s[1]; qureg q[1];")
        s.run_line("f(s, q);")
        assert s.echo_state() == "[2/8] 1 |00>"
        s.run_line("Not(s); f(s, q);")
        assert s.echo_state() == "[2/8] 1 |11>"

    def test_nested_ifs_equal_conjunction(self, corpus):
        nested = routine_matrix(
            corpus["inc_cond.qcl"], "qureg x[2]; qureg a[1]; qureg b[1];",
            "if a { if b { inc(x); } }", 4)
        flat = routine_matrix(
            corpus["inc_cond.qcl"], "qureg x[2]; qureg a[1]; qureg b[1];",
            "if a and b { inc(x); }", 4)
        assert np.max(np.abs(nested - flat)) < 1e-9

    def test_conditioned_general_unitary_is_block_diagonal(self):
        from qclite.machine import gate_matrix
        source = "cond operator mixup(qureg x) { H(x); Rot(0.7, x); }"
        got = routine_matrix(source, "qureg x[1]; qureg e[1];", "if e { mixup(x); }", 2)
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = gate_matrix("ROT", 0.7) @ gate_matrix("H")
        assert np.max(np.abs(got - want)) < 1e-9

    def test_conditioned_phase_is_controlled_phase(self):
        got = routine_matrix(None, "qureg x[1]; qureg e[1];", "if e { Phase(1.3); }", 2)
        want = np.diag([1, 1, np.exp(1.3j), np.exp(1.3j)])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_condition_qubits_protected(self, corpus):
        s = make_session()
        s.run_source(corpus["inc_cond.qcl"])
        s.run_line("qureg q[2]; qureg e[1];")
        with pytest.raises(RegisterError):
            s.run_line("if e { Not(e); }")

    def test_scratch_returns_to_pool(self, corpus):
        s = make_session()
        s.run_source(corpus["inc_cond.qcl"])
        s.run_line("qureg q[2]; qureg a[1]; qureg b[1];")
        s.run_line("H(a & b);")
        before = set(s.machine.allocated)
        s.run_line("if a or b { inc(q); }")
        assert s.machine.allocated == before


# -- nested quantum if/else against a basis-state model ------------------------------
#
# A program is a list of statements over a condition register c[n] and a target
# register t[m]: ("flip", j) is Not(t[j]), ("phase", k) is Phase(0.4 * k), and
# ("if", cond, then, orelse) a quantum if whose condition is a tree over c:
# ("q", i) is c[i], ("not", a), and (op, a, b) for op in and / or / xor.

def cond_trees(n):
    return st.recursive(
        st.integers(0, n - 1).map(lambda i: ("q", i)),
        lambda sub: st.one_of(sub.map(lambda a: ("not", a)),
                              st.tuples(st.sampled_from(["and", "or", "xor"]), sub, sub)),
        max_leaves=4)


def programs(n, m):
    simple = st.one_of(st.tuples(st.just("flip"), st.integers(0, m - 1)),
                       st.tuples(st.just("phase"), st.integers(1, 3)))
    return st.recursive(
        st.lists(simple, min_size=1, max_size=2),
        lambda sub: st.lists(st.one_of(simple, st.tuples(
            st.just("if"), cond_trees(n), sub, st.one_of(st.none(), sub))),
            min_size=1, max_size=3),
        max_leaves=8)


def cond_text(c):
    if c[0] == "q":
        return f"c[{c[1]}]"
    if c[0] == "not":
        return f"not ({cond_text(c[1])})"
    return f"({cond_text(c[1])} {c[0]} {cond_text(c[2])})"


def program_text(prog):
    parts = []
    for stmt in prog:
        if stmt[0] == "flip":
            parts.append(f"Not(t[{stmt[1]}]);")
        elif stmt[0] == "phase":
            parts.append(f"Phase({0.4 * stmt[1]});")
        else:
            text = f"if {cond_text(stmt[1])} {{ {program_text(stmt[2])} }}"
            if stmt[3] is not None:
                text += f" else {{ {program_text(stmt[3])} }}"
            parts.append(text)
    return " ".join(parts)


def model_truth(c, bits):
    if c[0] == "q":
        return bool(bits >> c[1] & 1)
    if c[0] == "not":
        return not model_truth(c[1], bits)
    a, b = model_truth(c[1], bits), model_truth(c[2], bits)
    return {"and": a and b, "or": a or b, "xor": a != b}[c[0]]


def model_run(prog, bits, t=0, phase=0.0):
    """The target bits and phase a program leaves on condition bits `bits`."""
    for stmt in prog:
        if stmt[0] == "flip":
            t ^= 1 << stmt[1]
        elif stmt[0] == "phase":
            phase += 0.4 * stmt[1]
        else:
            branch = stmt[2] if model_truth(stmt[1], bits) else stmt[3]
            t, phase = model_run(branch or (), bits, t, phase)
    return t, phase


def assert_program_matches_model(prog, n, m):
    s = make_session(qubits=16)
    s.run_line(f"qureg c[{n}]; qureg t[{m}]; H(c);")
    s.run_line(program_text(prog))
    want = np.zeros(1 << (n + m), dtype=complex)
    for bits in range(1 << n):
        t, phase = model_run(prog, bits)
        want[t << n | bits] = np.exp(1j * phase) / np.sqrt(1 << n)
    assert s.machine.allocated == set(range(n + m)), "every enable must be released"
    assert s.machine.amp.size == want.size
    assert np.max(np.abs(s.machine.amp - want)) < 1e-9, program_text(prog)


@pytest.mark.parametrize("prog", [
    # enclosing conditions on the same qubit: the inner else is the live branch
    [("if", ("q", 0), [("if", ("not", ("q", 0)), [("flip", 0)], [("flip", 1)])], None)],
    [("if", ("not", ("q", 0)), [("if", ("q", 0), [("flip", 0)], [("phase", 1)])],
      [("if", ("q", 0), [("flip", 1)], [("flip", 0)])])],
    [("if", ("xor", ("q", 0), ("q", 1)), [("flip", 0)],
      [("if", ("or", ("q", 0), ("not", ("q", 1))), [("flip", 1)], [("phase", 2)])])],
])
def test_nested_if_else_examples(prog):
    assert_program_matches_model(prog, 2, 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(
    lambda m: st.tuples(st.just(n), st.just(m), programs(n, m)))))
def test_nested_if_else_matches_basis_state_model(case):
    n, m, prog = case
    assert_program_matches_model(prog, n, m)


class TestForking:
    def test_demux_truth_table(self, corpus):
        matrix = routine_matrix(corpus["demux.qcl"], "qureg s[2]; qureg q[4];",
                                "demux(s, q);", 6, qubits=12)
        for sval in range(4):
            for qval in range(16):
                col = (qval << 2) | sval
                row = ((qval ^ (1 << sval)) << 2) | sval
                assert matrix[row, col] == pytest.approx(1.0)

    def test_demux_superposition(self, corpus):
        s = make_session(qubits=12)
        s.run_source(corpus["demux.qcl"])
        s.run_line("qureg s[2]; qureg q[4];")
        s.run_line("H(s); demux(s, q);")
        expected = {(1 << k) << 2 | k: 0.5 for k in range(4)}
        terms = dict(s.machine.state_terms())
        assert set(terms) == set(expected)
        for index in expected:
            assert terms[index] == pytest.approx(0.5)

    def test_fork_with_identical_branches_is_unforked(self, corpus):
        source = corpus["inc_cond.qcl"] + """
        cond qufunct same(qureg x, quconst c) {
          int n = 0;
          if c { n = 1; } else { n = 1; }
          Not(x[n]);
        }
        """
        forked = routine_matrix(source, "qureg x[2]; qureg c[1];", "same(x, c);", 3)
        plain = routine_matrix(None, "qureg x[2]; qureg c[1];", "Not(x[1]);", 3)
        assert np.max(np.abs(forked - plain)) < 1e-9

    def test_fork_exclusivity_polynomials(self):
        # conditions of all live paths XOR-sum to the constant-1 polynomial
        for n in (1, 2, 3):
            total = ZhegalkinPoly(False, frozenset())
            for bits in itertools.product([False, True], repeat=n):
                cond = CondConst(True)
                for q, positive in enumerate(bits):
                    lit = atom(q) if positive else CondNot(atom(q))
                    cond = CondBin("and", cond, lit)
                total = total.xor(to_xdnf(cond))
            assert total.is_true()

    def test_forked_paths_see_their_own_classical_state(self, corpus):
        source = """
        cond qufunct pick(quconst s, qureg q) {
          int n = 2;
          if s[0] { n = n - 1; }
          Not(q[n]);
        }
        """
        matrix = routine_matrix(source, "qureg s[1]; qureg q[3];", "pick(s, q);", 4,
                                qubits=10)
        # s=0: flips q[2]; s=1: flips q[1]
        assert matrix[(4 << 1) | 0, 0 << 1 | 0] == pytest.approx(1.0)
        assert matrix[(2 << 1) | 1, 0 << 1 | 1] == pytest.approx(1.0)

    def test_fork_nested_inside_quantum_if(self):
        source = """
        cond qufunct pickq(quconst c, quconst s, qureg q) {
          int n = 0;
          if c { if s[0] { n = 1; } Not(q[n]); }
        }
        """
        matrix = routine_matrix(source, "qureg c[1]; qureg s[1]; qureg q[2];",
                                "pickq(c, s, q);", 4, qubits=10)
        from conftest import permutation_of as perm_of
        perm = perm_of(matrix)
        for col in range(16):
            c, sv, q = col & 1, (col >> 1) & 1, col >> 2
            flipped = q ^ (1 << sv) if c else q
            assert perm[col] == (flipped << 2) | (sv << 1) | c

    def test_complex_amplitude_echo(self, corpus):
        s = make_session(qubits=8)
        s.run_source(corpus["dft.qcl"])
        s.run_line("qureg q[2]; Not(q[0]); dft(q);")
        assert s.echo_state() == "[2/8] 0.5 |00> + 0.5i |01> + -0.5 |10> + -0.5i |11>"

    def test_fork_branch_folding_constant_conditions(self):
        # one branch condition folds to a constant: only the live path runs
        always = routine_matrix("""
            cond qufunct f(quconst s, qureg q) {
              int n = 0;
              if s[0] or true { n = 1; }
              Not(q[n]);
            }
        """, "qureg s[1]; qureg q[2];", "f(s, q);", 3, qubits=8)
        expected = routine_matrix(None, "qureg s[1]; qureg q[2];", "Not(q[1]);", 3,
                                  qubits=8)
        assert np.max(np.abs(always - expected)) < 1e-9

        never = routine_matrix("""
            cond qufunct g(quconst s, qureg q) {
              int n = 0;
              if s[0] and false { n = 1; }
              Not(q[n]);
            }
        """, "qureg s[1]; qureg q[2];", "g(s, q);", 3, qubits=8)
        expected = routine_matrix(None, "qureg s[1]; qureg q[2];", "Not(q[0]);", 3,
                                  qubits=8)
        assert np.max(np.abs(never - expected)) < 1e-9

    def test_cond_support_collects_qubits(self):
        from qclite import cond_support
        cond = CondBin("or", CondNot(atom(3)), CondBin("and", atom(1), CondConst(True)))
        assert cond_support(cond) == frozenset({1, 3})
        assert cond_support(CondConst(False)) == frozenset()

    def test_demux_and_inverse_on_sixteen_qubits(self, corpus, monkeypatch):
        # the else-paths run under 0-controls, so neither call takes a scratch
        # qubit above the 11 of its registers
        s = make_session(qubits=16)
        s.run_source(corpus["demux.qcl"])
        s.run_line("qureg sel[3]; qureg out[8]; H(sel);")
        start = s.machine.amp.tobytes()
        peak = [s.machine.materialized]
        allocate = MachineState.allocate_register

        def tracked(machine, m):
            reg = allocate(machine, m)
            peak[0] = max(peak[0], machine.materialized)
            return reg

        monkeypatch.setattr(MachineState, "allocate_register", tracked)
        s.run_line("demux(sel, out);")
        assert peak[0] <= 11 and s.machine.amp.tobytes() != start
        s.run_line("!demux(sel, out);")
        assert peak[0] <= 11
        assert s.machine.amp.tobytes() == start
        assert len(s.machine.allocated) == 11

    def test_fork_inside_inverted_call(self, corpus):
        matrix = routine_matrix(corpus["demux.qcl"], "qureg s[2]; qureg q[4];",
                                "demux(s, q); !demux(s, q);", 6, qubits=12)
        assert np.max(np.abs(matrix - np.eye(64))) < 1e-9
