"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from qclite import (DirectPlan, MachineState, PrimitiveGate, check_static_semantics,
                    parse_source, synthesize_enable, to_xdnf, cond_truth)
from qclite.cli import repl_loop
from qclite.qcond import CondAtom, CondBin, CondConst, CondNot
from qclite.session import Session, SessionConfig
from conftest import (dft_matrix, enable_column, is_subcube, make_session, permutation_of,
                      routine_matrix)

TOL = 1e-9


def report(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS")


def repl_transcript(input_text: str, qubits: int, echo: bool) -> str:
    out = io.StringIO()
    session = Session(SessionConfig(total_qubits=qubits, seed=0, echo=echo), out=out)
    repl_loop(session, stdin=io.StringIO(input_text))
    return out.getvalue()


DFT_DEF = ("operator dft(qureg q) { const n=#q; int i; int j; "
           "for i=1 to n { for j=1 to i-1 { if q[n-i] and q[n-j] "
           "{ Phase(pi/2^(i-j)); } } H(q[n-i]); } flip(q); }")
INC_DEF = ("cond qufunct inc(qureg x) { int i; "
           "for i = #x-1 to 1 step -1 { CNot(x[i],x[0:i-1]); } Not(x[0]); }")


def test_criterion_1_golden_transcripts():
    started = time.perf_counter()

    output = repl_transcript(
        "qureg a[1]; qureg b[1];\nRot(-pi/3,a);\nH(b);\ndump;\n", qubits=4, echo=False)
    assert output == (
        "qcl> qureg a[1]; qureg b[1];\n"
        "qcl> Rot(-pi/3,a);\n"
        "qcl> H(b);\n"
        "qcl> dump;\n"
        ": STATE: 2 / 4 qubits allocated, 2 / 4 qubits free\n"
        "0.612372 |0000> + 0.612372 |0010> + 0.353553 |0001> + 0.353553 |0011>\n"
        "qcl> \n")

    output = repl_transcript(
        f"{DFT_DEF}\nqureg q[2];\ndft(q);\n!dft(q);\n", qubits=32, echo=True)
    assert output == (
        f"qcl> {DFT_DEF}\n"
        "qcl> qureg q[2];\n"
        "qcl> dft(q);\n"
        "[2/32] 0.5 |00> + 0.5 |01> + 0.5 |10> + 0.5 |11>\n"
        "qcl> !dft(q);\n"
        "[2/32] 1 |00>\n"
        "qcl> \n")

    output = repl_transcript(
        f"{INC_DEF}\n"
        "qureg q[4]; qureg b[1]; qureg a[1];\n"
        "H(a & b);\n"
        "if a and b { inc(q); }\n"
        "if a or b { inc(q); }\n"
        "if not (a or b) { inc(q); }\n", qubits=32, echo=True)
    assert output == (
        f"qcl> {INC_DEF}\n"
        "qcl> qureg q[4]; qureg b[1]; qureg a[1];\n"
        "qcl> H(a & b);\n"
        "[6/32] 0.5 |000000> + 0.5 |010000> + 0.5 |100000> + 0.5 |110000>\n"
        "qcl> if a and b { inc(q); }\n"
        "[6/32] 0.5 |000000> + 0.5 |010000> + 0.5 |100000> + 0.5 |110001>\n"
        "qcl> if a or b { inc(q); }\n"
        "[6/32] 0.5 |000000> + 0.5 |010001> + 0.5 |100001> + 0.5 |110010>\n"
        "qcl> if not (a or b) { inc(q); }\n"
        "[6/32] 0.5 |000001> + 0.5 |010001> + 0.5 |100001> + 0.5 |110010>\n"
        "qcl> \n")

    assert time.perf_counter() - started < 1.0
    report(1, "golden transcripts")


def test_criterion_2_dft_matrix(corpus):
    started = time.perf_counter()
    for m in (2, 3):
        matrix = routine_matrix(corpus["dft.qcl"], f"qureg q[{m}];", "dft(q);", m)
        assert np.max(np.abs(matrix - dft_matrix(m))) < TOL
    assert time.perf_counter() - started < 1.0
    report(2, "dft equals the discrete Fourier matrix")


def _operator_cases(corpus):
    # every corpus operator with all register sizes up to 8 total qubits
    for m in range(1, 9):
        yield corpus["dft.qcl"], f"qureg q[{m}];", "dft(q)", m
    for m in range(1, 9):
        yield corpus["inc.qcl"], f"qureg x[{m}];", "inc(x)", m
    for m in range(1, 8):
        yield corpus["cinc.qcl"], f"qureg x[{m}]; qureg e[1];", "cinc(x, e)", m + 1
    for m in range(1, 8):
        yield corpus["parity.qcl"], f"qureg x[{m}]; qureg y[1];", "parity(x, y)", m + 1
    for m in (1, 2):
        yield corpus["demux.qcl"], f"qureg s[{m}]; qureg q[{1 << m}];", "demux(s, q)", m + (1 << m)
    for m in range(1, 5):
        yield None, f"qureg a[{m}]; qureg b[{m}];", "fanout(a, b)", 2 * m
    for m in range(1, 9):
        yield None, f"qureg q[{m}];", "flip(q)", m


def test_criterion_3_adjoints(corpus):
    for defs, decls, call, n in _operator_cases(corpus):
        forward = routine_matrix(defs, decls, f"{call};", n)
        backward = routine_matrix(defs, decls, f"!{call};", n)
        residual = np.max(np.abs(backward @ forward - np.eye(1 << n)))
        assert residual < TOL, f"!{call} is not the inverse at {n} qubits"
    report(3, "adjoint inverts every corpus operator up to 8 qubits")


def test_criterion_4_conditional_equivalence(corpus):
    auto = routine_matrix(corpus["inc_cond.qcl"], "qureg x[3]; qureg e[1];",
                          "if e { inc(x); }", 4)
    explicit = routine_matrix(corpus["cinc.qcl"], "qureg x[3]; qureg e[1];",
                              "cinc(x, e);", 4)
    plain = routine_matrix(corpus["inc.qcl"], "qureg x[3];", "inc(x);", 3)
    block = np.eye(16, dtype=complex)
    block[8:, 8:] = plain
    assert np.max(np.abs(auto - explicit)) < TOL
    assert np.max(np.abs(auto - block)) < TOL
    assert np.max(np.abs(explicit - block)) < TOL
    report(4, "auto-derived conditional equals the explicit one")


def _random_condition(rng, qubits, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return CondConst(bool(rng.integers(0, 2)))
        return CondAtom(frozenset({int(rng.integers(0, qubits))}))
    op = rng.choice(["and", "or", "xor", "not"])
    if op == "not":
        return CondNot(_random_condition(rng, qubits, depth - 1))
    return CondBin(op, _random_condition(rng, qubits, depth - 1),
                   _random_condition(rng, qubits, depth - 1))


def test_criterion_5_condition_compiler():
    rng = np.random.default_rng(20260809)
    tested = direct = 0
    while tested < 200:
        n = int(rng.integers(1, 6))
        cond = _random_condition(rng, n, 4)
        poly = to_xdnf(cond)
        if poly.is_true() or poly.is_false():
            continue
        tested += 1
        machine = MachineState(8)
        machine.allocate_register(n)
        plan = synthesize_enable(poly, machine)
        column = enable_column(plan, machine, n)
        truth = [cond_truth(cond, {q: bool(k >> q & 1) for q in range(n)})
                 for k in range(1 << n)]
        assert column == truth
        # a direct plan exactly when the truth set is a subcube of the basis states
        assert isinstance(plan, DirectPlan) == is_subcube(truth, n)
        direct += isinstance(plan, DirectPlan)
        if plan.scratch is not None:
            machine.free_register(plan.scratch)  # legal only because scratch is |0>
    assert 0 < direct < tested
    report(5, "200 random conditions match brute-force truth tables")


def test_criterion_6_quantum_functions(corpus):
    qufunct_cases = [
        (corpus["inc.qcl"], "qureg x[3];", "inc(x);", 3),
        (corpus["cinc.qcl"], "qureg x[2]; qureg e[1];", "cinc(x, e);", 3),
        (corpus["parity.qcl"], "qureg x[3]; qureg y[1];", "parity(x, y);", 4),
        (corpus["demux.qcl"], "qureg s[2]; qureg q[4];", "demux(s, q);", 6),
        (corpus["scratch_parity.qcl"], "qureg x[2]; qureg y[1]; qureg s[1];",
         "scratch_parity(x, y, s);", 4),
        (None, "qureg q[3];", "flip(q);", 3),
        (None, "qureg a[2]; qureg b[2];", "fanout(a, b);", 4),
    ]
    for defs, decls, call, n in qufunct_cases:
        matrix = routine_matrix(defs, decls, call, n, qubits=12)
        assert permutation_of(matrix, atol=TOL) is not None, f"{call} not a permutation"

    for m in range(1, 5):
        matrix = routine_matrix(corpus["inc.qcl"], f"qureg x[{m}];", "inc(x);", m)
        perm = permutation_of(matrix, atol=TOL)
        assert perm == [(k + 1) % (1 << m) for k in range(1 << m)]

    matrix = routine_matrix(corpus["parity.qcl"], "qureg x[4]; qureg y[1];",
                            "parity(x, y);", 5)
    perm = permutation_of(matrix, atol=TOL)
    for value in range(16):
        assert perm[value] == value | (bin(value).count("1") % 2) << 4
    report(6, "corpus qufuncts are permutations; inc and parity match tables")


def test_criterion_7_scratch_management(corpus):
    for value in range(8):
        session = make_session(qubits=12)
        session.run_source(corpus["scratch_parity.qcl"])
        session.run_line("qureg x[3]; qureg y[1]; qureg s[1];")
        for bit in range(3):
            if value >> bit & 1:
                session.run_line(f"Not(x[{bit}]);")
        session.run_line("scratch_parity(x, y, s);")
        machine = session.machine
        terms = machine.state_terms()
        assert len(terms) == 1
        index, amp = terms[0]
        assert abs(abs(amp) - 1.0) < TOL
        assert index & 7 == value, "quconst argument must be preserved"
        assert (index >> 3) & 1 == bin(value).count("1") % 2, "target must hold f(x)"
        assert index >> 4 == 0, "scratch and auxiliary must be empty"
        assert machine.materialized == 5, "auxiliary register must be freed"
        from qclite.machine import RegisterMap
        assert machine.is_empty_register(RegisterMap((4,)))
    report(7, "scratch and auxiliary registers return to zero; target holds f(x)")


def test_criterion_8_forking_demux(corpus):
    matrix = routine_matrix(corpus["demux.qcl"], "qureg s[2]; qureg q[4];",
                            "demux(s, q);", 6, qubits=12)
    for sval in range(4):
        for qval in range(16):
            col = (qval << 2) | sval
            row = ((qval ^ (1 << sval)) << 2) | sval
            assert abs(matrix[row, col] - 1.0) < TOL

    session = make_session(qubits=12)
    session.run_source(corpus["demux.qcl"])
    session.run_line("qureg s[2]; qureg q[4];")
    session.run_line("H(s); demux(s, q);")
    expected = np.zeros(1 << 6, dtype=complex)
    for k in range(4):
        expected[(1 << k) << 2 | k] = 0.5
    assert np.max(np.abs(session.machine.amp - expected)) < TOL
    report(8, "demux flips exactly q[k] and entangles a superposed selector")


def test_criterion_9_measurement_statistics():
    counts = []
    for _ in range(2):
        machine = MachineState(2, seed=97)
        register = machine.allocate_register(1)
        ones = 0
        for _ in range(10000):
            machine.reset_state()
            machine.apply_primitive(PrimitiveGate("H", None, 0, frozenset()))
            ones += machine.measure_register(register)
        counts.append(ones)
    sigma = math.sqrt(10000 * 0.25)
    for ones in counts:
        assert abs(ones - 5000) <= 3 * sigma
        assert abs((10000 - ones) - 5000) <= 3 * sigma
    assert counts[0] == counts[1], "same seed must reproduce identical counts"
    report(9, "Born statistics within 3 sigma and seed-reproducible")


STATIC_RULES = {
    "hierarchy": (
        "operator up(qureg q) { H(q); }\nprocedure run(qureg q) { up(q); }",
        "qufunct f(qureg q) { H(q); }"),
    "globals": (
        "const k = 2;\noperator f(qureg q) { Rot(pi/k, q); }",
        "int k;\noperator f(qureg q) { Rot(pi/k, q); }"),
    "random": (
        "procedure p() { real r; r = random(); print r; }",
        "operator f(qureg q) { Rot(random(), q); }"),
    "measure/reset": (
        "procedure p(qureg q) { measure q; reset; }",
        "operator f(qureg q) { measure q; }"),
    "qufunct gates": (
        "qufunct f(qureg q) { Not(q); flip(q); }",
        "qufunct f(qureg q) { Rot(0.1, q); }"),
    "quconst targets": (
        "qufunct f(quconst c, qureg q) { CNot(q, c); }",
        "qufunct f(quconst c) { Not(c); }"),
    "cond requirement": (
        "cond qufunct g(qureg x) { Not(x); }\n"
        "procedure p(qureg x, qureg e) { if e { g(x); } }",
        "qufunct g(qureg x) { Not(x); }\n"
        "procedure p(qureg x, qureg e) { if e { g(x); } }"),
    "fork placement": (
        "cond qufunct f(quconst s, qureg q) { int n = 0; "
        "if s[0] { n = 1; } Not(q[n]); }",
        "procedure p(qureg s) { int n = 0; if s[0] { n = 1; } print n; }"),
}


def test_criterion_10_static_rules():
    for rule, (accepted, rejected) in STATIC_RULES.items():
        assert check_static_semantics(parse_source(accepted)) == [], \
            f"{rule}: accepting program was rejected"
        assert check_static_semantics(parse_source(rejected)) != [], \
            f"{rule}: rejecting program was accepted"
    report(10, "every static rule has accepting and rejecting programs")
