"""Machine-state behaviour: allocation, gates, measurement, dumps, register algebra."""

import cmath
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclite import (AllocationError, QclRuntimeError, RegisterError, MachineState,
                    PrimitiveGate, RegisterMap, adjoint_of_tape, tape_matrix)
from qclite.machine import apply_gate, format_amplitude, gate_matrix
from qclite.session import Session, SessionConfig


def g(kind, param=None, target=None, controls=()):
    return PrimitiveGate(kind, param, target, frozenset(controls))


class TestAllocation:
    def test_lowest_free_first(self):
        m = MachineState(4)
        a = m.allocate_register(1)
        b = m.allocate_register(1)
        assert a.qubits == (0,) and b.qubits == (1,)
        assert "2 / 4 qubits allocated" in m.format_dump()

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            MachineState(4).allocate_register(0)

    def test_capacity(self):
        with pytest.raises(AllocationError):
            MachineState(4).allocate_register(5)

    def test_holes_reused(self):
        m = MachineState(8)
        m.allocate_register(2)
        b = m.allocate_register(2)
        m.free_register(b)
        c = m.allocate_register(3)
        assert c.qubits == (2, 3, 4)

    def test_free_requires_empty(self):
        m = MachineState(4)
        r = m.allocate_register(1)
        m.apply_primitive(g("X", target=r.qubits[0]))
        with pytest.raises(RegisterError):
            m.free_register(r)

    def test_untouched_register_frees(self):
        m = MachineState(4)
        r = m.allocate_register(2)
        m.free_register(r)
        assert m.allocated == set()

    def test_double_free(self):
        m = MachineState(4)
        r = m.allocate_register(1)
        m.free_register(r)
        with pytest.raises(RegisterError):
            m.free_register(r)

    def test_free_below_the_top_keeps_the_state(self):
        m = MachineState(8)
        low, middle, high = m.allocate_register(2), m.allocate_register(1), m.allocate_register(2)
        for q in low.qubits + high.qubits:
            m.apply_primitive(g("H", target=q))
        amp, before = m.amp, m.amp.copy()
        m.free_register(middle)
        assert m.amp is amp and m.materialized == 5
        assert np.array_equal(m.amp, before)

    def test_dense_limit(self):
        m = MachineState(32, dense_limit=4)
        m.allocate_register(4)
        with pytest.raises(AllocationError):
            m.allocate_register(1)


class TestGates:
    def test_rot_convention(self):
        m = MachineState(4)
        r = m.allocate_register(1)
        m.apply_primitive(g("ROT", -math.pi / 3, r.qubits[0]))
        assert m.amp[0] == pytest.approx(math.cos(math.pi / 6))
        assert m.amp[1] == pytest.approx(math.sin(math.pi / 6))

    def test_transcript_amplitudes(self):
        m = MachineState(4)
        a = m.allocate_register(1)
        b = m.allocate_register(1)
        m.apply_primitive(g("ROT", -math.pi / 3, a.qubits[0]))
        m.apply_primitive(g("H", target=b.qubits[0]))
        line = m.format_dump().split("\n")[1]
        assert line == ("0.612372 |0000> + 0.612372 |0010> + "
                        "0.353553 |0001> + 0.353553 |0011>")

    def test_unsatisfied_control(self):
        m = MachineState(4)
        m.allocate_register(2)
        before = m.amp.copy()
        m.apply_primitive(g("X", target=0, controls=(1,)))
        assert np.allclose(m.amp, before)

    def test_global_phase_preserves_norm(self):
        m = MachineState(4)
        m.allocate_register(2)
        m.apply_primitive(g("H", target=0))
        m.apply_primitive(g("PHASE", 0.7))
        assert np.linalg.norm(m.amp) == pytest.approx(1.0, abs=1e-12)
        probs = np.abs(m.amp) ** 2
        assert probs[0] == pytest.approx(0.5)

    def test_unallocated_qubit_rejected(self):
        m = MachineState(4)
        with pytest.raises(RegisterError):
            m.apply_primitive(g("X", target=0))

    def test_unallocated_control_rejected(self):
        m = MachineState(4)
        m.allocate_register(1)
        with pytest.raises(RegisterError):
            m.apply_primitive(g("X", target=0, controls=(2,)))

    def test_measure_unallocated_rejected(self):
        m = MachineState(4)
        with pytest.raises(RegisterError):
            m.measure_register(RegisterMap((0,)))

    def test_invalid_machine_size(self):
        with pytest.raises(AllocationError):
            MachineState(0)

    def test_controlled_phase(self):
        m = MachineState(4)
        m.allocate_register(2)
        m.apply_primitive(g("H", target=0))
        m.apply_primitive(g("H", target=1))
        m.apply_primitive(g("PHASE", math.pi, controls=(0, 1)))
        assert m.amp[3] == pytest.approx(-0.5)
        assert m.amp[0] == pytest.approx(0.5)


class TestMeasurement:
    def test_deterministic_outcome(self):
        m = MachineState(4)
        r = m.allocate_register(3)
        m.apply_primitive(g("X", target=0))
        m.apply_primitive(g("X", target=2))
        before = m.amp.copy()
        assert m.measure_register(r) == 5
        assert np.allclose(m.amp, before)

    def test_statistics_and_reproducibility(self):
        counts = []
        for _ in range(2):
            m = MachineState(2, seed=1234)
            r = m.allocate_register(1)
            ones = 0
            for _ in range(10000):
                m.reset_state()
                m.apply_primitive(g("H", target=0))
                ones += m.measure_register(r)
            counts.append(ones)
        assert counts[0] == counts[1]
        sigma = math.sqrt(10000 * 0.25)
        assert abs(counts[0] - 5000) <= 3 * sigma

    def test_correlated_collapse(self):
        m = MachineState(4, seed=7)
        pair = m.allocate_register(2)
        m.apply_primitive(g("H", target=0))
        m.apply_primitive(g("X", target=1, controls=(0,)))
        first = m.measure_register(pair.index(0))
        second = m.measure_register(pair.index(1))
        assert first == second

    def test_repeated_measurement_stable(self):
        m = MachineState(4, seed=3)
        r = m.allocate_register(2)
        m.apply_primitive(g("H", target=0))
        m.apply_primitive(g("H", target=1))
        first = m.measure_register(r)
        for _ in range(5):
            assert m.measure_register(r) == first


class TestResetAndEmptiness:
    def test_reset(self):
        m = MachineState(4)
        m.allocate_register(2)
        m.apply_primitive(g("X", target=0))
        m.reset_state()
        assert m.amp[0] == 1.0 and np.count_nonzero(m.amp) == 1
        m.reset_state()
        assert m.amp[0] == 1.0

    def test_reset_keeps_allocation(self):
        m = MachineState(4)
        m.allocate_register(2)
        m.reset_state()
        assert m.allocated == {0, 1}

    def test_empty_fresh(self):
        m = MachineState(4)
        r = m.allocate_register(2)
        assert m.is_empty_register(r)

    def test_not_empty_after_x(self):
        m = MachineState(4)
        r = m.allocate_register(2)
        m.apply_primitive(g("X", target=1))
        assert not m.is_empty_register(r)

    def test_hh_identity_is_empty(self):
        m = MachineState(4)
        r = m.allocate_register(1)
        m.apply_primitive(g("H", target=0))
        m.apply_primitive(g("H", target=0))
        assert m.is_empty_register(r)

    def test_free_qubits_always_empty(self):
        m = MachineState(6, seed=5)
        r = m.allocate_register(3)
        for q in r.qubits:
            m.apply_primitive(g("H", target=q))
        free = RegisterMap(tuple(q for q in range(m.total) if q not in m.allocated))
        assert m.is_empty_register(free)


class TestDumpFormat:
    def test_fresh_dump(self):
        m = MachineState(4)
        assert m.format_dump() == (
            "STATE: 0 / 4 qubits allocated, 4 / 4 qubits free\n1 |0000>")

    def test_ordering_magnitude_then_index(self):
        m = MachineState(4)
        m.allocate_register(2)
        m.apply_primitive(g("ROT", -math.pi / 3, 0))
        m.apply_primitive(g("H", target=1))
        terms = m.state_terms()
        assert [i for i, _ in terms] == [0, 2, 1, 3]

    def test_amplitude_formatting(self):
        assert format_amplitude(1.0000000001) == "1"
        assert format_amplitude(0.5) == "0.5"
        assert format_amplitude(-0.4999999999) == "-0.5"
        assert format_amplitude(0.6123724356957945) == "0.612372"
        assert format_amplitude(0.5j) == "0.5i"
        assert format_amplitude(0.25 + 0.25j) == "0.25+0.25i"
        assert format_amplitude(0.25 - 0.25j) == "0.25-0.25i"
        assert format_amplitude(1e-12 + 0.5j) == "0.5i"

    def test_uniform_four_terms(self):
        m = MachineState(6)
        m.allocate_register(6)
        m.apply_primitive(g("H", target=4))
        m.apply_primitive(g("H", target=5))
        line = m.format_dump().split("\n")[1]
        assert line == ("0.5 |000000> + 0.5 |010000> + "
                        "0.5 |100000> + 0.5 |110000>")


class TestRegisterAlgebra:
    def test_slice_inclusive(self):
        q = RegisterMap((3, 4, 5, 6))
        assert q.slice(0, 2).qubits == (3, 4, 5)

    def test_index(self):
        assert RegisterMap((3, 4, 5, 6)).index(1).qubits == (4,)

    def test_concat_order(self):
        a, b = RegisterMap((5,)), RegisterMap((4,))
        assert a.concat(b).qubits == (5, 4)

    def test_bounds(self):
        q = RegisterMap((0, 1))
        with pytest.raises(RegisterError):
            q.index(2)
        with pytest.raises(RegisterError):
            q.slice(1, 0)
        with pytest.raises(RegisterError):
            q.slice(0, 2)

    def test_concat_overlap(self):
        with pytest.raises(RegisterError):
            RegisterMap((0, 1)).concat(RegisterMap((1, 2)))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(RegisterError):
            RegisterMap((1, 1))


# -- tape properties ---------------------------------------------------------

def random_tape(rng, n_qubits, length):
    tape = []
    for _ in range(length):
        kind = rng.choice(["X", "H", "ROT", "PHASE"])
        qubits = list(range(n_qubits))
        rng.shuffle(qubits)
        if kind == "PHASE":
            k = int(rng.integers(0, n_qubits))
            tape.append(g("PHASE", float(rng.uniform(-3, 3)), None, tuple(qubits[:k])))
        else:
            target = qubits[0]
            k = int(rng.integers(0, n_qubits))
            controls = tuple(qubits[1 : 1 + k])
            param = float(rng.uniform(-3, 3)) if kind == "ROT" else None
            tape.append(g(kind, param, target, controls))
    return tape


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_tapes_are_unitary(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    tape = random_tape(rng, n, int(rng.integers(1, 12)))
    matrix = tape_matrix(tape, n)
    assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(1 << n))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_adjoint_inverts_tape(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    tape = random_tape(rng, n, int(rng.integers(1, 12)))
    matrix = tape_matrix(tape + adjoint_of_tape(tape), n)
    assert np.max(np.abs(matrix - np.eye(1 << n))) < 1e-9


def test_norm_preserved_along_tape():
    rng = np.random.default_rng(99)
    m = MachineState(5)
    m.allocate_register(4)
    for gate in random_tape(rng, 4, 60):
        m.apply_primitive(gate)
        assert abs(np.linalg.norm(m.amp) - 1.0) < 1e-9


def test_gate_locality_on_product_state():
    # acting on qubit 0 leaves the reduced state of qubit 1 unchanged
    m = MachineState(4)
    m.allocate_register(2)
    m.apply_primitive(g("ROT", 0.9, 1))
    marginal_before = np.array([
        abs(m.amp[0]) ** 2 + abs(m.amp[1]) ** 2,
        abs(m.amp[2]) ** 2 + abs(m.amp[3]) ** 2,
    ])
    m.apply_primitive(g("H", target=0))
    m.apply_primitive(g("ROT", -1.3, 0))
    marginal_after = np.array([
        abs(m.amp[0]) ** 2 + abs(m.amp[1]) ** 2,
        abs(m.amp[2]) ** 2 + abs(m.amp[3]) ** 2,
    ])
    assert np.allclose(marginal_before, marginal_after, atol=1e-12)


def test_rot_adjoint_matrix():
    theta = 1.234
    forward = gate_matrix("ROT", theta)
    backward = gate_matrix("ROT", -theta)
    assert np.allclose(forward @ backward, np.eye(2), atol=1e-12)


def test_apply_gate_matches_kron_expansion():
    rng = np.random.default_rng(5)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    mine = vec.copy()
    apply_gate(mine, g("H", target=1))
    expected = np.kron(np.eye(2), np.kron(gate_matrix("H"), np.eye(2))) @ vec
    assert np.allclose(mine, expected, atol=1e-12)


# -- kernels against per-index loops -----------------------------------------

def loop_matrix(gate, n):
    """The 2^n x 2^n matrix of one gate, built one basis index at a time."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1 << n):
        if not all((i >> c) & 1 for c in gate.controls):
            out[i, i] = 1.0
        elif gate.kind == "PHASE":
            out[i, i] = cmath.exp(1j * gate.param)
        else:
            bit = (i >> gate.target) & 1
            u = gate_matrix(gate.kind, gate.param)
            for b in (0, 1):
                out[i ^ ((bit ^ b) << gate.target), i] = u[b, bit]
    return out


@st.composite
def gates_on_states(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["X", "H", "ROT", "PHASE"]))
    qubits = draw(st.permutations(range(n)))
    target = None if kind == "PHASE" else qubits.pop()
    controls = qubits[: draw(st.integers(0, len(qubits)))]
    param = None if kind in ("X", "H") else draw(st.floats(-7.0, 7.0))
    return n, g(kind, param, target, controls), draw(st.integers(0, 2**32 - 1))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


# target and controls cover every qubit, so the gate's views are 0-d
@example((3, g("X", None, 1, (0, 2)), 1))
@example((2, g("H", None, 0, (1,)), 2))
@example((2, g("PHASE", 0.5, None, (0, 1)), 3))
@example((1, g("ROT", 1.1, 0), 4))
@settings(max_examples=150, deadline=None)
@given(gates_on_states())
def test_apply_gate_matches_loop_matrix(case):
    n, gate, seed = case
    vec = random_state(n, seed)
    mine = vec.copy()
    apply_gate(mine, gate)
    assert np.max(np.abs(mine - loop_matrix(gate, n) @ vec)) < 1e-12


@st.composite
def registers_on_states(draw, spare):
    """n, a register over qubits 0..n+spare-1, and a seed."""
    n = draw(st.integers(1, 8))
    qubits = draw(st.permutations(range(n + spare)))
    return n, qubits[: draw(st.integers(1, n + spare))], draw(st.integers(0, 2**32 - 1))


def machine_holding(n, seed):
    """A machine with qubits 0..n-1 allocated in a random state, two free qubits above."""
    m = MachineState(n + 2, seed=seed)
    m.allocate_register(n)
    m.amp[:] = random_state(n, seed)
    return m


@settings(max_examples=100, deadline=None)
@given(registers_on_states(spare=0))
def test_measure_matches_loop_collapse(case):
    n, qubits, seed = case
    m = machine_holding(n, seed)
    amp = m.amp.copy()
    draw = np.random.default_rng(seed).random() * np.cumsum(np.abs(amp) ** 2)[-1]
    total, picked = 0.0, len(amp) - 1
    for i, a in enumerate(amp):
        total += abs(a) ** 2
        if total > draw:
            picked = i
            break
    for i in range(len(amp)):
        if any((i >> q) & 1 != (picked >> q) & 1 for q in qubits):
            amp[i] = 0.0
    outcome = m.measure_register(RegisterMap(tuple(qubits)))
    assert outcome == sum(((picked >> q) & 1) << k for k, q in enumerate(qubits))
    assert np.max(np.abs(m.amp - amp / np.linalg.norm(amp))) < 1e-12


def test_measure_renormalizes_with_the_bytes_of_a_division():
    """The collapsed state is scaled by 1/norm; its bytes are those of a
    complex-by-real division by the norm, but for the sign of some zero parts."""
    rng = np.random.default_rng(11)
    for seed in range(1000):
        m = machine_holding(6, seed)
        qubits = [int(q) for q in rng.permutation(6)[: rng.integers(1, 7)]]
        collapsed = m.amp.copy()
        outcome = m.measure_register(RegisterMap(tuple(qubits)))
        index = np.arange(collapsed.size)
        for k, q in enumerate(qubits):
            collapsed[((index >> q) & 1) != ((outcome >> k) & 1)] = 0.0
        mine = m.amp.view(np.float64)
        divided = (collapsed / np.linalg.norm(collapsed)).view(np.float64)
        assert np.array_equal(mine == 0.0, divided == 0.0)
        assert mine[divided != 0.0].tobytes() == divided[divided != 0.0].tobytes()


@settings(max_examples=100, deadline=None)
@given(registers_on_states(spare=2), st.booleans())
def test_is_empty_matches_loop(case, confined):
    n, qubits, seed = case
    m = machine_holding(n, seed)
    rng = np.random.default_rng(seed + 1)
    for i in range(m.amp.size):
        # sparse states, some of them confined to the register's zero slice
        hit = any((i >> q) & 1 for q in qubits)
        if (confined and hit) or rng.random() < 0.7:
            m.amp[i] = rng.choice([0.0, 1e-10])
    empty = all(abs(m.amp[i]) <= 1e-9 for i in range(m.amp.size)
                if any((i >> q) & 1 for q in qubits))
    assert m.is_empty_register(RegisterMap(tuple(qubits))) == empty


# -- pending runs on wide states -------------------------------------------------

WIDE = 16           # 2^16 amplitudes: the machine holds runs of PHASE and of X gates,
                    # and the factor of its uncontrolled H gates


def wide_run(kind):
    """The 15 PHASE gates of a 16-qubit dft before its H on qubit 0, the 24 X of
    flip, or 15 uncontrolled H, an odd number of factors 1/sqrt(2)."""
    if kind == "PHASE":
        return [g("PHASE", math.pi / 2 ** (WIDE - j), None, (0, WIDE - j)) for j in range(1, WIDE)]
    if kind == "H":
        return [g("H", None, t) for t in range(1, WIDE)]
    return [g("X", None, t, (c,)) for i in range(WIDE // 2)
            for t, c in ((i, WIDE - 1 - i), (WIDE - 1 - i, i), (i, WIDE - 1 - i))]


def unapplied(m):
    """The gates a machine has not yet applied in full: its run and its H factors."""
    return len(m._run) + m._halvings


def pending_and_applied(kind):
    """Two machines after the same run on qubits 0..15, random over the low 12:
    one holds the run pending, the other applied it gate by gate."""
    machines = []
    for _ in range(2):
        m = MachineState(WIDE + 4, seed=3)
        m.allocate_register(WIDE)
        m.amp[: 1 << 12] = random_state(12, 4)
        machines.append(m)
    pending, applied = machines
    for gate in wide_run(kind):
        pending.apply_primitive(gate)
        apply_gate(applied.amp, gate)
        applied.version += 1
    assert unapplied(pending) == len(wide_run(kind))
    return pending, applied


def echo(m):
    session = Session(SessionConfig(total_qubits=m.total), out=io.StringIO())
    session.machine = m
    return session.echo_state()


READS = {
    "amp": lambda m: m.amp,
    "measure": lambda m: m.measure_register(RegisterMap((3, 13))),
    # after the flip, qubits 0..3 hold the bits of the empty qubits 12..15
    "is_empty": lambda m: m.is_empty_register(RegisterMap((0, 1, 2, 3))),
    "free": lambda m: m.free_register(RegisterMap((0, 1, 2, 3))),
    "allocate": lambda m: m.allocate_register(2),
    "reset": lambda m: m.reset_state(),
    "dump": lambda m: m.format_dump(),
    "echo": echo,
}


@pytest.mark.parametrize("kind", ["PHASE", "X", "H"])
@pytest.mark.parametrize("read", sorted(READS))
def test_every_read_sees_the_pending_run(kind, read):
    pending, applied = pending_and_applied(kind)
    results = []
    for m in (pending, applied):
        try:
            results.append(READS[read](m))
        except RegisterError as err:
            results.append(str(err))
    mine, theirs = results
    if not isinstance(mine, np.ndarray):        # the amplitudes are compared below
        assert mine == theirs
    assert not unapplied(pending)
    assert pending.version == applied.version
    assert pending.materialized == applied.materialized
    if kind == "X":
        assert pending._amp.tobytes() == applied._amp.tobytes()
    else:
        assert np.max(np.abs(pending._amp - applied._amp)) <= 1e-12


def test_statement_that_raises_leaves_its_gates_applied():
    # the X of flip wait in a pending run, the factors of the H in a pending scale
    for body, gates in (("flip(x);", wide_run("X")),
                        ("H(x);", [g("H", None, t) for t in range(WIDE)])):
        s = Session(SessionConfig(total_qubits=WIDE + 4, echo=False), out=io.StringIO())
        s.run_source(f"operator bad(qureg x, int k) {{ int d; {body} d = 1 / k; }}")
        s.run_line(f"qureg q[{WIDE}];")
        s.machine.amp[: 1 << 12] = random_state(12, 4)
        expected = s.machine.amp.copy()
        for gate in gates:
            apply_gate(expected, gate)
        version = s.machine.version
        with pytest.raises(QclRuntimeError, match="division by zero"):
            s.run_line("bad(q, 0);")
        assert not unapplied(s.machine)
        if body.startswith("flip"):
            assert s.machine._amp.tobytes() == expected.tobytes()
        else:
            assert np.max(np.abs(s.machine._amp - expected)) <= 1e-12
        assert s.machine.version == version + len(gates)


def test_five_thousand_h_in_one_statement_stay_normalized():
    # unnormalized, each H grows the norm by sqrt(2): 2048 of them would
    # overflow, and their pending factor 2^-3000 would underflow
    n = 15
    s = Session(SessionConfig(total_qubits=n, echo=False), out=io.StringIO())
    s.run_source("operator many(qureg x) { int i; for i = 1 to 335 { H(x); } }")
    s.run_line(f"qureg q[{n}];")
    s.machine.amp[:] = random_state(n, 8)
    expected = s.machine.amp.copy()
    for _ in range(335):
        for t in range(n):
            apply_gate(expected, g("H", None, t))
    s.run_line("many(q);")
    amp = s.machine.amp
    assert np.isfinite(amp.view(np.float64)).all()
    assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12
    assert np.max(np.abs(amp - expected)) <= 1e-12


def mixed_tape(rng, n, length):
    """Gates of every kind on n qubits, each with up to two literals as controls."""
    tape = []
    for _ in range(length):
        kind = str(rng.choice(["H", "H", "PHASE", "X", "ROT"]))
        qubits = [int(q) for q in rng.permutation(n)]
        target = None if kind == "PHASE" else qubits.pop()
        controls = [q if rng.random() < 0.7 else ~q for q in qubits[: rng.integers(0, 3)]]
        param = float(rng.uniform(-3, 3)) if kind in ("PHASE", "ROT") else None
        tape.append(g(kind, param, target, controls))
    return tape


@pytest.mark.parametrize("n,seed", [(14, 1), (15, 2), (16, 3)])
def test_mixed_gates_on_wide_states_match_the_per_gate_loop(n, seed):
    rng = np.random.default_rng(seed)
    m = MachineState(n, seed=seed)
    m.allocate_register(n)
    m.amp[:] = random_state(n, seed)
    expected = m.amp.copy()
    for k, gate in enumerate(mixed_tape(rng, n, 120)):
        m.apply_primitive(gate)
        apply_gate(expected, gate)
        if k % 40 == 39:                      # flushes between the gates, too
            assert np.max(np.abs(m.amp - expected)) <= 1e-12
    assert np.max(np.abs(m.amp - expected)) <= 1e-12


def test_h_below_two_to_the_fourteen_has_the_bytes_of_apply_gate():
    n = 13
    m = MachineState(n)
    m.allocate_register(n)
    m.amp[:] = random_state(n, 5)
    expected = m.amp.copy()
    for t in (0, 4, 12, 4):
        m.apply_primitive(g("H", None, t))
        apply_gate(expected, g("H", None, t))
        assert not unapplied(m)
    assert m.amp.tobytes() == expected.tobytes()
