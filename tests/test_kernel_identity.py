"""The gate kernel and the measurement draw against the whole-view code they replaced.

`apply_gate` runs its ufuncs on merged, reordered views under a scoped ufunc
buffer, and `measure_register` draws over fixed-size chunks.  Neither changes
an elementwise operation, so both must match the earlier code, copied below,
byte for byte.  `apply_run` fuses runs of gates: it must match the per-gate
`apply_gate` loop, within 1e-12 for a diagonal run, whose factors are
multiplied in another order, and byte for byte wherever it only moves copies
or falls back to that loop.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclite import MachineState, PrimitiveGate, RegisterError, RegisterMap
import qclite.machine
from qclite.machine import _DRAW_CHUNK as CHUNK, _gate_plan, apply_gate, apply_run

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def g(kind, param=None, target=None, controls=()):
    return PrimitiveGate(kind, param, target, frozenset(controls))


# -- the earlier code, kept as the reference ---------------------------------

def reference_fixed(amp, bits):
    n = amp.shape[0].bit_length() - 1
    index = [slice(None)] * n
    for q, b in bits.items():
        index[n - 1 - q] = b
    return amp.reshape((2,) * n + amp.shape[1:], copy=False)[(*index, ...)]


def reference_apply_gate(amp, g):
    on = dict.fromkeys(g.controls, 1)
    if g.kind == "PHASE":
        reference_fixed(amp, on)[...] *= cmath.exp(1j * g.param)
        return
    v0 = reference_fixed(amp, {**on, g.target: 0})
    v1 = reference_fixed(amp, {**on, g.target: 1})
    if g.kind == "H":
        v0 += v1
        v1 *= -2.0
        v1 += v0
        reference_fixed(amp, on)[...] *= _SQRT_HALF
    elif g.kind == "X":
        v0[...], v1[...] = v1, v0.copy()
    elif g.kind == "ROT":
        c, s = math.cos(g.param / 2.0), math.sin(g.param / 2.0)
        sa0 = s * v0
        v0 *= c
        v0 += s * v1
        v1 *= c
        v1 -= sa0
    else:
        raise ValueError(f"unknown gate kind {g.kind!r}")


def reference_measure(machine, reg):
    prob = np.abs(machine.amp) ** 2
    cum = np.cumsum(prob)
    draw = machine.rng.random() * cum[-1]
    picked = int(np.searchsorted(cum, draw, side="right"))
    picked = min(picked, machine.amp.size - 1)
    outcome = 0
    for i, q in enumerate(reg.qubits):
        outcome |= ((picked >> q) & 1) << i
        reference_fixed(machine.amp, {q: 1 - ((picked >> q) & 1)})[...] = 0.0
    machine.amp /= np.linalg.norm(machine.amp)
    machine.version += 1
    return outcome


# -- apply_gate ---------------------------------------------------------------

def random_amplitudes(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def gates_on_arrays(draw):
    """A gate on n = 1..14 qubits and an array of 2^n amplitudes or 2^n rows of columns."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["X", "H", "ROT", "PHASE"]))
    qubits = draw(st.permutations(range(n)))
    target = None if kind == "PHASE" else qubits.pop()
    controls = qubits[: draw(st.integers(0, len(qubits)))]
    param = None if kind in ("X", "H") else draw(st.floats(-7.0, 7.0))
    columns = draw(st.sampled_from([None, 1, 2, 4, 8]))
    shape = (1 << n,) if columns is None else (1 << n, columns)
    return shape, g(kind, param, target, controls), draw(st.integers(0, 2**32 - 1))


# target and controls cover every qubit, so the views are 0-d, or 1-D over columns
@example(((8,), g("X", None, 1, (0, 2)), 1))
@example(((4,), g("H", None, 0, (1,)), 2))
@example(((4,), g("PHASE", 0.5, None, (0, 1)), 3))
@example(((2,), g("ROT", 1.1, 0), 4))
@example(((4, 4), g("H", None, 1, (0,)), 5))
@example(((4, 1), g("ROT", -0.3, 0, (1,)), 6))
# long runs split by low targets and controls, above the scoped-buffer size
@example(((1 << 14,), g("H", None, 1), 7))
@example(((1 << 14,), g("PHASE", 0.3, None, (8, 2)), 8))
@example(((1 << 13, 2), g("X", None, 0, (12,)), 9))
@settings(max_examples=300, deadline=None)
@given(gates_on_arrays())
def test_apply_gate_matches_reference_bytes(case):
    shape, gate, seed = case
    mine = random_amplitudes(shape, seed)
    theirs = mine.copy()
    bufsize = np.getbufsize()
    apply_gate(mine, gate)
    assert np.getbufsize() == bufsize
    reference_apply_gate(theirs, gate)
    assert mine.tobytes() == theirs.tobytes()


@settings(max_examples=200, deadline=None)
@given(gates_on_arrays(), st.data())
def test_zero_controls_match_flipped_positive_controls(case, data):
    # a 0-control on q is a 1-control on q between two X gates on q;
    # X only moves exact copies, so the bytes must agree
    shape, gate, seed = case
    negated = data.draw(st.sets(st.sampled_from(sorted(gate.controls)))
                        if gate.controls else st.just(set()))
    mine = random_amplitudes(shape, seed)
    theirs = mine.copy()
    controls = (gate.controls - negated) | {~q for q in negated}
    apply_gate(mine, PrimitiveGate(gate.kind, gate.param, gate.target, frozenset(controls)))
    for q in negated:
        reference_apply_gate(theirs, g("X", None, q))
    reference_apply_gate(theirs, gate)
    for q in negated:
        reference_apply_gate(theirs, g("X", None, q))
    assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("gate", [g("X", None, 0, (1, ~1)), g("H", None, 2, (~0, 0, 1)),
                                  g("ROT", 0.7, 1, (~2, 2)), g("PHASE", 0.3, None, (~1, 1))])
def test_contradictory_controls_select_nothing(gate):
    amp = random_amplitudes(8, 3)
    before = amp.tobytes()
    apply_gate(amp, gate)
    assert amp.tobytes() == before


def test_unallocated_zero_control_is_named():
    machine = MachineState(4)
    machine.allocate_register(2)
    with pytest.raises(RegisterError, match="qubit 3 is not allocated"):
        machine.apply_primitive(g("X", None, 0, (1, ~3)))


@pytest.mark.parametrize("n", [3, 14])
def test_unknown_kind_restores_bufsize(n):
    amp = random_amplitudes(1 << n, 0)
    bufsize = np.getbufsize()
    with pytest.raises(ValueError, match="unknown gate kind"):
        apply_gate(amp, g("CZ", None, 0, (1,)))
    assert np.getbufsize() == bufsize


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h_and_phase_allocate_no_buffers_on_16_qubits():
    # whole-view ufuncs on strided views copied through 8192-element buffers
    # (386 KB for H, 258 KB for a doubly controlled PHASE)
    # Start from an empty plan cache: the plans of earlier tests decide when its
    # dict grows, and a growth step from about 450 entries allocates 39 KB.
    _gate_plan.cache_clear()
    amp = random_amplitudes(1 << 16, 1)
    # H with param 1.0 is the butterfly alone, as MachineState applies it on wide states
    gates = [g("H", scale, t) for t in range(16) for scale in (None, 1.0)]
    gates += [g("PHASE", 0.1 * i, None, (i, j)) for i in range(16) for j in range(i)]
    peaks = {gate: peak_bytes(apply_gate, amp, gate) for gate in gates}
    worst = max(peaks, key=peaks.get)
    assert peaks[worst] < 16 * 1024, (worst, peaks[worst])


def test_zero_controls_allocate_no_buffers_on_16_qubits():
    # the same bound with a 0-control in every gate
    _gate_plan.cache_clear()
    amp = random_amplitudes(1 << 16, 1)
    gates = [g("H", None, t, (~((t + 5) % 16),)) for t in range(16)]
    gates += [g("PHASE", 0.1 * i, None, (i, ~j)) for i in range(16) for j in range(i)]
    peaks = {gate: peak_bytes(apply_gate, amp, gate) for gate in gates}
    worst = max(peaks, key=peaks.get)
    assert peaks[worst] < 16 * 1024, (worst, peaks[worst])


# -- apply_run ------------------------------------------------------------------

def literal(q, positive):
    return q if positive else ~q


@st.composite
def diagonal_runs(draw):
    """A PHASE run on 2..10 qubits that fuses: literals common to every gate, and
    per gate at most one more literal, none (a constant phase) or a
    contradictory pair (a gate that selects nothing)."""
    n = draw(st.integers(2, 10))
    qubits = draw(st.permutations(range(n)))
    signs = st.booleans()
    common = {literal(q, draw(signs)) for q in qubits[: draw(st.integers(0, n - 1))]}
    free = qubits[len(common):]
    run = []
    for _ in range(draw(st.integers(2, 12))):
        extra = draw(st.sampled_from(["literal", "literal", "none", "contradiction"]))
        q = draw(st.sampled_from(free))
        controls = set(common)
        if extra == "literal":
            controls.add(literal(q, draw(signs)))
        elif extra == "contradiction":
            controls |= {q, ~q}
        run.append(g("PHASE", draw(st.floats(-7.0, 7.0)), None, controls))
    return n, run, draw(st.integers(0, 2**32 - 1))


def swap_gates(a, b):
    return [g("X", None, a, (b,)), g("X", None, b, (a,)), g("X", None, a, (b,))]


@st.composite
def x_runs(draw):
    """An X run on 2..10 qubits of singly controlled gates: qubit swaps, which
    fuse into one permutation, or CNOTs drawn at random, which mostly do not.
    The last item tells which."""
    n = draw(st.integers(2, 10))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    swaps = draw(st.booleans())
    if swaps:
        run = [gate for a, b in draw(st.lists(pairs, min_size=1, max_size=8))
               for gate in swap_gates(a, b)]
    else:
        run = [g("X", None, t, (c,)) for t, c in draw(st.lists(pairs, min_size=2, max_size=12))]
    return n, run, draw(st.integers(0, 2**32 - 1)), swaps


def per_gate_and_run(n, run, seed):
    """The amplitudes after apply_run and after the per-gate loop, and the gates
    apply_run left to apply_gate."""
    theirs = random_amplitudes(1 << n, seed)
    mine = theirs.copy()
    for gate in run:
        apply_gate(theirs, gate)
    calls = []

    def apply_one(amp, gate):
        calls.append(gate)
        apply_gate(amp, gate)

    bufsize = np.getbufsize()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qclite.machine, "apply_gate", apply_one)
        apply_run(mine, run)
    assert np.getbufsize() == bufsize
    return mine, theirs, calls


@example((2, [g("PHASE", 0.5), g("PHASE", 0.25, None, (~0,))], 1))
@example((10, [g("PHASE", 0.1 * k, None, (0, 9 - k)) for k in range(9)], 2))
@example((6, [g("PHASE", 0.3, None, (1, ~1)), g("PHASE", 0.7, None, (~4, 2))], 3))
@settings(max_examples=300, deadline=None)
@given(diagonal_runs())
def test_diagonal_run_matches_per_gate_loop(case):
    mine, theirs, calls = per_gate_and_run(*case)
    assert not calls
    assert np.max(np.abs(mine - theirs)) <= 1e-12


@example((2, swap_gates(0, 1), 1, True))
@example((10, [gate for i in range(5) for gate in swap_gates(i, 9 - i)], 2, True))
@example((5, swap_gates(4, 3) + swap_gates(3, 0) + swap_gates(4, 1), 3, True))
@example((4, [g("X", None, 1, (0,)), g("X", None, 1, (0,))], 4, False))
@settings(max_examples=300, deadline=None)
@given(x_runs())
def test_x_run_matches_per_gate_loop_bytes(case):
    n, run, seed, swaps = case
    mine, theirs, calls = per_gate_and_run(n, run, seed)
    assert mine.tobytes() == theirs.tobytes()
    assert not calls if swaps else len(calls) in (0, len(run))


# each run has a gate with two literals beyond those all its gates share, or an
# X that is not singly and positively controlled, or X gates that do not
# permute qubits
@pytest.mark.parametrize("run", [
    [g("PHASE", 0.3, None, (0, 1)), g("PHASE", 0.2, None, (2,))],
    [g("PHASE", 0.3, None, (3, 0, ~1)), g("PHASE", 0.2, None, (3,))],
    [g("X", None, 0, (1, 2)), g("X", None, 1, (0,))],
    [g("X", None, 0, (~1,)), g("X", None, 1, (0,))],
    [g("X", None, 0), g("X", None, 1, (0,))],
    [g("X", None, 0, (1,)), g("X", None, 1, (2,))],
], ids=["phase-two-literals", "phase-two-literals-under-common", "x-two-controls",
        "x-zero-control", "x-no-control", "x-cnot-chain"])
def test_run_that_cannot_fuse_goes_gate_by_gate(run):
    mine, theirs, calls = per_gate_and_run(4, run, 5)
    assert calls == run
    assert mine.tobytes() == theirs.tobytes()


def dft_phase_group(n):
    """The PHASE gates of an n-qubit dft before its H on qubit 0."""
    return [g("PHASE", math.pi / 2 ** (n - j), None, (0, n - j)) for j in range(1, n)]


def flip_run(n):
    return [gate for i in range(n // 2) for gate in swap_gates(i, n - 1 - i)]


@pytest.mark.parametrize("run", [dft_phase_group(16), flip_run(16)], ids=["phase", "flip"])
def test_fused_runs_allocate_at_most_half_a_state_on_16_qubits(run):
    # the per-gate X of the flip copies a quarter view and swaps through a
    # second quarter; a fused run may allocate no more than that
    _gate_plan.cache_clear()
    amp = random_amplitudes(1 << 16, 1)
    apply_run(amp, run)                  # the plan caches fill outside the bound
    assert peak_bytes(apply_run, amp, run) <= amp.nbytes // 2 + 16 * 1024


# -- measure_register -----------------------------------------------------------

def machine_with(n, seed):
    m = MachineState(n + 1, seed=seed)
    m.allocate_register(n)
    m.amp[:] = random_amplitudes(1 << n, seed)
    m.amp /= np.linalg.norm(m.amp)
    return m


def assert_same_measurement(n, qubits, seed, prepare=None):
    mine, theirs = machine_with(n, seed), machine_with(n, seed)
    if prepare is not None:
        prepare(mine)
        prepare(theirs)
    reg = RegisterMap(tuple(qubits))
    assert mine.measure_register(reg) == reference_measure(theirs, reg)
    assert mine.amp.tobytes() == theirs.amp.tobytes()
    assert mine.version == theirs.version
    if hasattr(mine.rng, "bit_generator"):
        assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state


@st.composite
def measurements(draw):
    n = draw(st.integers(1, 15))
    qubits = draw(st.permutations(range(n)))
    return n, qubits[: draw(st.integers(1, n))], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(measurements())
def test_measure_matches_reference_bytes(case):
    assert_same_measurement(*case)


class FixedDraw:
    """An rng whose uniform draw is fixed, to place the draw on a chunk boundary."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


TWO_CHUNKS = 2 * CHUNK


@pytest.mark.parametrize("u", [0.0, 0.5, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("support", [
    (0,), (TWO_CHUNKS - 1,), (CHUNK - 1, CHUNK), (CHUNK - 1,), (CHUNK,),
    (CHUNK, TWO_CHUNKS - 1), (100, CHUNK + 5), (1, 2, CHUNK - 2),
])
def test_measure_draw_on_chunk_boundaries(support, u):
    def prepare(m):
        m.amp[:] = 0.0
        m.amp[list(support)] = 1.0 / math.sqrt(len(support))
        m.rng = FixedDraw(u)

    n = TWO_CHUNKS.bit_length() - 1
    assert_same_measurement(n, range(n), 0, prepare)


def test_measure_draw_at_the_total_takes_the_last_index():
    def prepare(m):
        m.amp[:] = 0.0
        m.amp[[CHUNK, TWO_CHUNKS - 1]] = _SQRT_HALF
        m.rng = FixedDraw(1.0)          # u * total == total: past every partial sum

    n = TWO_CHUNKS.bit_length() - 1
    assert_same_measurement(n, range(n), 0, prepare)


def test_measure_peak_is_a_quarter_of_the_whole_state_draw():
    reg = RegisterMap((3,))
    mine, theirs = machine_with(16, 2), machine_with(16, 2)
    assert peak_bytes(mine.measure_register, reg) * 4 <= peak_bytes(reference_measure, theirs, reg)
