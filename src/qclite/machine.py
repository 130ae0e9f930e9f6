"""Dense state-vector backend: qubit allocation, primitive gates, measurement, dumps.

Basis index bit k corresponds to qubit k, so qubit 0 is the least significant
bit of a basis index.  Only the low `materialized` qubits are physically held
in the amplitude array; every qubit above that range is free and therefore
exactly |0>, which keeps a 32-qubit machine cheap while only a handful of
qubits are in use.

The kernels fix qubits through views.  A view's reshape has an axis of 2 for
each qubit it fixes, most significant first, and one axis for each run of free
qubits between them; indexing the fixed axes selects the amplitudes.  A control
is a literal, q for qubit q at 1 or ~q for q at 0, so a gate with k controls
updates only the 2^(n-k) amplitudes where they all hold, in place, and none
when two contradict.  apply_gate caches the plans of its views (the controls'
view, and for a targeted gate the halves v0 and v1) per (shape, target,
controls), and runs its ufuncs in C order over them.  When the lowest free run
is shorter than 16 amplitudes, the lowest run of at least 16 is moved
innermost, so NumPy's inner loop stays long.  H and PHASE allocate nothing; X
copies one half view to swap, and ROT builds two half-view products.

NumPy buffers a ufunc over a strided view of two or more axes: it copies the
operands through 8192-element buffers (385 KB for one H on 16 qubits) and runs
several times slower than the unbuffered loop.  For arrays of 2^14 amplitudes
or more, apply_gate therefore sets the ufunc buffer to 128 elements: a view
whose inner run holds 128 amplitudes or more is then iterated in place, and a
shorter one goes through buffers of a few KB.  Below 2^14 the copies cost less
than setting and restoring the size (about 5 us).  np.setbufsize is NumPy-wide,
and a small buffer slows any ufunc that must cast (an int32 + float64 add of
2^16 elements takes about 1.5x as long), so the kernel restores the caller's
size in a finally block.

On those same wide states MachineState holds consecutive PHASE gates, or
consecutive X gates, as a pending run, and apply_run applies the run in one
step.  An uncontrolled H there runs its butterfly at once but leaves out its
factor 1/sqrt(2): apply_gate gets the gate's twin with param 1.0, and the
machine counts the factor as pending.  The factors commute with every gate, so
a gate of another kind flushes only the run, and flush() applies the run and
then all pending factors in one multiply by 2^(-k/2), exact for even k.  Each
H grows the norm by sqrt(2), so 2048 of them would overflow; the machine
applies the factor as soon as it reaches 2^-32, with 64 pending.  Every reader
and writer of the amplitudes goes through the `amp` property, which flushes
first: measure_register, is_empty_register, free_register, the grow in
allocate_register, reset_state, print_terms (the echo) and format_dump, and
any caller outside the module.  The interpreter flushes at the end of every
statement, also one that raises.  Below 2^14 amplitudes, and for a controlled
H, apply_primitive applies each gate whole at once, and the amplitudes are
those of earlier versions byte for byte.

A PHASE run whose gates each add at most one literal to the literals all of
them share is one multiply, over the view where the shared literals hold, by a
table of factors indexed by the other qubits; it agrees with the gates applied
one by one up to rounding, not bit for bit, and so does a state with deferred
H factors.  Warm and cold sessions still agree bit for bit, because a replayed
tape and a walked body put the same gates through the same runs and flushes.
An X run of singly controlled gates whose composed basis map only permutes
qubits is one data move, bit-identical to its gates.
Any other run goes through apply_gate a gate at a time.  A flush allocates no
more than a singly controlled X does, two quarter-state copies, and nothing of
state size outlives it: no table or index is kept between flushes.

measure_register and is_empty_register take their views from the same plans.
A measurement draws its outcome from the running sum of |amp|^2 a chunk at a
time, holding one chunk's sums rather than the whole state's.

Echo and dump print the terms with |amplitude| > PRINT_TOL, largest first, ties
by index.  The sort key np.hypot(re, im) equals Python's abs(complex) bit for
bit; np.abs on complex128 can be one ulp off and would reorder near-tied terms.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, RegisterError

EMPTY_TOL = 1e-9
PRINT_TOL = 1e-8
_DRAW_CHUNK = 8192            # amplitudes a measurement's draw squares and sums at a time


def _number(n: int) -> str:
    """n for a message: past 64 bits its power of two, as Python prints 4300 digits at most."""
    return str(n) if n.bit_length() <= 64 else f"~{'-' * (n < 0)}2^{n.bit_length() - 1}"


@dataclass(frozen=True)
class RegisterMap:
    """Ordered, mutually distinct qubit positions; position 0 is least significant."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        if not self.qubits:
            raise RegisterError("register must contain at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise RegisterError("register positions must be mutually distinct")

    def __len__(self) -> int:
        return len(self.qubits)

    def index(self, i: int) -> RegisterMap:
        if not 0 <= i < len(self.qubits):
            raise RegisterError(f"register index {_number(i)} out of range for length {len(self)}")
        return RegisterMap((self.qubits[i],))

    def slice(self, a: int, b: int) -> RegisterMap:
        if not 0 <= a <= b < len(self.qubits):
            raise RegisterError(f"register slice {_number(a)}:{_number(b)} out of range "
                                f"for length {len(self)}")
        return RegisterMap(self.qubits[a : b + 1])

    def concat(self, other: RegisterMap) -> RegisterMap:
        if set(self.qubits) & set(other.qubits):
            raise RegisterError("cannot concatenate overlapping registers")
        return RegisterMap(self.qubits + other.qubits)


@dataclass(frozen=True)
class PrimitiveGate:
    """One primitive operation: kind in {X, H, ROT, PHASE}.

    PHASE has no target; it multiplies every amplitude where all controls hold
    (q: qubit q is 1, ~q: it is 0) by e^(i*param).  The other kinds act on the
    target bit's amplitude pair wherever the controls hold.  H's param scales
    its butterfly [[1, 1], [1, -1]]; None, the gate every program applies,
    means 1/sqrt(2).
    """

    kind: str
    param: float | None
    target: int | None
    controls: frozenset[int]

    def adjoint(self) -> PrimitiveGate:
        if self.kind in ("ROT", "PHASE"):
            return PrimitiveGate(self.kind, -self.param, self.target, self.controls)
        return self


def gate(kind: str, param: float | None = None, target: int | None = None,
         controls=()) -> PrimitiveGate:
    return PrimitiveGate(kind, param, target, frozenset(controls))


def adjoint_of_tape(tape) -> list[PrimitiveGate]:
    """Adjoint of a gate sequence: reversed order, per-gate adjoints."""
    return [g.adjoint() for g in reversed(list(tape))]


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def gate_matrix(kind: str, param: float | None = None) -> np.ndarray:
    """2x2 matrix of a targeted primitive (X, H or ROT)."""
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "H":
        s = _SQRT_HALF if param is None else param
        return np.array([[s, s], [s, -s]], dtype=complex)
    if kind == "ROT":
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        return np.array([[c, s], [-s, c]], dtype=complex)
    raise ValueError(f"no 2x2 matrix for gate kind {kind!r}")


_SHORT_RUN = 16                 # an axis shorter than this makes a poor inner loop
_SCOPED_BUFFER_SIZE = 1 << 14   # arrays this large run their gates on a small ufunc buffer
_GATE_BUFSIZE = 128             # elements


def _view_plan(shape: tuple[int, ...], bits: dict[int, int]):
    """Reshape, index and axis order of the view where each qubit q is bits[q].

    The reshape has an axis of 2 for each fixed qubit, most significant first,
    and one axis for each run of free qubits between them; trailing axes of the
    array join the run below qubit 0.  When the lowest run is shorter than
    _SHORT_RUN, the lowest run of at least _SHORT_RUN is moved innermost.
    """
    dims: list[int] = []
    index: list = []
    runs: list[int] = []
    run = 1
    for q in range(shape[0].bit_length() - 2, -1, -1):
        if q not in bits:
            run *= 2
            continue
        if run > 1:
            dims.append(run)
            index.append(slice(None))
            runs.append(run)
        dims.append(2)
        index.append(bits[q])
        run = 1
    run *= math.prod(shape[1:])
    if run > 1:
        dims.append(run)
        index.append(slice(None))
        runs.append(run)
    order = list(range(len(runs)))
    if runs and runs[-1] < _SHORT_RUN:
        long = [k for k, d in enumerate(runs) if d >= _SHORT_RUN]
        if long:
            order.append(order.pop(long[-1]))
    return tuple(dims), (*index, ...), tuple(order)


def _view(amp: np.ndarray, plan) -> np.ndarray:
    dims, index, order = plan
    return amp.reshape(dims, copy=False)[index].transpose(order)


def _fixed(amp: np.ndarray, bits: dict[int, int]) -> np.ndarray:
    """View of the amplitudes whose qubit q is bits[q]."""
    return _view(amp, _view_plan(amp.shape, bits))


@functools.lru_cache(maxsize=1024)
def _gate_plan(shape: tuple[int, ...], target: int | None, controls: frozenset[int]):
    """View plans of one gate: the controls' view, then for a targeted gate its two
    halves; none when the controls contradict."""
    on = {c if c >= 0 else ~c: int(c >= 0) for c in controls}
    if len(on) < len(controls):
        return ()
    if target is None:
        return (_view_plan(shape, on),)
    return tuple(_view_plan(shape, bits) for bits in (on, {**on, target: 0}, {**on, target: 1}))


def apply_gate(amp: np.ndarray, g: PrimitiveGate) -> None:
    """Apply one primitive gate in place to 2^n amplitudes, or to each column of 2^n rows."""
    if not (plans := _gate_plan(amp.shape, g.target, g.controls)):
        return
    on, *halves = (_view(amp, plan) for plan in plans)
    bufsize = np.setbufsize(_GATE_BUFSIZE) if amp.size >= _SCOPED_BUFFER_SIZE else None
    try:
        if g.kind == "PHASE":
            np.multiply(on, cmath.exp(1j * g.param), out=on, order="C")
        elif g.kind == "H":
            v0, v1 = halves
            np.add(v0, v1, out=v0, order="C")
            np.multiply(v1, -2.0, out=v1, order="C")
            np.add(v1, v0, out=v1, order="C")                  # a0 - a1
            if (scale := _SQRT_HALF if g.param is None else g.param) != 1.0:
                np.multiply(on, scale, out=on, order="C")
        elif g.kind == "X":
            v0, v1 = halves
            v0[...], v1[...] = v1, v0.copy()     # the right side is built first
        elif g.kind == "ROT":
            v0, v1 = halves
            c, s = math.cos(g.param / 2.0), math.sin(g.param / 2.0)
            sa0 = np.multiply(s, v0, order="C")
            np.multiply(v0, c, out=v0, order="C")
            np.add(v0, np.multiply(s, v1, order="C"), out=v0, order="C")
            np.multiply(v1, c, out=v1, order="C")
            np.subtract(v1, sa0, out=v1, order="C")
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)


def _phase_run(amp: np.ndarray, run) -> bool:
    """Apply a PHASE run as a multiply by a table of factors; False when it cannot.

    The literals common to every gate fix the view; each gate may add at most
    one more literal, so the phase is a product of one factor per value of
    each extra qubit.  A table holds the products over up to n-2 of those
    qubits (a quarter of the state), built by doubling: bit j of its index is
    its j-th lowest qubit.  More extra qubits take one multiply per table.
    A gate that holds q and ~q changes nothing and is dropped; only a run with
    a ~q literal is searched for one.
    """
    # a list: on CPython 3.11 unpacking a generator here grows the RSS flush after flush
    controls = [g.controls for g in run]
    if min(frozenset().union(*controls), default=0) < 0:    # a gate may hold q and ~q
        run = [g for g in run if not any(~c in g.controls for c in g.controls)]
        if not run:
            return True
        controls = [g.controls for g in run]
    common = frozenset.intersection(*controls)
    const, factors = 1.0, {}
    for g in run:
        rest = g.controls - common
        if len(rest) > 1:
            return False
        f = cmath.exp(1j * g.param)
        if rest:
            (lit,) = rest
            factors[lit] = factors.get(lit, 1.0) * f
        else:
            const *= f
    qubits = sorted({c if c >= 0 else ~c for c in factors})
    width = max(amp.size.bit_length() - 3, 1)
    buf = np.empty(1 << min(len(qubits), width), dtype=complex)
    bufsize = np.setbufsize(_GATE_BUFSIZE) if amp.size >= _SCOPED_BUFFER_SIZE else None
    try:
        for start in range(0, max(len(qubits), 1), width):
            part = tuple(qubits[start : start + width])
            table = buf[: 1 << len(part)]
            table[0] = const if start == 0 else 1.0
            m = 1
            for q in part:
                np.multiply(table[:m], factors.get(q, 1.0), out=table[m : 2 * m])
                if ~q in factors:
                    table[:m] *= factors[~q]
                m *= 2
            dims, index, table_dims, order = _table_plan(amp.size, common, part)
            view = amp.reshape(dims, copy=False)[index].transpose(order)
            np.multiply(view, table.reshape(table_dims).transpose(order), out=view, order="C")
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    return True


@functools.lru_cache(maxsize=256)
def _table_plan(size: int, common: frozenset[int], qubits: tuple[int, ...]):
    """Reshape, index and axis order of the view where the `common` literals hold,
    and the table's reshape against it.

    Like _view_plan, each fixed qubit gets an axis of 2 and adjacent free qubits
    merge into one axis; a run of table qubits and a run of other free qubits
    stay apart, and the table's axis over the latter has length 1.
    """
    bits = {c if c >= 0 else ~c: int(c >= 0) for c in common}
    tabled = set(qubits)
    dims: list[int] = []
    index: list = []
    table_dims: list[int] = []
    for q in range(size.bit_length() - 2, -1, -1):
        if q in bits:
            dims.append(2)
            index.append(bits[q])
        elif index and index[-1] == slice(None) and (table_dims[-1] > 1) == (q in tabled):
            dims[-1] *= 2
            table_dims[-1] *= 1 + (q in tabled)
        else:
            dims.append(2)
            index.append(slice(None))
            table_dims.append(2 if q in tabled else 1)
    runs = [d for d, i in zip(dims, index) if i == slice(None)]
    order = list(range(len(runs)))
    if runs and runs[-1] < _SHORT_RUN:
        order.append(order.pop(runs.index(max(runs))))
    return tuple(dims), (*index, ...), tuple(table_dims), tuple(order)


def _permute_run(amp: np.ndarray, run) -> bool:
    """Apply an X run that permutes qubits as one data move; False when it does not.

    Each gate must have exactly one positive control, so it XORs one bit row of
    the basis map into another; the run permutes qubits when every row ends up
    a single bit.  The top two qubits are put in place by exchanging quarter
    views, then each quarter goes through a transposed copy.  Only copies move,
    through one buffer of a quarter of the state, the size of the copy a singly
    controlled X makes.
    """
    rows: dict[int, int] = {}                 # qubit -> the input bits it XORs
    for g in run:
        if len(g.controls) != 1:
            return False
        (c,) = g.controls
        if c < 0:
            return False
        rows[g.target] = rows.get(g.target, 1 << g.target) ^ rows.get(c, 1 << c)
    if any(row.bit_count() != 1 for row in rows.values()):
        return False
    # qubit -> the qubit whose bit it takes
    source = {q: row.bit_length() - 1 for q, row in rows.items() if row != 1 << q}
    if not source:
        return True
    n = amp.size.bit_length() - 1
    buf = np.empty(amp.size // 4, dtype=amp.dtype)
    for q in (n - 1, n - 2):
        s = source.get(q, q)
        if s == q:
            continue
        quarters = amp.reshape(1 << (n - 1 - q), 2, 1 << (q - 1 - s), 2, 1 << s)
        a, b = quarters[:, 0, :, 1], quarters[:, 1, :, 0]
        saved = buf.reshape(a.shape)
        saved[...] = a
        a[...] = b
        b[...] = saved
        swap = {q: s, s: q}                   # what is left is the swap, then the run
        source = {t: r for t, p in source.items() if (r := swap.get(p, p)) != t}
    if not source:
        return True
    axes = list(range(n - 2))                 # axis i holds qubit n-3-i
    for q, p in source.items():
        axes[n - 3 - q] = n - 3 - p
    moved = buf.reshape((2,) * (n - 2))
    for quarter in amp.reshape(4, -1):
        moved[...] = quarter.reshape((2,) * (n - 2)).transpose(axes)
        quarter[...] = buf
    return True


_FUSED = {"PHASE": _phase_run, "X": _permute_run}
_MAX_HALVINGS = 64      # the pending H factor is applied once it reaches 2^-32


@functools.lru_cache(maxsize=64)
def _butterfly(target: int) -> PrimitiveGate:
    """The uncontrolled H on `target` without its 1/sqrt(2)."""
    return PrimitiveGate("H", 1.0, target, frozenset())


def apply_run(amp: np.ndarray, run) -> None:
    """Apply gates of one kind in place to 2^n amplitudes: a run that fuses in one
    update, anything else one gate at a time through apply_gate."""
    if len(run) > 1 and _FUSED[run[0].kind](amp, run):
        return
    for g in run:
        apply_gate(amp, g)


def tape_matrix(tape, n_qubits: int) -> np.ndarray:
    """The 2^n x 2^n matrix of a tape: the tape applied to every column of the identity."""
    out = np.eye(1 << n_qubits, dtype=complex)
    for g in tape:
        apply_gate(out, g)
    return out


def format_amplitude(c: complex) -> str:
    """Coefficient text: up to 6 significant digits, trailing zeros trimmed."""
    re = c.real if abs(c.real) > PRINT_TOL else 0.0
    im = c.imag if abs(c.imag) > PRINT_TOL else 0.0
    if im == 0.0:
        return f"{re:.6g}"
    if re == 0.0:
        return f"{im:.6g}i"
    return f"{re:.6g}{im:+.6g}i"


class MachineState:
    """The joint quantum state of all simulator qubits plus the allocation mask."""

    def __init__(self, total_qubits: int = 32, seed: int = 0, dense_limit: int = 24):
        if total_qubits < 1:
            raise AllocationError("machine needs at least one qubit")
        self.total = total_qubits
        self.dense_limit = min(dense_limit, total_qubits)
        self._amp = np.array([1.0 + 0.0j], dtype=complex)
        self._run: list[PrimitiveGate] = []     # gates of one kind not yet applied to _amp
        self._halvings = 0                      # _amp is still to be scaled by 2^(-_halvings/2)
        self.materialized = 0
        self.allocated: set[int] = set()
        self.rng = np.random.default_rng(seed)
        self.version = 0

    @property
    def amp(self) -> np.ndarray:
        """The amplitudes, with every gate applied so far."""
        self.flush()
        return self._amp

    @amp.setter
    def amp(self, value: np.ndarray) -> None:
        self.flush()
        self._amp = value

    def flush(self) -> None:
        """Apply the pending run of gates, then the pending H factor."""
        self._flush_run()
        if self._halvings:
            k, self._halvings = self._halvings, 0
            np.multiply(self._amp, math.ldexp(_SQRT_HALF if k & 1 else 1.0, -(k >> 1)),
                        out=self._amp)

    def _flush_run(self) -> None:
        if self._run:
            run, self._run = self._run, []
            apply_run(self._amp, run)

    # -- allocation ----------------------------------------------------------

    def allocate_register(self, m: int) -> RegisterMap:
        """Claim the m lowest free qubits; fresh qubits are guaranteed |0...0>."""
        if m < 1:
            raise AllocationError("register size must be at least 1")
        free = [q for q in range(self.total) if q not in self.allocated][:m]
        if len(free) < m:
            raise AllocationError(f"out of qubits: requested {_number(m)}, only {len(free)} free")
        top = max(free) + 1
        if top > self.materialized:
            if top > self.dense_limit:
                raise AllocationError(
                    f"out of qubits: the dense simulator is limited to {self.dense_limit}"
                )
            grown = np.zeros(1 << top, dtype=complex)
            grown[: self.amp.size] = self.amp
            self.amp = grown
            self.materialized = top
        self.allocated.update(free)
        return RegisterMap(tuple(free))

    def free_register(self, reg: RegisterMap) -> None:
        """Return an empty register's qubits to the free pool."""
        for q in reg.qubits:
            if q not in self.allocated:
                raise RegisterError(f"qubit {q} is not allocated")
        if not self.is_empty_register(reg):
            raise RegisterError("cannot free a register that is not empty")
        self.allocated.difference_update(reg.qubits)
        top = self.materialized
        while self.materialized > 0 and (self.materialized - 1) not in self.allocated:
            self.materialized -= 1
        if self.materialized < top:
            self.amp = self.amp[: 1 << self.materialized].copy()

    # -- evolution -----------------------------------------------------------

    def apply_primitive(self, g: PrimitiveGate) -> None:
        if g.target is not None and g.target not in self.allocated:
            raise RegisterError(f"qubit {g.target} is not allocated")
        for c in g.controls:
            q = c if c >= 0 else ~c
            if q not in self.allocated:
                raise RegisterError(f"qubit {q} is not allocated")
        if self._amp.size < _SCOPED_BUFFER_SIZE:
            apply_gate(self._amp, g)
        else:
            if self._run and self._run[0].kind != g.kind:
                self._flush_run()
            if g.kind in _FUSED:
                self._run.append(g)
            elif g.kind == "H" and not g.controls:
                apply_gate(self._amp, _butterfly(g.target))
                self._halvings += 1
                if self._halvings == _MAX_HALVINGS:
                    self.flush()
            else:
                apply_gate(self._amp, g)
        self.version += 1

    def measure_register(self, reg: RegisterMap) -> int:
        """Draw an outcome with Born probability, collapse and renormalize."""
        for q in reg.qubits:
            if q not in self.allocated:
                raise RegisterError(f"qubit {q} is not allocated")
        picked = self._draw_index()
        outcome = 0
        for i, q in enumerate(reg.qubits):
            outcome |= ((picked >> q) & 1) << i
            _fixed(self.amp, {q: 1 - ((picked >> q) & 1)})[...] = 0.0
        amp = self.amp
        # the float parts times 1/norm: a complex-by-real division's bytes, but
        # for the sign of some zero parts, at a fraction of its cost
        parts = amp.view(np.float64)
        parts *= 1.0 / np.linalg.norm(amp)
        self.version += 1
        return outcome

    def _draw_index(self) -> int:
        """A basis index drawn with probability |amp|^2, _DRAW_CHUNK amplitudes at a time.

        Bit for bit the index that np.searchsorted(np.cumsum(np.abs(amp) ** 2),
        u * total, side="right") gives: each chunk's cumsum starts from the
        running sum, so every partial sum is the same float.  Only the sum at
        each chunk's end is kept, and the drawn chunk is summed again.
        """
        amp = self.amp
        buf = np.empty(min(amp.size, _DRAW_CHUNK) + 1)

        def partial_sums(start: int, carry) -> np.ndarray:
            seg = amp[start : start + _DRAW_CHUNK]
            out = buf[: seg.size + 1]
            out[0] = carry
            np.abs(seg, out=out[1:])
            np.square(out[1:], out=out[1:])
            return np.add.accumulate(out, out=out)[1:]

        ends = []
        for start in range(0, amp.size, _DRAW_CHUNK):
            sums = partial_sums(start, ends[-1] if ends else 0.0)
            ends.append(sums[-1])
        draw = self.rng.random() * ends[-1]
        k = bisect.bisect_right(ends, draw)
        if k == len(ends):
            return amp.size - 1
        if k < len(ends) - 1:                   # buf holds the last chunk's sums
            sums = partial_sums(k * _DRAW_CHUNK, ends[k - 1] if k else 0.0)
        return k * _DRAW_CHUNK + int(sums.searchsorted(draw, side="right"))

    def reset_state(self) -> None:
        """Collapse the whole machine to |0...0>; the allocation mask is untouched."""
        self.amp[:] = 0.0
        self.amp[0] = 1.0
        self.version += 1

    # -- inspection ----------------------------------------------------------

    def is_empty_register(self, reg: RegisterMap) -> bool:
        """True iff every significant amplitude has all register bits zero."""
        zero = _fixed(self.amp, {q: 0 for q in reg.qubits if q < self.materialized})
        return (np.count_nonzero(np.abs(self.amp) > EMPTY_TOL)
                == np.count_nonzero(np.abs(zero) > EMPTY_TOL))

    def state_terms(self) -> list[tuple[int, complex]]:
        """Significant (index, amplitude) pairs, by descending magnitude then index."""
        idx, amps, _ = self.print_terms(())
        return list(zip(idx.tolist(), amps))

    def print_terms(self, qubits) -> tuple[np.ndarray, Iterator[complex], list[str]]:
        """Significant terms in print order: basis indices, amplitudes (lazily) and kets.

        Each ket spells the bits of `qubits` (all below `materialized`) in order:
        one line of a uint8 character matrix filled a qubit column at a time.
        """
        idx = np.nonzero(np.abs(self.amp) > PRINT_TOL)[0]
        # float parts, not a complex copy: echo-sized temporaries stay in NumPy's cache
        re, im = self.amp.real[idx], self.amp.imag[idx]
        order = np.argsort(-np.hypot(re, im), kind="stable")
        idx = idx[order]
        chars = np.zeros((idx.size, len(qubits) + 1), dtype=np.uint8)
        for col, q in enumerate(qubits):
            chars[:, col] = idx >> q          # the low byte holds the bit
        chars &= 1
        chars |= ord("0")
        chars[:, -1] = ord("\n")
        amps = map(complex, re[order].tolist(), im[order].tolist())
        return idx, amps, chars.tobytes().decode("ascii").splitlines()

    def format_dump(self) -> str:
        """Two-line state dump over all machine qubits, qubit 0 rightmost."""
        a = len(self.allocated)
        header = (
            f"STATE: {a} / {self.total} qubits allocated, "
            f"{self.total - a} / {self.total} qubits free"
        )
        free = "0" * (self.total - self.materialized)
        _, amps, kets = self.print_terms(range(self.materialized - 1, -1, -1))
        terms = " + ".join(f"{format_amplitude(c)} |{free}{ket}>" for c, ket in zip(amps, kets))
        return header + "\n" + terms
