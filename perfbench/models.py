"""References for the benchmark's correctness checks, computed apart from qclite.

Nothing here imports qclite: each workload's expected result comes from NumPy
alone (a Fourier transform, a permutation of basis indices, or a small
state-vector model of the transcript), so a fault in the interpreter or its
kernel cannot hide in the reference.
"""

from __future__ import annotations

import math

import numpy as np

FFT_TOL = 1e-9
SIGNIFICANT = 1e-8      # qclite prints amplitudes above this magnitude


# --------------------------------------------------------------------------
# fourier_wide: dft is sqrt(N)*ifft, its adjoint fft/sqrt(N)
# --------------------------------------------------------------------------

class FourierReference:
    """The dft check, with every buffer allocated once for the whole run.

    The transform is a radix-2 Stockham FFT made of NumPy `out=` operations;
    the tests compare it with `numpy.fft`.  `numpy.fft` itself allocates and
    frees a work buffer of the transform's size on every call, and freeing
    arrays of that size moves glibc's mmap and trim thresholds, which changes
    how many page faults qclite's own temporaries take.  This reference frees
    nothing while a run lasts, so the rounds see the allocator as the program
    alone leaves it.
    """

    def __init__(self, size: int):
        if size < 2 or size & (size - 1):
            raise ValueError("the size must be a power of two")
        self.size = size
        self.before = np.empty(size, dtype=complex)
        self.expected = np.empty(size, dtype=complex)
        self.work = np.empty(size, dtype=complex)
        self.error = np.empty(size)
        self.kept = False
        # one column of twiddles exp(-2 pi i p / n), p < n/2, per stage n = size, ..., 2
        self.twiddles = []
        n = size
        while n > 1:
            self.twiddles.append(np.exp(-2j * np.pi * np.arange(n // 2) / n)[:, None])
            n //= 2

    def fft(self, x: np.ndarray) -> None:
        """Overwrite `x` with its unnormalized forward DFT."""
        src, dst, s = x, self.work, 1
        for w in self.twiddles:
            m = w.shape[0]
            a, b = src.reshape(2, m, s)
            out = dst.reshape(m, 2, s)
            np.add(a, b, out=out[:, 0])
            np.subtract(a, b, out=out[:, 1])
            np.multiply(out[:, 1], w, out=out[:, 1])
            src, dst, s = dst, src, 2 * s
        if src is not x:
            np.copyto(x, src)

    def keep(self, amp: np.ndarray) -> None:
        """Copy the state before an operation."""
        self.kept = amp.shape == self.before.shape
        if self.kept:
            np.copyto(self.before, amp)

    def expect(self, inverse: bool) -> np.ndarray:
        """fft/sqrt(N) of the kept state for !dft, sqrt(N)*ifft for dft."""
        x = self.expected
        if inverse:
            np.copyto(x, self.before)
            self.fft(x)
        else:   # sqrt(N) * ifft(v) = conj(fft(conj(v))) / sqrt(N)
            np.conjugate(self.before, out=x)
            self.fft(x)
            np.conjugate(x, out=x)
        x /= math.sqrt(self.size)
        return x

    def ok(self, after: np.ndarray, inverse: bool) -> bool:
        if not self.kept or after.shape != self.before.shape:
            return False
        diff = np.subtract(after, self.expect(inverse), out=self.expected)
        np.abs(diff, out=self.error)
        return (float(self.error.max()) <= FFT_TOL
                and abs(float(np.linalg.norm(after)) - 1.0) <= FFT_TOL)


# --------------------------------------------------------------------------
# routines_narrow: every statement is a permutation of basis indices
# --------------------------------------------------------------------------

# Register layout of the 8 qubits, in allocation order: x[4] a[1] e[1] y[1] s[1].
NARROW_QUBITS = 8


def _fields(idx):
    return idx & 15, (idx >> 4) & 1, (idx >> 5) & 1


def _with_x(idx, x):
    return (idx & ~15) | (x & 15)


def _parity(x):
    return (x ^ (x >> 1) ^ (x >> 2) ^ (x >> 3)) & 1


def narrow_permutation(stmt: str) -> np.ndarray:
    """Where each basis index goes under one routines_narrow statement."""
    idx = np.arange(1 << NARROW_QUBITS)
    x, a, e = _fields(idx)
    plus, minus = _with_x(idx, x + 1), _with_x(idx, x - 1)
    a_or_e = (a | e) == 1
    table = {
        "inc(x);": plus,
        "!inc(x);": minus,
        "cinc(x, e);": np.where(e == 1, plus, idx),
        "!cinc(x, e);": np.where(e == 1, minus, idx),
        "parity(x, y);": idx ^ (_parity(x) << 6),
        "scratch_parity(x, y, s);": idx ^ (_parity(x) << 6),
        "demux(e & a, x);": idx ^ (1 << (e + 2 * a)),
        "if a and e { inc(x); }": np.where((a & e) == 1, plus, idx),
        "if a or e { inc(x); }": np.where(a_or_e, plus, idx),
        "if a or e { inc(x); } else { !inc(x); }": np.where(a_or_e, plus, minus),
    }
    # parity, scratch_parity and demux are involutions
    for name in ("parity(x, y);", "scratch_parity(x, y, s);", "demux(e & a, x);"):
        table["!" + name] = table[name]
    return table[stmt]


def apply_permutation(state: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.zeros_like(state)
    out[perm] = state
    return out


# --------------------------------------------------------------------------
# repl_echo: a dense model of the transcript's register
# --------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


class StateModel:
    """A state vector; qubit k is bit k of a basis index."""

    def __init__(self, amp: np.ndarray):
        self.amp = np.array(amp, dtype=complex)
        self.idx = np.arange(self.amp.size)

    def bit(self, k: int) -> np.ndarray:
        return (self.idx >> k) & 1

    def single(self, matrix: np.ndarray, k: int, where=None) -> None:
        lo = self.idx[self.bit(k) == 0]
        if where is not None:
            lo = lo[where[lo]]
        hi = lo | (1 << k)
        a0, a1 = self.amp[lo], self.amp[hi]
        self.amp[lo] = matrix[0, 0] * a0 + matrix[0, 1] * a1
        self.amp[hi] = matrix[1, 0] * a0 + matrix[1, 1] * a1

    def gate(self, op: tuple, qubits, adjoint: bool = False) -> None:
        """Apply one gate; its qubit operands index into `qubits`."""
        kind = op[0]
        if kind == "H":
            self.single(_H, qubits[op[1]])
        elif kind == "Rot":
            self.single(_rot(-op[1] if adjoint else op[1]), qubits[op[2]])
        elif kind == "CNot":
            self.single(np.array([[0, 1], [1, 0]], dtype=complex), qubits[op[1]],
                        where=self.bit(qubits[op[2]]) == 1)
        elif kind == "Phase":
            _, phi, conn, i, j = op
            hit = self.condition(conn, qubits[i], qubits[j] if j is not None else None)
            self.amp[hit] *= np.exp(1j * (-phi if adjoint else phi))
        else:
            raise ValueError(f"unknown model gate {kind!r}")

    def condition(self, conn: str, i: int, j) -> np.ndarray:
        bi = self.bit(i) == 1
        if conn == "not":
            return ~bi
        bj = self.bit(j) == 1
        return {"and": bi & bj, "or": bi | bj, "xor": bi ^ bj}[conn]

    def measure(self, k: int, outcome: int) -> float:
        """Collapse qubit k onto `outcome`; returns that outcome's probability."""
        keep = self.bit(k) == outcome
        prob = float(np.sum(np.abs(self.amp[keep]) ** 2))
        if prob > 0.0:
            self.amp[~keep] = 0.0
            self.amp /= math.sqrt(prob)
        return prob

    def reset(self) -> None:
        self.amp[:] = 0.0
        self.amp[0] = 1.0


def parse_terms(text: str) -> list[tuple[int, complex]] | None:
    """Read back `coef |bits> + coef |bits> ...` as (basis index, amplitude)."""
    terms = []
    for part in text.split(" + "):
        coef, sep, ket = part.partition(" |")
        if not sep or not ket.endswith(">"):
            return None
        try:
            value = complex(coef[:-1] + "j" if coef.endswith("i") else coef)
            index = int(ket[:-1], 2)
        except ValueError:
            return None
        terms.append((index, value))
    return terms


def _close(printed: float, exact: float) -> bool:
    # six significant digits: half a unit in the sixth digit, plus the zeroing
    return abs(printed - exact) <= 5.01e-6 * abs(exact) + SIGNIFICANT


def terms_match(terms, amp: np.ndarray) -> bool:
    """Printed terms equal the model at six digits, in qclite's print order."""
    if terms is None:
        return False
    seen = set()
    last = math.inf
    for index, value in terms:
        if index >= amp.size or index in seen:
            return False
        seen.add(index)
        exact = complex(amp[index])
        if abs(exact) <= SIGNIFICANT / 10:
            return False
        if not (_close(value.real, exact.real) and _close(value.imag, exact.imag)):
            return False
        if abs(exact) > last * (1 + 2e-5):       # descending magnitude
            return False
        last = abs(exact)
    missing = np.nonzero(np.abs(amp) > SIGNIFICANT * 10)[0]
    return all(int(i) in seen for i in missing)
