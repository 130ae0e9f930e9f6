"""Shared helpers: session construction and matrix assembly for whole routines."""

from __future__ import annotations

import io

import numpy as np
import pytest

from qclite import DirectPlan, corpus_source
from qclite.session import Session, SessionConfig


def make_session(qubits: int = 16, seed: int = 0, echo: bool = False,
                 checks: bool = True) -> Session:
    out = io.StringIO()
    config = SessionConfig(total_qubits=qubits, seed=seed, echo=echo, checks=checks)
    return Session(config, out=out)


def session_output(session: Session) -> str:
    return session.out.getvalue()


def routine_matrix(defs: str | None, decls: str, call: str, n_qubits: int,
                   qubits: int = 24, checks: bool = False) -> np.ndarray:
    """Assemble the unitary of `call` on the first n_qubits machine qubits.

    The registers named in `decls` must cover qubits 0..n_qubits-1 in
    allocation order, so basis index k encodes the register contents.
    Emptiness checks default to off because the sweep visits basis states a
    quvoid precondition would reject; there the permissive accumulation
    semantics apply.
    """
    session = make_session(qubits=qubits, checks=checks)
    if defs:
        session.run_source(defs)
    session.run_line(decls)
    machine = session.machine
    assert machine.materialized == n_qubits, "declarations must cover the basis"
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        machine.amp[:] = 0.0
        machine.amp[k] = 1.0
        session.run_line(call)
        assert machine.amp.size == dim, "temporaries must be freed after the call"
        out[:, k] = machine.amp
    return out


def dft_matrix(n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    omega = np.exp(2j * np.pi / dim)
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return omega ** (j * k) / np.sqrt(dim)


def permutation_of(matrix: np.ndarray, atol: float = 1e-9):
    """Return the permutation a 0/1 matrix encodes, or None if not one."""
    dim = matrix.shape[0]
    perm = []
    for k in range(dim):
        col = matrix[:, k]
        hits = np.nonzero(np.abs(col) > atol)[0]
        if len(hits) != 1 or abs(col[hits[0]] - 1.0) > atol:
            return None
        perm.append(int(hits[0]))
    return perm if len(set(perm)) == dim else None


def enable_column(plan, machine, n_qubits: int) -> list[bool]:
    """The enable of an enable plan on each basis state of qubits 0..n-1.

    A direct plan's literals (q: qubit q is 1, ~q: it is 0) are read off the
    basis index, and its machine must hold no qubit beyond the n.  A
    synthesized plan's compute gates run on the machine; its scratch qubit
    holds the enable, every other bit must stay put, and the reversed
    adjoints must restore the basis state exactly.
    """
    if isinstance(plan, DirectPlan):
        assert plan.scratch is None and not plan.compute
        assert machine.allocated == set(range(n_qubits)), "a direct plan allocates nothing"
        return [all((k >> (q if q >= 0 else ~q) & 1) == (q >= 0) for q in plan.controls)
                for k in range(1 << n_qubits)]
    (e,) = plan.controls
    assert plan.scratch.qubits == (e,) and e >= n_qubits
    column = []
    for k in range(1 << n_qubits):
        machine.amp[:] = 0.0
        machine.amp[k] = 1.0
        for g in plan.compute:
            machine.apply_primitive(g)
        landed = int(np.argmax(np.abs(machine.amp)))
        assert landed & ~(1 << e) == k and abs(machine.amp[landed] - 1.0) < 1e-9
        column.append(bool(landed >> e & 1))
        for g in reversed(plan.compute):
            machine.apply_primitive(g.adjoint())
        assert int(np.argmax(np.abs(machine.amp))) == k
        assert abs(machine.amp[k] - 1.0) < 1e-9
    return column


def is_subcube(column: list[bool], n_qubits: int) -> bool:
    """Whether the basis states where `column` holds are exactly those that fix
    some bits and leave the other k bits free (2^k states)."""
    states = [k for k, hit in enumerate(column) if hit]
    fixed = [q for q in range(n_qubits) if len({k >> q & 1 for k in states}) == 1]
    return bool(states) and len(states) == 1 << (n_qubits - len(fixed))


@pytest.fixture(scope="session")
def corpus():
    names = ["dft.qcl", "inc.qcl", "inc_cond.qcl", "parity.qcl", "cinc.qcl",
             "demux.qcl", "scratch_parity.qcl", "demux_run.qcl", "coinflip.qcl"]
    return {name: corpus_source(name) for name in names}
