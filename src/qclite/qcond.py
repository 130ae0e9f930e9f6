"""Quantum conditions: polynomial normal form, enable synthesis and if-execution.

A condition over qubits is compiled to a polynomial over GF(2): an XOR of AND
monomials plus an optional constant term.  The polynomial drives one of two
enable plans.  A conjunction of literals (each qubit required at 1 or at 0)
becomes a direct multi-control with negated controls for the 0s; anything else
is accumulated into one transparently allocated scratch qubit by a CNot
sequence (one controlled flip per monomial, plus an initial flip for the
constant term).  The same plan, run in reverse, uncomputes the scratch.

Both kinds of quantum `if` run each branch under its own enable, the
else-branch under the negated polynomial, with one compute / run / uncompute
helper.  A plain one runs its branches at once.  A forking one, whose branches
change classical state, queues each branch as a path on the interpreter's
worklist; the path's enable covers the *remainder* of the subroutine and is
uncomputed after every path it forks, and the paths run then-branch first,
depth first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import QclRuntimeError
from .machine import PrimitiveGate, RegisterMap, adjoint_of_tape


# --------------------------------------------------------------------------
# Condition expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CondConst:
    value: bool


@dataclass(frozen=True)
class CondAtom:
    """Conjunction over the qubits of one register operand."""

    qubits: frozenset[int]


@dataclass(frozen=True)
class CondNot:
    operand: object


@dataclass(frozen=True)
class CondBin:
    op: str  # and | or | xor
    left: object
    right: object


CondExpr = CondConst | CondAtom | CondNot | CondBin


def cond_truth(cond: CondExpr, assignment) -> bool:
    """Evaluate a condition for a qubit->bool assignment (test oracle)."""
    if isinstance(cond, CondConst):
        return cond.value
    if isinstance(cond, CondAtom):
        return all(assignment[q] for q in cond.qubits)
    if isinstance(cond, CondNot):
        return not cond_truth(cond.operand, assignment)
    a = cond_truth(cond.left, assignment)
    b = cond_truth(cond.right, assignment)
    if cond.op == "and":
        return a and b
    if cond.op == "or":
        return a or b
    if cond.op == "xor":
        return a != b
    raise ValueError(f"unknown connective {cond.op!r}")


def cond_support(cond: CondExpr) -> frozenset[int]:
    if isinstance(cond, CondConst):
        return frozenset()
    if isinstance(cond, CondAtom):
        return cond.qubits
    if isinstance(cond, CondNot):
        return cond_support(cond.operand)
    return cond_support(cond.left) | cond_support(cond.right)


# --------------------------------------------------------------------------
# Polynomial normal form over GF(2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZhegalkinPoly:
    """XOR of AND monomials over qubit indices, plus a constant term."""

    const: bool
    monomials: frozenset[frozenset[int]]

    def is_false(self) -> bool:
        return not self.const and not self.monomials

    def is_true(self) -> bool:
        return self.const and not self.monomials

    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.monomials:
            out |= m
        return frozenset(out)

    def canonical_monomials(self) -> list[frozenset[int]]:
        return sorted(self.monomials, key=lambda m: (len(m), sorted(m)))

    def xor(self, other: ZhegalkinPoly) -> ZhegalkinPoly:
        return ZhegalkinPoly(self.const != other.const,
                             self.monomials ^ other.monomials)

    def and_(self, other: ZhegalkinPoly) -> ZhegalkinPoly:
        one = frozenset()                   # the constant term as an empty monomial
        terms: set[frozenset[int]] = set()
        for m1 in self.monomials | ({one} if self.const else set()):
            for m2 in other.monomials | ({one} if other.const else set()):
                terms ^= {m1 | m2}
        return ZhegalkinPoly(one in terms, frozenset(terms - {one}))

    def negate(self) -> ZhegalkinPoly:
        return ZhegalkinPoly(not self.const, self.monomials)

    def truth(self, assignment) -> bool:
        value = self.const
        for m in self.monomials:
            if all(assignment[q] for q in m):
                value = not value
        return value


POLY_FALSE = ZhegalkinPoly(False, frozenset())
POLY_TRUE = ZhegalkinPoly(True, frozenset())


def to_xdnf(cond: CondExpr) -> ZhegalkinPoly:
    """Lower a boolean condition to its XOR-of-AND normal form."""
    if isinstance(cond, CondConst):
        return POLY_TRUE if cond.value else POLY_FALSE
    if isinstance(cond, CondAtom):
        return ZhegalkinPoly(False, frozenset({cond.qubits}))
    if isinstance(cond, CondNot):
        return to_xdnf(cond.operand).negate()
    left = to_xdnf(cond.left)
    right = to_xdnf(cond.right)
    if cond.op == "and":
        return left.and_(right)
    if cond.op == "xor":
        return left.xor(right)
    if cond.op == "or":
        return left.xor(right).xor(left.and_(right))
    raise ValueError(f"unknown connective {cond.op!r}")


# --------------------------------------------------------------------------
# Enable plans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectPlan:
    """Use the condition's literals as controls: q requires qubit q at 1, ~q at 0."""

    controls: tuple[int, ...]
    compute: tuple[PrimitiveGate, ...] = ()
    scratch: RegisterMap | None = None


@dataclass(frozen=True)
class SynthPlan:
    """Accumulate the condition into one scratch enable qubit by CNots."""

    controls: tuple[int, ...]
    compute: tuple[PrimitiveGate, ...]
    scratch: RegisterMap


EnablePlan = DirectPlan | SynthPlan


def synthesize_enable(poly: ZhegalkinPoly, machine) -> EnablePlan:
    """Build the enable plan for a non-constant condition polynomial.

    The conjunction of `pos` at 1 and `neg` at 0 expands to the 2^|neg| terms
    pos | s, s a subset of neg (the constant when both are empty).  Every term
    contains `pos`, so a polynomial with 2^|neg| of them is that conjunction."""
    if poly.is_false() or poly.is_true():
        raise QclRuntimeError("cannot synthesize an enable for a constant condition")
    pos = frozenset() if poly.const else frozenset.intersection(*poly.monomials)
    neg = poly.support() - pos
    if len(poly.monomials) + poly.const == 2 ** len(neg):
        return DirectPlan((*sorted(pos), *(~q for q in sorted(neg))))
    scratch = machine.allocate_register(1)
    e = scratch.qubits[0]
    gates: list[PrimitiveGate] = []
    if poly.const:
        gates.append(PrimitiveGate("X", None, e, frozenset()))
    for m in poly.canonical_monomials():
        gates.append(PrimitiveGate("X", None, e, frozenset(m)))
    return SynthPlan((e,), tuple(gates), scratch)


# --------------------------------------------------------------------------
# Quantum if execution
# --------------------------------------------------------------------------

def exec_quantum_if(ctx, poly: ZhegalkinPoly, run_then, run_else=None) -> None:
    """Run a conditional block pair under a non-constant condition polynomial.

    The then-branch runs under the enable of `poly` and the else-branch under
    the enable of its negation, each computed and uncomputed around its branch.
    """
    for branch, run in ((poly, run_then), (poly.negate(), run_else)):
        if run is not None:
            for _ in _under_enable(ctx, branch, run):
                pass


def exec_forking_if(ctx, path, poly: ZhegalkinPoly, then_block, else_block,
                    run_block, join) -> None:
    """Fork classical execution on a non-constant condition polynomial.

    Each branch becomes a path queued on the worklist `join`: the enable steps
    of its branch condition, which compute the enable and then call
    `run_block(block, path, join)` to run the branch and the rest of the
    forking path `path` on a copy of it.  That call returns when the copy ends
    or forks in turn; the steps stay queued beneath the paths it forked, and
    their last step uncomputes the enable after those paths.  The else-path is
    queued first, so the then-path runs first and paths run depth first.
    """
    for branch, block in ((poly.negate(), else_block), (poly, then_block)):
        ctx.note_fork()
        join.append(_under_enable(ctx, branch, partial(run_block, block, path, join)))


def _under_enable(ctx, poly: ZhegalkinPoly, run):
    """Compute the enable of `poly`, call `run` under it, suspend, then uncompute it."""
    plan = synthesize_enable(poly, ctx.machine)
    if plan.scratch is not None:
        ctx.note_alloc(plan.scratch)
    emitted = [ctx.emit_gate(g) for g in plan.compute]
    ctx.push_enable(plan.controls, poly.support())
    run()
    yield
    ctx.pop_enable()
    for g in adjoint_of_tape(emitted):
        ctx.emit_gate(g)
    if plan.scratch is not None:
        ctx.release_temp(plan.scratch)
