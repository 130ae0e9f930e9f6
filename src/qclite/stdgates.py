"""Builtin quantum routines reachable by name from qclite code.

Each builtin is defined over register maps and lowers to primitive gates
through the calling context's emit hook, so recording, inversion and
conditional derivation treat builtins and user subroutines uniformly.
H, Rot and Phase are general unitaries (operator level); Not, CNot, flip and
fanout are basis permutations (qufunct level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import RegisterError

LEVEL_PROCEDURE = 3
LEVEL_OPERATOR = 2
LEVEL_QUFUNCT = 1
LEVEL_FUNCTION = 0
LEVELS = {"procedure": LEVEL_PROCEDURE, "operator": LEVEL_OPERATOR,
          "qufunct": LEVEL_QUFUNCT, "function": LEVEL_FUNCTION}


@dataclass(frozen=True)
class Builtin:
    name: str
    level: int
    cparams: int                 # leading classical (angle) arguments
    rparams: tuple[str, ...]     # quantum types of the register arguments
    emitter: Callable


def _h(ctx, cvals, regs):
    (q,) = regs
    for t in q.qubits:
        ctx.emit("H", None, t, ())


def _not(ctx, cvals, regs):
    (q,) = regs
    for t in q.qubits:
        ctx.emit("X", None, t, ())


def _cnot(ctx, cvals, regs):
    target, control = regs
    for t in target.qubits:
        ctx.emit("X", None, t, control.qubits)


def _rot(ctx, cvals, regs):
    (theta,) = cvals
    (q,) = regs
    for t in q.qubits:
        ctx.emit("ROT", theta, t, ())


def _phase(ctx, cvals, regs):
    (phi,) = cvals
    ctx.emit("PHASE", phi, None, ())


def _flip(ctx, cvals, regs):
    (q,) = regs
    m = len(q.qubits)
    for i in range(m // 2):
        a, b = q.qubits[i], q.qubits[m - 1 - i]
        ctx.emit("X", None, a, (b,))
        ctx.emit("X", None, b, (a,))
        ctx.emit("X", None, a, (b,))


def _fanout(ctx, cvals, regs):
    src, dst = regs
    if len(src) != len(dst):
        raise RegisterError(
            f"fanout requires registers of equal length, got {len(src)} and {len(dst)}"
        )
    for k in range(len(src)):
        ctx.emit("X", None, dst.qubits[k], (src.qubits[k],))


BUILTINS: dict[str, Builtin] = {
    "H": Builtin("H", LEVEL_OPERATOR, 0, ("qureg",), _h),
    "Rot": Builtin("Rot", LEVEL_OPERATOR, 1, ("qureg",), _rot),
    "Phase": Builtin("Phase", LEVEL_OPERATOR, 1, (), _phase),
    "Not": Builtin("Not", LEVEL_QUFUNCT, 0, ("qureg",), _not),
    "CNot": Builtin("CNot", LEVEL_QUFUNCT, 0, ("qureg", "quconst"), _cnot),
    "flip": Builtin("flip", LEVEL_QUFUNCT, 0, ("qureg",), _flip),
    "fanout": Builtin("fanout", LEVEL_QUFUNCT, 0, ("quconst", "quvoid"), _fanout),
}
