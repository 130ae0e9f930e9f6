"""Quantum conditions: polynomial normal form, enable synthesis, if-statements.

A boolean condition over qubits becomes an XOR of AND monomials.  A
conjunction of qubits, each required at 1 or at 0, is used directly as a
multi-control (~q marks a qubit required at 0); everything else is accumulated
into one scratch qubit by CNots and uncomputed afterwards.
"""

import sys

from qclite import (CondAtom, CondBin, CondNot, MachineState, Session, SessionConfig,
                    corpus_source, synthesize_enable, to_xdnf)


def atom(q):
    return CondAtom(frozenset({q}))


def show(label, cond):
    poly = to_xdnf(cond)
    monomials = [".".join(f"q{q}" for q in sorted(m)) for m in poly.canonical_monomials()]
    const = " + 1" if poly.const else ""
    print(f"{label:14} -> {' + '.join(monomials)}{const}")


print("polynomial normal forms:")
show("a and b", CondBin("and", atom(0), atom(1)))
show("a or b", CondBin("or", atom(0), atom(1)))
show("a xor b", CondBin("xor", atom(0), atom(1)))
show("not (a or b)", CondNot(CondBin("or", atom(0), atom(1))))

machine = MachineState(8)
machine.allocate_register(2)
plan = synthesize_enable(to_xdnf(CondBin("or", atom(0), atom(1))), machine)
print("\nenable plan for a or b (scratch qubit", plan.scratch.qubits[0], "):")
for g in plan.compute:
    print("  flip scratch controlled on", sorted(g.controls) or "nothing")
plan = synthesize_enable(to_xdnf(CondNot(CondBin("or", atom(0), atom(1)))), machine)
literals = ", ".join(f"~{~c}" if c < 0 else str(c) for c in plan.controls)
print(f"enable plan for not (a or b): controls ({literals}), no scratch qubit")

# the conditional-increment session: if-statements over mixed conditions
print("\nconditional increments on a 4-qubit counter:")
session = Session(SessionConfig(total_qubits=32, echo=False), out=sys.stdout)
session.run_source(corpus_source("inc_cond.qcl"))
session.run_line("qureg q[4]; qureg b[1]; qureg a[1];")
session.run_line("H(a & b);")
print("prepared:        ", session.echo_state())
for line in ("if a and b { inc(q); }",
             "if a or b { inc(q); }",
             "if not (a or b) { inc(q); }"):
    session.run_line(line)
    print(f"{line:28}", session.echo_state())

# an else-branch decrements by running the inverse under the negated condition
session.run_line("if a and b { inc(q); } else { !inc(q); }")
print("with else branch:", session.echo_state())
