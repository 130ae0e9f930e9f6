"""Forking qufunct bodies against a classical model of the same body.

Random `cond qufunct f(quconst s, qureg q)` bodies are built from `for` loops,
classical `if`s on an `int n`, quantum `if`s on `s` (forking when their
branches assign or loop, non-forking otherwise) and `Not`/`CNot` gates on
classically indexed qubits of `q`.  For a basis value of `s` every quantum
condition is a classical bit, so a small Python evaluator of the body gives
the basis permutation the call must apply.  A second walk of the model visits
the paths in the interpreter's order (then-path first, depth first) and gives
the sequence of gate targets the recorded tape must contain.
"""

from hypothesis import assume, given, settings, strategies as st

from qclite import ExecContext, PrimitiveGate, Recorder, parse_interactive
from qclite.stdgates import LEVEL_PROCEDURE
from conftest import make_session, permutation_of, routine_matrix

MAX_FORK_WEIGHT = 4    # forks executed along one path, so at most 2^4 paths


# -- the body as a tree -----------------------------------------------------------
#
#   ("not", var, off)              Not(q[(n + i<var> + off) mod #q])
#   ("cnot", var, off, k)          CNot(q[(E + k) mod #q], q[E mod #q])
#   ("add", c)                     n = n + c
#   ("for", d, hi, body)           for i<d> = 0 to hi { body }
#   ("cif", c, then, orelse)       if n mod 2 == c { then } else { orelse }
#   ("qif", cond, then, orelse)    if <cond over s> { then } [else { orelse }]
#
# var is the depth of an enclosing loop, whose counter i<var> is in scope, or
# None.  The strategies are built once and draw register-independent trees;
# `concrete` fits a tree to the register lengths, so that drawing creates no
# strategy objects per example.

SMALL = st.integers(0, 3)
COND = st.one_of(st.tuples(st.sampled_from(["atom", "not"]), SMALL),
                 st.tuples(st.sampled_from(["and", "or"]), SMALL, SMALL))
LEAF = st.one_of(st.tuples(st.just("not"), st.none() | SMALL, SMALL),
                 st.tuples(st.just("cnot"), st.none() | SMALL, SMALL, SMALL),
                 st.tuples(st.just("add"), st.integers(1, 3)))


def _compound(block):
    return st.one_of(
        st.tuples(st.just("for"), st.just(0), st.integers(0, 2), block),
        st.tuples(st.just("cif"), st.integers(0, 1), block, block),
        # the boolean puts an assignment first in the then-branch: a forking if
        st.tuples(st.just("qif"), COND, block, st.none() | block, st.booleans()))


BLOCK = st.recursive(st.lists(LEAF, min_size=1, max_size=3),
                     lambda block: st.lists(LEAF | _compound(block), min_size=1,
                                            max_size=3),
                     max_leaves=10)
FORK = st.tuples(st.just("qif"), COND, BLOCK, st.none() | BLOCK, st.just(True))
FORKS = st.lists(FORK, min_size=1, max_size=2)
# a fork, a fork in a loop, a fork in a non-assigning quantum if (which then
# forks too) or a fork in a fork, inserted among the statements of a block,
# and a final Not(q[n mod #q]) that shows each path's n
BODY = st.builds(
    lambda body, site, at: body[:at] + [site] + body[at:] + [("not", None, 0)],
    BLOCK,
    st.one_of(FORK,
              st.tuples(st.just("for"), st.just(0), st.integers(1, 2), FORKS),
              st.tuples(st.just("qif"), COND, FORKS, st.none() | BLOCK, st.just(False)),
              st.tuples(st.just("qif"), COND, FORKS, st.none() | FORKS, st.just(True))),
    st.integers(0, 3))


def concrete(stmts, ns, nq, loops=()):
    """Fit a drawn tree to `s[ns]` and `q[nq]`: reduce qubit indices, number
    the loops by depth and drop references to counters not in scope."""
    out = []
    for stmt in stmts:
        kind = stmt[0]
        if kind in ("not", "cnot"):
            var = stmt[1] if stmt[1] in loops else None
            out.append((kind, var, stmt[2]) if kind == "not"
                       else (kind, var, stmt[2], 1 + stmt[3] % (nq - 1)))
        elif kind == "add":
            out.append(stmt)
        elif kind == "for":
            depth = len(loops)
            out.append(("for", depth, stmt[2], concrete(stmt[3], ns, nq, loops + (depth,))))
        elif kind == "cif":
            out.append(("cif", stmt[1], concrete(stmt[2], ns, nq, loops),
                        concrete(stmt[3], ns, nq, loops)))
        else:
            cond = (stmt[1][0],) + tuple(i % ns for i in stmt[1][1:])
            then = concrete(stmt[2], ns, nq, loops)
            orelse = None if stmt[3] is None else concrete(stmt[3], ns, nq, loops)
            if stmt[4]:
                then = [("add", 1 + len(then))] + then
            out.append(("qif", cond, then, orelse))
    return out


def loop_depth(stmts) -> int:
    return max((1 + stmt[1] if stmt[0] == "for" else 0 for stmt in walk(stmts)), default=0)


def walk(stmts):
    for stmt in stmts:
        yield stmt
        for child in stmt[2:]:
            if isinstance(child, list):
                yield from walk(child)


def forks(stmts) -> bool:
    """The checker's rule: a quantum if forks when its branches assign or loop."""
    for stmt in stmts:
        if stmt[0] in ("add", "for"):
            return True
        if stmt[0] in ("cif", "qif") and (forks(stmt[2]) or forks(stmt[3] or [])):
            return True
    return False


def fork_weight(stmts) -> int:
    total = 0
    for stmt in stmts:
        if stmt[0] == "for":
            total += (stmt[2] + 1) * fork_weight(stmt[3])
        elif stmt[0] in ("cif", "qif"):
            inner = max(fork_weight(stmt[2]), fork_weight(stmt[3] or []))
            total += inner + (stmt[0] == "qif" and forks([stmt]))
    return total


# -- rendering ----------------------------------------------------------------------

def render_index(var, off, extra=0):
    loop = f" + i{var}" if var is not None else ""
    return f"(n{loop} + {off + extra}) mod #q"


def render_cond(cond):
    if cond[0] == "atom":
        return f"s[{cond[1]}]"
    if cond[0] == "not":
        return f"not s[{cond[1]}]"
    return f"s[{cond[1]}] {cond[0]} s[{cond[2]}]"


def render(stmts):
    out = []
    for stmt in stmts:
        kind = stmt[0]
        if kind == "not":
            out.append(f"Not(q[{render_index(stmt[1], stmt[2])}]);")
        elif kind == "cnot":
            out.append(f"CNot(q[{render_index(stmt[1], stmt[2], stmt[3])}], "
                       f"q[{render_index(stmt[1], stmt[2])}]);")
        elif kind == "add":
            out.append(f"n = n + {stmt[1]};")
        elif kind == "for":
            out.append(f"for i{stmt[1]} = 0 to {stmt[2]} {{ {render(stmt[3])} }}")
        elif kind == "cif":
            out.append(f"if n mod 2 == {stmt[1]} {{ {render(stmt[2])} }} "
                       f"else {{ {render(stmt[3])} }}")
        else:
            text = f"if {render_cond(stmt[1])} {{ {render(stmt[2])} }}"
            if stmt[3] is not None:
                text += f" else {{ {render(stmt[3])} }}"
            out.append(text)
    return " ".join(out)


def source_of(body):
    loops = " ".join(f"int i{d};" for d in range(loop_depth(body)))
    return (f"cond qufunct f(quconst s, qureg q) {{ int n = 0; {loops} "
            f"{render(body)} }}")


# -- the classical model ------------------------------------------------------------

def cond_value(cond, s):
    if cond[0] == "atom":
        return s[cond[1]]
    if cond[0] == "not":
        return not s[cond[1]]
    a, b = s[cond[1]], s[cond[2]]
    return (a and b) if cond[0] == "and" else (a or b)


class Model:
    """Runs a body for one selector value `s`, or, with `s=None`, along every
    path in the interpreter's order, logging the `q` positions gates target."""

    def __init__(self, nq, s=None, q=None):
        self.nq, self.s = nq, s
        self.q = list(q) if q is not None else [0] * nq
        self.targets = []

    def index(self, state, var, off, extra=0):
        loop = state["i"][var] if var is not None else 0
        return (state["n"] + loop + off + extra) % self.nq

    def run(self, stmts, state):
        """Run the path `stmts`; a compound statement continues with its chosen
        block followed by the statements after it, so `stmts` is always the
        whole rest of the path."""
        for pos, stmt in enumerate(stmts):
            kind = stmt[0]
            if kind == "not":
                t = self.index(state, stmt[1], stmt[2])
                self.targets.append(t)
                self.q[t] ^= 1
            elif kind == "cnot":
                t = self.index(state, stmt[1], stmt[2], stmt[3])
                c = self.index(state, stmt[1], stmt[2])
                self.targets.append(t)
                self.q[t] ^= self.q[c]
            elif kind == "add":
                state["n"] += stmt[1]
            elif kind == "for":
                unrolled = []
                for value in range(stmt[2] + 1):
                    unrolled += [("set", stmt[1], value)] + stmt[3]
                return self.run(unrolled + list(stmts[pos + 1:]), state)
            elif kind == "set":
                state["i"][stmt[1]] = stmt[2]
            elif kind == "cif":
                branch = stmt[2] if state["n"] % 2 == stmt[1] else stmt[3]
                return self.run(list(branch) + list(stmts[pos + 1:]), state)
            elif self.s is not None:
                branch = stmt[2] if cond_value(stmt[1], self.s) else stmt[3]
                return self.run(list(branch or []) + list(stmts[pos + 1:]), state)
            elif forks([stmt]):
                rest = list(stmts[pos + 1:])
                for branch in (stmt[2], stmt[3] or []):
                    self.run(list(branch) + rest, {"n": state["n"], "i": dict(state["i"])})
                return
            else:
                # a non-forking quantum if runs both branches on the one path
                self.run(list(stmt[2]) + list(stmt[3] or []), state)
        return


def expected_permutation(body, ns, nq):
    perm = []
    for k in range(1 << (ns + nq)):
        s = [bool(k >> b & 1) for b in range(ns)]
        q = [k >> (ns + b) & 1 for b in range(nq)]
        model = Model(nq, s, q)
        model.run(body, {"n": 0, "i": {}})
        perm.append((k & ((1 << ns) - 1))
                    | sum(bit << (ns + b) for b, bit in enumerate(model.q)))
    return perm


def recorded_targets(source, ns, nq):
    """Gate targets on q, in tape order, of one call on |0>."""
    session = make_session(qubits=24, checks=False)
    session.run_source(source)
    session.run_line(f"qureg s[{ns}]; qureg q[{nq}];")
    ctx = ExecContext(session.prog, LEVEL_PROCEDURE, session.prog.global_env, Recorder())
    (stmt,) = parse_interactive("f(s, q);")
    steps, _ = session.interp.record(session.interp.exec_stmt, stmt, ctx)
    return [g.target - ns for g in steps
            if isinstance(g, PrimitiveGate) and ns <= g.target < ns + nq]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), BODY)
def test_forking_bodies_match_classical_model(ns, nq, tree):
    body = concrete(tree, ns, nq)
    assume(fork_weight(body) <= MAX_FORK_WEIGHT)
    source = source_of(body)
    matrix = routine_matrix(source, f"qureg s[{ns}]; qureg q[{nq}];", "f(s, q);", ns + nq)
    assert permutation_of(matrix) == expected_permutation(body, ns, nq), source
    model = Model(nq)
    model.run(body, {"n": 0, "i": {}})
    assert recorded_targets(source, ns, nq) == model.targets, source


def test_model_sees_nested_forks():
    # a fork in a loop, a fork inside a fork and a fork inside a quantum if
    body = [("for", 0, 1, [("qif", ("atom", 0), [("add", 1)], None)]),
            ("qif", ("atom", 1), [("qif", ("not", 0), [("add", 2)], [("not", None, 0)])],
             None),
            ("qif", ("or", 0, 1), [("not", 0, 1), ("qif", ("atom", 0), [("add", 1)], None)],
             None),
            ("not", None, 0)]
    source = source_of(body)
    matrix = routine_matrix(source, "qureg s[2]; qureg q[3];", "f(s, q);", 5)
    assert permutation_of(matrix) == expected_permutation(body, 2, 3)
    model = Model(3)
    model.run(body, {"n": 0, "i": {}})
    assert recorded_targets(source, 2, 3) == model.targets
