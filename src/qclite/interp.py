"""Tree-walking interpreter: classical evaluation, calls, tapes and uncomputation.

Every primitive gate flows through the execution context's emit hook, which
adds the active enable controls, applies the gate unless the context is in a
deferred (record-only) mode and logs it while a call is being recorded.
Inverted calls record the callee first and then apply the adjoint of its
gates; subroutines with a quscratch parameter are rewritten on the fly into
compute / copy-out / uncompute form with a transparently allocated auxiliary
register.

Statements run in one loop over an explicit stack of running blocks (`Block`):
a branch or a loop iteration pushes or restarts a block instead of nesting a
Python call, so loop length and fork depth are bounded by memory, not by the
Python stack.  Only routine calls and quantum `if` branches nest frames; the
recursion limit is raised for the length of one top-level item.  A forking
`if` in an operator or qufunct body ends its path and queues both branches on
a worklist owned by `Interpreter.run_body`; each branch runs the rest of the
body on a copy of the block stack and its scopes, then-path first and depth
first, under its branch condition's enable.

Operator and qufunct calls replay recorded tapes.  A tape is the part of the
step log (`ProgramState.log`) that one call made: the gates it emitted,
the registers it allocated and freed (its local `qureg`s, quscratch
auxiliaries and synthesized enables), and the emptiness checks it ran, each
with its error message and, for a step inside the body, the position of the
body statement a failure is reported at.  An inverted call's recorded gates
leave the log once their adjoint is emitted; its allocations stay.  The tape
also holds the frees the call deferred to the caller's `Recorder` in
record-only mode, and its fork paths.  Tapes are kept on the `ProgramState`
under a key of the routine, the invert flag, the calling context's enable,
guard and apply mode, the allocation state (`allocated` and `materialized`,
which fix the qubits every allocation returns) and the argument values (a
register by its qubits, a classical value by its type and bits).  A later call
with the same key skips the body and pushes every step through the machine
again, so every check and every free still runs and fails as the body
would.  The key is complete because operator, qufunct and function bodies are
pure: they resolve names through `ProgramState.consts`, which holds only the
global constants, never global variables or registers, and a fork on a quantum
condition runs every path.  Procedures, calls that measure, reset, print or
draw `random()`, and calls whose recorded forks would take the statement past
`FORK_PATH_LIMIT` walk their bodies every time.  Rebinding a routine or a
global constant, which only unchecked trees can do, clears the store; past
`TAPE_CACHE_ENTRIES` entries or `TAPE_CACHE_GATES` stored steps nothing more
is stored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from . import qcond, syntax as ast
from .errors import (ExitSession, QclRuntimeError, RegisterError, ReturnSignal)
from .machine import (MachineState, PrimitiveGate, RegisterMap, adjoint_of_tape,
                      format_amplitude)
from .stdgates import BUILTINS, Builtin, LEVEL_FUNCTION, LEVEL_PROCEDURE, LEVELS

FORK_PATH_LIMIT = 1 << 16
RECURSION_LIMIT = 10000
TAPE_CACHE_ENTRIES = 4096
TAPE_CACHE_GATES = 1 << 16


@dataclass(frozen=True)
class RegisterValue:
    """A register operand: qubit map plus the quantum type it travels under."""

    reg: RegisterMap
    qtype: str


class Env:
    """Lexically chained frame of name -> value bindings."""

    __slots__ = ("parent", "vars", "local_regs", "is_global")

    def __init__(self, parent: Env | None = None, is_global: bool = False):
        self.parent = parent
        self.vars: dict[str, object] = {}
        self.local_regs: list[tuple[str, RegisterValue]] = []
        self.is_global = is_global

    def lookup_env(self, name: str) -> Env | None:
        env = self
        while env is not None:
            if name in env.vars:
                return env
            env = env.parent
        return None

    def get(self, name: str):
        env = self.lookup_env(name)
        if env is None:
            raise QclRuntimeError(f"unknown name '{name}'")
        return env.vars[name]

    def set(self, name: str, value) -> None:
        env = self.lookup_env(name)
        if env is None:
            raise QclRuntimeError(f"unknown name '{name}'")
        env.vars[name] = value

    def define(self, name: str, value) -> None:
        self.vars[name] = value

    def fork(self) -> Env:
        """Clone the chain of non-global frames; globals stay shared."""
        if self.is_global:
            return self
        copy = Env(self.parent.fork() if self.parent else None)
        copy.vars = dict(self.vars)
        copy.local_regs = list(self.local_regs)
        return copy


@dataclass(slots=True)
class Block:
    """One running block: its statements, its scope, the statement that opened
    it with the values a `for` opener has still to take, and the next index."""

    stmts: list
    env: Env
    opener: object = None
    counter: range | None = None
    index: int = 0


def _fork_path(path: list, stmts, opener) -> list:
    """A copy of the block stack `path`, on a copy of its scope chain, continued by
    the branch `stmts` of the forking `if` statement `opener`."""
    env = path[-1].env.fork()
    stack = [Block(stmts or (), Env(env), opener)]
    for block in reversed(path):
        stack.append(Block(block.stmts, env, block.opener, block.counter, block.index))
        env = env.parent
    stack.reverse()
    return stack


class Recorder:
    """The registers a record-only run left for its caller to free, in order."""

    __slots__ = ("temps",)

    def __init__(self):
        self.temps: list[RegisterMap] = []


@dataclass
class ExecContext:
    prog: "ProgramState"
    level: int
    env: Env
    recorder: Recorder
    apply: bool = True
    enable: frozenset[int] = frozenset()
    guarded: frozenset[int] = frozenset()
    fork_cell: list = field(default_factory=lambda: [0])
    _enable_stack: list = field(default_factory=list)

    @property
    def machine(self) -> MachineState:
        return self.prog.machine

    def child(self, **changes) -> "ExecContext":
        ctx = replace(self, **changes)
        ctx._enable_stack = []
        return ctx

    # -- gate pipeline -------------------------------------------------------

    def emit_gate(self, g: PrimitiveGate) -> PrimitiveGate:
        controls = g.controls | self.enable
        if g.target is not None:
            if g.target in controls:
                raise RegisterError("gate target overlaps its control set")
            if g.target in self.guarded:
                raise RegisterError(
                    "a conditioned block may not operate on its condition qubits")
        realized = PrimitiveGate(g.kind, g.param, g.target, controls)
        prog = self.prog
        if self.apply:
            prog.machine.apply_primitive(realized)
        if prog.recording:
            prog.log.append(realized)
        return realized

    def emit(self, kind: str, param, target, controls) -> PrimitiveGate:
        return self.emit_gate(PrimitiveGate(kind, param, target, frozenset(controls)))

    def push_enable(self, controls, guard) -> None:
        self._enable_stack.append((self.enable, self.guarded))
        self.enable = self.enable | frozenset(controls)
        self.guarded = self.guarded | frozenset(guard) | frozenset(controls)

    def pop_enable(self) -> None:
        self.enable, self.guarded = self._enable_stack.pop()

    # -- transparent registers -------------------------------------------------

    def alloc_temp(self, size: int) -> RegisterMap:
        reg = self.machine.allocate_register(size)
        self.note_alloc(reg)
        return reg

    def note_alloc(self, reg: RegisterMap) -> None:
        """Log an allocation for the calls being recorded; qcond allocates a
        synthesized enable on the machine directly and logs it here."""
        self.prog.log_step(_allocate, len(reg), None)

    def release_temp(self, reg: RegisterMap, message: str | None = None) -> None:
        """Free `reg`, raising `message` if it is not empty; in record-only mode
        defer the free to the recorder."""
        if self.apply:
            _free(self.machine, reg, message, None)
            self.prog.log_step(_free, reg, message)
        else:
            self.recorder.temps.append(reg)

    def note_fork(self) -> None:
        self.fork_cell[0] += 1
        if self.fork_cell[0] > FORK_PATH_LIMIT:
            raise QclRuntimeError(
                f"forking exceeded {FORK_PATH_LIMIT} classical paths")


# -- machine steps: run by a walked body and by a replayed tape alike -------------------

def _allocate(machine: MachineState, size: int, message, at) -> None:
    machine.allocate_register(size)


def _free(machine: MachineState, reg: RegisterMap, message: str | None, at) -> None:
    try:
        machine.free_register(reg)
    except RegisterError as err:
        raise _placed(QclRuntimeError(message) if message else err, at)


def _check(machine: MachineState, reg: RegisterMap, message: str, at) -> None:
    if not machine.is_empty_register(reg):
        raise _placed(QclRuntimeError(message), at)


def _placed(err: QclRuntimeError, at):
    """`err` at the statement `at`, as a walked body's block loop would place it."""
    if at is not None and err.line is None:
        err.line, err.column = at.line, at.column
    return err


class Tape(NamedTuple):
    """What one call did: its machine steps, in order, and what it handed its caller.

    A step is a gate, or `(fn, arg, message, at)` for `fn` one of `_allocate`,
    `_free` and `_check`, where `at` is the body statement a failure is
    reported at, or None for the call's own position.  A record-only call's
    gates are recorded, not applied.  `temps` are the frees a record-only call
    deferred to the caller's recorder; `forks` counts its fork paths.
    """

    steps: tuple
    temps: tuple
    forks: int


class ProgramState:
    """All classical interpreter state shared across statements."""

    def __init__(self, machine: MachineState, out=None, checks: bool = True):
        self.machine = machine
        self.routines: dict[str, ast.Routine] = {}
        # the names operator, qufunct and function bodies can see
        self.consts = Env(is_global=True)
        self.consts.vars.update(pi=math.pi, true=True, false=False)
        self.global_env = Env(is_global=True)
        self.global_env.vars.update(self.consts.vars)
        self.out = out if out is not None else sys.stdout
        self.checks = checks
        self.rng = machine.rng
        self.tapes: dict[tuple, Tape] = {}
        self.tape_gates = 0     # stored steps and deferred frees
        # the calls being recorded, innermost last, share one log of machine steps;
        # in it a step's `at` is `where()` when the step ran
        self.recording = 0
        self.log: list = []
        self.tainted = 0        # the recordings at depths below this one saw an effect
        # the statement each running block loop is at, innermost last
        self.frames: list[list] = []

    def write(self, text: str) -> None:
        self.note_effect()
        self.out.write(text)

    def note_effect(self) -> None:
        """An effect no tape replays (measure, reset, output, random(), a
        procedure call): no call being recorded is stored."""
        self.tainted = self.recording

    def where(self):
        """The innermost block loop at a statement, as (depth, statement), or None."""
        for depth in range(len(self.frames) - 1, -1, -1):
            if (stmt := self.frames[depth][0]) is not None:
                return depth, stmt
        return None

    def log_step(self, fn, arg, message) -> None:
        if self.recording:
            self.log.append((fn, arg, message, self.where()))

    def store_tape(self, key: tuple, tape: Tape) -> None:
        """Keep a call's tape while both caps allow; never evict."""
        size = len(tape.steps) + len(tape.temps)
        if (len(self.tapes) < TAPE_CACHE_ENTRIES
                and self.tape_gates + size <= TAPE_CACHE_GATES):
            self.tapes[key] = tape
            self.tape_gates += size

    def clear_tapes(self) -> None:
        self.tapes.clear()
        self.tape_gates = 0


class Interpreter:
    def __init__(self, prog: ProgramState):
        self.prog = prog

    def top_context(self) -> ExecContext:
        return ExecContext(self.prog, LEVEL_PROCEDURE, self.prog.global_env, Recorder())

    # -- items ----------------------------------------------------------------

    def run_items(self, items, ctx: ExecContext) -> None:
        for item in items:
            self.exec_item(item, ctx)

    def exec_item(self, item, ctx: ExecContext) -> None:
        if isinstance(item, ast.Routine):
            if item.name in self.prog.routines:
                self.prog.clear_tapes()
            self.prog.routines[item.name] = item
            return
        # routine calls nest Python frames; the raised limit holds for this item only
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
        try:
            self.exec_stmt(item, ctx)
        except RecursionError:
            raise QclRuntimeError("subroutine calls nested too deeply",
                                  item.line, item.column) from None
        finally:
            sys.setrecursionlimit(limit)
            self.prog.machine.flush()
        if isinstance(item, ast.ConstDecl):
            if item.name in self.prog.consts.vars:
                self.prog.clear_tapes()
            self.prog.consts.define(item.name, ctx.env.get(item.name))

    # -- statement execution ------------------------------------------------------

    def exec_stmt(self, stmt, ctx: ExecContext) -> None:
        """Run one top-level statement; compound statements go through `_run`."""
        if isinstance(stmt, (ast.If, ast.For, ast.While)):
            self._run([Block((stmt,), ctx.env)], ctx)
            return
        try:
            self._exec_stmt(stmt, ctx)
        except QclRuntimeError as err:
            if err.line is None:
                err.line, err.column = stmt.line, stmt.column
            raise

    def run_body(self, decl: ast.Routine, ctx: ExecContext) -> None:
        """Run a procedure, operator or qufunct body in the parameter scope `ctx.env`.

        Operator and qufunct bodies may fork.  Their locals are released once
        every path has ended, because the paths share the registers declared
        before a fork.
        """
        work: list = []
        frees = None if LEVELS[decl.kind] == LEVEL_PROCEDURE else {}
        self._run([Block(decl.body, ctx.env)], ctx, work, frees)
        while work:
            # a path's enable steps: the first step computes the enable and runs
            # the path, queuing its forks on top; the second uncomputes it
            if next(work[-1], True):
                work.pop()
        for name, rv in frees or ():
            self._release_local(name, rv, ctx)

    def _run(self, stack: list, ctx: ExecContext, work=None, frees=None) -> None:
        """Run one path's blocks, top of `stack` first, until the path ends or forks.

        A quantum `if` runs each branch in a nested run under its enable; a
        forking one queues both paths on the worklist `work` and ends this one.
        A closed block's local registers are released at once, or collected in
        `frees` when that is given.  The statement the loop is at, which an
        error is reported at, is kept on `prog.frames` for the tapes.
        """
        outer = ctx.env
        here = [None]
        frames = self.prog.frames
        frames.append(here)
        try:
            while stack:
                block = stack[-1]
                if block.index == len(block.stmts):
                    here[0] = block.opener
                    self._end_block(stack, block, ctx, frees)
                    continue
                here[0] = stmt = block.stmts[block.index]
                block.index += 1
                env = ctx.env = block.env
                if isinstance(stmt, ast.If):
                    poly = qcond.to_xdnf(self.eval_cond(stmt.cond, ctx))
                    if poly.is_true() or poly.is_false():
                        branch = stmt.then if poly.const else stmt.orelse
                        if branch is not None:
                            stack.append(Block(branch, Env(env), stmt))
                    elif stmt.forking:
                        qcond.exec_forking_if(
                            ctx, stack, poly, stmt.then, stmt.orelse,
                            lambda stmts, path, join: self._run(
                                _fork_path(path, stmts, stmt), ctx, join, frees),
                            work)
                        break
                    else:
                        qcond.exec_quantum_if(ctx, poly, *(
                            partial(self._run, [Block(branch, Env(env), stmt)], ctx)
                            for branch in (stmt.then, stmt.orelse) if branch is not None))
                elif isinstance(stmt, ast.For):
                    start = self._eval_int(stmt.start, ctx)
                    stop = self._eval_int(stmt.stop, ctx)
                    step = self._eval_int(stmt.step, ctx) if stmt.step is not None else 1
                    if step == 0:
                        raise QclRuntimeError("for step must not be zero")
                    values = range(start, stop + 1 if step > 0 else stop - 1, step)
                    # pushed as finished, so `_end_block` starts the first iteration
                    stack.append(Block(stmt.body, Env(env), stmt, values, len(stmt.body)))
                elif isinstance(stmt, ast.While):
                    stack.append(Block(stmt.body, Env(env), stmt, None, len(stmt.body)))
                else:
                    self._exec_stmt(stmt, ctx)
        except QclRuntimeError as err:
            raise _placed(err, here[0])
        finally:
            frames.pop()
        ctx.env = outer

    def _end_block(self, stack: list, block: Block, ctx: ExecContext, frees) -> None:
        """Close a finished block's scope; restart it for its loop's next iteration
        or pop it."""
        if frees is None:
            for name, rv in reversed(block.env.local_regs):
                self._release_local(name, rv, ctx)
        else:
            frees.update(dict.fromkeys(block.env.local_regs))
        stmt = block.opener
        ctx.env = parent = block.env.parent
        if isinstance(stmt, ast.For) and block.counter:
            parent.set(stmt.var, block.counter[0])
            block.counter = block.counter[1:]
        elif not (isinstance(stmt, ast.While) and self._eval_bool(stmt.cond, ctx)):
            stack.pop()
            return
        block.env = Env(parent)
        block.index = 0

    def _release_local(self, name: str, rv: RegisterValue, ctx: ExecContext) -> None:
        ctx.release_temp(rv.reg,
                         f"local register '{name}' is not empty at the end of its scope")

    def _exec_stmt(self, stmt, ctx: ExecContext) -> None:
        if isinstance(stmt, ast.VarDecl):
            value = self._default_value(stmt.ctype)
            if stmt.init is not None:
                value = self._coerce(stmt.ctype, self.eval_expr(stmt.init, ctx))
            ctx.env.define(stmt.name, value)
        elif isinstance(stmt, ast.ConstDecl):
            ctx.env.define(stmt.name, self.eval_expr(stmt.value, ctx))
        elif isinstance(stmt, ast.RegDecl):
            self.declare_register(stmt, ctx)
        elif isinstance(stmt, ast.Assign):
            env = ctx.env.lookup_env(stmt.name)
            if env is None:
                raise QclRuntimeError(f"unknown name '{stmt.name}'")
            current = env.vars[stmt.name]
            value = self.eval_expr(stmt.value, ctx)
            env.vars[stmt.name] = self._coerce_like(current, value)
        elif isinstance(stmt, ast.CallStmt):
            self.call_subroutine(stmt.name, stmt.args, stmt.invert, ctx)
        elif isinstance(stmt, ast.Measure):
            rv = self.eval_register(stmt.target, ctx)
            self.prog.note_effect()
            outcome = ctx.machine.measure_register(rv.reg)
            if stmt.var is not None:
                ctx.env.set(stmt.var, outcome)
        elif isinstance(stmt, ast.Reset):
            self.prog.note_effect()
            ctx.machine.reset_state()
        elif isinstance(stmt, ast.Dump):
            header, terms = ctx.machine.format_dump().split("\n")
            self.prog.write(": " + header + "\n")
            self.prog.write(terms + "\n")
        elif isinstance(stmt, ast.Print):
            parts = [self._format_value(self.eval_expr(a, ctx)) for a in stmt.args]
            self.prog.write(" ".join(parts) + "\n")
        elif isinstance(stmt, ast.ExitStmt):
            raise ExitSession()
        elif isinstance(stmt, ast.Return):
            raise ReturnSignal(self.eval_expr(stmt.value, ctx))
        else:
            raise TypeError(f"unhandled statement {type(stmt).__name__}")

    def declare_register(self, stmt: ast.RegDecl, ctx: ExecContext) -> None:
        size = self._eval_int(stmt.size, ctx)
        reg = ctx.alloc_temp(size)
        rv = RegisterValue(reg, stmt.qtype)
        ctx.env.define(stmt.name, rv)
        if not ctx.env.is_global:
            ctx.env.local_regs.append((stmt.name, rv))

    # -- calls ------------------------------------------------------------------

    def call_subroutine(self, name: str, arg_exprs, invert: bool,
                        ctx: ExecContext) -> None:
        """Call a builtin or a routine.  An operator or qufunct call replays its
        stored tape, or walks while its steps are logged and stores them."""
        args = [self.eval_expr(a, ctx) for a in arg_exprs]
        seen: set[int] = set()
        for a in args:
            if isinstance(a, RegisterValue):
                qs = set(a.reg.qubits)
                if qs & seen:
                    raise RegisterError(f"register arguments of '{name}' overlap")
                seen |= qs
        builtin = BUILTINS.get(name)
        if builtin is not None:
            self._call_builtin(builtin, args, invert, ctx)
            return
        decl = self.prog.routines.get(name)
        if decl is None:
            raise QclRuntimeError(f"unknown subroutine '{name}'")
        if ctx.enable and not decl.cond:
            raise QclRuntimeError(
                f"'{name}' must be declared cond to run under a quantum condition")
        prog = self.prog
        if LEVELS[decl.kind] == LEVEL_PROCEDURE:
            prog.note_effect()
            self._call(decl, args, invert, ctx)
            return
        machine = prog.machine
        key = (id(decl), invert, ctx.enable, ctx.guarded, ctx.apply,
               frozenset(machine.allocated), machine.materialized, *map(_value_key, args))
        tape = prog.tapes.get(key)
        if tape is not None and ctx.fork_cell[0] + tape.forks <= FORK_PATH_LIMIT:
            self._replay(tape, ctx)
            return
        frame, temps, forks = len(prog.frames), len(ctx.recorder.temps), ctx.fork_cell[0]
        steps, tainted = self.record(self._call, decl, args, invert, ctx)
        if not tainted:
            prog.store_tape(key, Tape(
                tuple(step if step.__class__ is PrimitiveGate
                      else (*step[:3], _inside(step[3], frame)) for step in steps),
                tuple(ctx.recorder.temps[temps:]), ctx.fork_cell[0] - forks))

    def record(self, run, *args, keep_gates: bool = True) -> tuple[list, bool]:
        """Call `run(*args)` with the step log on.  Return the steps it logged and
        whether it had an effect no tape replays; unless `keep_gates`, its gates
        then leave the log and its other steps stay."""
        prog = self.prog
        depth, log, start = prog.recording, prog.log, len(prog.log)
        prog.recording += 1
        try:
            run(*args)
            steps = log[start:]
            if not keep_gates:
                log[start:] = [step for step in steps if step.__class__ is not PrimitiveGate]
            return steps, prog.tainted > depth
        finally:
            prog.recording = depth
            prog.tainted = min(prog.tainted, depth)
            if not depth:
                log.clear()

    def _call(self, decl: ast.Routine, args, invert: bool, ctx: ExecContext) -> None:
        """Walk a call: bind its parameters and run its body, or record the body
        and apply the adjoint of its gates."""
        if invert:
            self._call_inverted(partial(self._enter_routine, decl, args), ctx)
            self._scratch_checks(decl, args, ctx, " after the call")
        else:
            self._enter_routine(decl, args, ctx)

    def _call_inverted(self, run, ctx: ExecContext) -> None:
        """Record `run(sub)` in record-only mode, then emit the adjoint of its gates
        and free the registers it deferred."""
        sub = ctx.child(recorder=Recorder(), apply=False)
        steps, _ = self.record(run, sub, keep_gates=False)
        for g in adjoint_of_tape(step for step in steps if step.__class__ is PrimitiveGate):
            ctx.emit_gate(g)
        for temp in sub.recorder.temps:
            ctx.release_temp(temp)

    def _replay(self, tape: Tape, ctx: ExecContext) -> None:
        """Push a stored tape's steps through the machine, as the walked call did."""
        prog = self.prog
        if prog.recording:
            # a step placed inside this call stays there; one placed at the call
            # is placed where the enclosing calls are now
            frame, here = len(prog.frames), prog.where()
            prog.log.extend(step if step.__class__ is PrimitiveGate
                            else (*step[:3], here if step[3] is None else (frame, step[3]))
                            for step in tape.steps)
        ctx.fork_cell[0] += tape.forks
        machine, apply = prog.machine, ctx.apply
        for step in tape.steps:
            if step.__class__ is PrimitiveGate:
                if apply:
                    machine.apply_primitive(step)
            else:
                fn, arg, message, at = step
                fn(machine, arg, message, at)
        ctx.recorder.temps.extend(tape.temps)

    def _call_builtin(self, b: Builtin, args, invert: bool, ctx: ExecContext) -> None:
        cvals = [self._to_real(v) for v in args[: b.cparams]]
        regs = []
        for value, qtype in zip(args[b.cparams:], b.rparams):
            if not isinstance(value, RegisterValue):
                raise QclRuntimeError(f"'{b.name}' expects a register argument")
            regs.append(value.reg)
            if qtype == "quvoid" and not invert:
                self._check_empty(value.reg, f"quvoid argument of '{b.name}'", ctx)
        if invert:
            self._call_inverted(lambda sub: b.emitter(sub, cvals, regs), ctx)
        else:
            b.emitter(ctx, cvals, regs)

    def _enter_routine(self, decl: ast.Routine, args, ctx: ExecContext) -> None:
        level = LEVELS[decl.kind]
        env = Env(self.prog.global_env if level == LEVEL_PROCEDURE else self.prog.consts)
        scratch = False
        target: tuple[str, RegisterValue] | None = None
        for p, value in zip(decl.params, args):
            if p.is_quantum:
                if not isinstance(value, RegisterValue):
                    raise QclRuntimeError(
                        f"parameter '{p.name}' of '{decl.name}' needs a register")
                bound = RegisterValue(value.reg, p.type)
                env.define(p.name, bound)
                scratch |= p.type == "quscratch"
                if p.type == "quvoid":
                    target = (p.name, bound)
            else:
                env.define(p.name, self._coerce(p.type, value))
        sub = ctx.child(level=level, env=env)
        if scratch:
            self._call_with_scratch(decl, args, sub, ctx, target)
            return
        if target is not None:
            self._check_empty(target[1].reg,
                              f"quvoid argument '{target[0]}' of '{decl.name}'", ctx)
        self.run_body(decl, sub)

    def _call_with_scratch(self, decl: ast.Routine, args, sub: ExecContext,
                           ctx: ExecContext, target) -> None:
        """Uncompute scratch: run the body into an auxiliary register, copy the
        result out, then run the adjoint of the body to clear all junk."""
        name, tv = target
        self._scratch_checks(decl, args, ctx)
        self._check_empty(tv.reg, f"quvoid argument '{name}' of '{decl.name}'", ctx)
        aux = ctx.alloc_temp(len(tv.reg))
        sub.env.define(name, RegisterValue(aux, "quvoid"))
        steps, _ = self.record(self.run_body, decl, sub)
        for k in range(len(tv.reg)):
            ctx.emit("X", None, tv.reg.qubits[k], (aux.qubits[k],))
        for g in adjoint_of_tape(step for step in steps if step.__class__ is PrimitiveGate):
            ctx.emit_gate(g)
        self._scratch_checks(decl, args, ctx, " after the call")
        self._check_empty(aux, "auxiliary register after uncomputation", ctx)
        ctx.release_temp(aux)

    def _scratch_checks(self, decl: ast.Routine, args, ctx: ExecContext, when="") -> None:
        for p, value in zip(decl.params, args):
            if p.type == "quscratch":
                message = f"quscratch argument '{p.name}' of '{decl.name}'{when}"
                self._check_empty(value.reg, message, ctx)

    def _check_empty(self, reg: RegisterMap, what: str, ctx: ExecContext) -> None:
        if ctx.apply and self.prog.checks:
            message = f"{what} is not empty"
            _check(ctx.machine, reg, message, None)
            self.prog.log_step(_check, reg, message)

    def call_function(self, decl: ast.Routine, args, ctx: ExecContext):
        env = Env(self.prog.consts)
        for p, value in zip(decl.params, args):
            env.define(p.name, self._coerce(p.type, value))
        sub = ctx.child(level=LEVEL_FUNCTION, env=env)
        try:
            self._run([Block(decl.body, env)], sub)
        except ReturnSignal as ret:
            return self._coerce(decl.ret_type, ret.value)
        raise QclRuntimeError(f"function '{decl.name}' did not return a value")

    # -- expressions --------------------------------------------------------------

    def eval_expr(self, expr, ctx: ExecContext):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.Name):
            return ctx.env.get(expr.ident)
        if isinstance(expr, ast.Length):
            return len(self.eval_register(expr.operand, ctx).reg)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx)
        if isinstance(expr, ast.Index):
            rv = self.eval_register(expr.base, ctx)
            return RegisterValue(rv.reg.index(self._eval_int(expr.index, ctx)), rv.qtype)
        if isinstance(expr, ast.RangeIndex):
            rv = self.eval_register(expr.base, ctx)
            lo = self._eval_int(expr.lo, ctx)
            hi = self._eval_int(expr.hi, ctx)
            return RegisterValue(rv.reg.slice(lo, hi), rv.qtype)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx)
        raise TypeError(f"unhandled expression {type(expr).__name__}")

    def _eval_call(self, expr: ast.Call, ctx: ExecContext):
        if expr.name == "random":
            self.prog.note_effect()
            return float(self.prog.rng.random())
        decl = self.prog.routines.get(expr.name)
        if decl is None or decl.ret_type is None:
            raise QclRuntimeError(f"unknown function '{expr.name}'")
        args = [self.eval_expr(a, ctx) for a in expr.args]
        return self.call_function(decl, args, ctx)

    def _eval_unary(self, expr: ast.Unary, ctx: ExecContext):
        value = self.eval_expr(expr.operand, ctx)
        if expr.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
                raise QclRuntimeError("unary - expects a number")
            return -value
        if not isinstance(value, bool):
            raise QclRuntimeError("not expects a boolean")
        return not value

    def _eval_binary(self, expr: ast.Binary, ctx: ExecContext):
        op = expr.op
        if op == "&":
            left = self.eval_register(expr.left, ctx)
            right = self.eval_register(expr.right, ctx)
            tainted = "quconst" in (left.qtype, right.qtype)
            return RegisterValue(left.reg.concat(right.reg),
                                 "quconst" if tainted else "qureg")
        left = self.eval_expr(expr.left, ctx)
        right = self.eval_expr(expr.right, ctx)
        if op in ("and", "or", "xor"):
            if not isinstance(left, bool) or not isinstance(right, bool):
                raise QclRuntimeError(f"{op} expects boolean operands")
            if op == "and":
                return left and right
            if op == "or":
                return left or right
            return left != right
        if op in ("==", "!="):
            result = left == right
            return result if op == "==" else not result
        if op in ("<", "<=", ">", ">="):
            if isinstance(left, complex) or isinstance(right, complex):
                raise QclRuntimeError("cannot order complex values")
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[op]
        if op == "mod":
            if not isinstance(left, int) or not isinstance(right, int):
                raise QclRuntimeError("mod expects integers")
            if right == 0:
                raise QclRuntimeError("division by zero")
            return left % right
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise QclRuntimeError("division by zero")
                if isinstance(left, int) and isinstance(right, int):
                    return left // right
                return left / right
            if op == "^":
                if isinstance(left, int) and isinstance(right, int):
                    return left ** right if right >= 0 else float(left) ** right
                return left ** right
        except OverflowError:
            # a float result, or an int operand converted to float, beyond range
            raise QclRuntimeError(f"result of '{op}' is out of range") from None
        except ZeroDivisionError:
            raise QclRuntimeError("division by zero") from None     # 0 ^ -1
        raise ValueError(f"unhandled operator {op!r}")

    def eval_register(self, expr, ctx: ExecContext) -> RegisterValue:
        value = self.eval_expr(expr, ctx)
        if not isinstance(value, RegisterValue):
            raise QclRuntimeError("expected a quantum register")
        return value

    def eval_cond(self, expr, ctx: ExecContext):
        """Lower an if-guard to a condition tree, folding classical leaves."""
        if isinstance(expr, ast.Unary) and expr.op == "not":
            return qcond.CondNot(self.eval_cond(expr.operand, ctx))
        if isinstance(expr, ast.Binary) and expr.op in ("and", "or", "xor"):
            return qcond.CondBin(expr.op, self.eval_cond(expr.left, ctx),
                                 self.eval_cond(expr.right, ctx))
        value = self.eval_expr(expr, ctx)
        if isinstance(value, RegisterValue):
            return qcond.CondAtom(frozenset(value.reg.qubits))
        if isinstance(value, bool):
            return qcond.CondConst(value)
        raise QclRuntimeError("a condition must be boolean or a quantum register")

    # -- small helpers --------------------------------------------------------------

    def _eval_int(self, expr, ctx: ExecContext) -> int:
        value = self.eval_expr(expr, ctx)
        if isinstance(value, bool) or not isinstance(value, int):
            raise QclRuntimeError("expected an integer value")
        return value

    def _eval_bool(self, expr, ctx: ExecContext) -> bool:
        value = self.eval_expr(expr, ctx)
        if not isinstance(value, bool):
            raise QclRuntimeError("expected a boolean value")
        return value

    def _to_real(self, value) -> float:
        """A gate angle: a finite real, since inf or nan would corrupt the state."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QclRuntimeError("expected a real value")
        try:
            angle = float(value)
        except OverflowError:       # an int beyond the float range
            angle = math.inf
        if not math.isfinite(angle):
            raise QclRuntimeError("a gate angle must be finite")
        return angle

    @staticmethod
    def _default_value(ctype: str):
        return {"int": 0, "real": 0.0, "complex": 0j, "boolean": False}[ctype]

    def _coerce(self, ctype: str, value):
        if ctype == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise QclRuntimeError("expected an int value")
            return value
        if ctype in ("real", "complex"):
            kinds = (int, float) if ctype == "real" else (int, float, complex)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise QclRuntimeError(f"expected a {ctype} value")
            try:
                return float(value) if ctype == "real" else complex(value)
            except OverflowError:       # an int beyond the float range
                raise QclRuntimeError(f"value is out of range for a {ctype}") from None
        if ctype == "boolean":
            if not isinstance(value, bool):
                raise QclRuntimeError("expected a boolean value")
            return value
        raise ValueError(f"unknown classical type {ctype!r}")

    def _coerce_like(self, current, value):
        if isinstance(current, bool):
            return self._coerce("boolean", value)
        if isinstance(current, int):
            return self._coerce("int", value)
        if isinstance(current, float):
            return self._coerce("real", value)
        if isinstance(current, complex):
            return self._coerce("complex", value)
        raise QclRuntimeError("cannot assign to this name")

    @staticmethod
    def _format_value(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            try:
                return str(value)
            except ValueError:      # past Python's int-to-str digit limit
                raise QclRuntimeError("integer too large to print") from None
        if isinstance(value, float):
            return f"{value:g}"
        if isinstance(value, complex):
            return format_amplitude(value)
        if isinstance(value, RegisterValue):
            return f"<{len(value.reg)}-qubit register>"
        raise TypeError(f"cannot print {type(value).__name__}")


def _inside(where, frame: int):
    """The statement a logged step's `where` places it at, for the call whose
    body runs in block loops from depth `frame` on; None for the call itself."""
    return where[1] if where is not None and where[0] >= frame else None


def _value_key(value):
    """Cache key of an argument: a register by its qubits, since a call binds it
    under its parameter's type; floats by their bits, so 0.0 and -0.0 differ."""
    if isinstance(value, RegisterValue):
        return value.reg.qubits
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, complex):
        return complex, value.real.hex(), value.imag.hex()
    return type(value), value


def run_program(tree: ast.Program, prog: ProgramState) -> None:
    """Execute a statically checked program against fresh top-level context."""
    interp = Interpreter(prog)
    interp.run_items(tree.items, interp.top_context())
