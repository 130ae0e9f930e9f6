"""Tree-walking interpreter: classical evaluation, calls, tapes and uncomputation.

Every primitive gate flows through the execution context's emit hook, which
adds the active enable controls, records the gate on the current tape and
applies it to the machine unless the context is in a deferred (record-only)
mode.  Inverted calls record the callee's tape first and then apply its
adjoint; subroutines with a quscratch parameter are rewritten on the fly into
compute / copy-out / uncompute form with a transparently allocated auxiliary
register.  Operator and qufunct bodies run in continuation-passing style so a
forking conditional can continue each classical path through the remainder of
the body before the next path starts.

Operator and qufunct calls replay recorded tapes.  When a call's body did
nothing but emit gates (no allocation or free, no emptiness check that ran, no
fork, no random draw, measurement or output), its realized gates are stored on
the `ProgramState` under a key of the routine, the bound parameter values (a
register by its qubits and quantum type, a classical value by its type and
bits) and the calling context's enable, guard and apply mode.  A later call
with the same key skips the body and pushes the stored gates through the
machine.  The key is complete because operator, qufunct and function bodies
are pure: they resolve names through `ProgramState.consts`, which holds only
the global constants, never global variables or registers, so their gates
depend on nothing else.  Rebinding a routine or a global constant, which only
unchecked trees can do, clears the store; past `TAPE_CACHE_ENTRIES` entries or
`TAPE_CACHE_GATES` stored gates nothing more is stored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

from . import qcond, syntax as ast
from .errors import (ExitSession, QclRuntimeError, RegisterError, ReturnSignal)
from .machine import (MachineState, PrimitiveGate, RegisterMap, adjoint_of_tape,
                      format_amplitude)
from .stdgates import (BUILTINS, Builtin, LEVEL_FUNCTION, LEVEL_OPERATOR,
                       LEVEL_PROCEDURE, LEVEL_QUFUNCT)

LEVELS = {"procedure": LEVEL_PROCEDURE, "operator": LEVEL_OPERATOR,
          "qufunct": LEVEL_QUFUNCT, "function": LEVEL_FUNCTION}

FORK_PATH_LIMIT = 1 << 16
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


@dataclass(frozen=True)
class ForkPath:
    """One classical execution path: its frame and accumulated branch conditions."""

    frame: Env
    conds: tuple = ()

    def fork(self, cond) -> ForkPath:
        return ForkPath(self.frame.fork(), self.conds + (cond,))


class Recorder:
    """One tape-recording session plus registers whose release is deferred."""

    __slots__ = ("gates", "temps")

    def __init__(self):
        self.gates: list[PrimitiveGate] = []
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
    deferred_frees: list = field(default_factory=list)
    _enable_stack: list = field(default_factory=list)

    @property
    def machine(self) -> MachineState:
        return self.prog.machine

    def child(self, **changes) -> "ExecContext":
        ctx = replace(self, **changes)
        ctx._enable_stack = []
        ctx.deferred_frees = []
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
        self.recorder.gates.append(realized)
        if self.apply:
            self.machine.apply_primitive(realized)
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
        self.prog.effects += 1
        return self.machine.allocate_register(size)

    def release_temp(self, reg: RegisterMap) -> None:
        self.prog.effects += 1
        if self.apply:
            self.machine.free_register(reg)
        else:
            self.recorder.temps.append(reg)

    def note_fork(self) -> None:
        self.prog.effects += 1
        self.fork_cell[0] += 1
        if self.fork_cell[0] > FORK_PATH_LIMIT:
            raise QclRuntimeError(
                f"forking exceeded {FORK_PATH_LIMIT} classical paths")


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
        self.tapes: dict[tuple, tuple[PrimitiveGate, ...]] = {}
        self.tape_gates = 0
        self.effects = 0    # bumped by every step that a replayed tape would skip

    def write(self, text: str) -> None:
        self.effects += 1
        self.out.write(text)

    def store_tape(self, key: tuple, gates) -> None:
        """Keep a pure call's realized gates while both caps allow; never evict."""
        if (len(self.tapes) < TAPE_CACHE_ENTRIES
                and self.tape_gates + len(gates) <= TAPE_CACHE_GATES):
            self.tapes[key] = tuple(gates)
            self.tape_gates += len(gates)

    def clear_tapes(self) -> None:
        self.tapes.clear()
        self.tape_gates = 0


class Interpreter:
    def __init__(self, prog: ProgramState):
        self.prog = prog
        if sys.getrecursionlimit() < 10000:
            sys.setrecursionlimit(10000)

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
        self.exec_stmt(item, ctx)
        if isinstance(item, ast.ConstDecl):
            if item.name in self.prog.consts.vars:
                self.prog.clear_tapes()
            self.prog.consts.define(item.name, ctx.env.get(item.name))

    # -- plain statement execution ---------------------------------------------

    def exec_block(self, stmts, ctx: ExecContext) -> None:
        inner = ctx.child(env=Env(ctx.env))
        for stmt in stmts:
            self.exec_stmt(stmt, inner)
        self._close_scope(inner)

    def _close_scope(self, ctx: ExecContext) -> None:
        for name, rv in reversed(ctx.env.local_regs):
            try:
                ctx.release_temp(rv.reg)
            except RegisterError:
                raise QclRuntimeError(
                    f"local register '{name}' is not empty at the end of its scope")

    def exec_stmt(self, stmt, ctx: ExecContext) -> None:
        try:
            self._exec_stmt(stmt, ctx)
        except QclRuntimeError as err:
            if err.line is None:
                err.line, err.column = stmt.line, stmt.column
            raise

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
        elif isinstance(stmt, ast.If):
            cond = self.eval_cond(stmt.cond, ctx)
            run_else = None
            if stmt.orelse is not None:
                run_else = lambda: self.exec_block(stmt.orelse, ctx)
            qcond.exec_quantum_if(ctx, cond, lambda: self.exec_block(stmt.then, ctx),
                                  run_else)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, ctx)
        elif isinstance(stmt, ast.While):
            while self._eval_bool(stmt.cond, ctx):
                self.exec_block(stmt.body, ctx)
        elif isinstance(stmt, ast.Measure):
            rv = self.eval_register(stmt.target, ctx)
            self.prog.effects += 1
            outcome = ctx.machine.measure_register(rv.reg)
            if stmt.var is not None:
                ctx.env.set(stmt.var, outcome)
        elif isinstance(stmt, ast.Reset):
            self.prog.effects += 1
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

    def _exec_for(self, stmt: ast.For, ctx: ExecContext) -> None:
        start = self._eval_int(stmt.start, ctx)
        stop = self._eval_int(stmt.stop, ctx)
        step = self._eval_int(stmt.step, ctx) if stmt.step is not None else 1
        if step == 0:
            raise QclRuntimeError("for step must not be zero")
        i = start
        while (i <= stop) if step > 0 else (i >= stop):
            ctx.env.set(stmt.var, i)
            self.exec_block(stmt.body, ctx)
            i += step

    def declare_register(self, stmt: ast.RegDecl, ctx: ExecContext) -> None:
        size = self._eval_int(stmt.size, ctx)
        reg = ctx.alloc_temp(size)
        rv = RegisterValue(reg, stmt.qtype)
        ctx.env.define(stmt.name, rv)
        if not ctx.env.is_global:
            ctx.env.local_regs.append((stmt.name, rv))

    # -- continuation-passing execution for operator/qufunct bodies -------------

    def run_body(self, decl: ast.Routine, ctx: ExecContext) -> None:
        if LEVELS[decl.kind] in (LEVEL_OPERATOR, LEVEL_QUFUNCT):
            path = ForkPath(ctx.env)
            self._cps_block(decl.body, path, ctx, lambda p: None)
            for name, rv in ctx.deferred_frees:
                try:
                    ctx.release_temp(rv.reg)
                except RegisterError:
                    raise QclRuntimeError(
                        f"local register '{name}' is not empty at the end of its scope")
        else:
            for stmt in decl.body:
                self.exec_stmt(stmt, ctx)
            self._close_scope(ctx)

    def _cps_block(self, stmts, path: ForkPath, ctx: ExecContext, k) -> None:
        scope = Env(path.frame)
        inner = ForkPath(scope, path.conds)

        def leave(p: ForkPath) -> None:
            for item in p.frame.local_regs:
                if item not in ctx.deferred_frees:
                    ctx.deferred_frees.append(item)
            k(ForkPath(p.frame.parent, p.conds))

        self._cps_seq(stmts, 0, inner, ctx, leave)

    def _cps_seq(self, stmts, i: int, path: ForkPath, ctx: ExecContext, k) -> None:
        if i == len(stmts):
            k(path)
            return
        self._cps_stmt(stmts[i], path, ctx,
                       lambda p: self._cps_seq(stmts, i + 1, p, ctx, k))

    def _cps_stmt(self, stmt, path: ForkPath, ctx: ExecContext, k) -> None:
        ctx.env = path.frame
        if isinstance(stmt, ast.If):
            self._cps_if(stmt, path, ctx, k)
        elif isinstance(stmt, ast.For):
            self._cps_for(stmt, path, ctx, k)
        elif isinstance(stmt, ast.While):
            self._cps_while(stmt, path, ctx, k)
        else:
            self.exec_stmt(stmt, ctx)
            k(path)

    def _cps_if(self, stmt: ast.If, path: ForkPath, ctx: ExecContext, k) -> None:
        cond = self.eval_cond(stmt.cond, ctx)
        if stmt.forking:
            def run_block(block, p, join):
                self._cps_block(block, p, ctx, join)

            qcond.exec_forking_if(ctx, path, cond, stmt.then, stmt.orelse,
                                  run_block, k)
            return
        poly = qcond.to_xdnf(cond)
        if poly.is_false():
            if stmt.orelse is not None:
                self._cps_block(stmt.orelse, path, ctx, k)
            else:
                k(path)
            return
        if poly.is_true():
            self._cps_block(stmt.then, path, ctx, k)
            return
        # quantum condition with fork-free branches: plain block execution
        run_else = None
        if stmt.orelse is not None:
            run_else = lambda: self.exec_block(stmt.orelse, ctx)
        qcond.exec_quantum_if(ctx, cond, lambda: self.exec_block(stmt.then, ctx),
                              run_else)
        k(path)

    def _cps_for(self, stmt: ast.For, path: ForkPath, ctx: ExecContext, k) -> None:
        start = self._eval_int(stmt.start, ctx)
        stop = self._eval_int(stmt.stop, ctx)
        step = self._eval_int(stmt.step, ctx) if stmt.step is not None else 1
        if step == 0:
            raise QclRuntimeError("for step must not be zero")

        def iterate(i: int, p: ForkPath) -> None:
            if (i > stop) if step > 0 else (i < stop):
                k(p)
                return
            p.frame.set(stmt.var, i)
            self._cps_block(stmt.body, p, ctx, lambda p2: iterate(i + step, p2))

        iterate(start, path)

    def _cps_while(self, stmt: ast.While, path: ForkPath, ctx: ExecContext, k) -> None:
        def iterate(p: ForkPath) -> None:
            ctx.env = p.frame
            if self._eval_bool(stmt.cond, ctx):
                self._cps_block(stmt.body, p, ctx, iterate)
            else:
                k(p)

        iterate(path)

    # -- calls ------------------------------------------------------------------

    def call_subroutine(self, name: str, arg_exprs, invert: bool,
                        ctx: ExecContext) -> None:
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
        if invert:
            sub = ctx.child(recorder=Recorder(), apply=False)
            self._enter_routine(decl, args, sub)
            for g in adjoint_of_tape(sub.recorder.gates):
                ctx.emit_gate(g)
            for temp in sub.recorder.temps:
                ctx.release_temp(temp)
            self._scratch_exit_checks(decl, args, ctx)
        else:
            self._enter_routine(decl, args, ctx)

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
            sub = ctx.child(recorder=Recorder(), apply=False)
            b.emitter(sub, cvals, regs)
            for g in adjoint_of_tape(sub.recorder.gates):
                ctx.emit_gate(g)
        else:
            b.emitter(ctx, cvals, regs)

    def _enter_routine(self, decl: ast.Routine, args, ctx: ExecContext) -> None:
        level = LEVELS[decl.kind]
        env = Env(self.prog.global_env if level == LEVEL_PROCEDURE else self.prog.consts)
        scratch_args: list[tuple[str, RegisterValue]] = []
        target: tuple[str, RegisterValue] | None = None
        for p, value in zip(decl.params, args):
            if p.is_quantum:
                if not isinstance(value, RegisterValue):
                    raise QclRuntimeError(
                        f"parameter '{p.name}' of '{decl.name}' needs a register")
                bound = RegisterValue(value.reg, p.type)
                env.define(p.name, bound)
                if p.type == "quscratch":
                    scratch_args.append((p.name, bound))
                elif p.type == "quvoid":
                    target = (p.name, bound)
            else:
                env.define(p.name, self._coerce(p.type, value))
        sub = ctx.child(level=level, env=env)
        if scratch_args:
            self._call_with_scratch(decl, sub, ctx, target, scratch_args)
            return
        if target is not None:
            self._check_empty(target[1].reg,
                              f"quvoid argument '{target[0]}' of '{decl.name}'", ctx)
        if level == LEVEL_PROCEDURE:
            self.run_body(decl, sub)
        else:
            self._run_pure_body(decl, sub)

    def _run_pure_body(self, decl: ast.Routine, ctx: ExecContext) -> None:
        """Replay the stored tape of this call, or run the body and store its tape."""
        prog = self.prog
        key = (id(decl), ctx.enable, ctx.guarded, ctx.apply,
               *map(_value_key, ctx.env.vars.values()))
        tape = prog.tapes.get(key)
        if tape is not None:
            ctx.recorder.gates.extend(tape)
            if ctx.apply:
                for g in tape:
                    prog.machine.apply_primitive(g)
            return
        start, effects = len(ctx.recorder.gates), prog.effects
        self.run_body(decl, ctx)
        if prog.effects == effects:
            prog.store_tape(key, ctx.recorder.gates[start:])

    def _call_with_scratch(self, decl: ast.Routine, sub: ExecContext,
                           ctx: ExecContext, target, scratch_args) -> None:
        """Uncompute scratch: run the body into an auxiliary register, copy the
        result out, then run the adjoint of the body to clear all junk."""
        name, tv = target
        for sname, sv in scratch_args:
            self._check_empty(sv.reg, f"quscratch argument '{sname}' of '{decl.name}'", ctx)
        self._check_empty(tv.reg, f"quvoid argument '{name}' of '{decl.name}'", ctx)
        aux = ctx.alloc_temp(len(tv.reg))
        sub.env.define(name, RegisterValue(aux, "quvoid"))
        inner = sub.child(recorder=Recorder(), apply=ctx.apply)
        self.run_body(decl, inner)
        ctx.recorder.gates.extend(inner.recorder.gates)
        ctx.recorder.temps.extend(inner.recorder.temps)
        for k in range(len(tv.reg)):
            ctx.emit("X", None, tv.reg.qubits[k], (aux.qubits[k],))
        for g in adjoint_of_tape(inner.recorder.gates):
            ctx.emit_gate(g)
        for sname, sv in scratch_args:
            self._check_empty(sv.reg, f"quscratch argument '{sname}' of '{decl.name}' "
                                      f"after the call", ctx)
        self._check_empty(aux, "auxiliary register after uncomputation", ctx)
        ctx.release_temp(aux)

    def _scratch_exit_checks(self, decl: ast.Routine, args, ctx: ExecContext) -> None:
        for p, value in zip(decl.params, args):
            if p.is_quantum and p.type == "quscratch":
                self._check_empty(value.reg,
                                  f"quscratch argument '{p.name}' of '{decl.name}' "
                                  f"after the call", ctx)

    def _check_empty(self, reg: RegisterMap, what: str, ctx: ExecContext) -> None:
        if not ctx.apply or not self.prog.checks:
            return
        self.prog.effects += 1
        if not ctx.machine.is_empty_register(reg):
            raise QclRuntimeError(f"{what} is not empty")

    def call_function(self, decl: ast.Routine, args, ctx: ExecContext):
        env = Env(self.prog.consts)
        for p, value in zip(decl.params, args):
            env.define(p.name, self._coerce(p.type, value))
        sub = ctx.child(level=LEVEL_FUNCTION, env=env)
        try:
            for stmt in decl.body:
                self.exec_stmt(stmt, sub)
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
            self.prog.effects += 1
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
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QclRuntimeError("expected a real value")
        return float(value)

    @staticmethod
    def _default_value(ctype: str):
        return {"int": 0, "real": 0.0, "complex": 0j, "boolean": False}[ctype]

    def _coerce(self, ctype: str, value):
        if ctype == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise QclRuntimeError("expected an int value")
            return value
        if ctype == "real":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise QclRuntimeError("expected a real value")
            return float(value)
        if ctype == "complex":
            if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
                raise QclRuntimeError("expected a complex value")
            return complex(value)
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
            return str(value)
        if isinstance(value, float):
            return f"{value:g}"
        if isinstance(value, complex):
            return format_amplitude(value)
        if isinstance(value, RegisterValue):
            return f"<{len(value.reg)}-qubit register>"
        raise TypeError(f"cannot print {type(value).__name__}")


def _value_key(value):
    """Cache key of a bound value; floats by their bits, so 0.0 and -0.0 differ."""
    if isinstance(value, RegisterValue):
        return value.reg.qubits, value.qtype
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, complex):
        return complex, value.real.hex(), value.imag.hex()
    return type(value), value


def run_program(tree: ast.Program, prog: ProgramState) -> None:
    """Execute a statically checked program against fresh top-level context."""
    interp = Interpreter(prog)
    interp.run_items(tree.items, interp.top_context())
