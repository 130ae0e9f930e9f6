"""Static semantic checks run before any statement executes.

The checker enforces the calling hierarchy (procedure > operator > qufunct >
function), the purity rules for unitary subroutines (no global variables, no
random(), no measure or reset), quantum-type discipline (quconst operands are
never gate targets and only bind quconst parameters), the cond requirement for
calls inside quantum conditionals, and the placement rule for forking
if-statements.  It also annotates each if-statement that needs forking, which
the interpreter relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax as ast
from .errors import StaticError
from .stdgates import (BUILTINS, LEVEL_FUNCTION, LEVEL_OPERATOR, LEVEL_PROCEDURE,
                       LEVEL_QUFUNCT, LEVELS)

LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

_NUMERIC = ("int", "real", "complex")
_CLASSICAL = ("int", "real", "complex", "boolean")


@dataclass(frozen=True)
class RegTy:
    """Static type of a register-valued expression."""

    qtype: str
    tainted: bool  # True when any part comes from a quconst operand


@dataclass
class Sym:
    kind: str  # const | var | reg | routine | builtin | function(builtin random)
    ty: object = None          # classical type name or RegTy for registers
    level: int = LEVEL_PROCEDURE
    cond: bool = False
    params: list = field(default_factory=list)
    ret: str | None = None
    is_global: bool = False
    routine: object = None


class Scope:
    def __init__(self, parent: Scope | None = None):
        self.parent = parent
        self.names: dict[str, Sym] = {}

    def lookup(self, name: str) -> Sym | None:
        scope = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def define(self, name: str, sym: Sym) -> None:
        self.names[name] = sym


@dataclass
class CheckCtx:
    level: int
    ret_type: str | None = None
    in_quantum_if: bool = False
    routine_name: str | None = None


def _builtin_globals() -> Scope:
    g = Scope()
    g.define("pi", Sym("const", "real", is_global=True))
    g.define("true", Sym("const", "boolean", is_global=True))
    g.define("false", Sym("const", "boolean", is_global=True))
    g.define("random", Sym("builtin-fn", "real", is_global=True))
    for b in BUILTINS.values():
        g.define(b.name, Sym("builtin", level=b.level, is_global=True, routine=b))
    return g


class Checker:
    """Incremental checker; one instance persists across interactive lines."""

    def __init__(self):
        self.globals = _builtin_globals()
        self.errors: list[StaticError] = []

    # -- entry points ------------------------------------------------------

    def check_items(self, items) -> list[StaticError]:
        self.errors = []
        for item in items:
            before = len(self.errors)
            known = set(self.globals.names)
            self._check_item(item)
            if len(self.errors) > before:
                # do not leave names from a rejected item visible to later lines
                for name in set(self.globals.names) - known:
                    del self.globals.names[name]
        return self.errors

    def check_program(self, program: ast.Program) -> list[StaticError]:
        return self.check_items(program.items)

    # -- helpers -----------------------------------------------------------

    def _err(self, message: str, node) -> None:
        self.errors.append(StaticError(message, node.line, node.column))

    def _define_checked(self, name: str, sym: Sym, node, scope: Scope) -> bool:
        if name in scope.names:
            self._err(f"'{name}' is already defined in this scope", node)
            return False
        sym.is_global = scope is self.globals
        scope.define(name, sym)
        return True

    # -- items -------------------------------------------------------------

    def _check_item(self, item) -> None:
        if isinstance(item, ast.Routine):
            self._check_routine(item)
        else:
            self._check_stmt(item, self.globals, CheckCtx(level=LEVEL_PROCEDURE))

    def _check_routine(self, decl: ast.Routine) -> None:
        if decl.cond and decl.kind not in ("operator", "qufunct"):
            self._err("the cond prefix applies only to operator or qufunct", decl)
        sym = Sym("routine", level=LEVELS[decl.kind], cond=decl.cond,
                  params=decl.params, ret=decl.ret_type, routine=decl)
        if not self._define_checked(decl.name, sym, decl, self.globals):
            return
        scope = Scope(self.globals)
        seen = set()
        quvoid_count = 0
        has_scratch = False
        for p in decl.params:
            if p.name in seen:
                self._err(f"duplicate parameter name '{p.name}'", p)
            seen.add(p.name)
            if p.is_quantum:
                if decl.kind == "function":
                    self._err("function parameters must be classical", p)
                scope.define(p.name, Sym("reg", RegTy(p.type, p.type == "quconst")))
                quvoid_count += p.type == "quvoid"
                has_scratch = has_scratch or p.type == "quscratch"
            else:
                scope.define(p.name, Sym("var", p.type))
        if has_scratch and quvoid_count != 1:
            self._err("a subroutine with quscratch parameters needs exactly one "
                      "quvoid target parameter", decl)
        ctx = CheckCtx(level=LEVELS[decl.kind], ret_type=decl.ret_type,
                       routine_name=decl.name)
        self._check_block(decl.body, scope, ctx)

    # -- statements ----------------------------------------------------------

    def _check_block(self, stmts, scope: Scope, ctx: CheckCtx) -> None:
        inner = Scope(scope)
        for stmt in stmts:
            self._check_stmt(stmt, inner, ctx)

    def _check_stmt(self, stmt, scope: Scope, ctx: CheckCtx) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                ty = self._expr(stmt.init, scope, ctx)
                self._require_assignable(stmt.ctype, ty, stmt)
            self._define_checked(stmt.name, Sym("var", stmt.ctype), stmt, scope)
        elif isinstance(stmt, ast.ConstDecl):
            ty = self._expr(stmt.value, scope, ctx)
            if ty not in _CLASSICAL and ty != "unknown":
                self._err("constants must have classical values", stmt)
                ty = "unknown"
            self._define_checked(stmt.name, Sym("const", ty), stmt, scope)
        elif isinstance(stmt, ast.RegDecl):
            if stmt.qtype != "qureg":
                self._err(f"only qureg registers can be declared, not {stmt.qtype}", stmt)
            if ctx.level == LEVEL_FUNCTION:
                self._err("functions cannot declare quantum registers", stmt)
            self._require_int(stmt.size, scope, ctx)
            self._define_checked(stmt.name, Sym("reg", RegTy("qureg", False)), stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope, ctx)
        elif isinstance(stmt, ast.CallStmt):
            self._check_call_stmt(stmt, scope, ctx)
        elif isinstance(stmt, ast.If):
            self._check_if(stmt, scope, ctx)
        elif isinstance(stmt, ast.For):
            self._check_for(stmt, scope, ctx)
        elif isinstance(stmt, ast.While):
            kind = self._cond(stmt.cond, scope, ctx)
            if kind == "quantum":
                self._err("a while condition cannot depend on quantum registers", stmt)
            self._check_block(stmt.body, scope, ctx)
        elif isinstance(stmt, ast.Measure):
            self._check_measure(stmt, scope, ctx)
        elif isinstance(stmt, ast.Reset):
            if ctx.level < LEVEL_PROCEDURE:
                self._err("reset is only allowed at procedure level", stmt)
            if ctx.in_quantum_if:
                self._err("reset cannot appear under a quantum condition", stmt)
        elif isinstance(stmt, ast.Dump):
            pass
        elif isinstance(stmt, ast.Print):
            for arg in stmt.args:
                ty = self._expr(arg, scope, ctx)
                if ty not in _CLASSICAL and ty != "unknown":
                    self._err("print expects classical values", stmt)
        elif isinstance(stmt, ast.ExitStmt):
            if ctx.level < LEVEL_PROCEDURE:
                self._err("exit is only allowed at procedure level", stmt)
        elif isinstance(stmt, ast.Return):
            if ctx.ret_type is None:
                self._err("return is only allowed inside a function", stmt)
            else:
                ty = self._expr(stmt.value, scope, ctx)
                self._require_assignable(ctx.ret_type, ty, stmt)
        else:
            raise TypeError(f"unhandled statement {type(stmt).__name__}")

    def _check_assign(self, stmt: ast.Assign, scope: Scope, ctx: CheckCtx) -> None:
        sym = scope.lookup(stmt.name)
        if sym is None:
            self._err(f"unknown name '{stmt.name}'", stmt)
            return
        if sym.kind == "const":
            self._err(f"cannot assign to constant '{stmt.name}'", stmt)
            return
        if sym.kind != "var":
            self._err(f"cannot assign to '{stmt.name}'", stmt)
            return
        if sym.is_global and ctx.level < LEVEL_PROCEDURE:
            self._err(f"{LEVEL_NAMES[ctx.level]} bodies may not touch the global "
                      f"variable '{stmt.name}'", stmt)
        ty = self._expr(stmt.value, scope, ctx)
        self._require_assignable(sym.ty, ty, stmt)

    def _check_call_stmt(self, stmt: ast.CallStmt, scope: Scope, ctx: CheckCtx) -> None:
        sym = scope.lookup(stmt.name)
        if sym is None:
            self._err(f"unknown subroutine '{stmt.name}'", stmt)
            return
        if sym.kind == "builtin-fn" or (sym.kind == "routine" and sym.ret is not None):
            self._err(f"'{stmt.name}' is a function; its result cannot be discarded", stmt)
            return
        if sym.kind not in ("routine", "builtin"):
            self._err(f"'{stmt.name}' is not a subroutine", stmt)
            return
        callee_level = sym.level
        if callee_level > ctx.level:
            self._err(
                f"cannot call {LEVEL_NAMES[callee_level]} '{stmt.name}' from "
                f"{LEVEL_NAMES[ctx.level]} level", stmt)
        if stmt.invert and callee_level not in (LEVEL_OPERATOR, LEVEL_QUFUNCT):
            self._err(f"'{stmt.name}' is not invertible", stmt)
        if ctx.in_quantum_if:
            if sym.kind == "routine" and not sym.cond:
                self._err(f"'{stmt.name}' must be declared cond to be called under "
                          f"a quantum condition", stmt)
        self._check_call_args(stmt, sym, scope, ctx)

    def _check_call_args(self, stmt: ast.CallStmt, sym: Sym, scope: Scope,
                         ctx: CheckCtx) -> None:
        if sym.kind == "builtin":
            b = sym.routine
            formals = [("real", None)] * b.cparams + [(None, q) for q in b.rparams]
        else:
            formals = [(None, p.type) if p.is_quantum else (p.type, None)
                       for p in sym.params]
        if len(stmt.args) != len(formals):
            self._err(f"'{stmt.name}' expects {len(formals)} argument(s), "
                      f"got {len(stmt.args)}", stmt)
            return
        for arg, (ctype, qtype) in zip(stmt.args, formals):
            ty = self._expr(arg, scope, ctx)
            if ty == "unknown":
                continue
            if ctype is not None:
                if not isinstance(ty, RegTy) and self._assignable(ctype, ty):
                    continue
                self._err(f"argument of '{stmt.name}' must be {ctype}", arg)
            else:
                if not isinstance(ty, RegTy):
                    self._err(f"argument of '{stmt.name}' must be a quantum register", arg)
                elif ty.tainted and qtype != "quconst":
                    self._err(f"a quconst register cannot be passed as a {qtype} "
                              f"argument", arg)

    def _check_if(self, stmt: ast.If, scope: Scope, ctx: CheckCtx) -> None:
        kind = self._cond(stmt.cond, scope, ctx)
        quantum = kind == "quantum"
        branch_ctx = ctx if not quantum else CheckCtx(
            level=ctx.level, ret_type=ctx.ret_type, in_quantum_if=True,
            routine_name=ctx.routine_name)
        self._check_block(stmt.then, scope, branch_ctx)
        if stmt.orelse is not None:
            self._check_block(stmt.orelse, scope, branch_ctx)
        if quantum:
            mutates = _mutates_visible(stmt.then) or (
                stmt.orelse is not None and _mutates_visible(stmt.orelse))
            nested = _contains_forking(stmt.then) or (
                stmt.orelse is not None and _contains_forking(stmt.orelse))
            stmt.forking = mutates or nested
            if stmt.forking and ctx.level not in (LEVEL_OPERATOR, LEVEL_QUFUNCT):
                self._err("a forking quantum if-statement may only appear inside "
                          "an operator or qufunct definition", stmt)

    def _check_for(self, stmt: ast.For, scope: Scope, ctx: CheckCtx) -> None:
        sym = scope.lookup(stmt.var)
        if sym is None:
            self._err(f"unknown loop variable '{stmt.var}'", stmt)
        elif sym.kind != "var" or sym.ty != "int":
            self._err(f"loop variable '{stmt.var}' must be an int variable", stmt)
        elif sym.is_global and ctx.level < LEVEL_PROCEDURE:
            self._err(f"{LEVEL_NAMES[ctx.level]} bodies may not touch the global "
                      f"variable '{stmt.var}'", stmt)
        self._require_int(stmt.start, scope, ctx)
        self._require_int(stmt.stop, scope, ctx)
        if stmt.step is not None:
            self._require_int(stmt.step, scope, ctx)
        self._check_block(stmt.body, scope, ctx)

    def _check_measure(self, stmt: ast.Measure, scope: Scope, ctx: CheckCtx) -> None:
        if ctx.level < LEVEL_PROCEDURE:
            self._err("measure is only allowed at procedure level", stmt)
        if ctx.in_quantum_if:
            self._err("measure cannot appear under a quantum condition", stmt)
        ty = self._expr(stmt.target, scope, ctx)
        if not isinstance(ty, RegTy) and ty != "unknown":
            self._err("measure expects a quantum register", stmt)
        if stmt.var is not None:
            sym = scope.lookup(stmt.var)
            if sym is None or sym.kind != "var" or sym.ty != "int":
                self._err(f"measure target '{stmt.var}' must be an int variable", stmt)

    # -- expressions ---------------------------------------------------------

    def _require_int(self, expr, scope: Scope, ctx: CheckCtx) -> None:
        ty = self._expr(expr, scope, ctx)
        if ty not in ("int", "unknown"):
            self._err("expected an integer expression", expr)

    def _assignable(self, target: str, value: str) -> bool:
        if value == "unknown":
            return True
        if target == value:
            return True
        if target == "real" and value == "int":
            return True
        if target == "complex" and value in ("int", "real"):
            return True
        return False

    def _require_assignable(self, target: str, value, node) -> None:
        if isinstance(value, RegTy) or not self._assignable(target, value):
            shown = "register" if isinstance(value, RegTy) else value
            self._err(f"cannot use a {shown} value where {target} is expected", node)

    def _expr(self, expr, scope: Scope, ctx: CheckCtx):
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.RealLit):
            return "real"
        if isinstance(expr, ast.Name):
            return self._name_type(expr, scope, ctx)
        if isinstance(expr, ast.Length):
            ty = self._expr(expr.operand, scope, ctx)
            if not isinstance(ty, RegTy) and ty != "unknown":
                self._err("# expects a quantum register", expr)
            return "int"
        if isinstance(expr, ast.Unary):
            return self._unary_type(expr, scope, ctx)
        if isinstance(expr, ast.Binary):
            return self._binary_type(expr, scope, ctx)
        if isinstance(expr, ast.Index):
            return self._index_type(expr, expr.index and [expr.index], scope, ctx)
        if isinstance(expr, ast.RangeIndex):
            return self._index_type(expr, [expr.lo, expr.hi], scope, ctx)
        if isinstance(expr, ast.Call):
            return self._call_type(expr, scope, ctx)
        raise TypeError(f"unhandled expression {type(expr).__name__}")

    def _name_type(self, expr: ast.Name, scope: Scope, ctx: CheckCtx):
        sym = scope.lookup(expr.ident)
        if sym is None:
            self._err(f"unknown name '{expr.ident}'", expr)
            return "unknown"
        if sym.kind in ("var", "reg") and sym.is_global and ctx.level < LEVEL_PROCEDURE:
            self._err(f"{LEVEL_NAMES[ctx.level]} bodies may not reference the global "
                      f"variable '{expr.ident}'", expr)
        if sym.kind in ("const", "var"):
            return sym.ty
        if sym.kind == "reg":
            return sym.ty
        self._err(f"'{expr.ident}' is a subroutine, not a value", expr)
        return "unknown"

    def _unary_type(self, expr: ast.Unary, scope: Scope, ctx: CheckCtx):
        ty = self._expr(expr.operand, scope, ctx)
        if expr.op == "-":
            if ty in _NUMERIC or ty == "unknown":
                return ty
            self._err("unary - expects a number", expr)
            return "unknown"
        # not
        if ty == "boolean" or ty == "unknown":
            return ty if ty == "unknown" else "boolean"
        if isinstance(ty, RegTy) or ty == "qcond":
            return "qcond"
        self._err("not expects a boolean", expr)
        return "unknown"

    def _binary_type(self, expr: ast.Binary, scope: Scope, ctx: CheckCtx):
        op = expr.op
        lt = self._expr(expr.left, scope, ctx)
        rt = self._expr(expr.right, scope, ctx)
        if lt == "unknown" or rt == "unknown":
            return "unknown"
        if op == "&":
            if isinstance(lt, RegTy) and isinstance(rt, RegTy):
                return RegTy("qureg", lt.tainted or rt.tainted)
            self._err("& expects two quantum registers", expr)
            return "unknown"
        if op in ("and", "or", "xor"):
            quantum = isinstance(lt, RegTy) or isinstance(rt, RegTy) \
                or lt == "qcond" or rt == "qcond"
            if quantum:
                return "qcond"
            if lt == "boolean" and rt == "boolean":
                return "boolean"
            self._err(f"{op} expects boolean operands", expr)
            return "unknown"
        if isinstance(lt, RegTy) or isinstance(rt, RegTy) or "qcond" in (lt, rt):
            self._err(f"operator {op} does not apply to quantum registers", expr)
            return "unknown"
        if op in ("==", "!="):
            if lt in _NUMERIC and rt in _NUMERIC:
                return "boolean"
            if lt == rt == "boolean":
                return "boolean"
            self._err("cannot compare these operand types", expr)
            return "unknown"
        if op in ("<", "<=", ">", ">="):
            if lt in ("int", "real") and rt in ("int", "real"):
                return "boolean"
            self._err("ordering comparisons need int or real operands", expr)
            return "unknown"
        if op == "mod":
            if lt == rt == "int":
                return "int"
            self._err("mod expects integer operands", expr)
            return "unknown"
        if op in ("+", "-", "*", "/", "^"):
            if lt in _NUMERIC and rt in _NUMERIC:
                if "complex" in (lt, rt):
                    return "complex"
                if "real" in (lt, rt):
                    return "real"
                return "int"
            self._err(f"operator {op} expects numeric operands", expr)
            return "unknown"
        raise ValueError(f"unhandled operator {op!r}")

    def _index_type(self, expr, indices, scope: Scope, ctx: CheckCtx):
        base = self._expr(expr.base, scope, ctx)
        for ix in indices:
            self._require_int(ix, scope, ctx)
        if base == "unknown":
            return "unknown"
        if not isinstance(base, RegTy):
            self._err("only quantum registers can be indexed", expr)
            return "unknown"
        return base

    def _call_type(self, expr: ast.Call, scope: Scope, ctx: CheckCtx):
        sym = scope.lookup(expr.name)
        if sym is None:
            self._err(f"unknown function '{expr.name}'", expr)
            return "unknown"
        if sym.kind == "builtin-fn":  # random()
            if expr.args:
                self._err("random() takes no arguments", expr)
            if ctx.level < LEVEL_PROCEDURE:
                self._err("random() is only allowed at procedure level", expr)
            return "real"
        if sym.kind == "routine" and sym.ret is not None:
            if len(expr.args) != len(sym.params):
                self._err(f"'{expr.name}' expects {len(sym.params)} argument(s)", expr)
                return sym.ret
            for arg, p in zip(expr.args, sym.params):
                ty = self._expr(arg, scope, ctx)
                if isinstance(ty, RegTy) or not self._assignable(p.type, ty):
                    self._err(f"argument '{p.name}' of '{expr.name}' must be {p.type}", arg)
            return sym.ret
        self._err(f"'{expr.name}' cannot be used in an expression", expr)
        return "unknown"

    def _cond(self, expr, scope: Scope, ctx: CheckCtx) -> str:
        """Classify an if-guard as classical or quantum, checking leaf types."""
        if isinstance(expr, ast.Unary) and expr.op == "not":
            return self._cond(expr.operand, scope, ctx)
        if isinstance(expr, ast.Binary) and expr.op in ("and", "or", "xor"):
            left = self._cond(expr.left, scope, ctx)
            right = self._cond(expr.right, scope, ctx)
            if "unknown" in (left, right):
                return "unknown"
            return "quantum" if "quantum" in (left, right) else "classical"
        ty = self._expr(expr, scope, ctx)
        if isinstance(ty, RegTy):
            return "quantum"
        if ty == "boolean":
            return "classical"
        if ty != "unknown":
            self._err("a condition must be boolean or a quantum register", expr)
        return "unknown"


# --------------------------------------------------------------------------
# Fork analysis
# --------------------------------------------------------------------------

def _mutates_visible(stmts, declared: set | None = None) -> bool:
    """True when a block assigns to classical state declared outside it."""
    declared = set() if declared is None else declared
    for stmt in stmts:
        if isinstance(stmt, (ast.VarDecl, ast.ConstDecl, ast.RegDecl)):
            declared.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            if stmt.name not in declared:
                return True
        elif isinstance(stmt, ast.Measure):
            if stmt.var is not None and stmt.var not in declared:
                return True
        elif isinstance(stmt, ast.For):
            if stmt.var not in declared:
                return True
            if _mutates_visible(stmt.body, set(declared)):
                return True
        elif isinstance(stmt, ast.While):
            if _mutates_visible(stmt.body, set(declared)):
                return True
        elif isinstance(stmt, ast.If):
            if _mutates_visible(stmt.then, set(declared)):
                return True
            if stmt.orelse is not None and _mutates_visible(stmt.orelse, set(declared)):
                return True
    return False


def _contains_forking(stmts) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            if stmt.forking:
                return True
            if _contains_forking(stmt.then):
                return True
            if stmt.orelse is not None and _contains_forking(stmt.orelse):
                return True
        elif isinstance(stmt, (ast.For, ast.While)):
            if _contains_forking(stmt.body):
                return True
    return False


def check_static_semantics(program: ast.Program) -> list[StaticError]:
    """Check a whole program with a fresh environment; returns all diagnostics."""
    return Checker().check_program(program)
