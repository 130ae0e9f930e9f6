"""qclite: a structured quantum programming language on a dense state-vector simulator."""

from importlib import resources

from .checks import Checker, check_static_semantics
from .errors import (AllocationError, ExitSession, LexError, ParseError, QclError,
                     QclRuntimeError, RegisterError, StaticError, StaticErrorList)
from .interp import (ExecContext, Interpreter, ProgramState, Recorder, RegisterValue,
                     run_program)
from .machine import (MachineState, PrimitiveGate, RegisterMap, adjoint_of_tape,
                      apply_gate, format_amplitude, gate_matrix, tape_matrix)
from .qcond import (CondAtom, CondBin, CondConst, CondNot, DirectPlan, SynthPlan,
                    ZhegalkinPoly, cond_support, cond_truth, exec_forking_if,
                    exec_quantum_if, synthesize_enable, to_xdnf)
from .session import Session, SessionConfig
from .syntax import (Program, Token, parse_interactive, parse_program, parse_source,
                     tokenize, unparse)

__version__ = "0.1.0"


def corpus_path(name: str):
    """Path to a bundled example program, e.g. corpus_path("dft.qcl")."""
    return resources.files(__name__) / "corpus" / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text(encoding="ascii")
