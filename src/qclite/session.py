"""One interpreter session: machine, program state, checker and echo output."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .checks import Checker
from .errors import StaticErrorList
from .interp import Interpreter, ProgramState
from .machine import MachineState, format_amplitude
from .syntax import parse_interactive, parse_source


@dataclass
class SessionConfig:
    total_qubits: int = 32
    seed: int = 0
    echo: bool = True
    checks: bool = True
    dense_limit: int = 24


class Session:
    """Couples a machine, a program state and a persistent static checker."""

    def __init__(self, config: SessionConfig | None = None, out=None):
        self.config = config if config is not None else SessionConfig()
        self.machine = MachineState(self.config.total_qubits, self.config.seed,
                                    self.config.dense_limit)
        self.prog = ProgramState(self.machine, out=out if out is not None else sys.stdout,
                                 checks=self.config.checks)
        self.checker = Checker()
        self.interp = Interpreter(self.prog)

    @property
    def out(self):
        return self.prog.out

    def execute_items(self, items, echo: bool) -> None:
        errors = self.checker.check_items(items)
        if errors:
            raise StaticErrorList(errors)
        for item in items:
            before = self.machine.version
            self.interp.exec_item(item, self.interp.top_context())
            if echo and self.machine.version != before:
                self.prog.write(self.echo_state() + "\n")

    def run_line(self, line: str) -> None:
        """Parse and execute one interactive input line."""
        self.execute_items(parse_interactive(line), echo=self.config.echo)

    def run_source(self, source: str) -> None:
        """Parse, check and execute a whole script; scripts never echo."""
        self.execute_items(parse_source(source).items, echo=False)

    def echo_state(self) -> str:
        """One-line state echo restricted to allocated qubits, qubit 0 rightmost."""
        allocated = sorted(self.machine.allocated, reverse=True)
        _, amps, kets = self.machine.print_terms(allocated)
        terms = " + ".join(f"{format_amplitude(c)} |{ket}>" for c, ket in zip(amps, kets))
        return f"[{len(allocated)}/{self.machine.total}] {terms}"
