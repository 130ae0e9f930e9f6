"""Command line front end: script runner and interactive qcl> loop."""

from __future__ import annotations

import argparse
import sys

from .errors import ExitSession, QclError, StaticErrorList
from .session import Session, SessionConfig

PROMPT = "qcl> "


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclite",
        description="Interpreter for the qclite quantum programming language.")
    parser.add_argument("script", nargs="?", help="program file to run")
    parser.add_argument("-n", "--qubits", type=int, default=32,
                        help="total machine qubits (default 32)")
    parser.add_argument("-s", "--seed", type=int, default=0,
                        help="measurement RNG seed (default 0)")
    parser.add_argument("-i", "--interactive", action="store_true",
                        help="enter the interactive loop after running a script")
    parser.add_argument("--no-echo", action="store_true",
                        help="do not echo the machine state after statements")
    parser.add_argument("--no-checks", action="store_true",
                        help="disable quvoid/quscratch emptiness checking")
    return parser


def repl_loop(session: Session, stdin=None) -> int:
    """Prompted read-eval loop; echoes piped input so transcripts round-trip."""
    stdin = stdin if stdin is not None else sys.stdin
    out = session.out
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    while True:
        out.write(PROMPT)
        out.flush()
        line = stdin.readline()
        if line == "":
            out.write("\n")
            return 0
        line = line.rstrip("\r\n")
        if not interactive:
            out.write(line + "\n")
        try:
            session.run_line(line)
        except ExitSession:
            return 0
        except StaticErrorList as errs:
            for err in errs.errors:
                out.write(f"! {err}\n")
        except QclError as err:
            out.write(f"! {err}\n")
        except KeyboardInterrupt:
            # Ctrl-C stops the statement, not the loop; what it applied stays applied
            out.write("! interrupted\n")
        except Exception as err:
            # a defect in qclite, not in the input: report it and keep reading
            import traceback    # here: imported with the module it costs every process 0.1 MB
            out.write(f"! internal error: {type(err).__name__}: {err}\n")
            traceback.print_exc(file=sys.stderr)


def run_script(path: str, session: Session) -> int:
    try:
        with open(path, "r", encoding="ascii") as handle:
            source = handle.read()
    except OSError as err:
        print(f"qclite: cannot read {path}: {err.strerror}", file=sys.stderr)
        return 1
    except UnicodeDecodeError:
        print(f"qclite: cannot read {path}: source files must be ASCII", file=sys.stderr)
        return 1
    try:
        session.run_source(source)
    except ExitSession:
        return 0
    except StaticErrorList as errs:
        for err in errs.errors:
            print(f"! {err}", file=sys.stderr)
        return 1
    except QclError as err:
        print(f"! {err}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = SessionConfig(total_qubits=args.qubits, seed=args.seed,
                           echo=not args.no_echo, checks=not args.no_checks)
    session = Session(config)
    if args.script is not None:
        status = run_script(args.script, session)
        if status != 0 or not args.interactive:
            return status
    return repl_loop(session)


if __name__ == "__main__":
    sys.exit(main())
