"""REPL and script-runner behaviour, including the golden session transcripts."""

import io

import pytest

from qclite import corpus_path
from qclite.cli import main, repl_loop, run_script
from qclite.interp import Interpreter
from qclite.machine import MachineState
from qclite.session import Session, SessionConfig
from conftest import make_session


def run_repl(input_text: str, qubits: int = 32, echo: bool = True, seed: int = 0):
    out = io.StringIO()
    session = Session(SessionConfig(total_qubits=qubits, seed=seed, echo=echo), out=out)
    status = repl_loop(session, stdin=io.StringIO(input_text))
    return status, out.getvalue()


DFT_DEF = ("operator dft(qureg q) { const n=#q; int i; int j; "
           "for i=1 to n { for j=1 to i-1 { if q[n-i] and q[n-j] "
           "{ Phase(pi/2^(i-j)); } } H(q[n-i]); } flip(q); }")

INC_DEF = ("cond qufunct inc(qureg x) { int i; "
           "for i = #x-1 to 1 step -1 { CNot(x[i],x[0:i-1]); } Not(x[0]); }")


class TestGoldenSessions:
    def test_superposition_session(self):
        status, output = run_repl(
            "qureg a[1]; qureg b[1];\n"
            "Rot(-pi/3,a);\n"
            "H(b);\n"
            "dump;\n",
            qubits=4, echo=False)
        assert status == 0
        assert output == (
            "qcl> qureg a[1]; qureg b[1];\n"
            "qcl> Rot(-pi/3,a);\n"
            "qcl> H(b);\n"
            "qcl> dump;\n"
            ": STATE: 2 / 4 qubits allocated, 2 / 4 qubits free\n"
            "0.612372 |0000> + 0.612372 |0010> + 0.353553 |0001> + 0.353553 |0011>\n"
            "qcl> \n")

    def test_fourier_session(self):
        status, output = run_repl(
            f"{DFT_DEF}\n"
            "qureg q[2];\n"
            "dft(q);\n"
            "!dft(q);\n")
        assert status == 0
        assert output == (
            f"qcl> {DFT_DEF}\n"
            "qcl> qureg q[2];\n"
            "qcl> dft(q);\n"
            "[2/32] 0.5 |00> + 0.5 |01> + 0.5 |10> + 0.5 |11>\n"
            "qcl> !dft(q);\n"
            "[2/32] 1 |00>\n"
            "qcl> \n")

    def test_conditional_session(self):
        status, output = run_repl(
            f"{INC_DEF}\n"
            "qureg q[4]; qureg b[1]; qureg a[1];\n"
            "H(a & b);\n"
            "if a and b { inc(q); }\n"
            "if a or b { inc(q); }\n"
            "if not (a or b) { inc(q); }\n")
        assert status == 0
        assert output == (
            f"qcl> {INC_DEF}\n"
            "qcl> qureg q[4]; qureg b[1]; qureg a[1];\n"
            "qcl> H(a & b);\n"
            "[6/32] 0.5 |000000> + 0.5 |010000> + 0.5 |100000> + 0.5 |110000>\n"
            "qcl> if a and b { inc(q); }\n"
            "[6/32] 0.5 |000000> + 0.5 |010000> + 0.5 |100000> + 0.5 |110001>\n"
            "qcl> if a or b { inc(q); }\n"
            "[6/32] 0.5 |000000> + 0.5 |010001> + 0.5 |100001> + 0.5 |110010>\n"
            "qcl> if not (a or b) { inc(q); }\n"
            "[6/32] 0.5 |000001> + 0.5 |010001> + 0.5 |100001> + 0.5 |110010>\n"
            "qcl> \n")

    def test_sessions_are_reproducible(self):
        one = run_repl("qureg q[1];\nH(q);\nmeasure q;\n", seed=11)
        two = run_repl("qureg q[1];\nH(q);\nmeasure q;\n", seed=11)
        assert one == two


class TestReplBehaviour:
    def test_syntax_error_keeps_loop_alive(self):
        status, output = run_repl("qureg a[;\nqureg a[1];\nNot(a);\n", qubits=4)
        assert status == 0
        assert "! parse error" in output
        assert "[1/4] 1 |1>" in output

    def test_static_error_reported(self):
        _, output = run_repl("H(nowhere);\n")
        assert "! static error" in output
        assert "unknown name" in output

    def test_every_static_error_gets_its_own_line(self):
        _, output = run_repl("H(nowhere); Not(missing);\n")
        assert output.count("! static error") == 2

    def test_runtime_error_reported(self):
        _, output = run_repl("qureg q[2];\nint d; d = 1/0;\n", qubits=4)
        assert "! runtime error" in output
        assert "division by zero" in output

    def test_internal_error_keeps_loop_alive(self, capsys, monkeypatch):
        # a fault that is not a QclError, injected into the gate path
        def broken(self, g):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(MachineState, "apply_primitive", broken)
        _, output = run_repl("qureg x[1];\n"
                             "qufunct f(qureg x) { Not(x); }\n"
                             "f(x);\n"
                             "print 1;\n", qubits=4, echo=False)
        assert "qcl> f(x);\n! internal error: RuntimeError: injected fault\n" in output
        assert output.endswith("qcl> print 1;\n1\nqcl> \n")
        assert "Traceback" in capsys.readouterr().err

    def test_interrupt_keeps_loop_alive(self, capsys, monkeypatch):
        # Ctrl-C during the second gate of the first call of f, which is recording
        original = MachineState.apply_primitive
        gates = []

        def interrupted(self, g):
            gates.append(g)
            if len(gates) == 4:
                raise KeyboardInterrupt
            original(self, g)

        walks = []
        run_body = Interpreter.run_body
        monkeypatch.setattr(MachineState, "apply_primitive", interrupted)
        monkeypatch.setattr(Interpreter, "run_body",
                            lambda self, decl, ctx: walks.append(decl.name) or
                            run_body(self, decl, ctx))
        source = "qufunct f(qureg x) { Not(x[0]); CNot(x[1], x[0]); Not(x[0]); }"
        warm = make_session(qubits=4)
        repl_loop(warm, stdin=io.StringIO(f"qureg x[2];\nH(x);\n{source}\nf(x);\n"))
        assert warm.out.getvalue().endswith("qcl> f(x);\n! interrupted\nqcl> \n")
        assert capsys.readouterr().err == ""
        prog = warm.prog
        assert not prog.tapes and not prog.recording and not prog.log and not prog.frames
        cold = make_session(qubits=4)
        cold.run_line(f"qureg x[2]; {source}")
        cold.machine.amp[:] = warm.machine.amp
        repl_loop(warm, stdin=io.StringIO("f(x);\n"))
        cold.run_line("f(x);")
        assert walks == ["f", "f", "f"]
        assert warm.machine.amp.tobytes() == cold.machine.amp.tobytes()
        assert warm.machine.allocated == cold.machine.allocated
        assert len(prog.tapes) == 1

    def test_arithmetic_faults_keep_loop_alive(self, capsys):
        _, output = run_repl("print 2.0^10000;\n"
                             "qureg q[1];\n"
                             "Rot(1e400, q);\n"
                             "print 1;\n", qubits=4, echo=False)
        assert output == ("qcl> print 2.0^10000;\n"
                          "! runtime error at 1:1: result of '^' is out of range\n"
                          "qcl> qureg q[1];\n"
                          "qcl> Rot(1e400, q);\n"
                          "! runtime error at 1:1: a gate angle must be finite\n"
                          "qcl> print 1;\n1\nqcl> \n")
        assert capsys.readouterr().err == ""

    def test_large_integers_keep_loop_alive(self, capsys):
        _, output = run_repl("print 2^20000;\n"
                             "qureg q[2^20000];\n"
                             "int k = 2^3000;\n"
                             "real r = k;\n"
                             "print k mod 7;\n", qubits=4, echo=False)
        assert output == ("qcl> print 2^20000;\n"
                          "! runtime error at 1:1: integer too large to print\n"
                          "qcl> qureg q[2^20000];\n"
                          "! allocation error at 1:1: out of qubits: requested ~2^20000, "
                          "only 4 free\n"
                          "qcl> int k = 2^3000;\n"
                          "qcl> real r = k;\n"
                          "! runtime error at 1:1: value is out of range for a real\n"
                          "qcl> print k mod 7;\n1\nqcl> \n")
        assert capsys.readouterr().err == ""

    def test_long_integer_literal_is_a_parse_error(self, capsys):
        digits = "1" * 5000
        _, output = run_repl(f"print {digits};\nint k = 2 + {digits};\nprint 1;\n",
                             qubits=4, echo=False)
        assert output == (f"qcl> print {digits};\n"
                          "! parse error at 1:7: integer literal of 5000 digits is too long\n"
                          f"qcl> int k = 2 + {digits};\n"
                          "! parse error at 1:13: integer literal of 5000 digits is too long\n"
                          "qcl> print 1;\n1\nqcl> \n")
        assert capsys.readouterr().err == ""

    def test_deep_recursion_is_a_runtime_error(self):
        _, output = run_repl("procedure p(int n) { if n > 0 { p(n-1); } }\n"
                             "p(20000);\n"
                             "print 1;\n", qubits=4, echo=False)
        assert ("qcl> p(20000);\n"
                "! runtime error at 1:1: subroutine calls nested too deeply\n") in output
        assert output.endswith("qcl> print 1;\n1\nqcl> \n")

    def test_exit_statement(self):
        status, output = run_repl("exit;\nqureg q[1];\n")
        assert status == 0
        assert output == "qcl> exit;\n"

    def test_measure_echo(self):
        _, output = run_repl("qureg q[1];\nNot(q);\nmeasure q;\n", qubits=4)
        assert output.count("[1/4] 1 |1>") == 2

    def test_degenerate_echo(self):
        session = make_session(qubits=4)
        assert session.echo_state() == "[0/4] 1 |>"


class TestRunScript:
    def test_corpus_demux_script_is_reproducible(self, capsys):
        assert main([str(corpus_path("demux_run.qcl")), "-s", "0"]) == 0
        assert capsys.readouterr().out == "2 4\n"
        assert main([str(corpus_path("demux_run.qcl")), "-s", "0"]) == 0
        assert capsys.readouterr().out == "2 4\n"

    def test_demux_script_outcome_pairs(self, capsys):
        for seed in range(6):
            assert main([str(corpus_path("demux_run.qcl")), "-s", str(seed)]) == 0
            k, v = map(int, capsys.readouterr().out.split())
            assert v == 1 << k

    def test_coinflip_script(self, capsys):
        assert main([str(corpus_path("coinflip.qcl")), "-s", "0"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_exit_zero_on_success(self, tmp_path, capsys):
        script = tmp_path / "ok.qcl"
        script.write_text("qureg q[2]; Not(q); int m; measure q, m; print m;\n")
        assert main([str(script), "-n", "8"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_hierarchy_violation_fails(self, tmp_path, capsys):
        script = tmp_path / "bad.qcl"
        script.write_text("qufunct f(qureg q) { H(q); }\n")
        assert main([str(script)]) == 1
        err = capsys.readouterr().err
        assert "cannot call operator 'H' from qufunct level" in err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.qcl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_position(self, tmp_path, capsys):
        script = tmp_path / "broken.qcl"
        script.write_text("qureg q[2];\nNot(q;\n")
        assert main([str(script)]) == 1
        assert "2:" in capsys.readouterr().err

    def test_script_does_not_echo(self, tmp_path, capsys):
        script = tmp_path / "quiet.qcl"
        script.write_text("qureg q[1]; H(q);\n")
        assert main([str(script), "-n", "4"]) == 0
        assert capsys.readouterr().out == ""

    def test_interactive_after_script(self, tmp_path, capsys, monkeypatch):
        script = tmp_path / "setup.qcl"
        script.write_text(INC_DEF + "\nqureg q[2];\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("inc(q);\n"))
        assert main([str(script), "-n", "8", "-i"]) == 0
        out = capsys.readouterr().out
        assert "[2/8] 1 |01>" in out

    def test_no_checks_flag(self, tmp_path, capsys):
        script = tmp_path / "fill.qcl"
        script.write_text(
            "qufunct par(quconst x, quvoid y) { CNot(y, x[0]); }\n"
            "qureg x[1]; qureg y[1];\n"
            "Not(y);\n"
            "par(x, y);\n")
        assert main([str(script), "-n", "8"]) == 1
        assert "not empty" in capsys.readouterr().err
        assert main([str(script), "-n", "8", "--no-checks"]) == 0

    def test_exit_in_script(self, tmp_path, capsys):
        script = tmp_path / "early.qcl"
        script.write_text("print 1;\nexit;\nprint 2;\n")
        assert main([str(script)]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_non_ascii_source_rejected(self, tmp_path, capsys):
        script = tmp_path / "utf.qcl"
        script.write_bytes("print 1; // café\n".encode("utf-8"))
        assert main([str(script)]) == 1
        assert "ASCII" in capsys.readouterr().err


class TestConfig:
    def test_qubit_count_flows_into_echo(self):
        _, output = run_repl("qureg q[1];\nNot(q);\n", qubits=6)
        assert "[1/6]" in output

    def test_seed_changes_outcomes(self):
        outputs = set()
        for seed in range(8):
            _, output = run_repl("qureg q[2];\nH(q);\nint m;\nmeasure q, m;\nprint m;\n",
                                 seed=seed, echo=False)
            outputs.add(output.split("\n")[-3])
        assert len(outputs) > 1
