"""Tokenizer and parser behaviour, including round-trips of the bundled corpus."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from qclite import ParseError, LexError
from qclite import syntax
from qclite.syntax import (KEYWORDS, Binary, Call, If, IntLit, Name, Print, Routine, Unary,
                           parse_interactive, parse_program, parse_source, tokenize,
                           unparse)
from conftest import make_session


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def reference_tokenize(source):
    """The character-loop tokenizer that the regular-expression scanner replaced,
    kept as the reference it must agree with; tokens are plain tuples."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(("kw" if text in KEYWORDS else "ident", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_real = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            int(text) if not is_real else float(text)   # as the parser did: '²' raised ValueError
            tokens.append(("real" if is_real else "int", text, line, start_col))
            col += j - i
            i = j
            continue
        pair = source[i : i + 2]
        if pair in ("==", "!=", "<=", ">="):
            tokens.append(("sym", pair, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "()[]{};,=!&+-*/^#:<>":
            tokens.append(("sym", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise LexError(f"invalid character {ch!r}", line, start_col)
    return tokens


def tokens_or_error(tokenizer, source):
    try:
        return [tuple(t) for t in tokenizer(source)]
    except LexError as err:
        return err.message, err.line, err.column


# printable ASCII, the other ASCII whitespace, and non-ASCII letters, decimal
# digits, digit-like characters and spaces, each pool drawn about equally often
CHARACTERS = (st.characters(min_codepoint=32, max_codepoint=126)
              | st.sampled_from("\t\r\n\x0b\x0c\x1c\x1d\x1e\x1f")
              | st.sampled_from("\u00e9\u03c0\u0416\u00df\u0663\u096d\uff13\u00b2\u00bd"
                                "\u2167\xa0\x85\u2003\u3000"))
FRAGMENTS = st.sampled_from(["1.5e-3", "4e2", "2e", "3.", "7E+", "//", "==", "<=", "if", "x_1"])
SOURCES = st.lists(CHARACTERS | FRAGMENTS, max_size=24).map("".join)


class TestTokenize:
    def test_register_declaration(self):
        assert kinds_and_texts("qureg a[1];") == [
            ("kw", "qureg"), ("ident", "a"), ("sym", "["), ("int", "1"),
            ("sym", "]"), ("sym", ";"),
        ]

    def test_comment_dropped(self):
        tokens = tokenize("Rot(-pi/3,a); // c")
        assert [t.text for t in tokens] == [
            "Rot", "(", "-", "pi", "/", "3", ",", "a", ")", ";",
        ]

    def test_power_and_parens(self):
        assert [t.text for t in tokenize("2^(i-j)")] == ["2", "^", "(", "i", "-", "j", ")"]

    def test_positions(self):
        tokens = tokenize("int x;\n  x = 2;")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[3].line, tokens[3].column) == (2, 3)

    def test_real_literals(self):
        tokens = tokenize("0.5 2e3 1.5e-2 7")
        assert [t.kind for t in tokens] == ["real", "real", "real", "int"]

    def test_two_char_symbols(self):
        assert [t.text for t in tokenize("a==b!=c<=d>=e")] == [
            "a", "==", "b", "!=", "c", "<=", "d", ">=", "e"]

    def test_invalid_character(self):
        with pytest.raises(LexError) as err:
            tokenize("int x @ 3;")
        assert err.value.line == 1
        assert err.value.column == 7

    @pytest.mark.parametrize("char", ["\u00b2", "\u00b3", "\u00b9"])
    def test_digit_like_character(self, char):
        # numeric but not a decimal digit: it used to become an int literal that int() rejected
        with pytest.raises(LexError) as err:
            tokenize(f"int x;\nprint {char};")
        assert (err.value.line, err.value.column) == (2, 7)
        assert err.value.message == f"invalid character {char!r}"

    def test_unicode_identifiers_and_digits(self):
        assert kinds_and_texts("\u00e9t\u00e9 = \u0663;") == [
            ("ident", "\u00e9t\u00e9"), ("sym", "="), ("int", "\u0663"), ("sym", ";")]

    @settings(max_examples=300)
    @given(SOURCES)
    def test_matches_reference_tokenizer(self, source):
        try:
            expected = tokens_or_error(reference_tokenize, source)
        except ValueError:
            assume(False)
        assert tokens_or_error(tokenize, source) == expected


class TestParse:
    def test_corpus_parses(self, corpus):
        for name in ("dft.qcl", "inc.qcl", "parity.qcl", "cinc.qcl", "demux.qcl"):
            tree = parse_source(corpus[name])
            assert len(tree.items) == 1
            assert isinstance(tree.items[0], Routine)

    def test_dft_shape(self, corpus):
        routine = parse_source(corpus["dft.qcl"]).items[0]
        assert routine.kind == "operator"
        assert not routine.cond
        assert [p.type for p in routine.params] == ["qureg"]
        outer_for = routine.body[-2]
        inner_if = outer_for.body[0].body[0]
        assert isinstance(inner_if, If)
        assert isinstance(inner_if.cond, Binary) and inner_if.cond.op == "and"

    def test_cond_flag(self):
        tree = parse_source("cond qufunct inc(qureg x, quconst e) { }")
        routine = tree.items[0]
        assert routine.cond and routine.kind == "qufunct"
        assert [p.type for p in routine.params] == ["qureg", "quconst"]

    def test_measure_in_operator_parses(self):
        tree = parse_source("operator f(qureg q) { measure q; }")
        assert isinstance(tree.items[0], Routine)

    def test_precedence(self):
        expr = parse_interactive("print 1 + 2 * 3 ^ 4 ^ 5;")[0].args[0]
        assert expr.op == "+"
        assert expr.right.op == "*"
        power = expr.right.right
        assert power.op == "^" and power.right.op == "^"  # right associative

    def test_unary_binds_tighter_than_power(self):
        expr = parse_interactive("print -2 ^ 2;")[0].args[0]
        assert expr.op == "^"
        assert isinstance(expr.left, Unary)

    def test_boolean_precedence(self):
        expr = parse_interactive("print a or b xor c and not d;")[0].args[0]
        assert expr.op == "or"
        assert expr.right.op == "xor"
        assert expr.right.right.op == "and"
        assert expr.right.right.right.op == "not"

    def test_comparison_level(self):
        expr = parse_interactive("print 1 + 2 < 3 and true;")[0].args[0]
        assert expr.op == "and"
        assert expr.left.op == "<"

    def test_slice_and_concat(self):
        stmt = parse_interactive("CNot(x[i], x[0:i-1] & e);")[0]
        target, control = stmt.args
        assert isinstance(target, syntax.Index)
        assert isinstance(control, Binary) and control.op == "&"
        assert isinstance(control.left, syntax.RangeIndex)

    def test_for_with_step(self):
        stmt = parse_interactive("for i = #x-1 to 1 step -1 { Not(x[0]); }")[0]
        assert stmt.var == "i"
        assert isinstance(stmt.step, Unary)
        assert isinstance(stmt.start, Binary) and stmt.start.op == "-"
        assert isinstance(stmt.start.left, syntax.Length)

    def test_length_binds_before_subtraction(self):
        expr = parse_interactive("print #x-1;")[0].args[0]
        assert expr.op == "-"

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_source("qureg a[;")
        assert "expected" in err.value.message
        assert err.value.line == 1

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_source("H(q)")

    def test_nested_routine_rejected(self):
        with pytest.raises(ParseError):
            parse_source("operator f(qureg q) { operator g(qureg p) { } }")


class TestEndOfInput:
    @pytest.mark.parametrize("line,column", [
        ("int n = 3 -", 12),
        ("H(", 3),
        ("qureg a[1]; if a {", 19),
        ("operator f(qureg q) { H(q);", 28),
    ])
    def test_error_points_past_the_last_token(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_interactive(line + "  // trailing comment")
        assert "'<end of input>'" in err.value.message or err.value.message == "expected '}'"
        assert (err.value.line, err.value.column) == (1, column)

    def test_script_position(self):
        with pytest.raises(ParseError) as err:
            make_session().run_source("qureg a[1];\nH(a")
        assert (err.value.line, err.value.column) == (2, 4)


class TestInteractive:
    def test_dump(self):
        items = parse_interactive("dump;")
        assert len(items) == 1 and isinstance(items[0], syntax.Dump)

    def test_quantum_if(self):
        items = parse_interactive("if a and b { inc(q); }")
        assert isinstance(items[0], If)
        assert isinstance(items[0].then[0], syntax.CallStmt)

    def test_empty_line(self):
        assert parse_interactive("") == []
        assert parse_interactive("   // commentary") == []

    def test_multiple_statements(self):
        items = parse_interactive("qureg a[1]; qureg b[1];")
        assert [type(i) for i in items] == [syntax.RegDecl, syntax.RegDecl]

    def test_inverted_call(self):
        stmt = parse_interactive("!dft(q);")[0]
        assert stmt.invert and stmt.name == "dft"

    def test_exit(self):
        assert isinstance(parse_interactive("exit;")[0], syntax.ExitStmt)


class TestRoundTrip:
    def test_corpus_round_trip(self, corpus):
        for name, source in corpus.items():
            tree = parse_source(source)
            again = parse_source(unparse(tree))
            assert again == tree, f"round trip failed for {name}"

    def test_parse_deterministic(self, corpus):
        source = corpus["dft.qcl"]
        assert parse_source(source) == parse_source(source)

    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_int_literal_round_trip(self, value):
        expr = parse_interactive(f"print {value};")[0].args[0]
        assert expr == IntLit(value)

    @given(st.sampled_from(["+", "-", "*", "/", "^", "mod"]),
           st.integers(0, 99), st.integers(1, 99))
    def test_binary_round_trip(self, op, a, b):
        line = f"print {a} {op} {b};"
        stmt = parse_interactive(line)[0]
        assert parse_interactive(syntax.unparse_stmt(stmt)) == [stmt]

    @given(st.recursive(
        st.one_of(
            st.integers(0, 9).map(IntLit),
            st.sampled_from("abc").map(Name),
        ),
        lambda leaf: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "mod", "^",
                                       "and", "or", "xor", "==", "<", "&"]),
                      leaf, leaf).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(["-", "not"]), leaf).map(lambda t: Unary(*t)),
            leaf.map(syntax.Length),
            st.tuples(leaf, leaf).map(lambda t: syntax.Index(*t)),
        ),
        max_leaves=12,
    ))
    def test_generated_expression_round_trip(self, expr):
        stmt = Print([expr])
        assert parse_interactive(syntax.unparse_stmt(stmt)) == [stmt]
