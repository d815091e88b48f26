import re

import pytest

from afkit.core import AF, AFError
from afkit.formats import (
    ParseError,
    check_user_name,
    emit_af,
    emit_apx,
    emit_extension_set,
    emit_logic,
    emit_tgf,
    parse_af,
    parse_apx,
    parse_extension_set,
    parse_logic,
    parse_tgf,
)


def fs(*xs):
    return frozenset(xs)


class TestApx:
    def test_parse(self):
        assert parse_apx("arg(a). arg(b). att(a,b).".replace(" ", "\n")) == AF(
            "ab", [("a", "b")]
        )

    def test_round_trip(self):
        f = AF("abc", [("a", "b"), ("c", "a")])
        assert parse_apx(emit_apx(f)) == f

    def test_duplicates_tolerated(self):
        text = "arg(a).\narg(a).\narg(b).\natt(a,b).\natt(a,b).\n"
        assert parse_apx(text) == AF("ab", [("a", "b")])

    def test_undeclared_endpoint(self):
        with pytest.raises(ParseError) as err:
            parse_apx("arg(a).\natt(a,b).\n")
        assert "line 2" in str(err.value)

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_apx("arg(_w0).\n")

    def test_garbage_line(self):
        with pytest.raises(ParseError) as err:
            parse_apx("arg(a).\nfoo bar\n")
        assert "line 2" in str(err.value)

    def test_emit_is_sorted(self):
        f = AF(["b", "a"], [("b", "a"), ("a", "b")])
        assert emit_apx(f) == "arg(a).\narg(b).\natt(a,b).\natt(b,a).\n"

    def test_blank_lines_skipped(self):
        assert parse_apx("\narg(a).\n  \narg(b).\n\natt(a,b).\n\n") == AF("ab", [("a", "b")])


class TestTgf:
    def test_parse(self):
        assert parse_tgf("1 a\n2 b\n#\n1 2\n") == AF("ab", [("a", "b")])

    def test_round_trip(self):
        f = AF("abc", [("a", "b"), ("c", "a")])
        assert parse_tgf(emit_tgf(f)) == f

    def test_label_defaults_to_id(self):
        assert parse_tgf("n1\nn2\n#\nn1 n2\n") == AF(["n1", "n2"], [("n1", "n2")])

    def test_blank_lines_skipped(self):
        assert parse_tgf("\n1 a\n \n2 b\n\n#\n\n1 2\n\n") == AF("ab", [("a", "b")])

    def test_edge_before_separator(self):
        with pytest.raises(ParseError):
            parse_tgf("1 a\n1 1\n#\n")

    def test_unknown_endpoint(self):
        with pytest.raises(ParseError):
            parse_tgf("1 a\n#\n1 2\n")

    def test_duplicate_label(self):
        with pytest.raises(ParseError):
            parse_tgf("1 a\n2 a\n#\n")


class TestFrameworkFormatChoice:
    @pytest.mark.parametrize("fmt", ["gml", "APX", ""])
    def test_unknown_format(self, fmt):
        message = f"^unknown framework format: {re.escape(repr(fmt))}$"
        with pytest.raises(ValueError, match=message):
            parse_af("arg(a).\n", fmt)
        with pytest.raises(ValueError, match=message):
            emit_af(AF("a", []), fmt)


class TestUserNames:
    def test_accepted(self):
        assert check_user_name("a_1") == "a_1"

    @pytest.mark.parametrize("name,message", [
        ("_w0", "argument names starting with '_' are reserved: '_w0'"),
        ("a-b", "invalid argument name: 'a-b'"),
        ("", "invalid argument name: ''"),
    ])
    def test_refused_without_position(self, name, message):
        with pytest.raises(AFError) as err:
            check_user_name(name)
        assert not isinstance(err.value, ParseError)
        assert str(err.value) == message


class TestExtensionSets:
    def test_parse(self):
        text = "# a comment\na,b\n-\nb , c\n"
        assert parse_extension_set(text) == (fs(), fs("a", "b"), fs("b", "c"))

    def test_round_trip(self):
        sets = (fs(), fs("a"), fs("a", "b"))
        assert parse_extension_set(emit_extension_set(sets)) == sets

    def test_empty_token(self):
        assert emit_extension_set([fs()]) == "-\n"

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_extension_set("a,,b\n")


class TestLogicFiles:
    TEXT = (
        "atoms a, b\n"
        "interpretations 1, 2\n"
        "models({}) = {1, 2}\n"
        "models(a) = {1, 2}\n"
        "models(b) = {2}\n"
        "models(a,b) = {}\n"
    )

    def test_parse(self):
        logic = parse_logic(self.TEXT)
        assert logic.atoms == ("a", "b")
        assert logic.models(fs("b")) == fs("2")
        assert logic.models(fs("a", "b")) == fs()

    def test_round_trip(self):
        logic = parse_logic(self.TEXT)
        assert parse_logic(emit_logic(logic)).table == logic.table

    def test_missing_theory(self):
        with pytest.raises(Exception):
            parse_logic("atoms a\ninterpretations 1\nmodels({}) = {1}\n")

    def test_unknown_atom(self):
        with pytest.raises(ParseError):
            parse_logic("atoms a\ninterpretations 1\nmodels(b) = {}\n")

    def test_comments_allowed(self):
        logic = parse_logic("# demo\n" + self.TEXT)
        assert logic.models(fs()) == fs("1", "2")
