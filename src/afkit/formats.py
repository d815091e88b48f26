"""File formats: APX and TGF for frameworks, a line format for extension-sets,
and a small declarative format for finite logics.

All emitters produce UTF-8 text with LF endings and canonical (sorted) order, so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from .core import AF, RESERVED_PREFIX, AFError, check_arg_name
from .semantics import ExtensionSet, sort_extensions

if TYPE_CHECKING:
    from .charlogic import FiniteLogic


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_APX_ARG = re.compile(r"arg\(\s*([A-Za-z0-9_]+)\s*\)\.\Z")
_APX_ATT = re.compile(r"att\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\.\Z")


def check_user_name(name: str) -> str:
    """name, if user input may give it to an argument: a valid argument name
    without the reserved prefix. Raises AFError otherwise."""
    if check_arg_name(name).startswith(RESERVED_PREFIX):
        raise AFError(f"argument names starting with {RESERVED_PREFIX!r} are reserved: {name!r}")
    return name


def _check_user_name(name: str, lineno: int, col: int) -> str:
    try:
        return check_user_name(name)
    except AFError as exc:
        raise ParseError(str(exc), lineno, col) from None


def parse_apx(text: str) -> AF:
    args: list[str] = []
    attacks: list[tuple[str, str]] = []
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip()) + 1  # column of the line's first character
        m = _APX_ARG.match(line)
        if m:
            name = _check_user_name(m.group(1), lineno, lead + m.start(1))
            declared.add(name)
            args.append(name)
            continue
        m = _APX_ATT.match(line)
        if m:
            cols = (lead + m.start(1), lead + m.start(2))
            a, b = (_check_user_name(x, lineno, col) for x, col in zip(m.groups(), cols))
            for x, col in zip((a, b), cols):
                if x not in declared:
                    raise ParseError(f"attack endpoint {x!r} not declared as arg", lineno, col)
            attacks.append((a, b))
            continue
        raise ParseError(f"cannot parse statement: {line!r}", lineno)
    return AF(args, attacks)


def emit_apx(f: AF) -> str:
    lines = [f"arg({a})." for a in f.names]
    lines += [f"att({a},{b})." for a, b in sorted(f.attacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def _comma_tokens(text: str, col: int) -> list[tuple[str, int]]:
    """The comma-separated tokens of text, stripped, each with its column
    (an empty one at where it would start), text starting at column col."""
    out = []
    for piece in text.split(","):
        out.append((piece.strip(), col + len(piece) - len(piece.lstrip())))
        col += len(piece) + 1
    return out


def _tokens(raw: str) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of a line, each with its column."""
    out, end = [], 0
    for token in raw.split():
        start = raw.index(token, end)
        out.append((token, start + 1))
        end = start + len(token)
    return out


def parse_tgf(text: str) -> AF:
    names: dict[str, str] = {}
    attacks: list[tuple[str, str]] = []
    in_edges = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = _tokens(raw)
        if not parts:
            continue
        if len(parts) == 1 and parts[0][0] == "#":
            if in_edges:
                raise ParseError("second '#' separator", lineno)
            in_edges = True
            continue
        if not in_edges:
            if len(parts) > 2:
                raise ParseError(f"cannot parse node line: {raw.strip()!r}", lineno)
            (node, node_col), (label, col) = parts[0], parts[-1]
            if node in names:
                raise ParseError(f"duplicate node id {node!r}", lineno, node_col)
            if label in names.values():
                raise ParseError(f"duplicate node label {label!r}", lineno, col)
            names[node] = _check_user_name(label, lineno, col)
        else:
            if len(parts) != 2:
                raise ParseError(f"cannot parse edge line: {raw.strip()!r}", lineno)
            (src, _), (dst, _) = parts
            for x, col in parts:
                if x not in names:
                    raise ParseError(f"edge endpoint {x!r} not declared", lineno, col)
            attacks.append((names[src], names[dst]))
    return AF(names.values(), attacks)


def emit_tgf(f: AF) -> str:
    ids = {a: str(i + 1) for i, a in enumerate(f.names)}
    lines = [f"{ids[a]} {a}" for a in f.names]
    lines.append("#")
    lines += [f"{ids[a]} {ids[b]}" for a, b in sorted(f.attacks)]
    return "\n".join(lines) + "\n"


def parse_af(text: str, fmt: str) -> AF:
    if fmt == "apx":
        return parse_apx(text)
    if fmt == "tgf":
        return parse_tgf(text)
    raise ValueError(f"unknown framework format: {fmt!r}")


def emit_af(f: AF, fmt: str) -> str:
    if fmt == "apx":
        return emit_apx(f)
    if fmt == "tgf":
        return emit_tgf(f)
    raise ValueError(f"unknown framework format: {fmt!r}")


# -- extension-set documents -----------------------------------------------------


def parse_extension_set(text: str) -> ExtensionSet:
    """One extension per line, arguments comma-separated, '-' for the empty
    extension, '#' starts a comment."""
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            sets.append(frozenset())
            continue
        members = []
        for name, at in _comma_tokens(line, len(raw) - len(raw.lstrip()) + 1):
            if not name:
                raise ParseError("empty argument name", lineno, at)
            members.append(_check_user_name(name, lineno, at))
        sets.append(frozenset(members))
    return sort_extensions(sets)


def names_text(names: Iterable[str]) -> str:
    """A set of names as text: sorted, comma-separated, '-' when empty."""
    return ",".join(sorted(names)) or "-"


def emit_extension_set(sets: Iterable[frozenset[str]]) -> str:
    lines = [names_text(s) for s in sort_extensions(sets)]
    return "\n".join(lines) + ("\n" if lines else "")


# -- logic description files ------------------------------------------------------

_MODELS_RE = re.compile(r"models\(\s*(.*?)\s*\)\s*=\s*\{(.*?)\}\s*\Z")
# a keyword is followed by whitespace or ends the line
_DECLARATION_RE = re.compile(r"(atoms|interpretations)(?:\s|\Z)")


def parse_logic(text: str) -> FiniteLogic:
    """Declarative logic description::

        atoms a, b
        interpretations 1, 2
        models({}) = {1, 2}
        models(a) = {1}
        models(a,b) = {}

    The models lines must cover every theory of the language exactly once.
    """
    from .charlogic import make_logic

    # declared names in order; a dict, so membership tests are O(1)
    atoms: dict[str, None] | None = None
    interps: dict[str, None] | None = None
    table: dict[frozenset[str], frozenset[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lead = len(raw) - len(raw.lstrip()) + 1  # column of line[0]
        head = _DECLARATION_RE.match(line)
        if head:
            keyword = head[1]
            if (atoms if keyword == "atoms" else interps) is not None:
                raise ParseError(f"duplicate {keyword} line", lineno, lead)
            names: dict[str, None] = {}
            for t in re.finditer(r"[^,\s]+", line[head.end():]):
                if t[0] in names:  # "duplicate atom 'a'", "duplicate interpretation '1'"
                    raise ParseError(f"duplicate {keyword[:-1]} {t[0]!r}", lineno, lead + head.end() + t.start())
                names[t[0]] = None
            if keyword == "atoms":
                atoms = names
            else:
                interps = names
            continue
        m = _MODELS_RE.match(line)
        if m:
            if atoms is None or interps is None:
                raise ParseError("models line before atoms/interpretations", lineno, lead)
            # tokens are checked in line order, so the first bad one is named
            theory_txt = m.group(1)
            theory_tokens = [] if theory_txt in ("", "{}") else _comma_tokens(theory_txt, lead + m.start(1))
            for a, col in theory_tokens:
                if a not in atoms:
                    raise ParseError(f"unknown atom {a!r}", lineno, col)
            ids_txt = m.group(2)
            id_tokens = _comma_tokens(ids_txt, lead + m.start(2)) if ids_txt.strip() else []
            for i, col in id_tokens:
                if i not in interps:
                    raise ParseError(f"unknown interpretation {i!r}", lineno, col)
            theory = frozenset(a for a, _ in theory_tokens)
            ids = frozenset(i for i, _ in id_tokens)
            if theory in table:
                raise ParseError(f"duplicate models line for theory {sorted(theory)}", lineno, lead)
            table[theory] = ids
            continue
        raise ParseError(f"cannot parse line: {line!r}", lineno, lead)
    if atoms is None:
        raise ParseError("missing atoms line", 1)
    if interps is None:
        raise ParseError("missing interpretations line", 1)
    return make_logic(atoms, interps, table)


def theory_text(theory: Iterable[str]) -> str:
    """A theory as text: its atoms sorted and comma-separated, '{}' when empty."""
    return ",".join(sorted(theory)) or "{}"


def emit_logic(logic: FiniteLogic) -> str:
    lines = ["atoms " + ", ".join(logic.atoms)]
    lines.append("interpretations " + ", ".join(logic.interpretations))
    for t in logic.theories:
        ids = ", ".join(sorted(logic.table[t]))
        lines.append(f"models({theory_text(t)}) = {{{ids}}}")
    return "\n".join(lines) + "\n"
