"""Textual identity language: expression parser, registry format, records.

The registry file format is line-oriented blocks:

    [identity]
    id = "s2.G.z15"
    kind = "series"
    paper = "catalan gf at z=1/5"
    index = "n"  start = 0
    term = "C(n)/5^n"
    tail = "geometric ratio=9/10 from=1"
    rhs = "-beta*sqrt5"
    params = ""
    as_printed = false
    note = ""

Full-line comments start with '#'; a '#' outside quotes also ends a line.
Strings are double-quoted with \\" and \\\\ escapes.  Several key = value
pairs may share a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .expr import (
    CONSTANT_NAMES,
    FUNCTION_NAMES,
    SEQUENCE_ARITY,
    BinOp,
    Clausen,
    Const,
    Expr,
    Fn,
    IntLit,
    Neg,
    Pow,
    Quad,
    RatLit,
    SeqCall,
    Var,
    free_vars,
    literal_fraction,
)

KINDS = ("series", "finite", "algebraic", "radical", "integral", "constant")


# ----------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))", re.DOTALL)
_SYMBOL_MAP = {"−": "-", "×": "*", "÷": "/"}
_SYMBOLS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # int | ident | symbol | end
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        start = m.start(m.lastindex)
        for nl in re.finditer(r"\n", text[pos:start]):
            line += 1
            line_start = pos + nl.end()
        col = start - line_start + 1
        num, ident, sym = m.group(1), m.group(2), m.group(3)
        if num is not None:
            tokens.append(_Token("int", num, line, col))
        elif ident is not None:
            tokens.append(_Token("ident", ident, line, col))
        else:
            sym = _SYMBOL_MAP.get(sym, sym)
            if sym == "\n":
                line += 1
                line_start = m.end()
            elif sym.isspace():
                pass
            elif sym in _SYMBOLS:
                tokens.append(_Token("symbol", sym, line, col))
            else:
                raise ParseError(f"unexpected character {sym!r}", line, col)
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.line, tok.column, expected={text})
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column, expected={"end of input"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            caret = self.next()
            exponent = self.unary()  # right associative, binds tighter than unary minus on the left
            return Pow(base, _normalize_exponent(exponent, caret))
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return IntLit(int(tok.text))
        if tok.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if self.peek().text == "(":
                return self.call(tok)
            if tok.text in CONSTANT_NAMES:
                return Const(tok.text)
            return Var(tok.text)
        raise ParseError(
            f"got {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
            expected={"integer", "identifier", "("},
        )

    def call(self, name: _Token) -> Expr:
        self.expect("(")
        args = [self.expr()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        ident = name.text
        if ident in FUNCTION_NAMES:
            if len(args) != 1:
                raise ParseError(f"{ident} takes one argument", name.line, name.column)
            return Fn(ident, args[0])
        if ident in SEQUENCE_ARITY:
            if len(args) != SEQUENCE_ARITY[ident]:
                raise ParseError(
                    f"{ident} takes {SEQUENCE_ARITY[ident]} argument(s)", name.line, name.column
                )
            return SeqCall(ident, tuple(args))
        if ident == "quad":
            if len(args) != 3:
                raise ParseError("quad takes (body, lower, upper)", name.line, name.column)
            return Quad(args[0], args[1], args[2])
        if ident == "cl2":
            if len(args) != 1:
                raise ParseError("cl2 takes one argument", name.line, name.column)
            return Clausen(args[0])
        raise ParseError(f"unknown function {ident!r}", name.line, name.column)


def _is_integer_expr(e: Expr) -> bool:
    if isinstance(e, (IntLit, Var)):
        return True
    if isinstance(e, Neg):
        return _is_integer_expr(e.arg)
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        return _is_integer_expr(e.left) and _is_integer_expr(e.right)
    return False


def _normalize_exponent(e: Expr, caret: _Token) -> Expr:
    if _is_integer_expr(e):
        return e
    f = literal_fraction(e)
    if f is not None:
        return e if f.denominator == 1 else RatLit(f)
    raise ParseError(
        "exponent must be an integer expression or a rational literal",
        caret.line,
        caret.column,
    )


def parse_expression(text: str) -> Expr:
    """Parse one expression; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


# ------------------------------------------------------------------- records


@dataclass(frozen=True)
class GeometricTail:
    ratio: Fraction
    start: int  # validate the term ratio from this index on

    def __str__(self) -> str:
        return f"geometric ratio={self.ratio} from={self.start}"


@dataclass(frozen=True)
class AlgebraicTail:
    ladder: tuple
    order: int  # number of anchor doublings for Richardson extrapolation

    def __str__(self) -> str:
        rungs = ",".join(str(r) for r in self.ladder)
        return f"algebraic ladder={rungs} order={self.order}"


@dataclass(frozen=True)
class SeriesSpec:
    index: str
    start: int
    term: Expr


@dataclass(frozen=True)
class FiniteSpec:
    index: str
    lower: Expr
    upper: Expr
    summand: Expr


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    kind: str
    paper_ref: str
    lhs: object  # SeriesSpec | FiniteSpec | Expr
    rhs: Expr
    params: tuple  # ((name, lo, hi), ...)
    tail: object = None  # GeometricTail | AlgebraicTail | None
    as_printed: bool = False
    note: str = ""
    digits: int | None = None


@dataclass(frozen=True)
class RegistryProblem:
    line: int
    record_id: str
    message: str

    def __str__(self) -> str:
        where = f"record {self.record_id!r}" if self.record_id else "registry"
        return f"line {self.line}: {where}: {self.message}"


@dataclass
class ParsedRegistry:
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def parse_tail(text: str):
    parts = text.split()
    if not parts:
        raise ValueError("empty tail specification")
    mode, kv = parts[0], dict(p.split("=", 1) for p in parts[1:])
    if mode == "geometric":
        ratio = Fraction(kv["ratio"])
        if not 0 < ratio < 1:
            raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")
        return GeometricTail(ratio, int(kv.get("from", 0)))
    if mode == "algebraic":
        ladder = tuple(Fraction(x) for x in kv["ladder"].split(","))
        if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("algebraic ladder must be non-empty and strictly decreasing")
        return AlgebraicTail(ladder, int(kv.get("order", 7)))
    raise ValueError(f"unknown tail mode {mode!r}")


def parse_params(text: str):
    out = []
    for chunk in text.split():
        name, _, rng = chunk.partition("=")
        if not _ or not name.isidentifier():
            raise ValueError(f"bad parameter spec {chunk!r}")
        if ".." in rng:
            lo, hi = rng.split("..", 1)
            out.append((name, int(lo), int(hi)))
        else:
            out.append((name, int(rng), int(rng)))
    return tuple(out)


_KEY_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*")


def _scan_value(line: str, pos: int, lineno: int):
    if pos < len(line) and line[pos] == '"':
        out = []
        i = pos + 1
        while i < len(line):
            ch = line[i]
            if ch == "\\":
                if i + 1 >= len(line) or line[i + 1] not in ('"', "\\"):
                    raise ParseError("bad escape in string", lineno, i + 1)
                out.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                return "".join(out), i + 1
            out.append(ch)
            i += 1
        raise ParseError("unterminated string", lineno, pos + 1)
    m = re.match(r"[^\s#]+", line[pos:])
    if not m:
        raise ParseError("missing value", lineno, pos + 1)
    tok = m.group(0)
    if tok in ("true", "false"):
        return tok == "true", pos + m.end()
    try:
        return int(tok), pos + m.end()
    except ValueError:
        raise ParseError(f"bad value {tok!r}", lineno, pos + 1) from None


def _strip_comment(line: str) -> str:
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and in_string:
            i += 2
            continue
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
        i += 1
    return line


def parse_registry(text: str) -> ParsedRegistry:
    """Parse registry text; malformed records become diagnostics, not aborts."""
    out = ParsedRegistry()
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "[identity]":
            current = {"_line": lineno}
            blocks.append(current)
            continue
        if current is None:
            out.problems.append(RegistryProblem(lineno, "", "content before first [identity] block"))
            continue
        pos = 0
        while pos < len(line):
            m = _KEY_RE.match(line, pos)
            if not m:
                out.problems.append(RegistryProblem(lineno, current.get("id", ""), f"expected key = value, got {line[pos:]!r}"))
                break
            key = m.group(1)
            try:
                value, pos = _scan_value(line, m.end(), lineno)
            except ParseError as exc:
                out.problems.append(RegistryProblem(lineno, current.get("id", ""), str(exc)))
                break
            if key in current:
                out.problems.append(RegistryProblem(lineno, current.get("id", ""), f"duplicate key {key!r}"))
            current[key] = value

    seen: dict = {}
    for block in blocks:
        line = block.pop("_line")
        rid = block.get("id", "")
        try:
            record = _build_record(block)
        except (ParseError, ValueError, KeyError) as exc:
            msg = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            out.problems.append(RegistryProblem(line, rid, msg))
            continue
        if record.id in seen:
            out.problems.append(
                RegistryProblem(
                    line,
                    record.id,
                    f"duplicate id (first defined at line {seen[record.id]})",
                )
            )
            continue
        seen[record.id] = line
        out.records.append(record)
    return out


def _expect_str(block: dict, key: str) -> str:
    value = block[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a quoted string")
    return value


def _build_record(block: dict) -> IdentityRecord:
    rid = _expect_str(block, "id")
    kind = _expect_str(block, "kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    paper = _expect_str(block, "paper")
    rhs = parse_expression(_expect_str(block, "rhs"))
    params = parse_params(_expect_str(block, "params")) if "params" in block else ()
    as_printed = block.get("as_printed", False)
    if not isinstance(as_printed, bool):
        raise ValueError("as_printed must be true or false")
    note = block.get("note", "")
    digits = block.get("digits")
    if digits is not None and (not isinstance(digits, int) or digits < 1):
        raise ValueError("digits must be a positive integer")
    tail = parse_tail(_expect_str(block, "tail")) if "tail" in block else None
    param_names = {p[0] for p in params}

    def check_free(expr: Expr, allowed: set, what: str):
        extra = free_vars(expr) - allowed
        if extra:
            raise ValueError(f"{what} has undeclared variables {sorted(extra)}")

    if kind == "finite":
        index = _expect_str(block, "index")
        lower = parse_expression(_expect_str(block, "lower"))
        upper = parse_expression(_expect_str(block, "upper"))
        summand = parse_expression(_expect_str(block, "term"))
        if not params:
            raise ValueError("finite records need a params range for the outer variable")
        check_free(lower, param_names, "lower bound")
        check_free(upper, param_names, "upper bound")
        check_free(summand, param_names | {index}, "summand")
        check_free(rhs, param_names, "rhs")
        lhs: object = FiniteSpec(index, lower, upper, summand)
    elif kind in ("series",) or (kind == "integral" and "term" in block):
        index = _expect_str(block, "index")
        start = block["start"]
        if not isinstance(start, int):
            raise ValueError("start must be an integer")
        term = parse_expression(_expect_str(block, "term"))
        if tail is None:
            raise ValueError("series records need a tail strategy")
        check_free(term, param_names | {index}, "term")
        check_free(rhs, param_names, "rhs")
        lhs = SeriesSpec(index, start, term)
    else:
        lhs_expr = parse_expression(_expect_str(block, "lhs"))
        check_free(lhs_expr, param_names, "lhs")
        check_free(rhs, param_names, "rhs")
        lhs = lhs_expr
    return IdentityRecord(
        id=rid,
        kind=kind,
        paper_ref=paper,
        lhs=lhs,
        rhs=rhs,
        params=params,
        tail=tail,
        as_printed=as_printed,
        note=note,
        digits=digits,
    )


# ---------------------------------------------------------------- serializer

_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, level: int) -> str:
    if isinstance(e, IntLit):
        text, mine = (str(e.value), _ATOM if e.value >= 0 else _UNARY)
    elif isinstance(e, RatLit):
        v = e.value
        text, mine = f"{v.numerator}/{v.denominator}", _MUL
    elif isinstance(e, Const) or isinstance(e, Var):
        text, mine = e.name, _ATOM
    elif isinstance(e, Neg):
        text, mine = "-" + _fmt(e.arg, _UNARY), _UNARY
    elif isinstance(e, Fn):
        text, mine = f"{e.name}({_fmt(e.arg, 0)})", _ATOM
    elif isinstance(e, SeqCall):
        text, mine = f"{e.name}({', '.join(_fmt(a, 0) for a in e.args)})", _ATOM
    elif isinstance(e, Quad):
        text, mine = f"quad({_fmt(e.body, 0)}, {_fmt(e.lower, 0)}, {_fmt(e.upper, 0)})", _ATOM
    elif isinstance(e, Clausen):
        text, mine = f"cl2({_fmt(e.arg, 0)})", _ATOM
    elif isinstance(e, BinOp):
        if e.op in "+-":
            mine = _ADD
            right = _fmt(e.right, _ADD + 1)
            text = f"{_fmt(e.left, _ADD)} {e.op} {right}"
        else:
            mine = _MUL
            text = f"{_fmt(e.left, _MUL)}{e.op}{_fmt(e.right, _MUL + 1)}"
    elif isinstance(e, Pow):
        base = _fmt(e.base, _ATOM)  # parenthesise anything but an atom
        if isinstance(e.exponent, IntLit) or isinstance(e.exponent, Var):
            exp = _fmt(e.exponent, _ATOM)
        else:
            exp = f"({_fmt(e.exponent, 0)})"
        text, mine = f"{base}^{exp}", _POW
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if mine < level else text


def format_expr(e: Expr) -> str:
    return _fmt(e, 0)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_params(params) -> str:
    """`name=lo..hi`, or `name=v` for a single value, per parameter."""
    return " ".join(f"{name}={lo}..{hi}" if lo != hi else f"{name}={lo}" for name, lo, hi in params)


def serialize_record(r: IdentityRecord) -> str:
    lines = ["[identity]"]
    lines.append(f"id = {_quote(r.id)}")
    lines.append(f"kind = {_quote(r.kind)}")
    lines.append(f"paper = {_quote(r.paper_ref)}")
    if isinstance(r.lhs, SeriesSpec):
        lines.append(f"index = {_quote(r.lhs.index)}  start = {r.lhs.start}")
        lines.append(f"term = {_quote(format_expr(r.lhs.term))}")
    elif isinstance(r.lhs, FiniteSpec):
        lines.append(f"index = {_quote(r.lhs.index)}")
        lines.append(f"lower = {_quote(format_expr(r.lhs.lower))}  upper = {_quote(format_expr(r.lhs.upper))}")
        lines.append(f"term = {_quote(format_expr(r.lhs.summand))}")
    else:
        lines.append(f"lhs = {_quote(format_expr(r.lhs))}")
    if r.tail is not None:
        lines.append(f"tail = {_quote(str(r.tail))}")
    lines.append(f"rhs = {_quote(format_expr(r.rhs))}")
    lines.append(f"params = {_quote(format_params(r.params))}")
    lines.append(f"as_printed = {'true' if r.as_printed else 'false'}")
    lines.append(f"note = {_quote(r.note)}")
    if r.digits is not None:
        lines.append(f"digits = {r.digits}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ shipping

_REGISTRY_DIR = Path(__file__).parent / "registry"
_builtin_cache: list | None = None


def builtin_registry() -> list:
    """Every shipped identity record, parsed once per process."""
    global _builtin_cache
    if _builtin_cache is None:
        records = []
        for path in sorted(_REGISTRY_DIR.glob("*.reg")):
            parsed = parse_registry(path.read_text(encoding="utf-8"))
            if parsed.problems:
                raise RuntimeError(
                    f"shipped registry {path.name} has problems: "
                    + "; ".join(str(p) for p in parsed.problems)
                )
            records.extend(parsed.records)
        _builtin_cache = records
    return list(_builtin_cache)
