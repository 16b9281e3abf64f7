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

One pattern reads every line: an `[identity]` header alone on its line, or
`key = value` pairs, a value being a double-quoted string with \\" and \\\\
escapes, `true`, `false` or an integer.  A '#' outside a string starts a
comment.  Every record takes `id kind paper rhs params as_printed note
digits`; a finite record also `index lower upper term`, a series record (or
an integral with a `term`) also `index start term tail`, and any other
record also `lhs`.  Any other key, a repeated key or a bad value is a
registry problem, as is a tail other than `geometric ratio=R [from=N]` or
`algebraic`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .expr import (
    CONSTANTS,
    FUNCTION_NAMES,
    QUAD_VAR,
    SEQUENCES,
    BinOp,
    BoundVar,
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
    integer_poly,
    poly_constant,
    poly_integral,
    substitute,
)
from .value import Value

KINDS = ("series", "finite", "algebraic", "radical", "integral", "constant")
MAX_DEPTH = 100  # expression tree levels; the shipped registry reaches 10


# ----------------------------------------------------------------- tokenizer

# a token is a plain tuple (kind, text, offset), kind int | ident | symbol | end
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[-+*/^(),])")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^(),]")  # a character that starts no token
_SYMBOL_MAP = str.maketrans("−×÷", "-*/")


def _location(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of `offset` in `text`, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive descent; each rule returns (node, height of its tree).
    `free` collects the names of the tree's Var nodes as they are built,
    but not x inside a quadrature body, which becomes BoundVar there."""

    def __init__(self, text: str):
        self.text = text.translate(_SYMBOL_MAP)  # one character for one: offsets stay
        bad = _BAD_RE.search(self.text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", *_location(self.text, bad.start()))
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(self.text)]
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.nesting = 0  # open unary() calls: every recursion passes there
        self.bodies = 0  # open quadrature bodies
        self.free: set = set()

    def error(self, message: str, tok: tuple, expected=()) -> ParseError:
        return ParseError(message, *_location(self.text, tok[2]), expected=expected)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"got {tok[1] or 'end of input'!r}", tok, expected={text})
        return tok

    def deeper(self, height: int, tok: tuple) -> int:
        if height > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        return height

    def parse(self) -> Expr:
        e, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise self.error(f"trailing input {tok[1]!r}", tok, expected={"end of input"})
        return e

    def expr(self) -> tuple[Expr, int]:
        e, h = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()
            right, rh = self.term()
            e, h = BinOp(op[1], e, right), self.deeper(1 + max(h, rh), op)
        return e, h

    def term(self) -> tuple[Expr, int]:
        e, h = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()
            right, rh = self.unary()
            e, h = BinOp(op[1], e, right), self.deeper(1 + max(h, rh), op)
        return e, h

    def unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        self.nesting = self.deeper(self.nesting + 1, tok)
        try:
            if tok[1] == "-":
                self.next()
                arg, h = self.unary()
                return Neg(arg), self.deeper(h + 1, tok)
            return self.power()
        finally:
            self.nesting -= 1

    def power(self) -> tuple[Expr, int]:
        base, h = self.atom()
        if self.peek()[1] == "^":
            caret = self.next()
            exponent, eh = self.unary()  # right associative, binds tighter than unary minus on the left
            return Pow(base, self.exponent(exponent, caret)), self.deeper(1 + max(h, eh), caret)
        return base, h

    def exponent(self, e: Expr, caret: tuple) -> Expr:
        p = integer_poly(e)
        if p is not None and poly_integral(p):
            return e
        if poly_constant(p) is not None:
            return RatLit(poly_constant(p))
        raise self.error("exponent must be an integer expression or a rational literal", caret)

    def atom(self) -> tuple[Expr, int]:
        tok = self.next()
        kind, text = tok[0], tok[1]
        if kind == "int":
            try:
                return IntLit(int(text)), 1
            except ValueError as exc:  # more digits than int() converts
                raise self.error(str(exc), tok) from None
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(tok)
            if text in CONSTANTS:
                return Const(text), 1
            if not (self.bodies and text == QUAD_VAR):
                self.free.add(text)
            return Var(text), 1
        raise self.error(f"got {text or 'end of input'!r}", tok, expected={"integer", "identifier", "("})

    def call(self, name: tuple) -> tuple[Expr, int]:
        ident = name[1]
        self.expect("(")
        body = ident == "quad"  # the first argument is a quadrature body
        self.bodies += body
        args = [self.expr()]
        self.bodies -= body
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        h = self.deeper(1 + max(ah for _, ah in args), name)
        args = [a for a, _ in args]
        if ident in FUNCTION_NAMES:
            if len(args) != 1:
                raise self.error(f"{ident} takes one argument", name)
            return Fn(ident, args[0]), h
        if ident in SEQUENCES:
            arity = SEQUENCES[ident][1]
            if len(args) != arity:
                raise self.error(f"{ident} takes {arity} argument(s)", name)
            return SeqCall(ident, tuple(args)), h
        if ident == "quad":
            if len(args) != 3:
                raise self.error("quad takes (body, lower, upper)", name)
            # the body's x is its own variable; a quad nested in the body is
            # resolved already, and x in its bounds is this body's variable
            return Quad(substitute(args[0], QUAD_VAR, BoundVar()), args[1], args[2]), h
        if ident == "cl2":
            if len(args) != 1:
                raise self.error("cl2 takes one argument", name)
            return Clausen(args[0]), h
        raise self.error(f"unknown function {ident!r}", name)


def parse_expression(text: str) -> Expr:
    """Parse one expression; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


def _parse_free(text: str) -> tuple[Expr, set]:
    """The expression and the names of its free variables (free_vars)."""
    parser = _Parser(text)
    return parser.parse(), parser.free


# ------------------------------------------------------------------- records


class GeometricTail(Value):
    __slots__ = ("ratio", "start")  # a Fraction; validate the term ratio from `start` on

    def __str__(self) -> str:
        return f"geometric ratio={self.ratio} from={self.start}"


class AlgebraicTail(Value):
    """Summed by its term ratio plus an asymptotic tail (engine._sum_algebraic);
    the tail text `algebraic` takes no keys."""

    __slots__ = ()

    def __str__(self) -> str:
        return "algebraic"


class SeriesSpec(Value):
    __slots__ = ("index", "start", "term")


class FiniteSpec(Value):
    __slots__ = ("index", "lower", "upper", "summand")


class IdentityRecord(Value):
    # lhs: SeriesSpec | FiniteSpec | Expr; params: ((name, lo, hi), ...);
    # tail: GeometricTail | AlgebraicTail | None
    __slots__ = ("id", "kind", "paper_ref", "lhs", "rhs", "params", "tail", "as_printed", "note", "digits")
    _defaults = {"tail": None, "as_printed": False, "note": "", "digits": None}


class RegistryProblem(Value):
    __slots__ = ("line", "record_id", "message")

    def __str__(self) -> str:
        where = f"record {self.record_id!r}" if self.record_id else "registry"
        return f"line {self.line}: {where}: {self.message}"


class ParsedRegistry(Value):
    __slots__ = ("records", "problems")

    def __init__(self, records=None, problems=None):
        super().__init__([] if records is None else records, [] if problems is None else problems)


_TAIL_KEYS = {"geometric": ("ratio", "from"), "algebraic": ()}


def parse_tail(text: str):
    """`geometric ratio=R [from=N]` or `algebraic`; anything else is a ValueError."""
    mode, *fields = text.split() or [""]
    if mode not in _TAIL_KEYS:
        raise ValueError(f"unknown tail mode {mode!r}")
    kv = {}
    for f in fields:
        key, eq, value = f.partition("=")
        if not key or not eq:
            raise ValueError(f"tail field {f!r} is not key=value")
        if key not in _TAIL_KEYS[mode]:
            raise ValueError(f"unknown tail key {key!r} for {mode}")
        if key in kv:
            raise ValueError(f"repeated tail key {key!r}")
        kv[key] = value
    if mode == "algebraic":
        return AlgebraicTail()
    if "ratio" not in kv:
        raise ValueError("geometric tail needs ratio=")
    try:
        ratio = Fraction(kv["ratio"])
    except ZeroDivisionError:
        raise ValueError(f"geometric ratio {kv['ratio']!r} divides by zero") from None
    if not 0 < ratio < 1:
        raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")
    return GeometricTail(ratio, int(kv.get("from", 0)))


def parse_params(text: str):
    out = []
    for chunk in text.split():
        name, _, rng = chunk.partition("=")
        if not _ or not name.isidentifier():
            raise ValueError(f"bad parameter spec {chunk!r}")
        if any(name == p[0] for p in out):
            raise ValueError(f"repeated parameter {name!r}")
        lo, dots, hi = rng.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise ValueError(f"bad parameter spec {chunk!r}: bounds must be integers") from None
        if lo > hi:
            raise ValueError(f"empty parameter range {chunk!r}")
        out.append((name, lo, hi))
    return tuple(out)


# A header alone on its line, one `key = value` pair, or the blank or
# comment-only rest of a line; `match` at position 0, then after each pair.
_PAIR_RE = re.compile(
    r'^\s*(?P<header>\[identity\])\s*(?:#.*)?$'
    r'|\s*(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*'
    r'(?:"(?P<string>(?:[^"\\]|\\["\\])*)"|(?P<bare>true|false|-?\d+)(?![^\s#]))'
    r'|\s*(?:#.*)?$'
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


def parse_registry(text: str) -> ParsedRegistry:
    """Parse registry text; malformed records become diagnostics, not aborts."""
    out = ParsedRegistry()
    blocks = []  # (line of the header, {key: value})
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while m := _PAIR_RE.match(line, pos):
            if m["header"]:
                blocks.append((lineno, {}))
                break
            if not m["key"]:
                break  # blank or comment to the end of the line
            if not blocks:
                out.problems.append(RegistryProblem(lineno, "", "content before first [identity] block"))
                break
            block, key, bare = blocks[-1][1], m["key"], m["bare"]
            if key in block:
                out.problems.append(RegistryProblem(lineno, block.get("id", ""), f"duplicate key {key!r}"))
            if bare is None:
                block[key] = _ESCAPE_RE.sub(r"\1", m["string"])
            elif bare in ("true", "false"):
                block[key] = bare == "true"
            else:
                try:
                    block[key] = int(bare)
                except ValueError as exc:  # more digits than int() converts
                    out.problems.append(RegistryProblem(lineno, block.get("id", ""), f"{key}: {exc}"))
                    break
            pos = m.end()
        else:
            rid = blocks[-1][1].get("id", "") if blocks else ""
            out.problems.append(
                RegistryProblem(lineno, rid, f"column {pos + 1}: expected key = value, got {line[pos:].strip()!r}")
            )

    seen: dict = {}
    for line, block in blocks:
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


_COMMON_KEYS = frozenset("id kind paper rhs params as_printed note digits".split())
_FINITE_KEYS = _COMMON_KEYS | {"index", "lower", "upper", "term"}
_SERIES_KEYS = _COMMON_KEYS | {"index", "start", "term", "tail"}
_PLAIN_KEYS = _COMMON_KEYS | {"lhs"}


def _expect_str(block: dict, key: str) -> str:
    value = block[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a quoted string")
    return value


def _expect_int(block: dict, key: str) -> int:
    value = block[key]
    if type(value) is not int:  # bool is an int subclass: `start = true` is refused
        raise ValueError(f"{key} must be an integer")
    return value


def _build_record(block: dict) -> IdentityRecord:
    rid = _expect_str(block, "id")
    kind = _expect_str(block, "kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    series = kind == "series" or (kind == "integral" and "term" in block)
    allowed = _FINITE_KEYS if kind == "finite" else _SERIES_KEYS if series else _PLAIN_KEYS
    unknown = sorted(block.keys() - allowed)
    if unknown:
        raise ValueError(f"{kind} records take no key {unknown[0]!r}")
    paper = _expect_str(block, "paper")
    rhs, rhs_free = _parse_free(_expect_str(block, "rhs"))
    params = parse_params(_expect_str(block, "params")) if "params" in block else ()
    as_printed = block.get("as_printed", False)
    if not isinstance(as_printed, bool):
        raise ValueError("as_printed must be true or false")
    note = _expect_str(block, "note") if "note" in block else ""
    digits = _expect_int(block, "digits") if "digits" in block else None
    if digits is not None and digits < 1:
        raise ValueError("digits must be a positive integer")
    tail = parse_tail(_expect_str(block, "tail")) if "tail" in block else None
    param_names = {p[0] for p in params}

    def check_free(free: set, allowed: set, what: str):
        extra = free - allowed
        if extra:
            raise ValueError(f"{what} has undeclared variables {sorted(extra)}")

    if kind == "finite":
        index = _expect_str(block, "index")
        lower, lower_free = _parse_free(_expect_str(block, "lower"))
        upper, upper_free = _parse_free(_expect_str(block, "upper"))
        summand, summand_free = _parse_free(_expect_str(block, "term"))
        if not params:
            raise ValueError("finite records need a params range for the outer variable")
        check_free(lower_free, param_names, "lower bound")
        check_free(upper_free, param_names, "upper bound")
        check_free(summand_free, param_names | {index}, "summand")
        check_free(rhs_free, param_names, "rhs")
        lhs: object = FiniteSpec(index, lower, upper, summand)
    elif series:
        index = _expect_str(block, "index")
        start = _expect_int(block, "start")
        term, term_free = _parse_free(_expect_str(block, "term"))
        if tail is None:
            raise ValueError("series records need a tail strategy")
        check_free(term_free, param_names | {index}, "term")
        check_free(rhs_free, param_names, "rhs")
        lhs = SeriesSpec(index, start, term)
    else:
        lhs, lhs_free = _parse_free(_expect_str(block, "lhs"))
        check_free(lhs_free, param_names, "lhs")
        check_free(rhs_free, param_names, "rhs")
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
    elif isinstance(e, BoundVar):
        text, mine = QUAD_VAR, _ATOM
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
        if isinstance(e.exponent, (IntLit, Var, BoundVar)):
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
