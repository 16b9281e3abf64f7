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

import functools
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

# a token is its text, "" the end of the input; a token's offset is wanted
# only by an error, which scans the text again (_Parser.error)
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^(),]")  # a character that starts no token
_SYMBOL_MAP = str.maketrans("−×÷", "-*/")
_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2}  # the binding level of each binary operator


def _location(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of `offset` in `text`, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@functools.lru_cache(maxsize=1024)
def _leaf(tok: str) -> Expr:
    """The node of an integer or name token; nodes are values, so trees share them."""
    return IntLit(int(tok)) if tok.isdigit() else Const(tok) if tok in CONSTANTS else Var(tok)


class _Parser:
    """Recursive descent; each rule returns (node, height of its tree).
    `free` collects the names of the tree's Var nodes as they are built,
    but not x inside a quadrature body, which becomes BoundVar there."""

    def __init__(self, text: str):
        if not text.isascii():
            text = text.translate(_SYMBOL_MAP)  # one character for one: offsets stay
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", *_location(text, bad.start()))
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.pos = 0  # the index of the next token
        self.nesting = 0  # open unary() calls: every recursion passes there
        self.bodies = 0  # open quadrature bodies
        self.free: set = set()

    def error(self, message: str, at: int, expected=()) -> ParseError:
        """The error at token number `at`."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return ParseError(message, *_location(self.text, starts[at]), expected=expected)

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"got {tok or 'end of input'!r}", self.pos, expected={text})
        self.pos += 1

    def deeper(self, height: int, at: int) -> int:
        if height > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} levels", at)
        return height

    def parse(self) -> Expr:
        e, _ = self.expr()
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.pos, expected={"end of input"})
        return e

    def expr(self, level: int = 1) -> tuple[Expr, int]:
        """Level 1 joins terms by + and -, level 2 (a term) joins unary()
        operands by * and /; both associate to the left."""
        e, h = self.expr(2) if level == 1 else self.unary()
        while _LEVELS.get(op := self.tokens[self.pos]) == level:
            at = self.pos
            self.pos += 1
            right, rh = self.expr(2) if level == 1 else self.unary()
            e, h = BinOp(op, e, right), self.deeper(1 + max(h, rh), at)
        return e, h

    def unary(self) -> tuple[Expr, int]:
        """A negation, or an atom with an optional ^ exponent (right associative,
        binding tighter than a minus on its left); an error leaves `nesting` high."""
        at = self.pos
        self.nesting = self.deeper(self.nesting + 1, at)
        if self.tokens[at] == "-":
            self.pos += 1
            arg, h = self.unary()
            e, h = Neg(arg), self.deeper(h + 1, at)
        else:
            e, h = self.atom()
            if self.tokens[self.pos] == "^":
                caret = self.pos
                self.pos += 1
                exponent, eh = self.unary()
                e, h = Pow(e, self.exponent(exponent, caret)), self.deeper(1 + max(h, eh), caret)
        self.nesting -= 1
        return e, h

    def exponent(self, e: Expr, caret: int) -> Expr:
        p = integer_poly(e)
        if p is not None and poly_integral(p):
            return e
        if poly_constant(p) is not None:
            return RatLit(poly_constant(p))
        raise self.error("exponent must be an integer expression or a rational literal", caret)

    def atom(self) -> tuple[Expr, int]:
        at = self.pos
        tok = self.tokens[at]
        self.pos = at + 1
        if tok.isdigit():
            try:
                return _leaf(tok), 1
            except ValueError as exc:  # more digits than int() converts
                raise self.error(str(exc), at) from None
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.isidentifier():
            if self.tokens[self.pos] == "(":
                return self.call(tok, at)
            leaf = _leaf(tok)
            if type(leaf) is Var and not (self.bodies and tok == QUAD_VAR):
                self.free.add(tok)
            return leaf, 1
        raise self.error(f"got {tok or 'end of input'!r}", at, expected={"integer", "identifier", "("})

    def call(self, ident: str, at: int) -> tuple[Expr, int]:
        self.pos += 1  # the "(" seen by atom()
        body = ident == "quad"  # the first argument is a quadrature body
        self.bodies += body
        args = [self.expr()]
        self.bodies -= body
        while self.tokens[self.pos] == ",":
            self.pos += 1
            args.append(self.expr())
        self.expect(")")
        h = self.deeper(1 + max(ah for _, ah in args), at)
        args = [a for a, _ in args]
        if ident in FUNCTION_NAMES:
            if len(args) != 1:
                raise self.error(f"{ident} takes one argument", at)
            return Fn(ident, args[0]), h
        if ident in SEQUENCES:
            arity = SEQUENCES[ident][1]
            if len(args) != arity:
                raise self.error(f"{ident} takes {arity} argument(s)", at)
            return SeqCall(ident, tuple(args)), h
        if ident == "quad":
            if len(args) != 3:
                raise self.error("quad takes (body, lower, upper)", at)
            # the body's x is its own variable; a quad nested in the body is
            # resolved already, and x in its bounds is this body's variable
            return Quad(substitute(args[0], QUAD_VAR, BoundVar()), args[1], args[2]), h
        if ident == "cl2":
            if len(args) != 1:
                raise self.error("cl2 takes one argument", at)
            return Clausen(args[0]), h
        raise self.error(f"unknown function {ident!r}", at)


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
    text = kv["ratio"]
    digits = text.upper().partition("E")[2].lstrip("+-").replace("_", "").lstrip("0")
    if len(digits) > 4 and digits.isdecimal():  # Fraction(text) would build 10^|exponent|
        raise ValueError(f"geometric ratio {text!r} has an exponent of more than 4 digits")
    try:
        ratio = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"geometric ratio {text!r} divides by zero") from None
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


# A header alone on its line, one `key = value` pair (and the group `rest`
# when only blanks or a comment follow it), or the blank or comment-only
# rest of a line; `match` at position 0, then after each pair.
_PAIR_RE = re.compile(
    r'^\s*(\[identity\])\s*(?:#.*)?$'
    r'|\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*'
    r'(?:"((?:[^"\\]|\\["\\])*)"|(true|false|-?\d+)(?![^\s#]))(\s*(?:#.*)?$)?'
    r'|\s*(?:#.*)?$'
)


def parse_registry(text: str) -> ParsedRegistry:
    """Parse registry text; malformed records become diagnostics, not aborts."""
    out = ParsedRegistry()
    blocks = []  # (line of the header, {key: value})
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while m := _PAIR_RE.match(line, pos):
            header, key, string, bare, rest = m.groups()
            if header:
                blocks.append((lineno, {}))
                break
            if not key:
                break  # blank or comment to the end of the line
            if not blocks:
                out.problems.append(RegistryProblem(lineno, "", "content before first [identity] block"))
                break
            block = blocks[-1][1]
            if key in block:
                out.problems.append(RegistryProblem(lineno, block.get("id", ""), f"duplicate key {key!r}"))
            if bare is None:
                block[key] = re.sub(r'\\(["\\])', r"\1", string) if "\\" in string else string
            elif bare in ("true", "false"):
                block[key] = bare == "true"
            else:
                try:
                    block[key] = int(bare)
                except ValueError as exc:  # more digits than int() converts
                    out.problems.append(RegistryProblem(lineno, block.get("id", ""), f"{key}: {exc}"))
                    break
            if rest is not None:
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
    return IdentityRecord(rid, kind, paper, lhs, rhs, params, tail, as_printed, note, digits)


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
