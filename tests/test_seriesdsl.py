import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcat.errors import ParseError
from fibcat.expr import (
    FUNCTION_NAMES,
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
    free_vars,
)
from fibcat.seriesdsl import (
    MAX_DEPTH,
    AlgebraicTail,
    GeometricTail,
    ParsedRegistry,
    SeriesSpec,
    _parse_free,
    builtin_registry,
    format_expr,
    parse_expression,
    parse_params,
    parse_registry,
    parse_tail,
    serialize_record,
)


def test_parse_contract_examples():
    e = parse_expression("C(n)/5^n")
    assert isinstance(e, BinOp) and e.op == "/"
    assert isinstance(e.left, SeqCall) and isinstance(e.right, Pow)

    e = parse_expression("(-1)^n * C(2*n)")
    assert isinstance(e, BinOp) and e.op == "*"

    e = parse_expression("2*(z+8)/(4−z)^2")  # unicode minus accepted
    assert free_vars(e) == {"z"}


def test_precedence():
    assert format_expr(parse_expression("-2^2")) == "-2^2"
    assert parse_expression("-2^2") == parse_expression("-(2^2)")
    assert parse_expression("2*x^3") == parse_expression("2*(x^3)")
    assert parse_expression("2^-3") == parse_expression("2^(-3)")
    assert parse_expression("a-b-c") == parse_expression("(a-b)-c")
    assert parse_expression("a-b*c") == parse_expression("a-(b*c)")


def test_rational_literal_exponent():
    e = parse_expression("(4-z)^(5/2)")
    assert e.exponent == RatLit(Fraction(5, 2))
    e = parse_expression("x^(-1/2)")
    assert e.exponent == RatLit(Fraction(-1, 2))


def test_exponent_grammar_rejections():
    with pytest.raises(ParseError):
        parse_expression("2^sqrt(2)")
    with pytest.raises(ParseError):
        parse_expression("2^(n/2)")
    with pytest.raises(ParseError):
        parse_expression("2^pi")


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as info:
        parse_expression("C(n")
    assert info.value.line == 1
    assert ")" in info.value.expected
    with pytest.raises(ParseError):
        parse_expression("1 +")


def test_parse_tail():
    t = parse_tail("geometric ratio=9/10 from=1")
    assert t == GeometricTail(Fraction(9, 10), 1)
    assert parse_tail("algebraic") == AlgebraicTail()
    assert str(AlgebraicTail()) == "algebraic"
    assert parse_tail("geometric ratio=1/2") == GeometricTail(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        parse_tail("geometric ratio=3/2 from=1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("algebraic ladder=-1/2,-3/2,-5/2 order=7", "unknown tail key 'ladder'"),  # the keys of older registries
        ("algebraic order=3", "unknown tail key 'order'"),
        ("geometric ratio=9/10 form=1", "unknown tail key 'form'"),
        ("geometric ratio=9/10 ratio=1/2", "repeated tail key 'ratio'"),
        ("geometric =9/10", "is not key=value"),
        ("geometric ratio", "is not key=value"),
        ("geometric from=1", "needs ratio="),
        ("geometric ratio=1/0", "divides by zero"),
        ("geometric ratio=x", "Invalid literal"),
        ("", "unknown tail mode ''"),
        ("harmonic", "unknown tail mode 'harmonic'"),
    ],
)
def test_parse_tail_refuses_what_it_does_not_read(text, message):
    with pytest.raises(ValueError, match=message):
        parse_tail(text)


def test_a_ratio_with_a_huge_exponent_is_refused_before_it_is_built():
    # Fraction("1e-999999999") would first build 10^999999999
    started = time.perf_counter()
    for ratio in ("1e-999999999", "1E+10000", "5e-1_0000"):
        with pytest.raises(ValueError, match="has an exponent of more than 4 digits"):
            parse_tail(f"geometric ratio={ratio}")
    block = _block(*_SERIES, 'tail = "geometric ratio=1e-999999999"')
    assert [p.line for p in parse_registry(block).problems] == [3]
    assert time.perf_counter() - started < 0.5
    assert parse_tail("geometric ratio=5e-1").ratio == Fraction(1, 2)
    assert parse_tail("geometric ratio=1e-00000001").ratio == Fraction(1, 10)
    with pytest.raises(ValueError, match="Invalid literal"):
        parse_tail("geometric ratio=x")
    for record in builtin_registry():
        if isinstance(record.tail, GeometricTail):
            assert parse_tail(str(record.tail)) == record.tail


def test_builtin_registry_loads_clean():
    records = builtin_registry()
    assert len(records) > 120
    ids = [r.id for r in records]
    assert len(ids) == len(set(ids))


def test_s2_file_has_twenty_plus_records():
    from fibcat.seriesdsl import _REGISTRY_DIR

    parsed = parse_registry((_REGISTRY_DIR / "paper_s2.reg").read_text())
    assert not parsed.problems
    assert len(parsed.records) >= 20


def test_round_trip_all_shipped_records():
    for record in builtin_registry():
        parsed = parse_registry(serialize_record(record))
        assert not parsed.problems
        assert parsed.records == [record]


def test_builtin_contents():
    by_id = {r.id: r for r in builtin_registry()}
    euler = by_id["s5.Y.euler"]
    assert euler.rhs == parse_expression("pi^2/18")
    corrected = by_id["s2.G2t.sqrt2"]
    printed = by_id["s2.G2t.sqrt2.printed"]
    assert isinstance(corrected.lhs, SeriesSpec) and corrected.lhs.start == 0
    assert printed.lhs.start == 1 and printed.as_printed
    assert not corrected.as_printed


def test_source_tags_nonempty_and_unique():
    records = builtin_registry()
    tags = [r.paper_ref for r in records]
    assert all(tags)
    assert len(tags) == len(set(tags))


def test_series_records_declare_their_free_variables():
    for r in builtin_registry():
        names = {p[0] for p in r.params}
        if isinstance(r.lhs, SeriesSpec):
            assert free_vars(r.lhs.term) <= names | {r.lhs.index}
            assert free_vars(r.rhs) <= names
            assert r.tail is not None


def test_duplicate_id_reported_with_both_lines():
    text = """
[identity]
id = "dup"
kind = "constant"
paper = "one"
lhs = "1"
rhs = "1"

[identity]
id = "dup"
kind = "constant"
paper = "two"
lhs = "2"
rhs = "2"
"""
    parsed = parse_registry(text)
    assert len(parsed.records) == 1
    assert len(parsed.problems) == 1
    assert "line 2" in str(parsed.problems[0]) or "first defined" in str(parsed.problems[0])


def test_series_without_tail_is_rejected_but_rest_survives():
    text = """
[identity]
id = "bad.series"
kind = "series"
paper = "x"
index = "n"  start = 0
term = "C(n)/5^n"
rhs = "2"
params = ""

[identity]
id = "good"
kind = "constant"
paper = "y"
lhs = "1"
rhs = "1"
"""
    parsed = parse_registry(text)
    assert [r.id for r in parsed.records] == ["good"]
    assert any("tail" in p.message for p in parsed.problems)


@pytest.mark.parametrize(
    "text, column",
    [
        ("(" * 300 + "1" + ")" * 300, MAX_DEPTH + 1),  # the parser would recurse
        ("+".join(["1"] * 3001), 2 * MAX_DEPTH),  # free_vars would recurse
        ("-" * 1000 + "1", MAX_DEPTH + 1),
    ],
)
def test_too_deep_expression_is_a_parse_error(text, column):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert (info.value.line, info.value.column) == (1, column)
    assert f"deeper than {MAX_DEPTH} levels" in str(info.value)


def test_depth_limit_counts_tree_levels():
    parse_expression("-" * (MAX_DEPTH - 1) + "1")  # MAX_DEPTH levels
    parse_expression("+".join(["1"] * MAX_DEPTH))
    with pytest.raises(ParseError):
        parse_expression("-" * MAX_DEPTH + "1")
    with pytest.raises(ParseError):
        parse_expression("+".join(["1"] * (MAX_DEPTH + 1)))


def test_deep_lhs_and_empty_range_are_registry_problems():
    deep = "+".join(["1"] * 3001)
    text = f"""
[identity]
id = "deep" kind = "constant" paper = "x" lhs = "{deep}" rhs = "3001"

[identity]
id = "empty" kind = "constant" paper = "x" lhs = "n" rhs = "n" params = "n=5..1"

[identity]
id = "good" kind = "constant" paper = "y" lhs = "n" rhs = "n" params = "n=1..5"
"""
    parsed = parse_registry(text)
    assert [r.id for r in parsed.records] == ["good"]
    assert [(p.record_id, p.line) for p in parsed.problems] == [("deep", 2), ("empty", 5)]
    assert "deeper than" in parsed.problems[0].message
    assert "empty parameter range 'n=5..1'" in parsed.problems[1].message


def test_parse_params_ranges():
    assert parse_params("n=1..3 r=4 s=-2..-2") == (("n", 1, 3), ("r", 4, 4), ("s", -2, -2))
    for bad in ("n=5..1", "n=1..", "n=", "n", "1=2", "n=1..2 n=5"):
        with pytest.raises(ValueError):
            parse_params(bad)


def test_trailing_comment_outside_string():
    text = """
[identity]
id = "c"
kind = "constant"
paper = "tag"
lhs = "1"            # or "2"
rhs = "1"
params = ""
"""
    parsed = parse_registry(text)
    assert not parsed.problems
    assert parsed.records[0].lhs == parse_expression("1")


def test_quoted_escapes():
    text = '[identity]\nid = "e"\nkind = "constant"\npaper = "with \\"quote\\" and \\\\"\nlhs = "1"\nrhs = "1"\n'
    parsed = parse_registry(text)
    assert not parsed.problems
    assert parsed.records[0].paper_ref == 'with "quote" and \\'


def _block(*pairs):
    return "\n".join(["# a block", "", "[identity]", 'id = "t" paper = "p"', *pairs]) + "\n"


_SERIES = ('kind = "series"', 'index = "n"  start = 0', 'term = "1/2^n"', 'rhs = "2"')
_TAIL = 'tail = "geometric ratio=1/2"'


@pytest.mark.parametrize(
    "pairs, message",
    [
        (_SERIES + (_TAIL, "digit = 60"), "series records take no key 'digit'"),
        (_SERIES + (_TAIL, 'lhs = "2"'), "series records take no key 'lhs'"),
        (('kind = "constant"', 'lhs = "1"', 'rhs = "1"', _TAIL), "constant records take no key 'tail'"),
        (('kind = "integral"', 'lhs = "1"', 'rhs = "1"', "start = 0"), "integral records take no key 'start'"),
        (('kind = "algebraic"', 'lhs = "1"', 'rhs = "1"', 'term = "1"'), "algebraic records take no key 'term'"),
        (_SERIES + ('tail = "geometric ratio=9/10 form=1"',), "unknown tail key 'form'"),
        (_SERIES + ('tail = "geometric ratio=9/10 ratio=1/2"',), "repeated tail key 'ratio'"),
        (_SERIES + ('tail = "algebraic ladder=-2"',), "unknown tail key 'ladder'"),
        (_SERIES[:1] + ('index = "n"  start = true',) + _SERIES[2:] + (_TAIL,), "start must be an integer"),
        (('kind = "constant"', 'lhs = "1"', 'rhs = "1"', "digits = false"), "digits must be an integer"),
        (('kind = "constant"', 'lhs = "n"', 'rhs = "n"', 'params = "n=1..2 n=5"'), "repeated parameter 'n'"),
    ],
)
def test_keys_and_values_nothing_reads_are_registry_problems(pairs, message):
    parsed = parse_registry(_block(*pairs))
    assert parsed.records == []
    assert [(p.line, p.record_id) for p in parsed.problems] == [(3, "t")]  # the block's line
    assert message in parsed.problems[0].message


def test_the_example_block_parses_with_each_shape():
    for pairs in (_SERIES + (_TAIL,), ('kind = "constant"', 'lhs = "1"', 'rhs = "1"', "digits = 60")):
        parsed = parse_registry(_block(*pairs))
        assert not parsed.problems and [r.id for r in parsed.records] == ["t"]


@pytest.mark.parametrize(
    "line, message",
    [
        ('id = "unterminated', "column 1: expected key = value"),
        ('id = "bad \\q escape"', "column 1: expected key = value"),
        ('note = "" start = 1.5', "column 10: expected key = value, got 'start = 1.5'"),
        ("start = 0x", "expected key = value"),
        ("start =", "expected key = value"),
        ("= 1", "expected key = value"),
        ('[identity] id = "x"', "expected key = value"),
        ("bare words", "expected key = value"),
        ("digits = " + "9" * 5000, "digits: Exceeds the limit"),
    ],
)
def test_a_malformed_line_is_a_problem_on_its_line(line, message):
    parsed = parse_registry(_block(*_SERIES, _TAIL, line))
    assert [p.line for p in parsed.problems] == [10]
    assert message in parsed.problems[0].message


def test_expression_error_on_a_later_line_of_the_string():
    with pytest.raises(ParseError) as info:
        parse_expression("1 +\n  2 * )")
    assert (info.value.line, info.value.column) == (2, 7)
    with pytest.raises(ParseError) as info:
        parse_expression("2^\n (n/2)")
    assert (info.value.line, info.value.column) == (1, 2)  # the caret
    with pytest.raises(ParseError) as info:
        parse_expression("1 + 2\n\n  ; 3")
    assert (info.value.line, info.value.column) == (3, 3)
    assert "unexpected character ';'" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_expression("1 +\n " + "9" * 5000)
    assert (info.value.line, info.value.column) == (2, 2)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("n − 2 × 3 )", 1, 11),  # − and × are one character each
        ("C(n) ÷ (2 − n) ×× 3", 1, 17),
        ("1 +\n  2 × (3 −\n 4))", 3, 4),
        ("quad(x,\n 0,\n\t1\n)\n  )", 5, 3),
    ],
)
def test_a_parse_error_names_its_exact_line_and_column(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert (info.value.line, info.value.column) == (line, column)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("0123n ()+-*/^\n\t,x@−C"), max_size=40) | st.text(max_size=40))
def test_parse_error_locates_inside_the_text(text):
    try:
        parse_expression(text)
    except ParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_expression_parser_total(text):
    try:
        result = parse_expression(text)
        assert isinstance(result, Expr)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_registry_parser_total(text):
    parsed = parse_registry(text)
    assert isinstance(parsed, ParsedRegistry)


# trees as the parser builds them, nonnegative literals and a rational
# literal only as an exponent, and every quadrature that can be built,
# BoundVar and Var("x") at any depth
_exponents = st.one_of(st.integers(0, 4).map(IntLit), st.just(Var("n")), st.just(RatLit(Fraction(1, 2))))


def _quad(body, lower, upper):
    try:
        return Quad(body, lower, upper)
    except ValueError:  # a body that reads Var("x")
        return None


def _tree_strategy(leaves, bodies=None):
    """Trees over `leaves`, with quadratures over `bodies` when given."""

    def extend(kids):
        nodes = [
            st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
            st.builds(Neg, kids),
            st.builds(Fn, st.sampled_from(FUNCTION_NAMES), kids),
            st.builds(Pow, kids, _exponents),
            st.builds(lambda name, a: SeqCall(name, (a,)), st.sampled_from("CFL"), kids),
            st.builds(Clausen, kids),
        ]
        if bodies is not None:
            nodes.append(st.builds(_quad, bodies, kids, kids).filter(lambda q: q is not None))
        return st.one_of(nodes)

    return st.recursive(leaves, extend, max_leaves=6)


_names = st.one_of(st.integers(0, 9).map(IntLit), st.sampled_from(["n", "s", "x"]).map(Var), st.just(Const("pi")))
_in_body = _names | st.just(BoundVar())
# a quadrature nested in a body, whose bounds read the outer body's variable
_trees = _tree_strategy(_names, _tree_strategy(_in_body, _tree_strategy(_in_body)))


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_a_printed_tree_parses_back_to_itself(e):
    assert parse_expression(format_expr(e)) == e


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_the_parser_collects_the_free_names_of_its_tree(e):
    # what the registry checks against its declared names, without a walk
    tree, free = _parse_free(format_expr(e))
    assert tree == e and free == free_vars(e)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_trailing_input_is_located_at_its_exact_column(e):
    text = format_expr(e) + " )"
    with pytest.raises(ParseError, match="trailing input '\\)'") as info:
        parse_expression(text)
    assert (info.value.line, info.value.column) == (1, len(text))


def test_a_quadrature_body_that_reads_var_x_is_refused():
    # it would print as quad(x, 0, x) and parse back with the body's own x
    with pytest.raises(ValueError, match="a quadrature body reads Var"):
        Quad(Var("x"), IntLit(0), Var("x"))
    with pytest.raises(ValueError, match="a quadrature body reads Var"):
        Quad(Quad(BoundVar(), IntLit(0), Var("x")), IntLit(0), IntLit(1))
    assert format_expr(Quad(BoundVar(), IntLit(0), Var("x"))) == "quad(x, 0, x)"
