import decimal
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibcat.errors import DomainError
from fibcat.exactnum import (
    ALPHA,
    BETA,
    ONE,
    SQRT5,
    PiPoly,
    QuadRat,
    binomial,
    catalan,
    fibonacci,
    lucas,
    qr_pow,
    qr_sqrt,
)


def pascal_triangle(rows):
    row = [1]
    out = [row]
    for _ in range(rows):
        row = [a + b for a, b in zip([0] + row, row + [0])]
        out.append(row)
    return out


def test_binomial_examples():
    assert binomial(0, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(10, 5) == 252


def test_binomial_against_pascal_triangle():
    triangle = pascal_triangle(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == triangle[n][k]


def test_binomial_outside_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(DomainError):
        binomial(-2, -1)


def test_catalan_examples():
    assert catalan(0) == 1
    assert catalan(3) == 5
    # recurrence oracle (n+2) C_{n+1} = 2(2n+1) C_n walked up from C_0
    c = 1
    for n in range(10):
        c = c * 2 * (2 * n + 1) // (n + 2)
    assert catalan(10) == c == 16796


def test_catalan_recurrence_to_2000():
    for n in range(0, 2000):
        assert (n + 2) * catalan(n + 1) == 2 * (2 * n + 1) * catalan(n)


def test_fibonacci_examples():
    assert fibonacci(0) == 0
    assert fibonacci(10) == 55
    assert fibonacci(-2) == -1


def test_lucas_examples():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(7) == 29
    assert lucas(-1) == -1


def test_recurrences_both_directions():
    for n in range(-500, 499):
        assert fibonacci(n + 2) == fibonacci(n + 1) + fibonacci(n)
        assert lucas(n + 2) == lucas(n + 1) + lucas(n)


def test_negative_index_extension_rules():
    for n in [*range(0, 2001), 10**5]:
        assert fibonacci(-n) == (-1) ** (n + 1) * fibonacci(n)
        assert lucas(-n) == (-1) ** n * lucas(n)


def test_lucas_fibonacci_norm_identity():
    for n in [*range(-2000, 2001), 10**5, -(10**5)]:
        assert lucas(n) ** 2 - 5 * fibonacci(n) ** 2 == 4 * (-1 if n % 2 else 1)


def test_fibonacci_doubling_identity():
    for n in [*range(-2000, 2001), 10**5, -(10**5)]:
        assert fibonacci(2 * n) == fibonacci(n) * lucas(n), n


def test_reading_c_f_and_l_keeps_no_memory_per_read():
    import tracemalloc

    # C is read at fewer n: math.comb runs slowly under tracemalloc
    for read, count in ((catalan, 600), (fibonacci, 3000), (lucas, 3000)):
        tracemalloc.start()
        try:
            read(5000)  # any one-off allocation of the reader
            before = tracemalloc.get_traced_memory()[0]
            for n in range(count):
                read(n)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16_000, (read.__name__, grown)  # a cache of the values holds 90 kB or more


def test_quadrat_sign_is_exact():
    rng = random.Random(20261019)
    ctx = decimal.Context(prec=50)
    root5 = ctx.sqrt(5)
    for _ in range(2000):
        x = _random_quadrat(rng)
        a, b = (ctx.divide(f.numerator, f.denominator) for f in (x.a, x.b))
        value = ctx.add(a, ctx.multiply(b, root5))
        assert x.sign() == value.compare(0), x
    assert QuadRat.of(0).sign() == 0
    assert (ALPHA.sign(), BETA.sign(), (-BETA).sign()) == (1, -1, 1)
    # a^2 and 5b^2 as close as small integers get: 9^2 - 5*4^2 = 1
    assert (QuadRat.of(9, -4).sign(), QuadRat.of(-9, 4).sign()) == (1, -1)
    assert (QuadRat.of(161, -72).sign(), QuadRat.of(-161, 72).sign()) == (1, -1)


def test_qr_pow_examples():
    assert qr_pow(ALPHA, 1) == QuadRat.of(Fraction(1, 2), Fraction(1, 2))
    assert qr_pow(ALPHA, 2) == QuadRat.of(Fraction(3, 2), Fraction(1, 2))
    assert qr_pow(ALPHA, 10) == QuadRat.of(Fraction(123, 2), Fraction(55, 2))


def test_a_quadrat_prints_like_a_pi_poly():
    cases = [
        (QuadRat.of(Fraction(-11, 2), Fraction(-1, 2)), "-11/2 - 1/2*sqrt5"),
        (QuadRat.of(3), "3"),
        (QuadRat.of(0), "0"),
        (SQRT5, "sqrt5"),
        (ALPHA, "1/2 + 1/2*sqrt5"),
        (QuadRat.of(0, -1), "-1*sqrt5"),
    ]
    assert [str(q) for q, _ in cases] == [text for _, text in cases]


def test_binet_exact_in_quadrat():
    for n in range(-200, 201):
        diff = qr_pow(ALPHA, n) - qr_pow(BETA, n)
        assert diff == QuadRat.of(0, fibonacci(n))  # F(n) * sqrt5
        total = qr_pow(ALPHA, n) + qr_pow(BETA, n)
        assert total == QuadRat.of(lucas(n))


def test_qr_zero_to_negative_power():
    with pytest.raises(ZeroDivisionError):
        qr_pow(QuadRat.of(0), -1)


def test_binet_powers_are_lucas_and_fibonacci_halves():
    for r in range(-200, 201):
        assert qr_pow(ALPHA, r) == QuadRat.of(Fraction(lucas(r), 2), Fraction(fibonacci(r), 2)), r
        assert qr_pow(BETA, r) == QuadRat.of(Fraction(lucas(r), 2), Fraction(-fibonacci(r), 2)), r


def test_qr_pow_zero_is_one():
    for x in (QuadRat.of(0), ONE, ALPHA, QuadRat.of(Fraction(3, 7), Fraction(-2, 9))):
        assert qr_pow(x, 0) == ONE


_unlike_denominators = st.builds(
    QuadRat.of,
    st.fractions(-9, 9, max_denominator=12),
    st.fractions(-9, 9, max_denominator=12),
).filter(lambda x: not x.is_zero())


@settings(max_examples=200, deadline=None)
@given(_unlike_denominators, st.integers(-40, 40))
@example(QuadRat.of(Fraction(3, 7), Fraction(-2, 9)), -40)
@example(QuadRat.of(Fraction(3, 7), Fraction(-2, 9)), 37)
def test_qr_pow_is_the_repeated_product(x, n):
    factor, out = (x if n >= 0 else x.inverse()), ONE
    for _ in range(abs(n)):
        out = out * factor
    assert qr_pow(x, n) == out


@settings(max_examples=200, deadline=None)
@given(_unlike_denominators)
def test_qr_sqrt_of_a_square_is_the_nonnegative_root(x):
    root = qr_sqrt(x * x)
    assert root == (x if x.sign() > 0 else -x)
    # sqrt5 is in the field, so five times a square has a root too
    assert qr_sqrt(x * x * QuadRat.of(5)) == root * SQRT5


def test_qr_sqrt_examples():
    assert qr_sqrt(QuadRat.of(0)) == QuadRat.of(0)
    assert qr_sqrt(QuadRat.of(Fraction(9, 4))) == QuadRat.of(Fraction(3, 2))
    assert qr_sqrt(QuadRat.of(5)) == SQRT5
    assert qr_sqrt(qr_pow(BETA, 2)) == -BETA  # 1/alpha
    assert qr_sqrt(qr_pow(ALPHA, 2) * QuadRat.of(Fraction(4, 5))) == ALPHA * SQRT5 * QuadRat.of(Fraction(2, 5))
    # no root: a negative value, a rational norm that is not a square, and
    # a square norm whose halves (a +- m)/2 are not
    for x in (QuadRat.of(-4), QuadRat.of(2), ALPHA, QuadRat.of(3, 1), QuadRat.of(7, 3)):
        assert qr_sqrt(x) is None, x


def _random_quadrat(rng):
    return QuadRat.of(
        Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
        Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
    )


def test_field_axioms_on_random_triples():
    rng = random.Random(20260808)
    for _ in range(1000):
        x, y, z = (_random_quadrat(rng) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).norm() == x.norm() * y.norm()
        if not y.is_zero():
            assert (x / y) * y == x


@given(
    st.integers(-30, 30), st.integers(-30, 30),
    st.integers(-30, 30), st.integers(-30, 30),
)
def test_conjugate_product_is_norm(a, b, c, d):
    x = QuadRat.of(Fraction(a, 7), Fraction(b, 5))
    y = QuadRat.of(Fraction(c, 3), Fraction(d, 11))
    conjugate = QuadRat(x.a, -x.b)
    assert (x * conjugate).b == 0
    assert (x * conjugate).a == x.norm()
    assert (x * y).norm() == x.norm() * y.norm()


def test_alpha_beta_relations():
    assert ALPHA * BETA == QuadRat.of(-1)
    assert ALPHA + BETA == QuadRat.of(1)
    assert ALPHA - BETA == SQRT5


def test_pi_laurent_polynomials():
    pi, half = PiPoly.of(1, 1), PiPoly.of(Fraction(1, 2))
    v = (pi + half) * (pi - half)  # pi^2 - 1/4
    assert v == PiPoly({(2, 0): Fraction(1), (0, 0): Fraction(-1, 4)})
    assert v - v == PiPoly() and str(v - v) == "0"
    assert v / pi == PiPoly({(1, 0): Fraction(1), (-1, 0): Fraction(-1, 4)})
    assert str(v / pi) == "-1/4*pi^-1 + pi"
    assert str(PiPoly.of(Fraction(5, 32), 1)) == "5/32*pi" and str(PiPoly.of(2)) == "2"
    assert (pi / half) ** -2 == PiPoly.of(Fraction(1, 4), -2)
    assert v**2 == v * v and v**0 == PiPoly.of(1)
    # no Laurent polynomial is 1/(pi^2 - 1/4)
    assert pi / v is None and v**-1 is None
    with pytest.raises(ZeroDivisionError):
        pi / PiPoly()


def test_pi_polynomials_over_q_sqrt2():
    root2, pi = PiPoly.of(1, 0, 1), PiPoly.of(1, 1)
    v = PiPoly.of(Fraction(256, 315)) - PiPoly.of(Fraction(107, 315), 0, 1)
    assert v == PiPoly({(0, 0): Fraction(256, 315), (0, 1): Fraction(-107, 315)})
    assert str(v) == "256/315 - 107/315*sqrt(2)"
    assert root2 * root2 == PiPoly.of(2) and root2**3 == PiPoly.of(2, 0, 1)
    # (1 + sqrt2 pi)(1 - sqrt2 pi) = 1 - 2 pi^2
    assert (PiPoly.of(1) + root2 * pi) * (PiPoly.of(1) - root2 * pi) == PiPoly({(0, 0): 1, (2, 0): Fraction(-2)})
    # division by a sqrt2 monomial: 1/(3 sqrt2 pi) = sqrt2/6 pi^-1
    assert PiPoly.of(1) / PiPoly.of(3, 1, 1) == PiPoly.of(Fraction(1, 6), -1, 1)
    assert v / root2 == PiPoly({(0, 1): Fraction(128, 315), (0, 0): Fraction(-107, 315)})
    assert (v / root2) * root2 == v
    assert root2**-1 == PiPoly.of(Fraction(1, 2), 0, 1) and (root2 * pi) ** -2 == PiPoly.of(Fraction(1, 2), -2)
    assert str(PiPoly.of(-3, 2, 1) + root2 * pi) == "sqrt(2)*pi - 3*sqrt(2)*pi^2"
    # sqrt2 is not rational and pi not in Q(sqrt2): no equal values with other coefficients
    assert root2 != PiPoly.of(Fraction(99, 70)) and root2 * pi != PiPoly.of(Fraction(4, 9), 1)
    # the field does not invert a value that is not a monomial
    assert PiPoly.of(1) / (PiPoly.of(1) + root2) is None and (PiPoly.of(1) + root2) ** -1 is None
