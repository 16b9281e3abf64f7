import itertools
import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcat import arbreal as ar
from fibcat.arbreal import core, quadrature
from fibcat.errors import ConvergenceError, DomainError

CTX = core.context(80)


def close(a: Decimal, b: Decimal, eps: str) -> bool:
    return CTX.subtract(a, b).copy_abs() < Decimal(eps)


def test_sqrt_exact_square():
    assert ar.sqrt(Decimal(4), 30) == 2


def test_sqrt_against_library_newton_oracle():
    # math.isqrt on the scaled integer is the independent oracle:
    # r = floor(sqrt(x) 10^s), and a correctly rounded 40-digit root lies
    # within half a unit of its last digit of r / 10^s
    for x, s in (("5", 49), ("0.0375", 50), ("123456.75", 46), ("7E-91", 90)):
        mine = ar.sqrt(Decimal(x), 40)
        r = math.isqrt(int(Fraction(x) * 10 ** (2 * s)))
        unit = Fraction(10) ** (mine.adjusted() - 39)
        assert abs(Fraction(mine) - Fraction(r, 10**s)) <= unit / 2 + Fraction(1, 10**s)
    assert str(ar.sqrt(Decimal(5), 40)).startswith("2.2360679774997896")


def test_nth_root_is_iterated_sqrt():
    quartic = ar.nth_root(Decimal(5), 4, 40)
    twice = ar.sqrt(ar.sqrt(Decimal(5), 60), 60)
    assert close(quartic, twice, "1E-39")
    assert str(quartic).startswith("1.4953487812212205")


@pytest.mark.parametrize("x", ["1e1000000", "3e-1000000", "7.5e999999", "0.0375"])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_nth_root_of_a_huge_decimal_exponent(x, n):
    # x = m 10^(n e) is split before the integer root, so 10^1000000 is never built
    ctx = core.context(40)
    ratio = ctx.divide(ctx.power(ar.nth_root(Decimal(x), n, 35), n), Decimal(x))
    assert ctx.subtract(ratio, 1).copy_abs() < Decimal("1e-33")


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        ar.sqrt(Decimal(-1), 20)
    with pytest.raises(DomainError):
        ar.arcsin(Decimal("1.5"), 20)


def test_pi_two_routes_agree_to_50():
    assert str(ar.const_pi(15)).startswith("3.14159265358979")
    assert close(ar.const_pi(50), ar.const_pi_check(50), "1E-49")


def test_catalan_constant_two_routes():
    series = ar.const_catalan_g(50)
    clausen = ar.catalan_g_check(50)
    assert close(series, clausen, "1E-49")
    assert str(ar.const_catalan_g(15)).startswith("0.915965594177219")


def test_catalan_constant_against_defining_series_bracket():
    # alternating defining series sum_i (-1)^i/(2i+1)^2: consecutive partial
    # sums bracket the limit; floor-scaled integers keep the bracket exact
    scale = 10**30
    n_terms = 100000
    partial = 0
    for i in range(n_terms):
        term = scale // (2 * i + 1) ** 2
        partial += -term if i % 2 else term
    # the next term bounds the remainder, floor error adds n_terms/scale
    slack = Fraction(n_terms, scale) + Fraction(1, (2 * n_terms + 1) ** 2)
    g = Fraction(str(ar.const_catalan_g(30)))
    assert abs(g - Fraction(partial, scale)) <= slack


def test_zeta3_two_routes():
    assert close(ar.const_zeta3(50), ar.zeta3_check(50), "1E-49")
    assert str(ar.const_zeta3(15)).startswith("1.20205690315959")


def test_zeta3_direct_partial_sum_with_integral_tail_bracket():
    # sum_{n<N} n^-3 plus the integral bounds on the remainder brackets
    # zeta(3) to about 1e-15 at N = 1e5; the series value must land inside
    big_n = 100000
    scale = 10**30
    partial = sum(scale // n**3 for n in range(1, big_n))
    lo = Fraction(partial, scale) + Fraction(1, 2 * big_n**2)
    hi = Fraction(partial + big_n, scale) + Fraction(1, 2 * (big_n - 1) ** 2)
    z3 = Fraction(str(ar.const_zeta3(30)))
    assert lo <= z3 <= hi


def test_ln_alpha_two_routes():
    assert close(ar.ln_alpha(50), ar.ln_alpha_check(50), "1E-49")


def test_ln_against_library():
    for x in ("2", "10", "0.0375", "123456.75"):
        mine = ar.ln(Decimal(x), 40)
        ref = Context(prec=50).ln(Decimal(x))
        assert close(mine, ref, "1E-38")
    with pytest.raises(DomainError):
        ar.ln(Decimal(0), 10)


def within_units(got: Decimal, want: Decimal, digits: int) -> bool:
    """|got - want| is at most one unit in the digits-th significant digit of want."""
    unit = CTX.scaleb(Decimal(1), want.adjusted() - digits + 1)
    return CTX.subtract(got, want).copy_abs() <= unit


@pytest.mark.parametrize(
    "f, x, want",
    [
        (ar.sin, "1e60", "0.8303897652193426646640617854213287566412"),
        (ar.cos, "1e60", "-0.5571829482485667089729164205913989926891"),
        (ar.sin, "1e30", "-0.0901169019121380580303864289529873302744"),
        (
            ar.sin,
            "3.14159265358979323846264338327950288419716939937510582097494459",
            "2.307816406286208998628034825342117067982E-63",
        ),
        (
            ar.cos,
            "1.570796326794896619231321691639751442098584699687552910487472296",
            "1.539082031431044993140174126710585339911E-64",
        ),
    ],
)
def test_sin_cos_at_large_arguments_and_near_zeros(f, x, want):
    # references from a 300-digit evaluation; x near a multiple of pi/2
    # cancels every leading bit of the reduced argument
    assert within_units(f(Decimal(x), 30), Decimal(want), 30)


def test_sin_of_tiny_argument_keeps_relative_accuracy():
    # tanh-sinh endpoint offsets reach below 1e-100, where x/sin(x) needs sin's relative accuracy
    assert ar.sin(Decimal("1e-100"), 40) == Decimal("1e-100")


@pytest.mark.parametrize("x", ["1e-3", "-3e-6", "1.5e-12", "7e-21", "2e-35"])
@pytest.mark.parametrize("d", [10, 40, 60])
def test_sin_of_small_arguments_against_exact_taylor(x, d):
    # 14 Taylor terms in exact rationals leave less than x^29/29! < 1e-117
    f = Fraction(x)
    want = sum(Fraction((-1) ** k) * f ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(14))
    want = Context(prec=100).divide(Decimal(want.numerator), Decimal(want.denominator))
    assert within_units(ar.sin(Decimal(x), d), want, d)


_kernel_args = st.builds(
    lambda m, e, neg: Decimal(-m if neg else m).scaleb(e),
    st.integers(10**11, 10**12 - 1),
    st.integers(-131, 28),
    st.booleans(),
)  # |x| from 1e-120 to 1e40


@settings(max_examples=300, deadline=None)
@given(_kernel_args, st.integers(5, 60))
def test_kernels_match_themselves_at_thirty_more_digits(x, d):
    for f, arg in ((ar.sin, x), (ar.cos, x), (ar.ln, x.copy_abs()), (ar.clausen2, x)):
        assert within_units(f(arg, d), f(arg, d + 30), d)


_PI_GAUSS = ar.const_pi_check(260)  # not the Machin pi that sin, cos and Cl2 reduce against


@st.composite
def _near_quarter_turns(draw):
    """(x, d, m, t): x = m pi/2 + t to k + d + 30 digits, 0 < |t| < 10^-k for a
    k up to d + 30, and t recomputed from x with Gauss's pi."""
    d = draw(st.integers(5, 60))
    k = draw(st.integers(1, d + 30))
    m = draw(st.integers(-40, 40))
    t = Decimal(draw(st.integers(-(10**6) + 1, 10**6 - 1).filter(bool))).scaleb(-k - 6)
    ctx = core.context(250)
    x = core.context(k + d + 30).add(ctx.multiply(m, ctx.divide(_PI_GAUSS, 2)), t)
    return x, d, m, ctx.subtract(x, ctx.multiply(m, ctx.divide(_PI_GAUSS, 2)))


def _sin_cos_taylor(t: Decimal):
    """(sin t, cos t) for |t| < 1 by their Taylor series at 250 digits."""
    ctx = core.context(250)
    sin = cos = Decimal(0)
    term, j = Decimal(1), 0  # t^j / j!
    while term.copy_abs() > Decimal("1E-250") or j < 2:
        if j % 2:
            sin = ctx.add(sin, term if j % 4 == 1 else ctx.minus(term))
        else:
            cos = ctx.add(cos, term if j % 4 == 0 else ctx.minus(term))
        j += 1
        term = ctx.divide(ctx.multiply(term, t), j)
    return sin, cos


@settings(max_examples=200, deadline=None)
@given(_near_quarter_turns())
def test_sin_cos_and_clausen_next_to_a_multiple_of_a_quarter_turn(case):
    # the reduction modulo 2 pi cancels up to d + 36 leading digits here:
    # sin and cos keep their relative accuracy, against the Taylor series
    # of t, and Cl2 agrees with its value at the argument taken off 2 pi j by hand
    x, d, m, t = case
    ctx = core.context(250)
    s, c = _sin_cos_taylor(t)
    quarter = [s, c, ctx.minus(s), ctx.minus(c)]  # sin(m pi/2 + t), m = 0, 1, 2, 3 modulo 4
    assert within_units(ar.sin(x, d), quarter[m % 4], d)
    assert within_units(ar.cos(x, d), quarter[(m + 1) % 4], d)
    j = (m + 2) // 4  # m - 4j lies in [-2, 1]
    reduced = ctx.subtract(x, ctx.multiply(2 * j, _PI_GAUSS))
    assert within_units(ar.clausen2(x, d), ar.clausen2(reduced, d + 30), d)


@settings(max_examples=300, deadline=None)
@given(_kernel_args, st.integers(5, 60))
def test_ln_matches_the_library_logarithm(x, d):
    x = x.copy_abs()
    assert within_units(ar.ln(x, d), Context(prec=d + 20).ln(x), d)


@pytest.mark.parametrize("x", ["1.000000000000000000000000000000000000000000000000000000000001",
                               "0.999999999999999999999999999999999999999999999999999999999999"])
@pytest.mark.parametrize("d", [10, 40])
def test_ln_near_one_keeps_relative_accuracy(x, d):
    x = Decimal(x)
    assert within_units(ar.ln(x, d), Context(prec=d + 20).ln(x), d)


@pytest.mark.parametrize("x", ["3e-1000000", "7e999999"])
def test_ln_of_a_huge_decimal_exponent(x):
    # the decimal exponent is split off, so 10^1000000 is never built
    x = Decimal(x)
    assert within_units(ar.ln(x, 30), core.context(50).ln(x), 30)


def test_pi_routes_agree_to_1000_digits():
    # Machin and Gauss arccot combinations, each rounded once from its integer
    for d in range(1, 1001):
        assert ar.const_pi(d) == ar.const_pi_check(d)


@pytest.mark.parametrize("x", ["1e-3", "-3e-6", "1.5e-12", "7e-21", "2e-35", "0.3", "-0.39", "1e-100"])
@pytest.mark.parametrize("d", [10, 40, 60])
def test_arctan_of_small_arguments_against_exact_taylor(x, d):
    # exact-rational Taylor terms down to 10^-150 relative; |x| <= 0.4 is
    # reached without a halving, so this checks the series and the tiny-x path
    f, want, k = Fraction(x), Fraction(0), 0
    while True:
        term = Fraction((-1) ** k) * f ** (2 * k + 1) / (2 * k + 1)
        want += term
        if abs(term) < abs(f) * Fraction(1, 10**150):
            break
        k += 1
    want = Context(prec=100).divide(Decimal(want.numerator), Decimal(want.denominator))
    assert within_units(ar.arctan(Decimal(x), d), want, d)


def test_arctan_of_tiny_argument_keeps_relative_accuracy():
    assert ar.arctan(Decimal("1e-100"), 40) == Decimal("1e-100")
    assert ar.arctan(Decimal("-2e-70"), 40) == Decimal("-2e-70")


@pytest.mark.parametrize("x", ["0.001", "0.4", "0.5", "1", "1.5", "7.25", "1e30"])
def test_arctan_of_x_and_its_reciprocal_sum_to_half_pi(x):
    d = 40
    x = Decimal(x)
    total = CTX.add(ar.arctan(x, d), ar.arctan(CTX.divide(1, x), d))
    assert within_units(total, CTX.divide(ar.const_pi(60), 2), d - 1)
    assert ar.arctan(x.copy_negate(), d) == ar.arctan(x, d).copy_negate()


@pytest.mark.parametrize("x", ["1e-27", "-3e-100000", "1e-1000000", "-1e-1000000"])
def test_cos_of_tiny_argument_is_one_as_the_series_gives_it(x):
    # at 30 digits the series sums 1e-26 and the shortcut takes 1e-27 on
    slow = ar.cos(Decimal("1e-26"), 30)
    got = ar.cos(Decimal(x), 30)
    assert got == slow == 1 and str(got) == str(slow)


@pytest.mark.parametrize("x", ["1e54", "-7e100000", "1e1000000", "-1e1000000"])
def test_arctan_of_huge_argument_is_half_pi_as_the_series_gives_it(x):
    # at 30 digits the series sums 1e53 and the shortcut takes 1e54 on
    slow = ar.arctan(Decimal("1e53"), 30)
    got = ar.arctan(Decimal(x), 30)
    assert got == (slow.copy_negate() if x.startswith("-") else slow)
    assert got.copy_abs() == core.round_to(CTX.divide(ar.const_pi(60), 2), 30)


def test_sin_of_a_3000_digit_argument_agrees_with_itself():
    x = Decimal("1e3000")
    assert within_units(ar.sin(x, 20), ar.sin(x, 50), 20)


def test_sin_of_pi_over_six_is_half():
    pi = ar.const_pi(60)
    val = ar.sin(CTX.divide(pi, 6), 40)
    assert close(val, CTX.divide(1, 2), "1E-39")


def test_arcsin_inverts_to_pi_over_six():
    val = ar.arcsin(CTX.divide(1, 2), 30)
    assert close(CTX.multiply(val, 6), ar.const_pi(30), "1E-28")


def test_cos_pi_over_ten_matches_surd():
    # Lemma oracle: cos(pi/10) must equal sqrt(alpha*sqrt5)/2
    pi = ar.const_pi(40)
    got = ar.cos(CTX.divide(pi, 10), 20)
    target = CTX.divide(ar.sqrt(CTX.multiply(ar.alpha_decimal(40), ar.sqrt5_decimal(40)), 40), 2)
    assert close(got, target, "1E-19")
    assert str(got).startswith("0.95105651629515")


def test_pythagorean_identity_sampled():
    p = 30
    pi = ar.const_pi(p + 10)
    for k in range(0, 11):
        x = CTX.multiply(CTX.divide(pi, 20), k)
        s, c = ar.sin(x, p), ar.cos(x, p)
        err = CTX.subtract(CTX.add(CTX.multiply(s, s), CTX.multiply(c, c)), 1)
        assert err.copy_abs() < Decimal(1).scaleb(-p + 2)


def test_arcsin_of_sin_sampled():
    p = 30
    pi = ar.const_pi(p + 10)
    for k in range(0, 10):
        x = CTX.multiply(CTX.divide(CTX.subtract(CTX.divide(pi, 2), Decimal("0.1")), 9), k)
        back = ar.arcsin(ar.sin(x, p + 5), p)
        assert CTX.subtract(back, x).copy_abs() < Decimal(1).scaleb(-p + 2)


@pytest.mark.parametrize("p", [20, 35])
def test_precision_monotonicity(p):
    samples = [
        lambda d: ar.sqrt(Decimal(7), d),
        lambda d: ar.ln(Decimal(3), d),
        lambda d: ar.sin(Decimal(1), d),
        lambda d: ar.arctan(CTX.divide(2, 3), d),
        lambda d: ar.const_catalan_g(d),
    ]
    for f in samples:
        assert CTX.subtract(f(p), f(p + 10)).copy_abs() < Decimal(1).scaleb(-p + 2)


def test_lemma1_values_numeric():
    p = 40
    pi = ar.const_pi(p + 20)
    ctx = core.context(p + 20)
    s5 = ar.sqrt5_decimal(p + 20)
    alpha, beta = ar.alpha_decimal(p + 20), ar.beta_decimal(p + 20)
    eps = Decimal(1).scaleb(-p + 2)
    checks = [
        (ar.sin(ctx.divide(pi, 10), p), ctx.divide(ctx.minus(beta), 2)),
        (ar.sin(ctx.multiply(3, ctx.divide(pi, 10)), p), ctx.divide(alpha, 2)),
        (ar.cos(ctx.divide(pi, 10), p), ctx.divide(ar.sqrt(ctx.multiply(alpha, s5), p + 10), 2)),
        (
            ar.cos(ctx.multiply(3, ctx.divide(pi, 10)), p),
            ctx.divide(ar.sqrt(ctx.multiply(ctx.minus(beta), s5), p + 10), 2),
        ),
        (
            ctx.divide(ar.cos(ctx.multiply(2, ctx.divide(pi, 5)), p), ar.sin(ctx.multiply(2, ctx.divide(pi, 5)), p)),
            ctx.multiply(
                ctx.minus(ctx.power(beta, 3)),
                ar.sqrt(ctx.divide(ctx.power(alpha, 3), s5), p + 10),
            ),
        ),
    ]
    for got, want in checks:
        assert ctx.subtract(got, want).copy_abs() < eps


def test_lemma2_values_numeric():
    p = 40
    ctx = core.context(p + 20)
    pi = ar.const_pi(p + 20)
    s5 = ar.sqrt5_decimal(p + 20)
    alpha, beta = ar.alpha_decimal(p + 20), ar.beta_decimal(p + 20)
    eps = Decimal(1).scaleb(-p + 2)
    s3 = ar.sin(ctx.multiply(3, ctx.divide(pi, 20)), p + 10)
    s1 = ar.sin(ctx.divide(pi, 20), p + 10)
    mb = ctx.minus(beta)
    want_a = ctx.divide(ctx.subtract(1, ctx.divide(ar.sqrt(ctx.multiply(mb, s5), p + 10), 2)), 2)
    assert ctx.subtract(ctx.multiply(s3, s3), want_a).copy_abs() < eps
    want_b = ctx.divide(ctx.subtract(1, ctx.divide(ar.sqrt(ctx.multiply(alpha, s5), p + 10), 2)), 2)
    assert ctx.subtract(ctx.multiply(s1, s1), want_b).copy_abs() < eps
    want_c = ctx.divide(ar.sqrt(ctx.multiply(ctx.minus(ctx.power(beta, 3)), s5), p + 10), 4)
    got_c = ctx.subtract(ctx.multiply(s3, s3), ctx.multiply(s1, s1))
    assert ctx.subtract(got_c, want_c).copy_abs() < eps
    # ratio identity: sin(3x) = (1 + sqrt(alpha sqrt5)) sin(x) at x = pi/20
    factor = ctx.add(1, ar.sqrt(ctx.multiply(alpha, s5), p + 10))
    assert ctx.subtract(s3, ctx.multiply(factor, s1)).copy_abs() < eps


def test_clausen_values():
    assert ar.clausen2(Decimal(0), 20) == 0
    pi = ar.const_pi(40)
    ctx = core.context(40)
    got = ar.clausen2(ctx.divide(pi, 2), 20)
    assert close(got, ar.const_catalan_g(25), "1E-19")
    # the defining series sum sin(n theta)/n^2 vanishes termwise at theta = pi
    assert ar.clausen2(pi, 20).copy_abs() < Decimal("1E-19")
    minus_g = ar.clausen2(ctx.multiply(pi, ctx.divide(3, 2)), 20)
    assert close(minus_g, CTX.minus(ar.const_catalan_g(25)), "1E-19")


def _bernoulli_by_recurrence(m: int) -> list[Fraction]:
    """B_0 .. B_m from sum_{j<=k} binom(k+1, j) B_j = 0, exact."""
    bs = [Fraction(1)]
    for k in range(1, m + 1):
        bs.append(-sum(math.comb(k + 1, j) * bs[j] for j in range(k)) / (k + 1))
    return bs


def test_tangent_numbers_give_the_bernoulli_numbers():
    tangent = list(itertools.islice(core.tangent_numbers(), 70))  # reads past the first table of 32
    assert tangent[:6] == [1, 2, 16, 272, 7936, 353792]
    bs = _bernoulli_by_recurrence(140)
    for k, t in enumerate(tangent, 1):
        assert Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)) == bs[2 * k], k


def _pi_times(num: int, den: int, digits: int = 60) -> Decimal:
    ctx = core.context(digits)
    return ctx.divide(ctx.multiply(ar.const_pi(digits), num), den)


def _clausen_by_tanh_sinh(theta: Decimal, digits: int) -> Decimal:
    """The defining integral -int_0^theta ln|2 sin(x/2)| dx, 0 < theta < 2 pi."""
    w = digits + core.guard_digits(digits)
    ctx = core.context(w)

    def integrand(x):
        return ctx.minus(ar.ln(ctx.multiply(2, ar.sin(ctx.divide(x, 2), w)).copy_abs(), w))

    return ar.round_to(ar.tanh_sinh(integrand, Decimal(0), theta, digits), digits)


def test_clausen_at_rational_multiples_of_pi():
    want = Decimal("1.014941606409653625021202554274520285942")
    assert ar.clausen2(_pi_times(1, 3), 40) == want
    assert ar.clausen2(_pi_times(1, 2), 40) == ar.const_catalan_g(40)
    # Cl2(2 pi/3) = (2/3) Cl2(pi/3), from the duplication formula at pi/3
    two_thirds = CTX.divide(CTX.multiply(2, ar.clausen2(_pi_times(1, 3), 45)), 3)
    assert within_units(ar.clausen2(_pi_times(2, 3), 40), two_thirds, 40)


@pytest.mark.parametrize("num, den", [(1, 7), (1, 2), (2, 3), (5, 6), (7, 5)])
def test_clausen_is_odd_and_2pi_periodic(num, den):
    theta = _pi_times(num, den)
    value = ar.clausen2(theta, 40)
    assert within_units(ar.clausen2(CTX.minus(theta), 40), CTX.minus(value), 40)
    for turns in (1, -1, 3):
        assert within_units(ar.clausen2(CTX.add(theta, _pi_times(2 * turns, 1)), 40), value, 40)


@pytest.mark.parametrize("turns", [1, 2, -1, 5])
def test_clausen_vanishes_at_multiples_of_pi(turns):
    assert ar.clausen2(_pi_times(turns, 1), 40).copy_abs() < Decimal("1E-50")


@pytest.mark.parametrize(
    "theta, want",
    [
        (ar.const_pi(60), "3.183145215205416241237081179676464264098E-60"),
        (core.context(80).multiply(ar.const_pi(60), 3), "9.549435645616248723711243539029392792294E-60"),
        (CTX.subtract(ar.const_pi(80), Decimal("1E-20")), "6.931471805599453094172321214581765680755E-21"),
    ],
    ids=["pi60", "3pi60", "pi80-1e-20"],
)
def test_clausen_next_to_an_odd_multiple_of_pi_keeps_relative_accuracy(theta, want):
    # Cl2(pi - u) = u ln 2 - u^3/24 + ...: the value is as small as theta's distance from pi
    assert within_units(ar.clausen2(theta, 40), Decimal(want), 40)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**12 - 1))
def test_clausen_duplication_formula(m):
    # Cl2(2t) = 2 Cl2(t) - 2 Cl2(pi - t) for 0 < t < pi
    t = _pi_times(m, 10**12)
    rhs = CTX.multiply(2, CTX.subtract(ar.clausen2(t, 40), ar.clausen2(CTX.subtract(ar.const_pi(60), t), 40)))
    assert close(ar.clausen2(CTX.multiply(2, t), 40), rhs, "1E-38")


@pytest.mark.parametrize("x", ["1e-30", "-1e-30"])
def test_clausen_of_a_tiny_argument_keeps_relative_accuracy(x):
    # Cl2(t) = t (1 - ln t) + t^3/72 + t^5/14400 + ...; the t^5 term lies below 1e-150
    t = Decimal(x)
    ctx = Context(prec=100)
    want = ctx.add(ctx.multiply(t, ctx.subtract(1, ctx.ln(t.copy_abs()))), ctx.divide(ctx.power(t, 3), 72))
    assert within_units(ar.clausen2(t, 40), want, 40)


def test_clausen_of_a_large_and_a_negative_argument():
    # 10^6 less its nearest multiple of 2 pi, reduced against a 100-digit pi
    ctx = core.context(100)
    tau = ctx.multiply(2, ar.const_pi(100))
    turns = ctx.divide(Decimal(10**6), tau).to_integral_value()
    reduced = ctx.subtract(Decimal(10**6), ctx.multiply(turns, tau))
    assert reduced < 0
    want = _clausen_by_tanh_sinh(ctx.add(reduced, tau), 40)
    assert within_units(ar.clausen2(Decimal(10**6), 40), want, 40)
    assert within_units(ar.clausen2(Decimal(-2), 40), _clausen_by_tanh_sinh(ctx.subtract(tau, 2), 40), 40)


@pytest.mark.parametrize("num, den", [(1, 100), (1, 6), (1, 4), (1, 2), (3, 4), (5, 6), (7, 5), (11, 6)])
def test_clausen_series_matches_the_defining_integral(num, den):
    theta = _pi_times(num, den)
    assert close(ar.clausen2(theta, 40), _clausen_by_tanh_sinh(theta, 40), "1E-40")


def test_clausen_and_catalan_check_take_no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("tanh-sinh ran")

    monkeypatch.setattr(quadrature, "tanh_sinh", refuse)
    for num, den in ((1, 6), (1, 2), (5, 3)):
        ar.clausen2(_pi_times(num, den), 40)
    ar.catalan_g_check(43)  # a precision no other test asks for, so not cached


def test_quadrature_contract_examples():
    pi = ar.const_pi(45)
    ctx = core.context(45)
    half_pi = ctx.divide(pi, 2)

    v = ar.tanh_sinh(lambda x: ar.pow_int(ar.sin(x, 40), 3, 40), Decimal(0), half_pi, 30)
    assert close(v, ctx.divide(2, 3), "1E-29")

    v = ar.tanh_sinh(
        lambda x: ctx.multiply(x, ar.sqrt(ctx.divide(ctx.subtract(4, x), x), 40)),
        Decimal(0), Decimal(4), 30,
    )
    assert close(v, ctx.multiply(2, pi), "1E-29")

    v = ar.tanh_sinh(
        lambda x: ctx.multiply(ctx.multiply(x, x), ar.sin(x, 40)), Decimal(0), half_pi, 30
    )
    assert close(v, ctx.subtract(pi, 2), "1E-29")


def test_quad_tanh_sinh_on_expression_integrand(monkeypatch):
    from fibcat import expr
    from fibcat.expr import eval_numeric
    from fibcat.seriesdsl import parse_expression

    monkeypatch.setattr(expr, "_exact_quad", lambda quad, env: None)  # x^2 sin(x) is a sine moment
    got = eval_numeric(parse_expression("quad(x^2*sin(x), 0, pi/2)"), {}, 30)
    ctx = core.context(45)
    assert close(got, ctx.subtract(ar.const_pi(45), 2), "1E-29")


def test_quadrature_polynomials_match_antiderivative():
    ctx = core.context(45)
    for k in range(9):
        v = ar.tanh_sinh(lambda x, k=k: ar.pow_int(x, k, 40), Decimal(0), Decimal(1), 30)
        assert close(v, ctx.divide(1, k + 1), "1E-30")


def test_two_exp_node_weights_match_the_four_exp_formula():
    # weight = (pi/2) cosh t / cosh(u)^2 with u = (pi/2) sinh t, computed
    # here from four exponentials; _make_nodes uses 1/cosh(u)^2 = offset (2 - offset)
    w = 54
    ctx = core.context(2 * w + 30)
    pi_half = ctx.divide(ar.const_pi(2 * w + 30), 2)
    cutoff = Decimal(1).scaleb(-(2 * w + 10))

    def cosh_sinh(v):
        ev, emv = ctx.exp(v), ctx.exp(ctx.minus(v))
        return ctx.divide(ctx.add(ev, emv), 2), ctx.divide(ctx.subtract(ev, emv), 2)

    for level in range(4):
        h = ctx.divide(1, 1 << level)
        want = []
        for k in range(0, 10**9) if level == 0 else range(1, 10**9, 2):
            cosh_t, sinh_t = cosh_sinh(ctx.multiply(k, h))
            cosh_u, _ = cosh_sinh(ctx.multiply(pi_half, sinh_t))
            weight = ctx.divide(ctx.multiply(pi_half, cosh_t), ctx.multiply(cosh_u, cosh_u))
            if weight < cutoff:
                break
            want.append(weight)
        got = [weight for _, weight in quadrature._make_nodes(w, level)]
        assert len(got) == len(want)
        for g, v in zip(got, want):
            assert ctx.subtract(g, v).copy_abs() < Decimal(1).scaleb(-(2 * w + 20))


def test_quadrature_divergent_integrand_raises():
    with pytest.raises(ConvergenceError) as info:
        ar.tanh_sinh(lambda x: core.context(25).divide(1, x), Decimal(0), Decimal(1), 10)
    assert info.value.best is not None
    assert info.value.gap is not None


def test_node_tables_are_built_once_per_precision_and_level(monkeypatch):
    built = []
    make = quadrature._make_nodes
    monkeypatch.setattr(quadrature, "_make_nodes", lambda w, level: built.append((w, level)) or make(w, level))
    quadrature._nodes.cache_clear()
    square = core.context(40).multiply
    first = ar.tanh_sinh(lambda x: square(x, x), Decimal(0), Decimal(1), 20)
    builds = len(built)
    assert ar.tanh_sinh(lambda x: square(x, x), Decimal(0), Decimal(1), 20) == first
    assert builds and len(built) == builds == len(set(built))


def test_one_context_per_precision():
    assert core.context(37) is core.context(37)
    assert core.context(37).prec == 37


def test_rational_power_paths():
    assert close(ar.pow_rational(Decimal(3), Fraction(5, 2), 30),
                 ar.sqrt(Decimal(243), 40), "1E-28")
    assert close(ar.pow_rational(Decimal(3), Fraction(1, 4), 30),
                 ar.nth_root(Decimal(3), 4, 40), "1E-29")
    with pytest.raises(DomainError):
        ar.pow_rational(Decimal(-2), Fraction(1, 2), 20)


def test_omega_forms_agree():
    # omega = sqrt(sqrt5*alpha) = sqrt(2+alpha)
    ctx = core.context(60)
    other = ar.sqrt(ctx.add(2, ar.alpha_decimal(60)), 50)
    assert close(ar.omega_decimal(50), other, "1E-49")
