from decimal import Context, Decimal
from fractions import Fraction

import pytest

from fibcat import arbreal as ar
from fibcat.arbreal import core
from fibcat.errors import ConvergenceError, DomainError

CTX = core.context(80)


def close(a: Decimal, b: Decimal, eps: str) -> bool:
    return CTX.subtract(a, b).copy_abs() < Decimal(eps)


def test_sqrt_exact_square():
    assert ar.sqrt(Decimal(4), 30) == 2


def test_sqrt_against_library_newton_oracle():
    # the stdlib decimal sqrt at higher precision is the independent oracle
    mine = ar.sqrt(Decimal(5), 40)
    ref = Context(prec=50).sqrt(Decimal(5))
    assert close(mine, ref, "1E-39")
    assert str(mine).startswith("2.2360679774997896")


def test_nth_root_is_iterated_sqrt():
    quartic = ar.nth_root(Decimal(5), 4, 40)
    twice = ar.sqrt(ar.sqrt(Decimal(5), 60), 60)
    assert close(quartic, twice, "1E-39")
    assert str(quartic).startswith("1.4953487812212205")


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
    # defining series vanishes termwise at theta = pi... the integral route
    # must come back to zero as well
    assert ar.clausen2(pi, 20).copy_abs() < Decimal("1E-19")
    minus_g = ar.clausen2(ctx.multiply(pi, ctx.divide(3, 2)), 20)
    assert close(minus_g, CTX.minus(ar.const_catalan_g(25)), "1E-19")


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


def test_quad_tanh_sinh_on_expression_integrand():
    from fibcat.expr import eval_numeric
    from fibcat.seriesdsl import parse_expression

    got = eval_numeric(parse_expression("quad(x^2*sin(x), 0, pi/2)"), {}, 30)
    ctx = core.context(45)
    assert close(got, ctx.subtract(ar.const_pi(45), 2), "1E-29")


def test_quadrature_polynomials_match_antiderivative():
    ctx = core.context(45)
    for k in range(9):
        v = ar.tanh_sinh(lambda x, k=k: ar.pow_int(x, k, 40), Decimal(0), Decimal(1), 30)
        assert close(v, ctx.divide(1, k + 1), "1E-30")


def test_quadrature_divergent_integrand_raises():
    with pytest.raises(ConvergenceError) as info:
        ar.tanh_sinh(lambda x: core.context(25).divide(1, x), Decimal(0), Decimal(1), 10)
    assert info.value.best is not None
    assert info.value.gap is not None


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
