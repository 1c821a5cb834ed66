from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflag import scalars
from qflag.errors import ScalarDivisionError, ScalarMixError
from qflag.scalars import QScalar, exp_t_coefficient, lp_add, lp_exact_div, \
    lp_gcd, lp_mul, lp_neg, quantum_factorial, quantum_integer

L0 = 2


def q(exp=1):
    return QScalar.q_power(exp, L0)


def bar(x):
    """The field automorphism q -> q**-1."""
    return QScalar({-e: c for e, c in x.num.items()},
                   {-e: c for e, c in x.den.items()}, x.l0)


def test_inverse_pair():
    assert q(1) * q(-1) == QScalar.one(L0)


def test_self_division():
    x = q(1) - q(-1)
    assert x / x == QScalar.one(L0)


def test_difference_of_squares():
    lhs = (q(1) + q(-1)) * (q(1) - q(-1))
    assert lhs == q(2) - q(-2)


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ScalarDivisionError):
        q(1) / QScalar.zero(L0)
    with pytest.raises(ScalarDivisionError):
        QScalar.zero(L0).inverse()


def test_l0_mixing_is_an_error():
    with pytest.raises(ScalarMixError):
        QScalar.one(2) + QScalar.one(3)
    # the +-1 and +-q^k shortcuts come after the l0 check, on either side
    units = [QScalar.one(3), -QScalar.one(3), QScalar.q_l0(2, 3),
             -QScalar.q_l0(-1, 3)]
    others = [QScalar.zero(L0), QScalar.one(L0), q(1), q(1) + q(-1),
              QScalar({0: 1}, {0: 1, 1: 1}, L0)]
    for u in units:
        for x in others:
            for op in (lambda a, b: a * b, lambda a, b: a + b,
                       lambda a, b: a / b):
                with pytest.raises(ScalarMixError):
                    op(u, x)
                with pytest.raises(ScalarMixError):
                    op(x, u)


def test_quantum_integer_values():
    assert quantum_integer(2, 1, L0) == q(1) + q(-1)
    assert quantum_integer(0, 1, L0).is_zero()
    assert quantum_integer(1, 1, L0).is_one()
    assert quantum_integer(3, 2, L0) == q(4) + QScalar.one(L0) + q(-4)


def test_quantum_integer_palindromic():
    for n in range(7):
        for d in (1, 2, 3):
            v = quantum_integer(n, d, L0)
            assert v == bar(v)


def test_quantum_factorial():
    assert quantum_factorial(0, 1, L0).is_one()
    assert quantum_factorial(2, 1, L0) == q(1) + q(-1)
    expected = (q(1) + q(-1)) * (q(2) + QScalar.one(L0) + q(-2))
    assert quantum_factorial(3, 1, L0) == expected


def test_exp_coefficients():
    assert exp_t_coefficient(0, 1, L0).is_one()
    assert exp_t_coefficient(1, 1, L0).is_one()
    got = exp_t_coefficient(2, -1, L0)
    assert got == q(-1) / (q(1) + q(-1))


def test_exp_inverse_series_truncated_product():
    # exp_t(x) exp_{t^-1}(-x) = 1: the sum over a+b = n of
    # c_a(t) (-1)^b c_b(t^-1) is 1 at n=0 and 0 for n <= 6
    for d in (1, 2):
        for n in range(7):
            total = QScalar.zero(L0)
            for a in range(n + 1):
                term = exp_t_coefficient(a, d, L0) * \
                    exp_t_coefficient(n - a, -d, L0)
                total = total + (-term if (n - a) % 2 else term)
            if n == 0:
                assert total.is_one()
            else:
                assert total.is_zero()


def test_fractional_exponent_round_trip():
    x = QScalar.q_power(Fraction(1, 2), L0)
    assert x * x == q(1)
    with pytest.raises(ValueError):
        QScalar.q_power(Fraction(1, 3), L0)


small_scalars = st.builds(
    lambda coeffs: _poly(coeffs),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)),
             min_size=0, max_size=4))


def _poly(coeffs):
    out = QScalar.zero(L0)
    for e, c in coeffs:
        out = out + QScalar.integer(c, L0) * QScalar.q_power(e, L0)
    return out


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_scalars, small_scalars)
def test_division_round_trip(a, b):
    if b.is_zero():
        return
    assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(small_scalars)
def test_render_parse_round_trip(a):
    assert QScalar.parse(a.to_str(), L0) == a


def test_grammar_examples():
    s = QScalar.parse("(q^2 + 1 + q^-2)/(q - q^-1)", L0)
    num = q(2) + QScalar.one(L0) + q(-2)
    den = q(1) - q(-1)
    assert s == num / den
    assert QScalar.parse("q^(1/2)", L0) == QScalar.q_power(Fraction(1, 2), L0)
    assert QScalar.parse(s.to_str(), L0) == s


def test_canonical_form_means_equality():
    a = (q(2) - q(-2)) / (q(1) - q(-1))
    b = q(1) + q(-1)
    assert a == b
    assert a.to_str() == b.to_str()


# -- an oracle independent of the gcd kernel: evaluation at rational points --
#
# A scalar is a function of t = q^(1/L0); evaluating numerator and
# denominator at a rational t with Fraction arithmetic must commute with
# every field operation.  Nothing here calls lp_gcd or lp_exact_div.

laurent = st.dictionaries(st.integers(-6, 6),
                          st.integers(-5, 5).filter(bool),
                          min_size=1, max_size=4)
oracle_scalars = st.builds(lambda n, d: QScalar(n, d, L0),
                           st.one_of(st.just({}), laurent), laurent)
points = st.lists(
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 5)),
    min_size=3, max_size=3)


def _eval_lp(p, t):
    return sum((c * t ** e for e, c in p.items()), Fraction(0))


def _eval(x, t):
    """x at t, or None where its denominator vanishes."""
    den = _eval_lp(x.den, t)
    return None if den == 0 else _eval_lp(x.num, t) / den


@settings(max_examples=150, deadline=None)
@given(oracle_scalars, oracle_scalars, points)
def test_field_operations_match_evaluation(a, b, ts):
    for t in ts:
        va, vb = _eval(a, t), _eval(b, t)
        if va is None or vb is None:
            continue
        assert _eval(a + b, t) == va + vb
        assert _eval(a - b, t) == va - vb
        assert _eval(a * b, t) == va * vb
        assert _eval(bar(a), 1 / t) == va
        if not b.is_zero() and vb != 0:
            assert _eval(a / b, t) == va / vb
            assert _eval(b.inverse(), t) == 1 / vb


# coprime building blocks for gcds with a known answer: distinct
# irreducible polynomials over Z in the variable t = q^(1/L0)
_IRREDUCIBLE = [{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 1, 2: 1}, {0: 2, 1: 1},
                {0: 1, 1: 1, 2: 1}, {0: 1, 1: -1, 2: 1}, {0: 3, 1: -1},
                {0: 1, 1: 1, 3: 1}]


def _normal(p):
    """The gcd normal form: lowest exponent 0, content 1, lowest
    coefficient positive."""
    lo = min(p)
    g = 0
    for c in p.values():
        g = gcd(g, c)
    g = g if p[lo] > 0 else -g
    return {e - lo: c // g for e, c in p.items()}


def _product(factors):
    out = {0: 1}
    for f in factors:
        out = lp_mul(out, f)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(range(len(_IRREDUCIBLE))), max_size=4,
                unique=True), st.integers(1, 3), laurent, laurent,
       st.integers(-4, 4))
def test_gcd_and_exact_division(picks, split, c, x, shift):
    # a and b share no factor, so gcd(a*c, b*c) is c up to a unit
    a = _product(_IRREDUCIBLE[i] for i in picks[:split])
    b = {shift: 1} if split >= len(picks) else \
        _product(_IRREDUCIBLE[i] for i in picks[split:])
    ac, bc = lp_mul(a, c), lp_mul(b, c)
    assert lp_gcd(ac, bc) == _normal(c)
    assert lp_exact_div(ac, c) == a
    assert lp_exact_div(lp_mul(x, c), c) == x
    # a common divisor in general: g divides both, checked by multiplication
    g = lp_gcd(x, c)
    assert lp_mul(lp_exact_div(x, g), g) == x
    assert lp_mul(lp_exact_div(c, g), g) == c


def test_exact_division_rejects_inexact_inputs():
    one_plus_q = {0: 1, L0: 1}
    with pytest.raises(ArithmeticError):
        lp_exact_div({0: 1, 2 * L0: 1}, one_plus_q)  # (1+q^2)/(1+q)
    with pytest.raises(ArithmeticError):
        lp_exact_div(one_plus_q, {0: 2})  # exact over Q, not over Z
    with pytest.raises(ArithmeticError):
        lp_exact_div({0: 1}, one_plus_q)


@settings(max_examples=100, deadline=None)
@given(laurent, laurent, st.integers(-6, 6), st.integers(-3, 3).filter(bool))
def test_exact_division_rejects_a_remainder(x, y, e, c):
    # y divides x*y + c*q^(e/L0) only if it divides c*q^(e/L0), that is if
    # y is a monomial whose coefficient divides c
    if len(y) == 1 and c % next(iter(y.values())) == 0:
        return
    p = lp_mul(x, y)
    p[e] = p.get(e, 0) + c
    p = {k: v for k, v in p.items() if v}
    with pytest.raises(ArithmeticError):
        lp_exact_div(p, y)


# -- canonical pairs by construction: each operation against the full route --
#
# The oracle cross-multiplies, cancels the gcd of the whole numerator and
# denominator, and hands the coprime pair to the public constructor, whose
# divide-first cancellation then has nothing to divide.  The
# strategies aim at every shortcut: +-1, +-q^k, c*q^k with |c| >= 2,
# polynomials, and rationals whose denominators are equal, coprime, share
# a factor (also to a higher power on one side) or share only an integer.

unit_scalars = st.builds(lambda s, k: QScalar({k: s}, {0: 1}, L0),
                         st.sampled_from((1, -1)), st.integers(-6, 6))
monomial_scalars = st.builds(lambda c, k: QScalar({k: c}, {0: 1}, L0),
                             st.integers(2, 6) | st.integers(-6, -2),
                             st.integers(-6, 6))
polynomial_scalars = st.builds(lambda n: QScalar(n, {0: 1}, L0), laurent)
operands = st.one_of(unit_scalars, monomial_scalars, polynomial_scalars,
                     oracle_scalars)


@st.composite
def fraction_pairs(draw):
    f, g, h = (_IRREDUCIBLE[i] for i in
               draw(st.permutations(range(len(_IRREDUCIBLE))))[:3])
    shape = draw(st.sampled_from(
        ("equal", "coprime", "shared", "power", "content")))
    if shape == "equal":
        b = d = lp_mul(f, g)
    elif shape == "coprime":
        b, d = f, lp_mul(g, h)
    elif shape == "shared":
        b, d = lp_mul(f, g), lp_mul(f, h)
    elif shape == "power":
        b, d = lp_mul(f, f), lp_mul(f, g)
    else:
        b, d = lp_mul({0: 2}, f), lp_mul({0: 6}, g)
    return QScalar(draw(laurent), b, L0), QScalar(draw(laurent), d, L0)


operand_pairs = st.one_of(st.tuples(operands, operands), fraction_pairs())


def _by_the_gcd(num, den):
    """num/den with their gcd cancelled here, so that the constructor is
    handed a coprime pair and only normalizes its units."""
    g = lp_gcd(num, den)
    return QScalar(lp_exact_div(num, g), lp_exact_div(den, g), L0)


def _full_route(op, a, b):
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if op == "+":
        return _by_the_gcd(lp_add(lp_mul(an, bd), lp_mul(bn, ad)),
                           lp_mul(ad, bd))
    if op == "-":
        return _by_the_gcd(lp_add(lp_mul(an, bd), lp_neg(lp_mul(bn, ad))),
                           lp_mul(ad, bd))
    if op == "*":
        return _by_the_gcd(lp_mul(an, bn), lp_mul(ad, bd))
    return _by_the_gcd(lp_mul(an, bd), lp_mul(ad, bn))


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def test_the_example_sum_keeps_its_content_step():
    # coprime denominators sharing the integer 2: 1/(2q+2) + 1/(2q+4) is
    # (4q+6)/(4(q+1)(q+2)) before the contents are made coprime
    x = QScalar({0: 1}, {0: 2, L0: 2}, L0) + QScalar({0: 1}, {0: 4, L0: 2}, L0)
    assert (x.num, x.den) == ({0: 3, L0: 2}, {0: 4, L0: 6, 2 * L0: 2})


@settings(max_examples=300, deadline=None)
@given(operand_pairs)
def test_every_result_is_the_canonical_pair_of_the_full_route(pair):
    one_den = QScalar.one(L0).den
    for x, y in (pair, pair[::-1]):
        for op, fn in _OPS.items():
            if op == "/" and y.is_zero():
                continue
            got, want = fn(x, y), _full_route(op, x, y)
            assert (got.num, got.den) == (want.num, want.den), (x, op, y)
            # every polynomial result holds the one shared denominator
            assert (got.den is one_den) == (got.den == {0: 1})
    for x in pair:
        if not x.is_zero():
            inv, want = x.inverse(), QScalar(x.den, x.num, L0)
            assert (inv.num, inv.den) == (want.num, want.den)


@settings(max_examples=150, deadline=None)
@given(operand_pairs)
def test_no_operation_mutates_its_operands(pair):
    before = [(dict(x.num), dict(x.den)) for x in pair]
    for op, fn in _OPS.items():
        for x, y in (pair, pair[::-1]):
            if op != "/" or not y.is_zero():
                fn(x, y)
    for x in pair:
        -x
        if not x.is_zero():
            x.inverse()
    assert [(x.num, x.den) for x in pair] == before
    assert QScalar.one(L0).den == {0: 1} and QScalar.one(L0).num == {0: 1}


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    real = scalars.lp_gcd

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)
    monkeypatch.setattr(scalars, "lp_gcd", spy)
    return calls


def test_unit_factors_and_polynomial_sums_take_no_gcd(gcd_calls):
    rational = QScalar({0: 1, L0: 3}, {0: 1, L0: 1, 2 * L0: 1}, L0)
    poly = q(2) - QScalar.integer(3, L0)
    gcd_calls.clear()  # building the operands may take gcds
    for u in (QScalar.one(L0), -QScalar.one(L0), q(3), -q(-2)):
        for x in (rational, poly, u):
            assert u * x == x * u
            assert x / u == x * u.inverse()
    assert (poly + (q(1) + q(-1))).is_polynomial()
    assert gcd_calls == []


def test_a_sum_over_coprime_denominators_takes_one_gcd(gcd_calls):
    b, d = {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}
    x, y = QScalar({0: 1}, b, L0), QScalar({0: 1, 1: -1}, d, L0)
    gcd_calls.clear()
    s = x + y
    # the gcd of the two denominators, not of the cross-multiplied pair
    assert gcd_calls == [(b, d)]
    assert s == _full_route("+", x, y)


def gcd_route_cancel(x, y):
    """x and y over their gcd, the cancellation without a division first."""
    if len(x) > 1 and len(y) > 1:
        g = lp_gcd(x, y)
        if g != {0: 1}:
            return lp_exact_div(x, g), lp_exact_div(y, g)
    return x, y


def test_cancel_divides_first_and_falls_back_to_the_gcd(gcd_calls):
    f, g, h = _IRREDUCIBLE[0], _IRREDUCIBLE[4], _IRREDUCIBLE[6]
    cases = [
        # y divides x over Z: one exact division and no gcd
        (lp_mul(f, lp_mul(g, h)), lp_mul(f, g), 0),
        # y divides x over Q only: 2(1+t) does not divide (1+t)^2 over Z
        (lp_mul(f, f), lp_mul({0: 2}, f), 1),
        # no division: a common factor is left for the gcd
        (lp_mul(f, g), lp_mul(f, h), 1),
        # y spans more exponents than x: no division is tried
        (lp_mul(f, h), lp_mul(f, g), 1),
    ]
    for x, y, gcds in cases:
        gcd_calls.clear()
        got = scalars._cancel(x, y)
        assert len(gcd_calls) == gcds
        want = gcd_route_cancel(x, y)
        assert scalars._normalize(*got) == scalars._normalize(*want)
    assert scalars._cancel(cases[0][0], cases[0][1]) == (h, {0: 1})


@settings(max_examples=200, deadline=None)
@given(laurent, laurent, st.booleans())
def test_divide_first_cancels_to_the_gcd_routes_pair(x, y, multiple):
    if multiple:
        x = lp_mul(x, y)
    assert scalars._normalize(*scalars._cancel(x, y)) == \
        scalars._normalize(*gcd_route_cancel(x, y))
