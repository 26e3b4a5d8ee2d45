"""Exact q-coefficient arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

try:
    import sympy
except ImportError:  # the differential test below needs it
    sympy = None

from hlvertex.coeffs import (
    QPoly,
    QRat,
    _exact_div,
    _poly_gcd,
)


def qp(d):
    return QPoly(d)


def qr(num, den=None):
    return QRat(qp(num) if isinstance(num, dict) else num,
                qp(den) if isinstance(den, dict) else den)


Q = QRat.q()


class TestQPoly:
    def test_canonical_drops_zeros(self):
        assert qp({3: 0, 1: 2}) == qp({1: 2})
        assert qp({}) == QPoly.zero()

    def test_str(self):
        assert str(qp({4: 1, 3: -1})) == "q^4-q^3"
        assert str(qp({0: -3, 1: 1})) == "q-3"
        assert str(qp({-1: 2})) == "2*q^-1"
        assert str(QPoly.zero()) == "0"

    def test_json_roundtrip(self):
        p = qp({4: 1, 3: -1, -2: 7})
        assert QPoly.from_json(p.to_json()) == p
        assert p.to_json() == {"4": 1, "3": -1, "-2": 7}

    def test_mul_int_fastpath(self):
        assert qp({2: 3}) * 0 == QPoly.zero()
        assert qp({2: 3}) * -2 == qp({2: -6})

    def test_qrat_operand_defers_to_qrat(self):
        # QPoly leaves a QRat operand to QRat's reflected method
        assert QPoly.q() * Q == Q ** 2
        assert QPoly.q() + Q == Q * 2
        assert QPoly.q() - Q == QRat.zero()
        assert isinstance(QPoly.q() * Q, QRat)

    def test_bad_operand_is_a_type_error(self):
        with pytest.raises(TypeError):
            QPoly.q() + "x"
        with pytest.raises(TypeError):
            QPoly.q() * "x"
        with pytest.raises(TypeError):
            QRat("x")

    def test_non_integer_terms_are_refused(self):
        # each used to be truncated by int(): 1, 2*q and 2*H[1]H[1]
        from hlvertex.rewrite import OpSum

        with pytest.raises(ValueError, match=r"^QPoly coefficient 1\.5 is not an integer$"):
            QPoly({0: 1.5})
        with pytest.raises(ValueError, match=r"^QPoly exponent 1\.7 is not an integer$"):
            QPoly({1.7: 2})
        with pytest.raises(ValueError, match=r"^QPoly coefficient 2\.5 is not an integer$"):
            OpSum({((1,), (1,)): 2.5})

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_substitution_needs_positive_k(self, k):
        # q -> q^0 would send q + q^2 to 2; both types refuse it alike
        for c in (qp({1: 1, 2: 1}), qr({1: 1, 2: 1})):
            with pytest.raises(ValueError, match="k >= 1"):
                c.subs_qpower(k)


class TestQRatExamples:
    def test_add_cancel(self):
        assert Q + (-Q) == QRat.zero()

    def test_power_matches_repeated_product(self):
        # equality is structural, so this also checks the canonical form
        a = qr({0: 1, 2: -3}, {0: 2, 1: 1})
        acc = QRat.one()
        for n in range(5):
            assert a ** n == acc
            assert a ** -n == QRat.one() / acc
            acc = acc * a

    def test_quotient_factors(self):
        assert qr({2: 1, 0: -1}, {1: 1, 0: -1}) == qr({1: 1, 0: 1})

    def test_inverse_product(self):
        inv = qr({0: 1}, {0: 1, 1: -1})  # 1/(1-q)
        assert inv * qr({0: 1, 1: -1}) == QRat.one()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QRat.one() / QRat.zero()
        with pytest.raises(ZeroDivisionError):
            QRat(1, QPoly.zero())

    def test_q_power_substitute(self):
        assert (Q - 1).subs_qpower(2) == Q**2 - 1
        assert qr({0: 1}, {0: 1, 1: -1}).subs_qpower(2) == \
            qr({0: 1}, {0: 1, 2: -1})
        assert QRat(5).subs_qpower(3) == QRat(5)

    def test_specialize(self):
        assert (Q + Q**2).specialize(1) == 2
        assert (Q**3).specialize(0) == 0
        with pytest.raises(ZeroDivisionError):
            qr({0: 1}, {0: 1, 1: -1}).specialize(1)
        assert qr({-1: 1}).specialize(Fraction(1, 2)) == 2
        with pytest.raises(ZeroDivisionError):
            qr({-1: 1}).specialize(0)

    def test_is_integral_polynomial(self):
        assert (Q**2 - Q).integral_polynomial() == qp({2: 1, 1: -1})
        assert qr({0: 1}, {0: 1, 1: -1}).integral_polynomial() is None
        assert qr({2: 1, 0: -1}, {1: 1, 0: -1}).integral_polynomial() == qp({1: 1, 0: 1})
        assert qr({-1: 1}).integral_polynomial() is None

    def test_laurent_shift_canonicalization(self):
        # q / q^3 lands in the numerator as a negative power
        c = qr({1: 1}, {3: 1})
        assert c == qr({-2: 1})
        assert str(c) == "q^-2"

    def test_denominator_normalization(self):
        # 1/(1-q) is stored as -1/(q-1): positive leading denominator
        c = qr({0: 1}, {0: 1, 1: -1})
        assert c.den == qp({1: 1, 0: -1})
        assert c.num == qp({0: -1})

    def test_content_reduction(self):
        assert qr({0: 2}, {0: 4}) == qr({0: 1}, {0: 2})
        assert str(qr({1: 2}, {0: 4})) == "q/2"


def _fraction_rem(a: list, b: list) -> list:
    """Remainder of dense Fraction lists, lowest degree first, by a trimmed
    nonzero b, trimmed."""
    a = a[:]
    db = len(b) - 1
    while len(a) > db:
        factor = a.pop() / b[-1]
        shift = len(a) - db
        for i in range(db):
            a[shift + i] -= factor * b[i]
    while a and a[-1] == 0:
        a.pop()
    return a


def fraction_euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Oracle: Euclid over Q[q] on Fraction lists, then denominators cleared,
    content stripped and the leading coefficient made positive."""
    def dense(p):
        out = [Fraction(0)] * (p.degree() + 1)
        for e, v in p._c.items():
            out[e] = Fraction(v)
        return out

    A, B = dense(a), dense(b)
    while B:
        A, B = B, _fraction_rem(A, B)
    scale = math.lcm(*(x.denominator for x in A))
    ints = [int(x * scale) for x in A]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return QPoly({e: v // g for e, v in enumerate(ints) if v})


def one_minus_q(k: int) -> QPoly:
    return QPoly({0: 1, k: -1})


# shared factors: (1-q^k) powers, integer content, negative leading
# coefficients, constants and monomials
SHARED = [one_minus_q(1), one_minus_q(1) ** 3, one_minus_q(2) ** 2,
          one_minus_q(3) * one_minus_q(1), one_minus_q(4) ** 2 * one_minus_q(2),
          QPoly({0: 6, 1: -4}), QPoly({0: 2, 2: -3}), QPoly({0: 1, 1: 1, 2: -2}),
          QPoly({0: 1}), QPoly({0: -4}), QPoly({0: 12}),
          QPoly({1: 1}), QPoly({3: -2}), QPoly({2: 5, 3: 5})]


def gcd_grid(seed: int = 17, size: int = 400):
    """Seeded pairs (a, b, shared) with shared dividing both a and b."""
    rng = random.Random(seed)

    def cofactor():
        if rng.random() < 0.4:
            return rng.choice(SHARED)
        p = QPoly({e: rng.randint(-3, 3) for e in range(rng.randint(1, 5))})
        return QPoly.one() if p.is_zero() else p

    for _ in range(size):
        shared = rng.choice(SHARED)
        yield shared * cofactor(), shared * cofactor() * rng.choice([1, -1, 3]), shared


class TestPolyGcd:
    def test_against_fraction_euclid(self):
        for a, b, shared in gcd_grid():
            g = _poly_gcd(a, b)
            assert g == fraction_euclid_gcd(a, b), (a, b)
            assert g.leading_coeff() > 0 and g.content() == 1
            # the gcd is divisible by the shared factor's primitive part and
            # divides both inputs over Z[q]
            _exact_div(g * shared.content(), shared)
            assert _exact_div(a, g) * g == a and _exact_div(b, g) * g == b
            assert _exact_div(a * b, b) == a  # b may carry integer content

    def test_exact_div_refusals(self):
        with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
            _exact_div(QPoly({2: 1, 0: 1}), QPoly({1: 1, 0: 1}))  # (q^2+1)/(q+1)
        with pytest.raises(ArithmeticError, match="^non-integral quotient$"):
            _exact_div(QPoly({1: 1, 0: 1}), QPoly({1: 2, 0: 2}))  # (q+1)/(2q+2)


coeff_ints = st.integers(min_value=-6, max_value=6)
exponents = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(exponents, coeff_ints, max_size=4).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rationals = st.builds(QRat, polys, nonzero_polys)
nonzero_rationals = st.builds(QRat, nonzero_polys, nonzero_polys)


class TestQRatProperties:
    @settings(max_examples=150, deadline=None)
    @given(rationals)
    def test_self_subtraction_is_structural_zero(self, a):
        assert a - a == QRat.zero()
        assert (a - a).num is QPoly.zero() or (a - a).num.is_zero()

    @settings(max_examples=150, deadline=None)
    @given(rationals, nonzero_rationals)
    def test_multiply_divide_roundtrip(self, a, b):
        assert (a * b) / b == a

    @settings(max_examples=100, deadline=None)
    @given(rationals, rationals, st.integers(min_value=1, max_value=4))
    def test_power_substitution_is_ring_hom(self, a, b, k):
        assert (a + b).subs_qpower(k) == a.subs_qpower(k) + b.subs_qpower(k)
        assert (a * b).subs_qpower(k) == a.subs_qpower(k) * b.subs_qpower(k)

    @settings(max_examples=100, deadline=None)
    @given(rationals)
    def test_hash_consistent_with_eq(self, a):
        b = QRat(a.num, a.den)
        assert a == b and hash(a) == hash(b)


def to_sympy(p: QPoly, x):
    return sum((v * x**e for e, v in p._c.items()), sympy.Integer(0))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
class TestQRatAgainstSympy:
    """QRat(num, den) against sympy.cancel on the same quotient."""

    @settings(max_examples=300, deadline=None)
    @given(polys, nonzero_polys)
    @example(QPoly({2: 1, 0: -1}), QPoly({1: 1, 0: -1}))  # common factor q-1
    @example(QPoly({1: 2, 0: 2}), QPoly({2: 4, 1: 4}))  # content 2, factor q(q+1)
    @example(QPoly({0: 3}), QPoly({0: 6, 1: -3}))  # negative leading coefficient
    @example(QPoly({-1: 1}), QPoly({-3: 2, 2: 4}))  # Laurent parts on both sides
    def test_canonical_form(self, num, den):
        x = sympy.Symbol("q")
        r = QRat(num, den)
        p, d = sympy.cancel(to_sympy(num, x) / to_sympy(den, x)).as_numer_denom()
        if p == 0:
            assert r.is_zero() and r.den.is_one()
            return
        # the same function
        assert sympy.cancel(to_sympy(r.num, x) / to_sympy(r.den, x) - p / d) == 0
        # the denominator is a polynomial with a nonzero constant term and a
        # positive leading coefficient
        assert r.den.valuation() == 0
        assert r.den.leading_coeff() > 0
        # no common factor: gcd removed, integer content stripped
        top = to_sympy(r.num.shifted(-r.num.valuation()), x)
        assert sympy.degree(sympy.gcd(top, to_sympy(r.den, x)), x) == 0
        assert math.gcd(r.num.content(), r.den.content()) == 1
        # sympy's reduced denominator, without its power of q and rescaled to
        # the same normalization, is exactly ours
        d_poly = sympy.Poly(d, x)
        shift = min(e for (e,) in d_poly.monoms())
        d_poly = sympy.Poly(sympy.expand(d / x**shift), x)
        p_poly = sympy.Poly(sympy.expand(p), x)
        g = math.gcd(*[int(c) for c in p_poly.coeffs() + d_poly.coeffs()])
        if d_poly.LC() < 0:
            g = -g
        want_den = {e: int(c) // g for (e,), c in d_poly.terms()}
        want_num = {e - shift: int(c) // g for (e,), c in p_poly.terms()}
        assert r.den._c == want_den
        assert r.num._c == want_num
