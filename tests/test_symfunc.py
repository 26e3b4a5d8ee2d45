"""Symmetric functions: bases, conversion, pairing, skewing, plethysm, LR."""

import random
from fractions import Fraction

import pytest

from hlvertex.coeffs import QPoly, QRat
from hlvertex.symfunc import (
    POWERSUM,
    SCHUR,
    PowerSumSubst,
    SymFunc,
    X_OVER_QM1,
    X_TIMES_QM1,
    _char,
    constant_alphabet,
    convert,
    dual_basis_pair_check,
    elementary,
    elementary_perp,
    homogeneous,
    lr_coefficient,
    multiply,
    one,
    plethysm_substitute,
    powersum,
    rational_tensor_multiplicity,
    scalar_product,
    schur,
    schur_product_expansion,
    skew,
    skew_schur_expansion,
    specialize_q,
    z_of,
)
from hlvertex.weights import (
    dominant_weights,
    dual_weight,
    partitions_of,
    trim_zeros,
)

Q = QRat.q()
HALF = QRat(1, 2)


def rational(n, d=1):
    return QRat(QPoly.const(n), QPoly.const(d))


def random_symfunc(rng, basis, max_degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, max_degree)
        parts = list(partitions_of(d))
        idx = rng.choice(parts)
        if basis == POWERSUM and not all(p >= 1 for p in idx):
            continue
        terms[idx] = QRat(QPoly({rng.randint(0, 2): rng.randint(-3, 3)}))
    return SymFunc(basis, terms)


class TestBasisElements:
    def test_examples(self):
        assert schur((2, 1)) == SymFunc(SCHUR, {(2, 1): 1})
        assert elementary(2) == schur((1, 1))
        assert homogeneous(3) == schur((3,))
        assert one().coefficient(()) == QRat.one()
        assert powersum((2, 1)) == SymFunc(POWERSUM, {(2, 1): 1})
        assert powersum((2, 1)).terms() == [((2, 1), QRat.one())]

    def test_invalid(self):
        with pytest.raises(ValueError):
            schur((1, 2))
        with pytest.raises(ValueError):
            powersum((2, 0, -1))

    @pytest.mark.parametrize("basis", [elementary, homogeneous])
    def test_negative_degree(self, basis):
        with pytest.raises(ValueError, match="^negative degree$"):
            basis(-1)

    def test_basis_names_are_exact(self):
        with pytest.raises(ValueError, match="^unknown basis 's'$"):
            SymFunc("s", {(1,): 1})
        with pytest.raises(ValueError, match="^unknown basis 'p'$"):
            convert(schur((1,)), "p")


class TestConvert:
    def test_e2_powersum_expansion(self):
        got = convert(elementary(2), POWERSUM)
        want = SymFunc(POWERSUM, {(1, 1): HALF, (2,): -HALF})
        assert got == want

    def test_p1_is_s1(self):
        assert convert(powersum((1,)), SCHUR) == schur((1,))

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(12):
            f = random_symfunc(rng, SCHUR, 8)
            assert convert(convert(f, POWERSUM), SCHUR) == f
        for _ in range(12):
            f = random_symfunc(rng, POWERSUM, 8)
            assert convert(convert(f, SCHUR), POWERSUM) == f


class TestMultiply:
    def test_pieri_examples(self):
        assert multiply(schur((1,)), schur((1,))) == schur((2,)) + schur((1, 1))
        assert multiply(schur((2,)), schur((1,))) == schur((3,)) + schur((2, 1))
        f = schur((2, 1)) + schur((3,)).scale(Q)
        assert multiply(f, one()) == f

    def test_powersum_concatenation(self):
        got = multiply(powersum((2,)), powersum((3, 1)))
        assert got == powersum((3, 2, 1))

    def test_schur_route_matches_powersum_route(self):
        # the power-sum product (index concatenation) is an independent
        # oracle for the Littlewood-Richardson route
        for da in range(8):
            for db in range(8 - da):
                for mu in partitions_of(da):
                    for nu in partitions_of(db):
                        via_lr = multiply(schur(mu), schur(nu))
                        via_p = convert(multiply(convert(schur(mu), POWERSUM),
                                                 convert(schur(nu), POWERSUM)), SCHUR)
                        assert via_lr == via_p


class TestScalarProduct:
    def test_powersum_pairing(self):
        assert scalar_product(powersum((2,)), powersum((2,))) == rational(2)
        assert scalar_product(powersum((1, 1)), powersum((2,))) == QRat.zero()
        assert z_of((3, 1, 1)) == 6
        assert scalar_product(powersum((3, 1, 1)), powersum((3, 1, 1))) == rational(6)

    def test_schur_orthonormality(self):
        for d in range(5):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    want = QRat.one() if lam == mu else QRat.zero()
                    assert scalar_product(schur(lam), schur(mu)) == want


class TestSkew:
    def test_examples(self):
        assert skew(schur((1,)), schur((2,))) == schur((1,))
        assert skew(schur((2,)), schur((1,))).is_zero()
        assert skew(one(), schur((2, 1))) == schur((2, 1))

    def test_adjunction_on_schur_triples(self):
        for a in range(4):
            for b in range(4):
                for mu in partitions_of(a):
                    for kappa in partitions_of(b):
                        for lam in partitions_of(a + b):
                            lhs = scalar_product(skew(schur(mu), schur(lam)),
                                                 schur(kappa))
                            rhs = scalar_product(schur(lam),
                                                 multiply(schur(mu), schur(kappa)))
                            assert lhs == rhs

    def test_adjunction_degree_mismatch_is_zero(self):
        for mu, lam, kappa in [((1,), (3,), (3,)), ((2,), (2,), (1, 1))]:
            assert scalar_product(skew(schur(mu), schur(lam)),
                                  schur(kappa)).is_zero()
            assert scalar_product(schur(lam),
                                  multiply(schur(mu), schur(kappa))).is_zero()

    def test_adjunction_random_mixed_basis(self):
        rng = random.Random(11)
        for _ in range(10):
            f = random_symfunc(rng, POWERSUM, 4, 2)
            g = random_symfunc(rng, SCHUR, 6, 2)
            h = random_symfunc(rng, SCHUR, 3, 2)
            lhs = scalar_product(skew(f, g), h)
            rhs = scalar_product(g, multiply(f, h))
            assert lhs == rhs

    def test_basis_routes_agree(self):
        for d in range(7):
            for lam in partitions_of(d):
                inside = [mu for e in range(d + 1) for mu in partitions_of(e, max_len=len(lam))
                          if all(m <= part for m, part in zip(mu, lam))]
                for mu in inside:
                    s_route = skew(schur(mu), schur(lam))
                    p_route = convert(skew(convert(schur(mu), POWERSUM),
                                           convert(schur(lam), POWERSUM)), SCHUR)
                    assert s_route == p_route


class TestElementaryPerp:
    def test_examples(self):
        assert elementary_perp(1, schur((2,))) == schur((1,))
        assert elementary_perp(2, schur((1, 1))) == one()
        f = schur((2, 1)) + schur((1,)).scale(Q)
        assert elementary_perp(0, f) == f
        assert elementary_perp(-1, f).is_zero()

    def test_agrees_with_skew(self):
        for d in range(8):
            for lam in partitions_of(d):
                for k in range(0, d + 1):
                    assert elementary_perp(k, schur(lam)) == \
                        skew(elementary(k), schur(lam))


class TestOmegaIdentities:
    """Coefficients of the Cauchy kernel expansion, checked against a
    direct exponential-series oracle in the power-sum basis."""

    MAXDEG = 8

    @staticmethod
    def _series_mul(a, b, maxdeg):
        out = [SymFunc.zero(POWERSUM) for _ in range(maxdeg + 1)]
        for i, fa in enumerate(a):
            if fa.is_zero():
                continue
            for j, fb in enumerate(b):
                if i + j > maxdeg:
                    break
                if fb.is_zero():
                    continue
                out[i + j] = out[i + j] + multiply(fa, fb)
        return out

    @classmethod
    def _omega_coeffs(cls, pleth_sign, maxdeg):
        # exp(sum_r sign * p_r z^r / r), truncated in z
        S = [SymFunc.zero(POWERSUM) for _ in range(maxdeg + 1)]
        for r in range(1, maxdeg + 1):
            S[r] = powersum((r,)).scale(
                QRat(QPoly.const(pleth_sign), QPoly.const(r)))
        result = [SymFunc.zero(POWERSUM) for _ in range(maxdeg + 1)]
        result[0] = one(POWERSUM)
        term = list(result)
        for m in range(1, maxdeg + 1):
            term = cls._series_mul(term, S, maxdeg)
            term = [t.scale(QRat(1, m)) for t in term]
            result = [a + b for a, b in zip(result, term)]
        return result

    def test_homogeneous_coefficients(self):
        coeffs = self._omega_coeffs(+1, self.MAXDEG)
        for k in range(self.MAXDEG + 1):
            assert coeffs[k] == convert(homogeneous(k), POWERSUM)

    def test_elementary_coefficients(self):
        coeffs = self._omega_coeffs(-1, self.MAXDEG)
        for k in range(self.MAXDEG + 1):
            want = convert(elementary(k), POWERSUM).scale((-1) ** k)
            assert coeffs[k] == want


class TestCauchyDualBases:
    """sum_lam s_lam[X] s_lam[Y] = Omega[XY] coefficientwise up to degree
    5, through two independent power-sum-pair expansions."""

    MAXDEG = 5

    def test_bivariate_expansion(self):
        # rhs: exp(sum_r p_r[X] p_r[Y] / r) has coefficient 1/z_mu at the
        # diagonal pair (mu, mu) and zero elsewhere (exponential formula);
        # expand it honestly by multiplying bivariate series
        maxdeg = self.MAXDEG
        S = {}
        for r in range(1, maxdeg + 1):
            S[((r,), (r,))] = Fraction(1, r)
        result = {((), ()): Fraction(1)}
        term = dict(result)
        for m in range(1, maxdeg + 1):
            new_term = {}
            for (mu1, nu1), c1 in term.items():
                for (mu2, nu2), c2 in S.items():
                    if sum(mu1) + sum(mu2) > maxdeg:
                        continue
                    key = (tuple(sorted(mu1 + mu2, reverse=True)),
                           tuple(sorted(nu1 + nu2, reverse=True)))
                    new_term[key] = new_term.get(key, Fraction(0)) + c1 * c2
            term = {k: v / m for k, v in new_term.items()}
            for k, v in term.items():
                result[k] = result.get(k, Fraction(0)) + v
        # lhs: sum over lam of s_lam (x) s_lam expanded into power sums
        lhs = {}
        for d in range(maxdeg + 1):
            for lam in partitions_of(d):
                fp = convert(schur(lam), POWERSUM)
                for mu, cmu in fp.terms():
                    for nu, cnu in fp.terms():
                        c = (cmu * cnu).specialize(0)  # constants
                        key = (mu, nu)
                        lhs[key] = lhs.get(key, Fraction(0)) + c
        lhs = {k: v for k, v in lhs.items() if v}
        result = {k: v for k, v in result.items() if v}
        assert lhs == result


class TestPlethysm:
    def test_p2_scaling(self):
        got = plethysm_substitute(powersum((2,)), X_TIMES_QM1)
        assert got == powersum((2,)).scale(Q**2 - 1)

    def test_degree_one(self):
        got = plethysm_substitute(schur((1,)), X_OVER_QM1)
        assert got == schur((1,)).scale(QRat(1, QPoly({1: 1, 0: -1})))

    def test_constant_alphabet_e2(self):
        # e_2 at the geometric alphabet 1/(1-q)
        subst = constant_alphabet(QRat(1, QPoly({0: 1, 1: -1})))
        got = plethysm_substitute(elementary(2), subst)
        denom = QPoly({0: 1, 1: -1}) * QPoly({0: 1, 2: -1})
        want = one().scale(QRat(QPoly.q(), denom))
        assert got == want

    def test_twist_roundtrip_identity(self):
        for d in range(9):
            for lam in partitions_of(d):
                f = schur(lam)
                g = plethysm_substitute(plethysm_substitute(f, X_TIMES_QM1),
                                        X_OVER_QM1)
                assert g == f

    def test_dual_bases(self):
        assert dual_basis_pair_check(X_TIMES_QM1, 4)

    def test_dual_basis_check_can_fail(self, monkeypatch):
        # the constant alphabet 2 keeps s_() at 1, and its inverse sends
        # s_1 to 1/2, so the pair (s_(), s_1) gives 1/2, not 0
        assert dual_basis_pair_check(constant_alphabet(QRat(2)), 0)
        assert not dual_basis_pair_check(constant_alphabet(QRat(2)), 1)
        # X(q-1) paired against itself instead of X/(q-1)
        monkeypatch.setattr(PowerSumSubst, "inverse", lambda self: self)
        assert not dual_basis_pair_check(X_TIMES_QM1, 1)

    def test_dual_pair_examples(self):
        left = plethysm_substitute(schur((1,)), X_TIMES_QM1)
        right = plethysm_substitute(schur((1,)), X_OVER_QM1)
        assert scalar_product(left, right) == QRat.one()
        left = plethysm_substitute(schur((2,)), X_TIMES_QM1)
        right = plethysm_substitute(schur((1, 1)), X_OVER_QM1)
        assert scalar_product(left, right) == QRat.zero()


class TestLittlewoodRichardson:
    def test_examples(self):
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
        assert lr_coefficient((2,), (1, 1), (1,)) == 0
        assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1

    def test_skew_and_product_routes_agree(self):
        for da in range(4):
            for db in range(4):
                for mu in partitions_of(da):
                    for nu in partitions_of(db):
                        prod = schur_product_expansion(mu, nu)
                        for lam in partitions_of(da + db):
                            assert prod.get(lam, 0) == \
                                skew_schur_expansion(lam, mu).get(nu, 0)

    def test_skew_expansion_known(self):
        assert skew_schur_expansion((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
        assert skew_schur_expansion((2, 2), (1,)) == {(2, 1): 1}

    @pytest.mark.parametrize("expand, args", [
        (skew_schur_expansion, ((1, 2), (1,))),
        (skew_schur_expansion, ((3, -1), ())),
        (skew_schur_expansion, ((2, 1), (0, 1))),
        (schur_product_expansion, ((2, -1), (1,))),
        (schur_product_expansion, ((1,), (2, -1))),
        (schur_product_expansion, ((1, 2), ())),
    ])
    def test_non_partitions_raise(self, expand, args):
        with pytest.raises(ValueError, match="not a skew shape of partitions"):
            expand(*args)


class TestRationalTensorMultiplicity:
    def test_examples(self):
        assert rational_tensor_multiplicity(2, (1, 1), (1, 0), (1, 0)) == 1
        assert rational_tensor_multiplicity(2, (1, -1), (0, -1), (1, 0)) == 1
        for a, b in [(2, 3), (-1, 4), (0, 0)]:
            assert rational_tensor_multiplicity(1, (a + b,), (a,), (b,)) == 1

    def test_shift_independence(self):
        # computing through different determinant twists gives the same value
        rng = random.Random(5)
        for _ in range(30):
            k = rng.randint(1, 3)
            mu = tuple(sorted((rng.randint(-2, 2) for _ in range(k)), reverse=True))
            nu = tuple(sorted((rng.randint(-2, 2) for _ in range(k)), reverse=True))
            lams = set()
            m1a, m2a = max(0, -mu[-1]), max(0, -nu[-1])
            for extra1, extra2 in [(0, 0), (1, 0), (0, 2), (1, 1)]:
                m1, m2 = m1a + extra1, m2a + extra2
                mu2 = trim_zeros(tuple(x + m1 for x in mu))
                nu2 = trim_zeros(tuple(x + m2 for x in nu))
                expansion = schur_product_expansion(mu2, nu2)
                vals = {}
                for kappa, c in expansion.items():
                    if len(kappa) > k:
                        continue
                    kp = kappa + (0,) * (k - len(kappa))
                    lam = tuple(x - m1 - m2 for x in kp)
                    vals[lam] = c
                lams.add(tuple(sorted(vals.items())))
            assert len(lams) == 1
            for lam, c in dict(next(iter(lams))).items():
                assert rational_tensor_multiplicity(k, lam, mu, nu) == c

    def test_symmetry_and_duality(self):
        for k in (2, 3):
            weights = list(dominant_weights(k, -2, 2))
            rng = random.Random(9)
            for _ in range(40):
                lam, mu, nu = (rng.choice(weights) for _ in range(3))
                c = rational_tensor_multiplicity(k, lam, mu, nu)
                assert c == rational_tensor_multiplicity(k, lam, nu, mu)
                assert c == rational_tensor_multiplicity(
                    k, nu, dual_weight(mu), lam)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rational_tensor_multiplicity(2, (1,), (1, 0), (0, 0))


class TestCharacters:
    def test_small_table(self):
        assert _char((1, 1), (2,)) == -1
        assert _char((2,), (2,)) == 1
        assert _char((2, 1), (1, 1, 1)) == 2
        assert _char((2, 1), (3,)) == -1
        assert _char((2, 1), (2, 1)) == 0

    def test_specialize_q_helper(self):
        f = schur((2,)).scale(Q) + schur((1, 1))
        assert specialize_q(f, 0) == {(1, 1): Fraction(1)}
        assert specialize_q(f, 1) == {(2,): Fraction(1), (1, 1): Fraction(1)}


class TestPowerSumSubstContract:
    def test_phi_follows_power_substitution(self):
        subst = PowerSumSubst(Q - 1)
        assert subst.phi(3) == Q**3 - 1
        inv = subst.inverse()
        assert (subst.phi(2) * inv.phi(2)).is_one()

    def test_zero_scale_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError,
                           match="^scale factor is zero; no inverse alphabet$"):
            PowerSumSubst(QRat(0)).inverse()


EXPANSIONS = [
    (skew_schur_expansion, ((3, 2, 1), (2, 1)),
     {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (schur_product_expansion, ((2, 1), (2, 1)),
     {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
      (2, 2, 2): 1, (2, 2, 1, 1): 1}),
]


class TestCachedExpansionsAreReadOnly:
    @pytest.mark.parametrize("expand, args, want", EXPANSIONS)
    def test_mutation_raises(self, expand, args, want):
        got = expand(*args)
        key = next(iter(got))
        with pytest.raises(TypeError):
            got[key] = 99
        with pytest.raises(TypeError):
            del got[key]

    @pytest.mark.parametrize("expand, args, want", EXPANSIONS)
    def test_later_calls_return_the_original_values(self, expand, args, want):
        got = expand(*args)
        try:
            got[next(iter(got))] = 99
        except TypeError:
            pass
        assert dict(expand(*args)) == want
