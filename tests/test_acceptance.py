"""Acceptance suite: one test per criterion, exact tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines.  Everything here is exact arithmetic; there are no numeric
tolerances anywhere, only structural equality.
"""

import random
import time
from fractions import Fraction

import hlvertex
from hlvertex.cli import main as cli_main
from hlvertex.coeffs import QPoly, QRat
from hlvertex.kostka import (
    blocked_weights,
    check_col_skew,
    compositions,
    kostka_foulkes,
    kostka_kostant,
    kostka_vertex,
)
from hlvertex.rewrite import (
    OpSum,
    operators_equal,
    relation_instance,
    rewrite_dominant,
    shift_support,
)
from hlvertex.symfunc import (
    POWERSUM,
    SymFunc,
    X_OVER_QM1,
    constant_alphabet,
    convert,
    elementary,
    elementary_perp,
    multiply,
    one,
    plethysm_substitute,
    schur,
    specialize_q,
)
from hlvertex.vertexop import apply_B, apply_F, apply_H, apply_H_word
from hlvertex.weights import (
    alpha_beta,
    dominant_weights,
    pad_zeros,
    partitions_of,
    trim_zeros,
    vertical_strip_shrink,
)

Q = QRat.q()


def report(number, name):
    print(f"criterion {number} ({name}): PASS")


def qp(d):
    return QRat(QPoly(d))


def test_criterion_01_plethysm_examples():
    start = time.time()
    # e_2 at the two-letter alphabet x1 + x2 is the monomial x1*x2
    fp = convert(elementary(2), POWERSUM)
    poly = {}
    for mu, c in fp.terms():
        partial = {(0, 0): QRat.one()}
        for part in mu:
            grown = {}
            for (a, b), v in partial.items():
                for da, db in ((part, 0), (0, part)):
                    key = (a + da, b + db)
                    grown[key] = grown.get(key, QRat.zero()) + v
            partial = grown
        for key, v in partial.items():
            poly[key] = poly.get(key, QRat.zero()) + c * v
    poly = {k: v for k, v in poly.items() if not v.is_zero()}
    assert poly == {(1, 1): QRat.one()}
    # e_2 at the geometric alphabet 1/(1-q)
    subst = constant_alphabet(QRat(1, QPoly({0: 1, 1: -1})))
    got = plethysm_substitute(elementary(2), subst)
    want = one().scale(QRat(QPoly.q(),
                            QPoly({0: 1, 1: -1}) * QPoly({0: 1, 2: -1})))
    assert got == want
    elapsed = time.time() - start
    assert elapsed < 1.0, f"plethysm examples took {elapsed:.2f}s"
    report(1, "plethysm examples")


def _grid_keys():
    for n in range(1, 5):
        for eta in compositions(n):
            for d in range(0, 7):
                lams = [pad_zeros(p, n)
                        for p in partitions_of(d, max_len=n, max_part=3)]
                if not lams:
                    continue
                for gamma in blocked_weights(eta, d, max_part=3):
                    yield eta, gamma, lams


def test_criterion_02_engine_equivalence():
    start = time.time()
    checked = 0
    for eta, gamma, lams in _grid_keys():
        for lam in lams:
            a = kostka_kostant(lam, gamma)
            b = kostka_vertex(lam, gamma)
            assert a == b, f"engines disagree at {lam}, {gamma}: {a} vs {b}"
            checked += 1
    rng = random.Random(20260810)
    etas5 = list(compositions(5))
    sampled = 0
    while sampled < 200:
        eta = rng.choice(etas5)
        d = rng.randint(0, 6)
        lams = [pad_zeros(p, 5) for p in partitions_of(d, max_len=5, max_part=3)]
        gammas = list(blocked_weights(eta, d, max_part=3))
        if not lams or not gammas:
            continue
        lam, gamma = rng.choice(lams), rng.choice(gammas)
        assert kostka_kostant(lam, gamma) == kostka_vertex(lam, gamma)
        sampled += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"engine grid took {elapsed:.1f}s"
    report(2, f"engine equivalence, {checked} exhaustive + 200 random keys, "
              f"{elapsed:.1f}s")


def test_criterion_03_worked_rewritings():
    got = rewrite_dominant(((2, 2), (4, 1)))
    want = OpSum({
        ((3, 3), (3, 0)): qp({2: 1, 1: -1}),
        ((4, 2), (2, 1)): qp({2: 1}),
        ((4, 3), (1, 1)): qp({3: -1}),
        ((4, 3), (2, 0)): qp({2: 1, 3: -1}),
        ((4, 4), (1, 0)): qp({4: 1, 3: -1}),
    })
    assert got == want
    assert str(got) == ("(q^2-q)*H[3,3]H[3,0] + q^2*H[4,2]H[2,1] "
                        "- q^3*H[4,3]H[1,1] + (-q^3+q^2)*H[4,3]H[2,0] "
                        "+ (q^4-q^3)*H[4,4]H[1,0]")
    got = shift_support(((5, 3), (2,)), "left")
    want = OpSum({
        ((5,), (3, 2)): QRat.one(),
        ((5,), (4, 1)): qp({1: 1}),
        ((5,), (5, 0)): qp({2: 1}),
        ((6,), (2, 2)): qp({1: -1}),
        ((6,), (3, 1)): qp({2: -1}),
        ((6,), (4, 0)): qp({3: -1}),
    })
    assert got == want
    # both are certified against the evaluator as well
    assert operators_equal(OpSum({((2, 2), (4, 1)): QRat.one()}),
                           rewrite_dominant(((2, 2), (4, 1))), 5)
    assert operators_equal(OpSum({((5, 3), (2,)): QRat.one()}), got, 5)
    report(3, "worked rewriting examples")


def test_criterion_04_identity_suite():
    start = time.time()
    degree = 6
    for a in (0, 1, 2):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                lhs = OpSum({((a,) * n, (a,) * k): 1})
                rhs = OpSum({((a,) * k, (a,) * n): 1})
                assert operators_equal(lhs, rhs, degree), ("same-width", a, k, n)
    for a in (0, 1):
        for k in (1, 2, 3):
            lhs = OpSum({((a,) * k, (a + 1,) * k): 1})
            rhs = OpSum({((a + 1,) * k, (a,) * k): Q**k})
            assert operators_equal(lhs, rhs, degree), ("one-more", a, k)
    for a in (1, 2):
        for k in (1, 2, 3):
            lhs = OpSum({((a,) * k, (a,) * k): 1})
            rhs = OpSum({((a,) * (k + 1), (a,) * (k - 1)): 1}) \
                + OpSum({((a + 1,) * k, (a - 1,) * k): Q**k})
            assert operators_equal(lhs, rhs, degree), ("quad", a, k)
    relations = [
        ("com1", dict(mu=(2,), a=2, b=4, nu=(1,))),
        ("com1", dict(mu=(), a=1, b=3, nu=(2,))),
        ("com1", dict(mu=(3, 1), a=0, b=2, nu=(1,))),
        ("com1", dict(mu=(4,), a=4, b=6, nu=(2, 1))),
        ("com2", dict(mu=(2,), a=3, nu=(1,))),
        ("com2", dict(mu=(1, 1), a=0, nu=(2,))),
        ("com2", dict(mu=(4, 2, 1), a=1, nu=(3,))),
        ("com2", dict(mu=(), a=2, nu=(2, 1))),
        ("move", dict(mu=(5,), a=3, nu=(2,))),
        ("move", dict(mu=(2, 1), a=1, nu=(3, 1))),
        ("move", dict(mu=(), a=0, nu=(4, 2))),
        ("move", dict(mu=(3, 2, 1), a=1, nu=(2,))),
        ("bigmove", dict(alpha=(2,), beta=(1,), gamma=(1,))),
        ("bigmove", dict(alpha=(2, 1), beta=(1,), gamma=(1, 0))),
        ("bigmove", dict(alpha=(3,), beta=(2, 1), gamma=(0,))),
    ]
    for kind, params in relations:
        rel = relation_instance(kind, **params)
        assert operators_equal(rel, OpSum(), degree), (kind, params)
    report(4, f"identity suite, {time.time() - start:.1f}s")


def test_criterion_05_specializations():
    start = time.time()
    # q = 1: the K values assemble products of Schur functions
    seen = set()
    for eta, gamma, lams in _grid_keys():
        n = sum(eta)
        key = (eta, gamma)
        if key in seen:
            continue
        seen.add(key)
        d = sum(x for b in gamma for x in b)
        prod = one()
        for b in gamma:
            prod = multiply(prod, schur(trim_zeros(b)))
        want = specialize_q(prod, 1)
        got = {}
        for p in partitions_of(d, max_len=n):
            lam = pad_zeros(p, n)
            value = kostka_kostant(lam, gamma)
            at1 = Fraction(sum(c for _, c in value.items()), 1)
            if at1:
                got[trim_zeros(lam)] = at1
        assert got == want, (eta, gamma)
    # q = 0 with singleton blocks and a partition weight: Kronecker delta
    for n in range(1, 5):
        for d in range(0, 7):
            for mu in partitions_of(d, max_len=n, max_part=3):
                gamma = tuple((x,) for x in pad_zeros(mu, n))
                for p in partitions_of(d, max_len=n, max_part=3):
                    lam = pad_zeros(p, n)
                    v = kostka_kostant(lam, gamma).coeff(0)
                    assert v == (1 if p == mu else 0), (lam, mu)
    report(5, f"q=0 and q=1 specializations, {time.time() - start:.1f}s")


def test_criterion_06_column_commutation_and_skew():
    start = time.time()
    # e_k-perp commutation past a vertex operator
    indices = [(1,), (2,), (2, 1), (1, 1, 1), (3, 1, 0), (2, 0, -1)]
    taus = [t for d in range(6) for t in partitions_of(d)]
    for lam in indices:
        for k in range(0, 4):
            for tau in taus:
                f = schur(tau)
                lhs = elementary_perp(k, apply_H(lam, f))
                rhs = SymFunc.zero()
                for beta in vertical_strip_shrink(lam):
                    kk = k - sum(lam) + sum(beta)
                    rhs = rhs + apply_H(beta, elementary_perp(kk, f))
                assert lhs == rhs, (lam, k, tau)
    # column-skew Kostka identity on 100 random instances
    rng = random.Random(424242)
    etas = [eta for n in range(2, 5) for eta in compositions(n)]
    done = 0
    while done < 100:
        eta = rng.choice(etas)
        n = sum(eta)
        d = rng.randint(1, 5)
        gammas = list(blocked_weights(eta, d, max_part=3))
        if not gammas:
            continue
        gamma = rng.choice(gammas)
        k = rng.randint(0, d)
        alphas = [pad_zeros(p, n) for p in partitions_of(d - k, max_len=n)]
        if not alphas:
            continue
        alpha = rng.choice(alphas)
        assert check_col_skew(alpha, gamma, k), (alpha, gamma, k)
        done += 1
    report(6, f"column commutation and skew recurrence, {time.time() - start:.1f}s")


def test_criterion_07_independence_vectors():
    for length in (1, 2, 3):
        for gamma in dominant_weights(length, -2, 2):
            al, be = alpha_beta(gamma)
            vector = plethysm_substitute(schur(trim_zeros(be)), X_OVER_QM1)
            assert apply_H(gamma, vector) == schur(trim_zeros(al)), gamma
            for d in range(sum(be) + 1):
                for tau in partitions_of(d):
                    if tau == trim_zeros(be):
                        continue
                    f = plethysm_substitute(schur(tau), X_OVER_QM1)
                    assert apply_H(gamma, f).is_zero(), (gamma, tau)
    report(7, "independence test vectors")


def test_criterion_08_jing_operators():
    start = time.time()
    for n in range(1, 4):
        for eta in compositions(n):
            for d in range(0, 5):
                for gamma in blocked_weights(eta, d, max_part=3):
                    f = one()
                    for block in reversed(gamma):
                        f = apply_B(block, f)
                    pulled = apply_F(f, inverse=True)
                    direct = apply_H_word(gamma, one())
                    assert pulled == direct, gamma
    report(8, f"Jing operators carry the same coefficients, "
              f"{time.time() - start:.1f}s")


def test_criterion_09_kostka_foulkes_sanity():
    assert kostka_foulkes((2,), (1, 1)) == QPoly({1: 1})
    assert kostka_foulkes((1, 1), (2,)).is_zero()
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert kostka_foulkes(lam, lam) == QPoly.one()
    for d in range(1, 6):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                n = max(len(lam), len(mu))
                gamma = tuple((x,) for x in pad_zeros(mu, n))
                assert kostka_foulkes(lam, mu) == \
                    kostka_vertex(pad_zeros(lam, n), gamma), (lam, mu)
    report(9, "Kostka-Foulkes sanity")


def test_criterion_10_performance(capsys):
    hlvertex.clear_caches()  # time a cold table, not one warmed by earlier criteria
    start = time.time()
    code = cli_main(["table", "--eta", "2,2", "--max-degree", "6",
                     "--method", "both"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split() == ["lambda", "gamma", "K"]
    assert elapsed < 60, f"table took {elapsed:.1f}s"
    # the inverse twist X -> X/(1-q) is where Q(q) denominators occur, so it
    # times the QRat reduction; a Fraction-based gcd took 7.5-9 s here
    hlvertex.clear_caches()
    start = time.time()
    pulled = apply_F(schur((4, 3, 3)), inverse=True)
    twist = time.time() - start
    assert len(pulled.terms()) == sum(1 for _ in partitions_of(10))
    assert twist < 5, f"inverse twist took {twist:.1f}s"
    with capsys.disabled():
        report(10, f"cold table eta=2,2 degree 6 in {elapsed:.3f}s, cold inverse "
                   f"twist of s_433 in {twist:.2f}s")
