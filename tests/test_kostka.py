"""Generalized Kostka polynomials: both engines, tables, recurrences."""

import gc
import itertools
import logging
import random
import time
import types
from fractions import Fraction

import pytest

import hlvertex
import hlvertex.kostka as kostka_module
from hlvertex.cli import main as cli_main
from hlvertex.coeffs import QPoly
from hlvertex.kostka import (
    blocked_weights,
    check_col_skew,
    compositions,
    kostant_series,
    kostka,
    kostka_foulkes,
    kostka_kostant,
    kostka_table,
    kostka_vertex,
    roots_set,
)
from hlvertex.memo import clear_caches
from hlvertex.symfunc import multiply, one, schur, specialize_q
from hlvertex.vertexop import _H_schur, _word_on_one
from hlvertex.weights import pad_zeros, partitions_of, trim_zeros


def naive_kostant(eta, d, bound):
    """Independent oracle: enumerate all root assignments up to a bound."""
    roots = roots_set(eta)
    n = sum(eta)
    coeffs = {}
    for values in itertools.product(range(bound + 1), repeat=len(roots)):
        wt = [0] * n
        for (i, j), m in zip(roots, values):
            wt[i - 1] += m
            wt[j - 1] -= m
        if tuple(wt) == tuple(d):
            total = sum(values)
            coeffs[total] = coeffs.get(total, 0) + 1
    return QPoly(coeffs)


def permutation_sum(lam, gamma):
    """Reference K by the definition: the signed kostant_series sum over
    every permutation, with the sign from a full inversion count."""
    eta = tuple(len(b) for b in gamma)
    n = sum(eta)
    flat = [x for b in gamma for x in b]
    if sum(lam) != sum(flat):
        return QPoly.zero()
    lam_rho = [lam[i] + n - 1 - i for i in range(n)]
    gamma_rho = [flat[i] + n - 1 - i for i in range(n)]
    total = QPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        d = [lam_rho[perm[i]] - gamma_rho[i] for i in range(n)]
        series = kostant_series(eta, d)
        total = total + (-series if inversions % 2 else series)
    return total


class TestRootsSet:
    def test_examples(self):
        assert roots_set((1, 1)) == ((1, 2),)
        assert roots_set((2,)) == ()
        assert roots_set((1, 1, 1)) == ((1, 2), (1, 3), (2, 3))
        assert roots_set((2, 1)) == ((1, 3), (2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            roots_set((1, 0))


class TestKostantSeries:
    def test_examples(self):
        assert kostant_series((1, 1), (0, 0)) == QPoly.one()
        assert kostant_series((1, 1), (1, -1)) == QPoly({1: 1})
        assert kostant_series((1, 1, 1), (1, 0, -1)) == QPoly({1: 1, 2: 1})

    def test_infeasible(self):
        assert kostant_series((1, 1), (1, 0)).is_zero()
        assert kostant_series((1, 1), (-1, 1)).is_zero()
        assert kostant_series((2,), (1, -1)).is_zero()

    @pytest.mark.parametrize("eta", [(1, 2, -1), (1, 0, 1)])
    def test_rejects_nonpositive_blocks(self, eta):
        with pytest.raises(ValueError, match="^block sizes must be positive$"):
            kostant_series(eta, (1, -1))

    def test_rejects_a_weight_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^weight length must match the shape$"):
            kostant_series((1, 1), (1,))

    def test_against_naive_oracle(self):
        rng = random.Random(2024)
        etas = [eta for n in range(2, 5) for eta in compositions(n)]
        for _ in range(40):
            eta = rng.choice(etas)
            n = sum(eta)
            d = [rng.randint(-2, 2) for _ in range(n - 1)]
            d.append(-sum(d))
            d = tuple(d)
            assert kostant_series(eta, d) == naive_kostant(eta, d, 4)

    def test_every_composition_up_to_5_against_oracle(self):
        # no root carries more than the prefix sum at its source, so the
        # largest prefix bounds the oracle's search exactly; d is drawn
        # from prefix walks (mostly feasible) and unconstrained (mostly not)
        rng = random.Random(5)
        for n in range(1, 6):
            for eta in compositions(n):
                roots = len(roots_set(eta))
                top = max(b for b in range(4) if (b + 1) ** roots <= 6000)
                for trial in range(6):
                    if trial < 4:
                        heights = [rng.randint(0, top) for _ in range(n - 1)] + [0]
                        d = [b - a for a, b in zip([0] + heights, heights)]
                    else:
                        d = [rng.randint(-2, 2) for _ in range(n - 1)]
                        d.append(-sum(d))
                    bound = max(itertools.accumulate(d))
                    if (bound + 1) ** roots > 6000:
                        continue
                    assert kostant_series(eta, d) == naive_kostant(eta, d, max(bound, 0)), \
                        (eta, d)


class TestEngines:
    def test_frozen_values(self):
        assert kostka_kostant((2, 0), ((1,), (1,))) == QPoly({1: 1})
        assert kostka_kostant((1, 1), ((1,), (1,))) == QPoly.one()
        assert kostka_kostant((1, 1), ((1, 1),)) == QPoly.one()
        assert kostka_vertex((2, 0), ((1,), (1,))) == QPoly({1: 1})

    def test_single_block_is_delta(self):
        for lam in partitions_of(4, max_len=3):
            lam3 = pad_zeros(lam, 3)
            for gam in partitions_of(4, max_len=3):
                gam3 = pad_zeros(gam, 3)
                want = QPoly.one() if lam3 == gam3 else QPoly.zero()
                assert kostka_vertex(lam3, (gam3,)) == want
                assert kostka_kostant(lam3, (gam3,)) == want

    @pytest.mark.parametrize("method", ["kostant", "vertex", "both"])
    def test_empty_block_or_key_is_refused(self, method):
        with pytest.raises(ValueError, match="block 2 of .* is empty"):
            kostka((1,), ((1,), ()), method=method)
        with pytest.raises(ValueError, match="the key is empty"):
            kostka((), (), method=method)

    def test_degree_mismatch_is_zero(self):
        assert kostka_kostant((2, 0), ((1,), (0,))).is_zero()
        assert kostka_vertex((2, 0), ((1,), (0,))).is_zero()

    def test_engines_agree_small_grid(self):
        for n in range(1, 4):
            for eta in compositions(n):
                for d in range(0, 5):
                    lams = [pad_zeros(p, n)
                            for p in partitions_of(d, max_len=n, max_part=3)]
                    for gamma in blocked_weights(eta, d, max_part=3):
                        for lam in lams:
                            assert kostka(lam, gamma, method="both") is not None

    def test_walk_matches_permutation_sum(self):
        for n in range(1, 6):
            for eta in compositions(n):
                for d in range(0, 5):
                    lams = [pad_zeros(p, n)
                            for p in partitions_of(d, max_len=n, max_part=3)]
                    for gamma in blocked_weights(eta, d, max_part=2):
                        for lam in lams:
                            assert kostka_kostant(lam, gamma) == \
                                permutation_sum(lam, gamma), (lam, gamma)
        for lam, gamma in [((2, 0, -1), ((1, 0), (0,))),
                           ((1, 0, -1), ((1, -1), (0,))),
                           ((3, 3, 1, 0, 0, 0), ((2, 1), (2,), (1, 1, 0)))]:
            assert kostka_kostant(lam, gamma) == permutation_sum(lam, gamma)

    def test_walk_advances_only_nonempty_frontiers(self, monkeypatch):
        frontiers = []
        advance = kostka_module._advance

        def recording(frontier, d_block, prefix_block):
            frontiers.append(frontier)
            return advance(frontier, d_block, prefix_block)

        clear_caches()
        monkeypatch.setattr(kostka_module, "_advance", recording)
        for eta in compositions(4):
            for d in range(0, 6):
                for gamma in blocked_weights(eta, d, max_part=3):
                    for p in partitions_of(d, max_len=4):
                        kostka_kostant(pad_zeros(p, 4), gamma)
        assert frontiers and all(frontiers)

    @staticmethod
    def advanced_positions(monkeypatch):
        counted = []
        advance = kostka_module._advance

        def counting(frontier, d_block, prefix_block):
            counted.append(len(d_block))
            return advance(frontier, d_block, prefix_block)

        monkeypatch.setattr(kostka_module, "_advance", counting)
        return counted

    def test_cold_rank_10_singleton_is_fast(self, monkeypatch):
        counted = self.advanced_positions(monkeypatch)
        clear_caches()
        start = time.perf_counter()
        assert kostka_kostant((10,) + (0,) * 9, ((1,),) * 10) == QPoly({45: 1})
        assert time.perf_counter() - start < 2.0
        # each walk node advances at most its own position: 14570 in all
        assert sum(counted) < 15_000

    def test_wide_block_is_cut_inside_the_block(self, monkeypatch):
        # every prefix stays nonnegative, but position 1 already needs units
        # that no earlier block can supply, so no order of the block closes
        counted = self.advanced_positions(monkeypatch)
        assert kostka_kostant((1000,) + (0,) * 9, ((100,) * 10,)).is_zero()
        assert counted == []

    @pytest.mark.parametrize("n", [12, 200])  # 200! is past any float
    def test_refused_key_advances_no_frontier(self, monkeypatch, n):
        # the frontier-free counting pass refuses the singleton key before
        # the walk advances anything
        counted = self.advanced_positions(monkeypatch)
        message = (f"^the Kostant walk at rank {n} passes 100000 nodes; "
                   'use method="vertex" \\(--method vertex\\)$')
        with pytest.raises(ValueError, match=message):
            kostka_kostant((n,) + (0,) * (n - 1), ((1,),) * n)
        assert counted == []

    def test_rank_11_singleton_within_budget(self):
        assert kostka_kostant((11,) + (0,) * 10, ((1,),) * 11) == QPoly({55: 1})

    def test_engines_agree_n5_grid_and_n6_sample(self):
        for eta in compositions(5):
            for d in range(0, 7):
                lams = [pad_zeros(p, 5) for p in partitions_of(d, max_len=5, max_part=3)]
                for gamma in blocked_weights(eta, d, max_part=3):
                    for lam in lams:
                        assert kostka_kostant(lam, gamma) == \
                            kostka_vertex(lam, gamma), (lam, gamma)
        rng = random.Random(60)
        etas6 = list(compositions(6))
        sampled = 0
        while sampled < 200:
            eta = rng.choice(etas6)
            d = rng.randint(0, 8)
            lams = [pad_zeros(p, 6) for p in partitions_of(d, max_len=6, max_part=3)]
            gammas = list(blocked_weights(eta, d, max_part=3))
            if not lams or not gammas:
                continue
            lam, gamma = rng.choice(lams), rng.choice(gammas)
            assert kostka_kostant(lam, gamma) == kostka_vertex(lam, gamma), (lam, gamma)
            sampled += 1

    def test_negative_entry_keys_agree(self):
        # dominant blocks with negative entries go through the shift rule
        cases = [
            ((1, -1), ((0,), (0,))),
            ((0, 0), ((1,), (-1,))),
            ((2, 0, -1), ((1, 0), (0,))),
            ((1, 0, -1), ((1, -1), (0,))),
        ]
        for lam, gamma in cases:
            assert kostka_kostant(lam, gamma) == kostka_vertex(lam, gamma)

    def test_shift_invariance(self):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(2, 3)
            eta = rng.choice(list(compositions(n)))
            d = rng.randint(0, 4)
            gammas = list(blocked_weights(eta, d, max_part=3))
            lams = [pad_zeros(p, n) for p in partitions_of(d, max_len=n, max_part=3)]
            if not gammas or not lams:
                continue
            gamma = rng.choice(gammas)
            lam = rng.choice(lams)
            base = kostka_kostant(lam, gamma)
            for a in (-2, -1, 1, 2):
                lam_s = tuple(x + a for x in lam)
                gamma_s = tuple(tuple(x + a for x in b) for b in gamma)
                assert kostka_kostant(lam_s, gamma_s) == base
                assert kostka_vertex(lam_s, gamma_s) == base

    def test_q1_assembles_schur_product(self):
        for eta in [(1, 1), (2, 1)]:
            n = sum(eta)
            for d in (2, 3):
                for gamma in blocked_weights(eta, d, max_part=2):
                    prod = one()
                    for b in gamma:
                        prod = multiply(prod, schur(trim_zeros(b)))
                    want = specialize_q(prod, 1)
                    got = {}
                    for p in partitions_of(d, max_len=n):
                        lam = pad_zeros(p, n)
                        k1 = Fraction(sum(
                            c for _, c in kostka_kostant(lam, gamma).items()), 1)
                        if k1:
                            got[trim_zeros(lam)] = k1
                    assert got == want



class TestValidateOnce:
    def test_both_validates_each_key_once(self, monkeypatch):
        calls = []
        validate = kostka_module._validate_key
        monkeypatch.setattr(kostka_module, "_validate_key",
                            lambda lam, gamma: calls.append(lam) or validate(lam, gamma))
        assert not kostka((2, 1, 0), ((2, 1), (0,)), method="both").is_zero()
        assert len(calls) == 1
        for method in ("kostant", "vertex"):
            calls.clear()
            kostka((2, 1, 0), ((2, 1), (0,)), method=method)
            assert len(calls) == 1

    def test_table_does_not_recheck_its_keys(self, monkeypatch):
        calls = []
        validate = kostka_module._validate_key
        monkeypatch.setattr(kostka_module, "_validate_key",
                            lambda lam, gamma: calls.append(lam) or validate(lam, gamma))
        assert kostka_table((2, 2), 4)
        assert calls == []

    @pytest.mark.parametrize("lam,gamma,message", [
        ((1,), (), "the key is empty"),
        ((1, 0), ((1,), ()), r"block 2 of \(\(1,\), \(\)\) is empty"),
        ((1,), ((1,), (0,)), "lambda must have length 2"),
        ((0, 1), ((1,), (0,)), r"\(0, 1\) is not dominant"),
        ((1, 0), ((0, 1),), r"block \(0, 1\) is not dominant"),
    ])
    def test_both_keeps_the_messages(self, lam, gamma, message):
        for method in ("both", "kostant", "vertex"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                kostka(lam, gamma, method=method)

    def test_unknown_method_is_refused_before_the_key(self):
        for lam, gamma in [((1,), ((1,),)), ((0, 1), ((1,), (0,)))]:
            with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
                kostka(lam, gamma, method="bogus")


class TestEngineDisagreement:
    """method 'both' is a check only if a disagreement is reported."""

    @pytest.fixture
    def wrong_vertex(self, monkeypatch):
        kostant = kostka_module._kostka_kostant
        monkeypatch.setattr(kostka_module, "_kostka_vertex",
                            lambda *key: kostant(*key) + QPoly.one())

    MESSAGE = r"^engine disagreement at lam=\(2, 1, 0\) gamma=\(\(2, 1\), \(0,\)\): "

    def test_kostka_raises(self, wrong_vertex):
        with pytest.raises(RuntimeError, match=self.MESSAGE):
            kostka((2, 1, 0), ((2, 1), (0,)), method="both")
        assert kostka((2, 1, 0), ((2, 1), (0,)), method="kostant") == QPoly.one()

    def test_table_raises(self, wrong_vertex):
        with pytest.raises(RuntimeError, match="^engine disagreement at lam=.* gamma="):
            kostka_table((1, 1), 2, method="both")

    @pytest.mark.parametrize("argv", [
        ("kostka", "--lambda", "2,1,0", "--gamma", "2,1;0"),
        ("table", "--eta", "1,1", "--max-degree", "2"),
    ], ids=["kostka", "table"])
    def test_cli_exits_1(self, wrong_vertex, capsys, argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: engine disagreement at lam=")


class TestVertexEngineVectors:
    def test_memoized_vectors_are_read_only(self):
        clear_caches()
        key = ((2, 1), (1,))
        vec = _word_on_one(key)
        with pytest.raises(TypeError):
            vec[0] = ((9,), 0, 1)
        with pytest.raises(TypeError):
            del vec[0]
        assert type(vec) is tuple and all(type(t) is tuple for t in vec)
        hash(vec)  # TypeError if any part, down to the indices, is mutable
        # one block is the memoized kernel on 1 itself, not a copy
        base = _word_on_one(((2, 1),))
        assert base is _H_schur((2, 1), ())
        with pytest.raises(TypeError):
            base[0] = ((), 0, 2)
        assert kostka_vertex((3, 1, 0), key) == kostka_kostant((3, 1, 0), key)

    def test_negative_exponent_is_refused(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(kostka_module, "_word_coefficient", lambda gamma, lam: {-1: 1})
        try:
            with pytest.raises(ArithmeticError, match="non-polynomial"):
                kostka_vertex((1,), ((1,),))
        finally:
            clear_caches()


class TestNoGarbage:
    def test_keys_leave_no_cycles(self):
        # every object a key builds is freed by reference counting, with
        # cold caches on every path: the grid key under "both", the rank-8
        # singleton key (its counting pass too), a Kostka-Foulkes value,
        # the column-skew check and a small table
        enabled = gc.isenabled()
        gc.disable()
        try:
            kostka((2, 1, 0), ((1,), (1, 1)))  # warm-up
            clear_caches()
            gc.collect()
            assert kostka((3, 2, 1, 0), ((2, 1), (2, 1))) == QPoly({2: 2})
            assert kostka((8,) + (0,) * 7, ((1,),) * 8) == QPoly({28: 1})
            assert kostka_foulkes((3, 1), (2, 1, 1)) == QPoly({1: 1, 2: 1})
            assert check_col_skew((2, 1, 0, 0), ((2, 1), (1, 0)), 1)
            assert len(kostka_table((2, 2), 4)) == 16
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestKostkaFoulkes:
    def test_examples(self):
        assert kostka_foulkes((2,), (1, 1)) == QPoly({1: 1})
        assert kostka_foulkes((1, 1), (2,)).is_zero()
        for d in range(1, 5):
            for lam in partitions_of(d):
                assert kostka_foulkes(lam, lam) == QPoly.one()

    def test_known_table_n3(self):
        assert kostka_foulkes((3,), (1, 1, 1)) == QPoly({3: 1})
        assert kostka_foulkes((2, 1), (1, 1, 1)) == QPoly({1: 1, 2: 1})
        assert kostka_foulkes((3,), (2, 1)) == QPoly({1: 1})

    def test_q0_is_delta_for_partition_weight(self):
        for d in range(1, 5):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    v = kostka_foulkes(lam, mu).coeff(0)
                    assert v == (1 if lam == mu else 0)

    def test_matches_vertex_engine(self):
        for d in range(1, 5):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    n = max(len(lam), len(mu))
                    gamma = tuple((x,) for x in pad_zeros(mu, n))
                    assert kostka_foulkes(lam, mu) == \
                        kostka_vertex(pad_zeros(lam, n), gamma)

    def test_one_row_at_eight_and_nine_singletons(self):
        # K((n), (1^n)) = q^{n(n-1)/2}, a sum over 8! and 9! permutations
        for n in (8, 9):
            assert kostka_foulkes((n,), (1,) * n) == QPoly({n * (n - 1) // 2: 1})

    def test_requires_equal_size(self):
        with pytest.raises(ValueError):
            kostka_foulkes((2,), (1,))

    def test_requires_partitions(self):
        with pytest.raises(ValueError, match="^kostka_foulkes expects partitions$"):
            kostka_foulkes((1, 2), (3,))


class TestTable:
    def test_eta11_bound2(self):
        rows = kostka_table((1, 1), 2)
        assert len(rows) == 4
        key = {(trim_zeros(r["lambda"]),
                tuple(trim_zeros(b) for b in r["gamma"])): r["K"] for r in rows}
        assert key[((2,), ((1,), (1,)))] == QPoly({1: 1})
        assert key[((1, 1), ((1,), (1,)))] == QPoly.one()
        assert key[((1,), ((1,), ()))] == QPoly.one()
        assert key[((2,), ((2,), ()))] == QPoly.one()

    def test_single_block_identity_table(self):
        rows = kostka_table((3,), 3)
        for r in rows:
            assert r["lambda"] == r["gamma"][0]
            assert r["K"] == QPoly.one()

    def test_engine_cross_check_runs(self):
        rows = kostka_table((2, 1), 3, method="both")
        assert all(not r["K"].is_zero() for r in rows)

    def test_negative_coefficient_is_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(kostka_module, "_kostka", lambda lam, gamma, eta, method: -QPoly.q())
        with caplog.at_level(logging.WARNING, logger="hlvertex.kostka"):
            rows = kostka_table((1,), 1)
        assert [r["K"] for r in rows] == [-QPoly.q()]
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("hlvertex.kostka", logging.WARNING,
             "negative coefficient in K at lam=(1,) gamma=((1,),): -q")]


class TestColSkew:
    def test_example(self):
        assert check_col_skew((1, 0), ((1,), (1,)), 1)

    def test_degenerate_k0(self):
        assert check_col_skew((2, 0), ((1,), (1,)), 0)

    def test_random_instances(self):
        rng = random.Random(99)
        etas = [eta for n in range(2, 5) for eta in compositions(n)]
        done = 0
        while done < 25:
            eta = rng.choice(etas)
            n = sum(eta)
            d = rng.randint(1, 4)
            gammas = list(blocked_weights(eta, d, max_part=3))
            if not gammas:
                continue
            gamma = rng.choice(gammas)
            k = rng.randint(0, d)
            alphas = [pad_zeros(p, n) for p in partitions_of(d - k, max_len=n)]
            if not alphas:
                continue
            alpha = rng.choice(alphas)
            assert check_col_skew(alpha, gamma, k)
            done += 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            check_col_skew((1, 0), ((1,), (1,)), 3)

    # a bad key is refused even where both sums are empty
    @pytest.mark.parametrize("alpha,gamma,k,message", [
        ((1, 0, 0), ((5,), (0,)), 4, "lambda must have length 2"),
        ((0, 1), ((5,), (0,)), 4, r"\(0, 1\) is not dominant"),
        ((2, 0), ((1,), (0,)), -1, "k must be nonnegative, got -1"),
    ], ids=["too-long", "not-dominant", "negative-k"])
    def test_bad_key_is_refused(self, alpha, gamma, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_col_skew(alpha, gamma, k)

    def test_validates_its_key_once(self, monkeypatch):
        calls = []
        validate = kostka_module._validate_key
        monkeypatch.setattr(kostka_module, "_validate_key",
                            lambda lam, gamma: calls.append(lam) or validate(lam, gamma))
        assert check_col_skew((2, 1, 0, 0), ((2, 1), (1, 0)), 1)
        assert calls == [(2, 1, 0, 0)]


def test_package_attribute_kostka_is_the_module():
    assert isinstance(hlvertex.kostka, types.ModuleType)
    assert kostka_module is hlvertex.kostka
    assert kostka_module.kostka is kostka
