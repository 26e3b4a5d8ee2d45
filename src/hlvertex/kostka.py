"""Generalized Kostka polynomials by two independent engines.

The Kostant engine antisymmetrizes a block-triangular partition-function
count: a depth-first walk over the symmetric group advances one forward
count over multisets of unspent supplies block by block, so permutations
sharing a prefix share its count, and refuses past a fixed node budget.
The vertex engine reads the one Schur coefficient of s_lam in a composite
of Hall-Littlewood vertex operators applied to 1.  Agreement of the two is
the library's central cross-check; neither uses the other.  A key frees
all it builds by reference counting: no call leaves a cycle.
"""

from __future__ import annotations

import itertools
import math

from .coeffs import QPoly, _add_slot
from .memo import memo
from .vertexop import _word_coefficient
from .weights import (
    _as_word,
    _entry,
    is_dominant,
    is_partition,
    pad_zeros,
    partitions_of,
    trim_zeros,
    vertical_strip_grow,
    vertical_strip_shrink,
)


# the most nodes the Kostant engine's permutation walk may visit
_MAX_WALK_NODES = 100_000

_METHODS = ("kostant", "vertex", "both")


def roots_set(eta) -> tuple:
    """Strictly upper block-triangular positions (1-indexed pairs) for
    diagonal block sizes eta."""
    eta = tuple(map(_entry, eta))
    if any(e < 1 for e in eta):
        raise ValueError("block sizes must be positive")
    n = sum(eta)
    block_of = []
    for b, size in enumerate(eta):
        block_of.extend([b] * size)
    return tuple((i + 1, j + 1)
                 for i in range(n) for j in range(i + 1, n)
                 if block_of[i] < block_of[j])


def kostant_series(eta, d) -> QPoly:
    """Generating polynomial sum q^{|m|} over maps m from the block
    root set to the naturals whose weight sum(i,j) m(i,j)(e_i - e_j)
    equals d.

    Read m as units flowing from each position to positions of later
    blocks.  Crossing each cut p then carries exactly the prefix sum
    d_1 + ... + d_p, which detects infeasibility (negative prefix,
    nonzero total) outright and caps what a position may send on.  The
    maps are counted, not visited, by folding _advance over the blocks.
    """
    eta, d = tuple(map(_entry, eta)), tuple(map(_entry, d))
    if any(e < 1 for e in eta):
        raise ValueError("block sizes must be positive")
    if len(d) != sum(eta):
        raise ValueError("weight length must match the shape")
    prefix = tuple(itertools.accumulate(d))
    if (prefix and prefix[-1] != 0) or any(p < 0 for p in prefix):
        return QPoly.zero()
    frontier = {((), ()): {0: 1}}
    for start, size in zip(itertools.accumulate((0,) + eta), eta):
        block = slice(start, start + size)
        frontier = _advance(frontier, d[block], prefix[block])
    return QPoly(frontier.get(((), ()), {}))


def _advance(frontier, d_block, prefix_block) -> dict:
    """Push the forward count {(earlier, own): {|m|: count}} through one
    block.  A state holds the sorted nonzero supplies still unspent: those
    of earlier blocks, all valid sources for the next position, and the
    block's own, which join them when it closes.  A position's units
    cross every cut to the block's end, which caps them by the least
    prefix sum there."""
    last = len(d_block) - 1
    for k, dj in enumerate(d_block):
        cap = min(prefix_block[k:])
        closes = k == last
        nxt: dict = {}
        for (earlier, own), series in frontier.items():
            terms = series.items()
            for (state, taken), ways in _moves(earlier, own, dj, cap, closes).items():
                slot = nxt.get(state)
                if slot is None:
                    nxt[state] = slot = {}
                for e, v in terms:
                    e += taken
                    slot[e] = slot.get(e, 0) + ways * v
        frontier = nxt
    return frontier


@memo
def _moves(earlier, own, dj, cap, closes) -> dict:
    """{(next state, units taken): ways} for one position of weight dj:
    how many units it takes from each earlier supply, then what it holds.
    Equal supplies make distinct maps that reach the same next state."""
    need = max(0, -dj)
    max_in = cap - dj
    last = len(earlier)
    left = [0] * last
    moves: dict = {}

    def distribute(si: int, taken: int, avail: int):
        if taken + avail < need:
            return
        if si == last:
            supply = dj + taken
            rest = [r for r in left if r]
            mine = list(own) + [supply] if supply else list(own)
            if closes:
                rest, mine = rest + mine, []
            state = (tuple(sorted(rest)), tuple(sorted(mine)))
            moves[state, taken] = moves.get((state, taken), 0) + 1
            return
        supply = earlier[si]
        for take in range(min(supply, max_in - taken) + 1):
            left[si] = supply - take
            distribute(si + 1, taken + take, avail - supply)

    try:
        if max_in >= need:
            distribute(0, 0, sum(earlier))
    finally:
        distribute = None  # it refers to itself: release it, or the call leaves a cycle
    return moves


def _validate_key(lam, gamma):
    lam, gamma = tuple(map(_entry, lam)), _as_word(gamma)
    if not gamma or () in gamma:
        which = f"block {gamma.index(()) + 1} of {gamma}" if gamma else "the key"
        raise ValueError(f"{which} is empty")
    eta = tuple(len(b) for b in gamma)
    n = sum(eta)
    if len(lam) != n:
        raise ValueError(f"lambda must have length {n}")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    for b in gamma:
        if not is_dominant(b):
            raise ValueError(f"block {b} is not dominant")
    return lam, gamma, eta


def kostka_kostant(lam, gamma) -> QPoly:
    """K(lam, gamma, eta)(q) by signed summation of kostant_series over
    the symmetric group.

    The walk assigns d_i = lam_rho[perm(i)] - gamma_rho[i] depth-first
    and advances kostant_series' forward count as each block completes,
    so leaves sharing a prefix share its count.  Units flow only to later
    blocks, so a map of weight d exists exactly when, for every block, the
    prefix sum before it plus its negative entries stays nonnegative; the
    walk cuts a branch as soon as that fails.  As lam_rho strictly
    decreases, so does d_i over the free values, and the first failing
    value ends the scan.  Choosing a value adds the still-unused smaller
    values to the inversion count.  A walk of more than _MAX_WALK_NODES
    nodes raises ValueError, from a frontier-free counting pass first when
    the unpruned tree, sum over k of n!/(n-k)!, could pass that budget.
    """
    return _kostka_kostant(*_validate_key(lam, gamma))


def _kostka_kostant(lam, gamma, eta) -> QPoly:
    n = sum(eta)
    flat = tuple(x for b in gamma for x in b)
    if sum(lam) != sum(flat):
        return QPoly.zero()
    lam_rho = tuple(lam[i] + (n - 1 - i) for i in range(n))
    gamma_rho = tuple(flat[i] + (n - 1 - i) for i in range(n))
    starts = [-1] * (n + 1)  # the start of the block ending at each position
    for start, size in zip(itertools.accumulate((0,) + eta), eta):
        starts[start + size] = start
    coeffs: dict = {}
    d = [0] * n
    prefix = [0] * n
    used = [False] * n
    budget = _MAX_WALK_NODES

    # frontier counts d up to the last block end; floor: prefix sum there plus the negatives since
    def walk(i: int, frontier: dict, floor: int, inversions: int):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ValueError(f"the Kostant walk at rank {n} passes {_MAX_WALK_NODES} "
                             "nodes; use method=\"vertex\" (--method vertex)")
        start = starts[i]
        if start >= 0:
            frontier = advance(frontier, d[start:i], prefix[start:i])
            floor = prefix[i - 1]
        if i == n:
            _add_slot(coeffs, frontier[(), ()].items(), -1 if inversions % 2 else 1)
            return
        partial = prefix[i - 1] if i else 0
        smaller = 0
        for v in range(n):
            if used[v]:
                continue
            step = lam_rho[v] - gamma_rho[i]
            low = floor + min(step, 0)
            if low < 0:
                break
            used[v] = True
            d[i], prefix[i] = step, partial + step
            walk(i + 1, frontier, low, inversions + smaller)
            used[v] = False
            smaller += 1

    try:
        if math.factorial(n) > _MAX_WALK_NODES / math.e:  # e * n! > sum of n!/(n-k)!
            # the cuts never read the frontier, so an empty one visits the same nodes
            advance = lambda frontier, d_block, prefix_block: frontier  # noqa: E731
            walk(0, {((), ()): {}}, 0, 0)
            budget = _MAX_WALK_NODES
        advance = _advance
        walk(0, {((), ()): {0: 1}}, 0, 0)
    finally:
        walk = None  # it refers to itself: release it, or the call leaves a cycle
    return QPoly._raw({e: v for e, v in coeffs.items() if v})


def kostka_vertex(lam, gamma) -> QPoly:
    """K(lam, gamma, eta)(q) as the coefficient of the Schur function
    indexed by lam in the composite vertex operator word applied to 1.

    Keys are first shifted by a constant vector so every block is a
    partition; the polynomial is invariant under that shift.
    """
    return _kostka_vertex(*_validate_key(lam, gamma))


def _kostka_vertex(lam, gamma, eta) -> QPoly:
    """kostka_vertex on a key from _validate_key, like _kostka_kostant."""
    if sum(lam) != sum(map(sum, gamma)):
        return QPoly.zero()
    a = -min(lam[-1], *(b[-1] for b in gamma))
    lam_s, gamma_s = lam, gamma
    if a > 0:
        lam_s = tuple(x + a for x in lam)
        gamma_s = tuple(tuple(x + a for x in b) for b in gamma)
    slot = _word_coefficient(gamma_s, trim_zeros(lam_s))
    c = {e: v for e, v in slot.items() if v}
    if any(e < 0 for e in c):
        raise ArithmeticError(
            f"vertex engine produced a non-polynomial value for {lam}, {gamma}")
    return QPoly._raw(c)


def kostka(lam, gamma, method: str = "both") -> QPoly:
    """K(lam, gamma, eta)(q) by method 'kostant', 'vertex', or 'both',
    which runs the two engines independently and raises on disagreement.
    The method is checked first, then the key, once."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _kostka(*_validate_key(lam, gamma), method)


def _kostka(lam, gamma, eta, method: str) -> QPoly:
    """kostka on a key from _validate_key and a known method."""
    if method == "kostant":
        return _kostka_kostant(lam, gamma, eta)
    if method == "vertex":
        return _kostka_vertex(lam, gamma, eta)
    a = _kostka_kostant(lam, gamma, eta)
    b = _kostka_vertex(lam, gamma, eta)
    if a != b:
        raise RuntimeError(
            f"engine disagreement at lam={lam} gamma={gamma}: "
            f"kostant={a} vertex={b}")
    return a


def kostka_foulkes(lam, mu) -> QPoly:
    """The classical one-column-blocks case: mu is split into singleton
    blocks and the shape is all ones."""
    lam, mu = trim_zeros(map(_entry, lam)), trim_zeros(map(_entry, mu))
    if not is_partition(lam) or not is_partition(mu):
        raise ValueError("kostka_foulkes expects partitions")
    if sum(lam) != sum(mu):
        raise ValueError("kostka_foulkes needs |lam| == |mu|")
    n = max(len(lam), len(mu), 1)
    gamma = tuple((x,) for x in pad_zeros(mu, n))
    return _kostka_kostant(pad_zeros(lam, n), gamma, (1,) * n)


def blocked_weights(eta, degree: int, max_part: int | None = None):
    """All blocked weights on eta whose blocks are partitions with the
    given total size (entries bounded by max_part when supplied)."""
    eta = tuple(eta)
    if not eta:
        if degree == 0:
            yield ()
        return
    size = eta[0]
    for d in range(degree + 1):
        for part in partitions_of(d, max_len=size, max_part=max_part):
            head = pad_zeros(part, size)
            for rest in blocked_weights(eta[1:], degree - d, max_part):
                yield (head,) + rest


def kostka_table(eta, degree_bound: int, method: str = "both") -> list:
    """Nonzero K values for all keys with nonnegative entries, dominant
    concatenated gamma, and 1 <= |lam| = |gamma| <= degree_bound.

    With method 'both' every key is computed by the two engines and any
    disagreement raises.  The keys built here are well-formed, so none is
    checked again.  Rows are dicts sorted by (degree, lam, gamma);
    negative coefficients are legal but unexpected for these keys and are
    logged as warnings.  An unknown method, an empty eta, a part of eta
    below 1 or a negative degree_bound is refused up front.
    """
    eta = tuple(map(_entry, eta))
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not eta or any(e < 1 for e in eta):
        raise ValueError(f"eta parts must be positive, got {eta!r}")
    if _entry(degree_bound) < 0:
        raise ValueError(f"degree_bound must be nonnegative, got {degree_bound}")
    n = sum(eta)
    rows = []
    for d in range(1, degree_bound + 1):
        lams = [pad_zeros(p, n) for p in partitions_of(d, max_len=n)]
        for gamma in blocked_weights(eta, d):
            flat = tuple(x for b in gamma for x in b)
            if not is_dominant(flat):
                continue
            for lam in lams:
                value = _kostka(lam, gamma, eta, method)
                if value.is_zero():
                    continue
                if any(c < 0 for _, c in value.items()):
                    import logging  # on use: a rare path, and a costly import
                    logging.getLogger("hlvertex.kostka").warning(
                        "negative coefficient in K at lam=%s gamma=%s: %s",
                        lam, gamma, value)
                rows.append({"lambda": lam, "gamma": gamma, "eta": eta, "K": value})
    rows.sort(key=lambda r: (sum(r["lambda"]), r["lambda"], r["gamma"]))
    return rows


def check_col_skew(alpha, gamma, k: int) -> bool:
    """Column-skew recurrence: the sum of K(alpha, nu) over blockwise
    vertical co-strips nu of gamma with |gamma| - |nu| = k equals the sum
    of K(lam, gamma) over vertical strips lam over alpha with
    |lam| - |alpha| = k.  Evaluated exactly through the Kostant engine.
    The key (alpha, gamma) is checked once; the co-strips of gamma and
    the strips over alpha are dominant of the same shape, so they go in
    unchecked."""
    alpha, gamma, eta = _validate_key(alpha, gamma)
    if _entry(k) < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    flat = tuple(x for b in gamma for x in b)
    if sum(flat) - sum(alpha) != k:
        raise ValueError("need |gamma| - |alpha| == k")
    left = QPoly.zero()
    per_block = [vertical_strip_shrink(b) for b in gamma]
    for choice in itertools.product(*per_block):
        dropped = sum(sum(g) - sum(c) for g, c in zip(gamma, choice))
        if dropped != k:
            continue
        left = left + _kostka_kostant(alpha, choice, eta)
    right = QPoly.zero()
    for lam in vertical_strip_grow(alpha):
        if sum(lam) - sum(alpha) != k:
            continue
        right = right + _kostka_kostant(lam, gamma, eta)
    return left == right


def compositions(n: int):
    """All sequences of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest
