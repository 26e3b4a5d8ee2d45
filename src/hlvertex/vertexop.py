"""Hall-Littlewood vertex operators as executable linear operators.

The operator indexed by a dominant weight nu of length k is defined on a
symmetric function f as

    sum over partitions lam, mu with at most k parts of
        cbar(lam; mu, nu) * s_lam * (s_mu[X(q-1)])-perp f,

where cbar is the GL(k) tensor multiplicity; only mu with |mu| <= deg f
contribute.  It is computed as the linear extension of a memoized kernel
on Schur functions over Z[q], one row of nu at a time: H_nu = sum over
j >= 0 of q^j S_{nu_1+j} H_{nu[1:]} h_j-perp, where h_j-perp removes a
horizontal strip of size j and Bernstein's S_a s_rho = s_{(a, rho)} is a
signed Schur function after straightening (see _H_schur); the strips of
each kappa are memoized as (tau, j) pairs.  A memoized Z[q] vector is a
tuple of (index, exponent, coefficient) triples, each index in one run
(see _frozen).  Every word and every Z[q]-combination of words runs
through one core, _act_into, which adds scale * H_nu(vec) into a caller's
{index: {exponent: int}} slot dict, each term inline; apply_H_sum folds a
word's signs and coefficient into that scale and builds QRat only for its
output.  The Kostka vertex engine reads one coefficient per key, by
_word_coefficient: _unbernstein pulls the memoized suffix vector
_word_on_one back through the first block, whose kernel is never built.
Jing's operators are obtained by conjugating with the plethystic twist
X -> X(1-q).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from operator import sub

from .coeffs import QPoly, QRat, _add_term
from .memo import memo
from .symfunc import (
    SCHUR,
    SymFunc,
    X_OVER_1MQ,
    X_TIMES_1MQ,
    convert,
    plethysm_substitute,
    schur_product_expansion,  # noqa: F401  not called; perfbench/tests wraps it here
)
from .weights import _as_word, _entry, is_dominant, straighten, trim_zeros


def _frozen(acc: dict) -> tuple:
    """The slot dict acc, {index: {exponent: int}}, as one tuple of
    (index, exponent, coefficient) triples in acc's order, zeros dropped:
    each index's triples form one run, and no (index, exponent) repeats."""
    return tuple([(idx, e, v) for idx, slot in acc.items() for e, v in slot.items() if v])


# the Z[q] polynomial 1, as (exponent, coefficient) pairs
_UNIT = ((0, 1),)


@memo
def _strips_below(sigma) -> tuple:
    """The (tau, |sigma/tau|) pairs with sigma/tau a horizontal strip, of
    any size: tau interlaces sigma, sigma_{i+1} <= tau_i <= sigma_i.
    Memoized, so each sigma's strips and sizes are listed once."""
    size = sum(sigma)
    floors = sigma[1:] + (0,)
    return tuple((trim_zeros(tau), size - sum(tau)) for tau in
                 itertools.product(*(range(lo, hi + 1) for lo, hi in zip(floors, sigma))))


@memo
def _bernstein(a: int, rho) -> tuple:
    """Bernstein's S_a on s_rho: (sign, lam) with S_a s_rho = sign * s_lam,
    from straightening (a, rho); (0, None) when it vanishes or leaves a
    negative last part, where the Jacobi-Trudi determinant is zero."""
    sign, lam = straighten((a,) + rho)
    if not sign or (lam and lam[-1] < 0):
        return 0, None
    return sign, trim_zeros(lam)


@memo
def _unbernstein(lam, a: int) -> tuple:
    """_bernstein pulled back, for a >= 0: (sign, rho) with S_a s_rho =
    sign * s_lam, or (0, None).  Such a rho has at most len(lam) parts, so
    with L = len(lam) + 1 and x = lam + (L-1, ..., 0), lam padded with a
    zero: if a + L - 1 is x_k, rho is the other x minus (L-2, ..., 0) and
    the sign is (-1)^(k-1); otherwise no rho maps to s_lam."""
    assert a >= 0, f"the pull-back needs a >= 0, got {a}"
    top = len(lam)  # L - 1
    x = [p + top - i for i, p in enumerate(lam)] + [0]
    if a + top not in x:
        return 0, None
    k = x.index(a + top)
    del x[k]
    return (-1 if k & 1 else 1), trim_zeros(map(sub, x, range(top - 1, -1, -1)))


@memo
def _H_schur(nu, kappa) -> tuple:
    """The kernel H_nu(s_kappa) over Z[q], in _frozen form: H_() is the
    identity, and with S_a s_rho from _bernstein,

        H_nu(s_kappa) = sum over tau with kappa/tau a horizontal strip of
            q^j S_{nu_1 + j} H_{nu[1:]}(s_tau),  j = |kappa/tau|.

    Derivation: H_nu f is the coefficient of z^nu in prod_{i<j}
    (1 - z_j/z_i) Omega[ZX] f[X + (q-1)/Z].  Splitting (q-1)/Z as
    q/Z - 1/Z gives the sum over compositions gamma of q^|gamma| z^-gamma
    (h_gamma-perp f)[X - 1/Z], and the Weyl factor times Omega[ZX]
    g[X - 1/Z] is Bernstein's ordered product, whose z^a coefficient on
    s_rho is s_{(a, rho)} (Garsia 1992; Jing 1991; Macdonald I.5 Ex. 29).
    So H_nu = sum over gamma of q^|gamma| S_{nu + gamma} h_gamma-perp; the
    h_j-perp commute, and splitting off gamma_1 = j gives the recursion,
    whose sub-kernels every block with the tail nu[1:] shares.  This
    holds for negative entries of nu too.  The fill takes a = nu_1 + j
    once per memoized (tau, j) pair, looks up S_a once per run of one
    index of the sub-kernel and adds each signed, shifted term inline."""
    if not nu:
        return ((kappa, 0, 1),)
    head, tail = nu[0], nu[1:]
    acc = defaultdict(dict)
    for tau, j in _strips_below(kappa):
        a = head + j
        last = None
        for rho, e, v in _H_schur(tail, tau):
            if rho is not last:
                last = rho
                sign, lam = _bernstein(a, rho)
                if sign:
                    slot = acc[lam]
            if sign:
                e += j
                slot[e] = slot.get(e, 0) + sign * v
    return _frozen(acc)


def _act_into(nu, vec, out: dict, scale) -> None:
    """out += scale * H_nu(vec) on Z[q] slots, for a dominant nu: vec as
    (kappa, exponent, coefficient) triples, scale as (exponent, int) pairs
    and out a defaultdict(dict), {kappa: {exponent: int}}, where zeros are
    left.  Each (vec term, scale term) pair walks the kernel's triples once
    and adds each term inline, with no helper call per term."""
    for kappa, s, w in vec:
        image = _H_schur(nu, kappa)
        for t, c in scale:
            shift, m = s + t, w * c
            for lam, e, v in image:
                slot = out[lam]
                e += shift
                slot[e] = slot.get(e, 0) + m * v


@memo
def _word_on_one(gamma) -> tuple:
    """H_{gamma_1} ... H_{gamma_m} 1 for a nonempty word of dominant blocks,
    in _frozen form, memoized on every suffix, which keys share: one block
    is the memoized kernel on s_() itself, and a longer word adds its first
    block's image of the suffix's vector into one fresh slot dict."""
    if len(gamma) == 1:
        return _H_schur(gamma[0], ())
    out = defaultdict(dict)
    _act_into(gamma[0], _word_on_one(gamma[1:]), out, _UNIT)
    return _frozen(out)


def _word_coefficient(gamma, lam) -> dict:
    """The Z[q] slot {exponent: int} of s_lam in H_{gamma_1} ... H_{gamma_m} 1,
    zeros left, for a word of partition blocks: the suffix's vector (or 1)
    through the first block nu, whose s_lam coefficient on s_kappa, read
    once per run of one kappa, sums q^j * sign * H_{nu[1:]}(s_tau)[rho] over
    the strips (tau, j) of kappa, with (sign, rho) = _unbernstein(lam,
    nu_1 + j), scanning the sub-kernel's triples: no kernel of nu is built."""
    head, tail = gamma[0][0], gamma[0][1:]
    vec = _word_on_one(gamma[1:]) if gamma[1:] else (((), 0, 1),)
    out: dict = {}
    last = None
    for kappa, s, w in vec:
        if kappa is not last:
            last, hits = kappa, []
            for tau, j in _strips_below(kappa):
                sign, rho = _unbernstein(lam, head + j)
                if sign:
                    hits += [(e + j, sign * v) for idx, e, v in _H_schur(tail, tau) if idx == rho]
        for e, v in hits:
            e += s
            out[e] = out.get(e, 0) + w * v
    return out


def apply_H(nu, f: SymFunc) -> SymFunc:
    """Apply the vertex operator indexed by the dominant weight nu (length
    0: the identity) to f; see apply_H_sum for where QRat is built."""
    nu = tuple(map(_entry, nu))
    if not is_dominant(nu):
        raise ValueError(f"{nu} is not dominant; use apply_H_word")
    return apply_H_sum((((nu,), QPoly.one()),), f)


def apply_H_word(blocks, f: SymFunc) -> SymFunc:
    """Apply a composite of vertex operators indexed by arbitrary integer
    weights, rightmost block first."""
    return apply_H_sum(((_as_word(blocks), QPoly.one()),), f)


def apply_H_sum(terms, f: SymFunc) -> SymFunc:
    """sum of c * word(f) over the (word, QPoly c) pairs of terms, in the
    Schur basis.  f is split once into Z[q] triple vectors by denominator,
    and c times the signs of a word's straightened blocks is one scale.  On
    a single s_kappa the first image is the memoized kernel itself, middle
    images are triple lists, and the leftmost block adds scale times its
    image straight into one Z[q] slot dict per denominator.  QRat is built
    once per denominator and Schur index whose slot does not cancel."""
    words = []  # (dominant blocks rightmost first, scale)
    for word, c in terms:
        sign, blocks = 1, []
        for s, nu in map(straighten, reversed(word)):
            if not s:
                break
            sign *= s
            blocks.append(nu)
        else:  # the empty word is the identity H_()
            words.append((blocks or [()], tuple((e, sign * v) for e, v in c._c.items())))
    parts: dict = {}  # denominator -> Z[q] vector
    for kappa, c in convert(f, SCHUR)._terms.items():
        parts.setdefault(c.den, []).extend((kappa, e, v) for e, v in c.num._c.items())
    out: dict = {}
    for den, vec in parts.items():
        unit = vec[0][0] if len(vec) == 1 and vec[0][1:] == (0, 1) else None
        acc = defaultdict(dict)
        for blocks, scale in words:
            image = vec
            if unit is not None and len(blocks) > 1:
                image = _H_schur(blocks[0], unit)
                blocks = blocks[1:]
            for nu in blocks[:-1]:
                mid = defaultdict(dict)
                _act_into(nu, image, mid, _UNIT)
                image = [(idx, e, v) for idx, slot in mid.items() for e, v in slot.items() if v]
            _act_into(blocks[-1], image, acc, scale)
        for idx, slot in acc.items():
            if any(slot.values()):
                _add_term(out, idx, QRat(QPoly(slot), den))
    return SymFunc(SCHUR, out)


def apply_F(f: SymFunc, inverse: bool = False) -> SymFunc:
    """The plethystic twist X -> X(1-q), or its inverse X -> X/(1-q)."""
    return plethysm_substitute(f, X_OVER_1MQ if inverse else X_TIMES_1MQ)


def apply_B(nu, f: SymFunc) -> SymFunc:
    """Jing's vertex operator, realized by conjugating the Hall-Littlewood
    operator with the plethystic twist."""
    return apply_F(apply_H(tuple(nu), apply_F(f, inverse=True)))
