"""Integer-vector combinatorics: dominant weights, straightening, strips.

Weights are plain tuples of ints.  The empty tuple is a legal weight of
length 0 (it indexes the identity operator).  All functions are pure.
This module owns the library's one integer-weight check, _entry and
_as_word, which every public entry calls on the weights it is given (a
word block that is not a sequence is refused too); the other helpers here
take trusted weights and check nothing.
"""

from __future__ import annotations

import itertools
from operator import add, ge, gt, index, sub

from .memo import memo


def _entry(x) -> int:
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"word entry {x!r} is not an integer") from None


def _as_word(word) -> tuple:
    try:
        return tuple(tuple(map(_entry, block)) for block in word)
    except TypeError:  # the word or some block is not iterable: name it
        try:
            blocks = iter(word)
        except TypeError:
            raise ValueError(f"word {word!r} is not a sequence of blocks") from None
        for block in blocks:
            try:
                iter(block)
            except TypeError:
                raise ValueError(f"word block {block!r} is not a sequence") from None
        raise


def rho(k: int) -> tuple:
    """The staircase (k-1, k-2, ..., 0)."""
    if k < 1:
        raise ValueError("rho needs k >= 1")
    return tuple(range(k - 1, -1, -1))


def is_dominant(w) -> bool:
    return all(map(ge, w, w[1:]))


def is_partition(w) -> bool:
    return is_dominant(w) and (not w or w[-1] >= 0)


def trim_zeros(w) -> tuple:
    w = tuple(w)
    n = len(w)
    while n and w[n - 1] == 0:
        n -= 1
    return w[:n]


def pad_zeros(w, k: int) -> tuple:
    w = tuple(w)
    if len(w) > k:
        raise ValueError(f"weight {w} longer than {k}")
    return w + (0,) * (k - len(w))


def dual_weight(v) -> tuple:
    """Reversed negation (-v_k, ..., -v_1); an involution."""
    return tuple(-x for x in reversed(v))


def straighten(v):
    """Signed sorting of v through the rho shift.

    Returns (sign, nu) with sign in {+1, -1} and nu the dominant weight
    such that sorting v + rho strictly decreasing and subtracting rho
    gives nu.  Returns (0, None) when v + rho has two equal entries, in
    which case the indexed operator vanishes; the zero sign propagates
    through any multiplicative use.
    """
    v = tuple(v)
    k = len(v)
    shift = range(k - 1, -1, -1)
    w = list(map(add, v, shift))
    if all(map(gt, w, w[1:])):  # v is already dominant
        return 1, v
    if len(set(w)) < k:
        return 0, None
    # the sign is the parity of the sorting permutation: k minus its cycles
    order = sorted(range(k), key=w.__getitem__, reverse=True)
    parity = k
    seen = [False] * k
    for i in order:
        if not seen[i]:
            parity -= 1
            while not seen[i]:
                seen[i] = True
                i = order[i]
    return (-1 if parity & 1 else 1), tuple(map(sub, map(w.__getitem__, order), shift))


def is_vertical_strip(nu, mu) -> bool:
    """True when every coordinate of nu - mu is 0 or 1."""
    if len(nu) != len(mu):
        raise ValueError(f"length mismatch: {nu} vs {mu}")
    return all(a - b in (0, 1) for a, b in zip(nu, mu))


@memo
def _vertical_strips(w: tuple, step: int) -> tuple:
    """The dominant weights w + step*d over 0/1 vectors d, decreasing."""
    out = []
    for d in itertools.product((0, step), repeat=len(w)):
        v = tuple(a + x for a, x in zip(w, d))
        if is_dominant(v):
            out.append(v)
    return tuple(sorted(out, reverse=True))


def vertical_strip_shrink(nu) -> tuple:
    """All dominant beta of the same length with nu/beta a vertical strip."""
    return _vertical_strips(tuple(nu), -1)


def vertical_strip_grow(mu) -> tuple:
    """All dominant alpha of the same length with alpha/mu a vertical strip."""
    return _vertical_strips(tuple(mu), 1)


def alpha_beta(gamma):
    """Split a dominant weight into its positive part and the reversed
    negation of its negative part.

    Both components are returned at the full length of gamma (compare
    them modulo trailing zeros, or through trim_zeros).
    """
    gamma = tuple(gamma)
    if not is_dominant(gamma):
        raise ValueError(f"{gamma} is not dominant")
    k = len(gamma)
    alpha = tuple(max(x, 0) for x in gamma)
    beta = tuple(-min(gamma[k - 1 - i], 0) for i in range(k))
    return alpha, beta


# -- enumeration helpers ------------------------------------------------


def partitions_of(n: int, max_len=None, max_part=None):
    """Yield the partitions of n (trimmed tuples), largest part first."""
    if n < 0:
        return
    if max_len is None:
        max_len = n
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_len <= 0 or max_part <= 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, max_len - 1, first):
            yield (first,) + rest


def dominant_weights(length: int, lo: int, hi: int):
    """All weakly decreasing tuples of the given length with entries in
    [lo, hi], as an iterator in decreasing lexicographic order."""
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), length)


# -- text notation ------------------------------------------------------


def parse_weight(text: str) -> tuple:
    """Parse comma-separated integers; the empty string is the empty weight."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for pos, tok in enumerate(text.split(",")):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"invalid integer {tok!r} at entry {pos} of {text!r}") from None
    return tuple(out)


def format_weight(w) -> str:
    return ",".join(str(x) for x in w)


def parse_blocked(text: str) -> tuple:
    """Parse `;`-separated blocks of comma-separated integers."""
    return tuple(parse_weight(part) for part in text.split(";"))


def format_blocked(blocks) -> str:
    return ";".join(format_weight(b) for b in blocks)
