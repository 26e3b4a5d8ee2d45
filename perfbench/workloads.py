"""Seeded op lists for the four benchmark workloads.

Nothing here imports hlvertex: the program under test receives only the
generated inputs, and a change to the library's own enumeration order
cannot change the op list a seed produces.

Every list is built from fixed-size blocks.  Each block holds the same
number of ops from each stratum (a kind of op with a narrow cost range),
in stratum order.  Within a stratum the seed picks the parameters, except
in the strata that _FIXED names.  A second seed gives a different list
with the same length and the same count per stratum.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("certify", "kostka", "rewrite", "cli_cold")

# certify: every relation instance is applied to each Schur function of
# degree at most this.  At degree 3 one heavy instance alone takes up to
# 5 s, which would make a round's cost hinge on which few were drawn.
CERTIFY_DEGREE = 2

# rewrite and cli_cold: sampled rewriting outputs are certified on every
# Schur function of degree at most this, outside the timed section.  Only
# words of total weight at most GATE_MAX_WEIGHT are sampled, since the
# certificate of a 300-term output takes tens of seconds.
GATE_DEGREE = 1
GATE_MAX_WEIGHT = 14
GATE_SIZE = 4


# -- combinatorics (independent of the library's own enumerators) ---------


def partitions(n: int, max_len: int | None = None):
    """Partitions of n, largest parts first, in reverse lexicographic order."""

    def rec(rest, cap, length):
        if rest == 0:
            yield ()
            return
        if max_len is not None and length == max_len:
            return
        for part in range(min(rest, cap), 0, -1):
            for tail in rec(rest - part, part, length + 1):
                yield (part,) + tail

    return list(rec(n, n, 0))


def compositions(n: int):
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(1, n + 1) for rest in compositions(n - first)]


def pad(p, n: int) -> tuple:
    return tuple(p) + (0,) * (n - len(p))


def blocked_weights(eta, degree: int) -> list:
    """Blocked weights on eta whose blocks are padded partitions of total
    size `degree` and whose concatenation is weakly decreasing: the gamma
    range of a Kostka table row."""
    out = []

    def rec(i, total, acc):
        if i == len(eta):
            if total == 0:
                flat = [x for b in acc for x in b]
                if all(flat[j] >= flat[j + 1] for j in range(len(flat) - 1)):
                    out.append(tuple(acc))
            return
        for d in range(total + 1):
            for p in partitions(d, max_len=eta[i]):
                rec(i + 1, total - d, acc + [pad(p, eta[i])])

    rec(0, degree, [])
    return out


def dominant_block(rng: random.Random, length: int, hi: int) -> tuple:
    return tuple(sorted((rng.randint(0, hi) for _ in range(length)), reverse=True))


# -- strata -----------------------------------------------------------------


class Pool:
    """A fixed, enumerated stratum.  Draws run through seeded permutations
    of the whole pool (or through the pool in its own order, when it is not
    `shuffled`), so a stratum repeats only after it is exhausted."""

    def __init__(self, items, shuffled: bool = True):
        self.items, self.shuffled = list(items), shuffled

    def stream(self, rng: random.Random):
        while True:
            order = list(self.items)
            if self.shuffled:
                rng.shuffle(order)
            yield from order


def _fixed(source, count: int) -> Pool:
    """The first `count` items the source gives under a constant seed, in
    that order for every seed."""
    items = itertools.islice(source.stream(random.Random("fixed")), count)
    return Pool(items, shuffled=False)


class Sampler:
    """A stratum too large to enumerate: `draw(rng)` makes one item.

    With `distinct`, a repeat is redrawn (a repeat would be a memo hit in
    the in-process workloads); after 1000 redraws in a row the stratum is
    taken as exhausted and repeats are let through."""

    def __init__(self, draw, distinct: bool = True):
        self.draw, self.distinct = draw, distinct

    def stream(self, rng: random.Random):
        seen = set()
        while True:
            for _ in range(1000):
                item = self.draw(rng)
                key = json.dumps(item, sort_keys=True)
                if not self.distinct or key not in seen:
                    break
            seen.add(key)
            yield item


def _blocks(strata, n_blocks: int, rng: random.Random) -> list:
    """n_blocks blocks; each holds `count` ops of every (name, count,
    source) stratum, in stratum order, so every list has the same pattern
    of costs.  Ops carry their stratum."""
    streams = [(name, count, source.stream(rng)) for name, count, source in strata]
    return [dict(next(stream), stratum=name)
            for _ in range(n_blocks) for name, count, stream in streams
            for _ in range(count)]


# -- certify ----------------------------------------------------------------

# Evaluation cost grows with the length of a word's first factor and,
# faster, with the weight of its second factor, on which the first acts;
# _cost_score orders instances by that.  Instances scoring above this are
# left out: past it one op takes 0.5-4 s and a round's cost would hinge on
# how many of those a seed draws.  Criterion 4's heavy mu = (4,) and
# (4, 2, 1) shapes stay in, with their cheaper parameters.
_MAX_SCORE = 21
_CERTIFY_BANDS = 16

def _rel(kind, **params):
    return {"kind": kind, "params": {k: list(v) if isinstance(v, tuple) else v
                                     for k, v in params.items()}}


def _word_shape(op) -> tuple:
    """(first-factor length, second-factor weight) of the largest word in
    the instance, from its parameters."""
    p = op["params"]
    kind = op["kind"]
    if kind == "com1":
        return len(p["mu"]) + 1, p["b"] + sum(p["nu"])
    if kind == "com2":
        return len(p["mu"]) + 1, p["a"] + 1 + sum(p["nu"])
    if kind == "move":
        return len(p["mu"]) + 1, p["a"] + sum(p["nu"])
    if kind == "bigmove":
        return len(p["alpha"]) + len(p["beta"]), sum(p["beta"]) + sum(p["gamma"])
    a, k = p["a"], p["k"]
    if kind == "same-width":
        return max(k, p["n"]), a * max(k, p["n"])
    if kind == "one-more":
        return k, (a + 1) * k
    return k + 1, a * k  # quad


def _cost_score(op) -> int:
    first_len, second_weight = _word_shape(op)
    return 2 * second_weight + 3 * first_len


def _bands(items, score, n_bands: int) -> list:
    """Split items, cheapest first, into n_bands strata of (nearly) equal
    size, one op of each per block: every block then has the same spread
    of costs, whichever items the seed puts in it."""
    items = sorted(items, key=lambda op: (score(op), json.dumps(op, sort_keys=True)))
    cuts = [len(items) * i // n_bands for i in range(n_bands + 1)]
    return [(f"band{i:02d}", 1, Pool(items[cuts[i]:cuts[i + 1]])) for i in range(n_bands)]


def certify_pool() -> list:
    shapes = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (3, 1), (4,), (2, 2),
              (3, 2), (2, 1, 1), (5,), (4, 2, 1), (3, 2, 1)]
    nus = [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (3, 1), (2, 2), (4, 2)]
    ab = [(a, b) for a in range(7) for b in (a + 2, a + 3)]
    pool = [_rel("com1", mu=mu, a=a, b=b, nu=nu)
            for mu in shapes for a, b in ab for nu in nus]
    pool += [_rel("com2", mu=mu, a=a, nu=nu)
             for mu in shapes for a in range(7) for nu in nus]
    pool += [_rel("move", mu=mu, a=a, nu=nu)
             for mu in shapes for a in range(7) for nu in nus]
    pool += [_rel("bigmove", alpha=alpha, beta=beta, gamma=gamma)
             for alpha, gammas in [((2,), [(0,), (1,)]), ((3,), [(0,), (1,)]),
                                   ((2, 1), [(0, 0), (1, 0)]),
                                   ((3, 1), [(0, 0), (1, 0)])]
             for gamma in gammas for beta in [(1,), (2, 1)]]
    pool += [_rel("same-width", a=a, k=k, n=n)
             for a in range(3) for k in range(1, 4) for n in range(1, 4) if k != n]
    pool += [_rel("one-more", a=a, k=k) for a in range(2) for k in range(1, 4)]
    pool += [_rel("quad", a=a, k=k) for a in (1, 2) for k in range(1, 4)]
    return [op for op in pool if _cost_score(op) <= _MAX_SCORE]


def certify_strata():
    return _bands(certify_pool(), _cost_score, _CERTIFY_BANDS)


# -- kostka -----------------------------------------------------------------

_GRID_DEGREE = 8
_SINGLETON_N = 7


def _grid_draw(n: int):
    etas = compositions(n)
    cache = {}

    def draw(rng):
        eta = rng.choice(etas)
        d = rng.randint(1, _GRID_DEGREE)
        key = (eta, d)
        if key not in cache:
            cache[key] = (partitions(d, max_len=n), blocked_weights(eta, d))
        lams, gammas = cache[key]
        lam = pad(rng.choice(lams), n)
        gamma = rng.choice(gammas)
        return {"lam": list(lam), "gamma": [list(b) for b in gamma]}

    return draw


def kostka_strata():
    n = _SINGLETON_N
    singletons = [{"lam": [d] + [0] * (n - 1),
                   "gamma": [[x] for x in pad(p, n)]}
                  for d in range(5, _GRID_DEGREE + 1) for p in partitions(d, max_len=n)]
    # Per block, three ops take under 2 ms, three (n = 6) about 4 ms and four
    # 30 ms or more, so the median op falls inside the n = 6 stratum rather
    # than on the edge between two strata.
    return [("n3", 1, Sampler(_grid_draw(3))), ("n4", 1, Sampler(_grid_draw(4))),
            ("n5", 1, Sampler(_grid_draw(5))), ("n6", 3, Sampler(_grid_draw(6))),
            ("n7", 3, Sampler(_grid_draw(7))), ("singleton", 1, Pool(singletons))]


# -- rewrite ----------------------------------------------------------------

_MAX_ENTRY = 9

# rewrite_dominant's cost grows about exponentially with the gap between
# the head of the second factor and the tail of the first, times the total
# length; words are banded by that score, and past the last band one op
# takes 0.3-35 s.
_DOMINANT_BANDS = ((1, 9), (10, 18), (19, 27), (28, 36))


def _dominant_score(word) -> int:
    f1, f2 = word
    return max(0, f2[0] - f1[-1]) * (len(f1) + len(f2))


def _word_draw(algorithm: str, lengths, max_entry: int, score_range=None):
    def draw(rng):
        while True:
            p, r = rng.choice(lengths)
            word = (dominant_block(rng, p, max_entry), dominant_block(rng, r, max_entry))
            if score_range is None or \
                    score_range[0] <= _dominant_score(word) <= score_range[1]:
                return {"algorithm": algorithm, "word": [list(b) for b in word]}

    return draw


def rewrite_strata():
    lengths = [(p, r) for p in range(1, 5) for r in range(1, 5)]
    strata = [(f"dominant_{lo}_{hi}", 2 if hi < 19 else 1,
               Sampler(_word_draw("dominant", lengths, _MAX_ENTRY, (lo, hi))))
              for lo, hi in _DOMINANT_BANDS]
    # swap_factors' cost follows min(p, r) * |p - r| and shift_support's
    # p * r, for factor lengths p and r
    for name, cost in (("swap", lambda p, r: min(p, r) * abs(p - r)),
                       ("shift", lambda p, r: p * r)):
        classes = sorted({cost(p, r) for p, r in lengths if p != r})
        for lo, hi in ((classes[0], classes[1]), (classes[2], classes[-2]),
                       (classes[-1], classes[-1])):
            band = [(p, r) for p, r in lengths if p != r and lo <= cost(p, r) <= hi]
            strata.append((f"{name}_{lo}_{hi}", 1,
                           Sampler(_word_draw(name, band, _MAX_ENTRY))))
    return strata


# -- cli_cold ---------------------------------------------------------------


def _fmt(w) -> str:
    return ",".join(str(x) for x in w)


def _fmt_word(word) -> str:
    return "".join("H[" + _fmt(b) + "]" for b in word)


def _cli_kostka(rng):
    n = rng.randint(2, 4)
    d = rng.randint(1, 5)
    eta = rng.choice(compositions(n))
    gamma = rng.choice(blocked_weights(eta, d))
    lam = pad(rng.choice(partitions(d, max_len=n)), n)
    return {"command": "kostka",
            "argv": ["kostka", "--lambda", _fmt(lam), "--gamma",
                     ";".join(_fmt(b) for b in gamma), "--eta", _fmt(eta)]}


def _cli_table(rng):
    eta = rng.choice(compositions(rng.randint(2, 4)))
    return {"command": "table",
            "argv": ["table", "--eta", _fmt(eta), "--max-degree", str(rng.randint(3, 5))]}


def _cli_eval(rng):
    word = [dominant_block(rng, rng.randint(1, 2), 3) for _ in range(2)]
    argv = ["eval", "--word", _fmt_word(word)]
    tau = rng.choice(partitions(rng.randint(0, 3)))
    if tau:
        argv += ["--on-schur", _fmt(tau)]
    return {"command": "eval", "argv": argv}


def _cli_word(command: str, max_entry: int, unequal: bool):
    def draw(rng):
        while True:
            p, r = rng.randint(1, 3), rng.randint(1, 3)
            if not (unequal and p == r):
                break
        word = [dominant_block(rng, p, max_entry), dominant_block(rng, r, max_entry)]
        return {"command": command, "argv": [command, "--word", _fmt_word(word)],
                "word": [list(b) for b in word]}

    return draw


def _cli_straighten(rng):
    w = [rng.randint(-2, 5) for _ in range(rng.randint(2, 4))]
    # "=" keeps a leading minus sign from reading as an option
    return {"command": "straighten", "argv": ["straighten", "--weight=" + _fmt(w)]}


def _cli_check(suite: str, degrees):
    def draw(rng):
        return {"command": "check",
                "argv": ["check", "--suite", suite, "--max-degree", str(rng.choice(degrees))]}

    return draw


def cli_strata():
    # Every command runs in a fresh interpreter, so a repeat shares nothing.
    # The check_core ops (about 0.12 s each) are the costliest; two per
    # block put the tail (the 11th-largest of 100 ops) in the middle of
    # their 20 rather than on the single slowest op of another stratum.
    return [(name, count, Sampler(draw, distinct=False)) for name, count, draw in (
        ("kostka", 1, _cli_kostka), ("table", 1, _cli_table), ("eval", 1, _cli_eval),
        ("rewrite", 1, _cli_word("rewrite", 5, False)),
        ("shift", 1, _cli_word("shift", 6, True)), ("swap", 1, _cli_word("swap", 5, True)),
        ("straighten", 1, _cli_straighten), ("check_core", 2, _cli_check("core", (2,))),
        ("check_engines", 1, _cli_check("engines", (2, 3, 4))))]


# -- public entry -----------------------------------------------------------

# Blocks per op list.  A round runs the whole list, which takes about 4 s
# today (10 s for cli_cold, whose ops vary less and take longer).
_LAYOUT = {
    "certify": (certify_strata, 5),
    "kostka": (kostka_strata, 24),
    "rewrite": (rewrite_strata, 26),
    "cli_cold": (cli_strata, 10),
}


# The costliest strata, and those where the median op falls, hold the
# same ops in the same places for every seed: exactly one list's worth,
# drawn once under a constant seed.  Costs within a stratum spread so
# widely (a standard deviation about equal to the mean), and in certify an
# op's cost depends so much on what earlier ops left in the memo caches,
# that the seed's draw would otherwise decide most of a list's total time,
# its tail and its median.  The seed draws the parameters of every other
# stratum.
_FIXED = {
    "certify": {f"band{i:02d}" for i in range(2, _CERTIFY_BANDS)},
    "rewrite": {"dominant_10_18", "dominant_28_36", "swap_1_2", "swap_3_3", "swap_4_4",
                "shift_4_8", "shift_12_12"},
    "cli_cold": {"eval", "check_core"},
}


def generate(workload: str, seed: int) -> list:
    """The op list for one workload and seed."""
    strata_fn, n_blocks = _LAYOUT[workload]
    fixed = _FIXED.get(workload, ())
    strata = [(name, count, _fixed(source, count * n_blocks) if name in fixed else source)
              for name, count, source in strata_fn()]
    return _blocks(strata, n_blocks, random.Random(f"{workload}:{seed}"))


def mix(ops: list) -> dict:
    """Op count per stratum."""
    out: dict = {}
    for op in ops:
        out[op["stratum"]] = out.get(op["stratum"], 0) + 1
    return out


def digest(ops: list) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
