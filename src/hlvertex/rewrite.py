"""Formal sums of vertex-operator words and constructive rewriting.

An operator word is a tuple of weight blocks standing for a composite of
vertex operators (applied right to left); an OpSum is a finite linear
combination of such words with integer Laurent-polynomial (QPoly)
coefficients, kept with every block straightened to dominant form.  The
relations have coefficients +-q^j times integers and every pivot solved
for must be a unit +-q^j, so no rewriting step divides.  The rewriting
algorithms work on two-factor words:

* rewrite_dominant turns a word with dominant factors into a sum of
  words whose concatenated index is dominant,
* shift_support moves one slot from the longer factor to the shorter,
* swap_factors exchanges the factor lengths.

Each algorithm eliminates its input word from an exact operator relation
and substitutes repeatedly, with an explicit termination measure checked
at every step.  shift_support and swap_factors are one elimination
(_move_slots) through the slot-moving bigmove relation, which takes any
three block lengths k, l, m (kernel: the dual Cauchy product
prod (1 - q y_i z_j) = sum over theta of (-q)^|theta| s_theta(y) s_theta'(z));
move is its case l = 1.  relation_instance builds each relation once:
com1 and com2 (Jing's one-row rules lifted through vertical strips), move,
bigmove and the identity families.  Correctness of any produced sum can be
certified through the evaluator, which is an independent oracle.
The relation generators build each relation straightened, as Z[q] slots
{word: {exponent: int}}, through a table of straightened blocks that one
elimination keeps for its whole call, so every distinct block is
straightened once per call and no raw term list is built.  The
elimination solves each relation in place on these slots, keeps each
queued word's measure, and builds one QPoly per output word at the end.
"""

from __future__ import annotations

from operator import add, sub

from .coeffs import QPoly, QRat, _add_term
from .memo import memo
from .symfunc import SymFunc, format_linear, schur
from .vertexop import apply_H_sum
from .weights import (
    _as_word,
    _entry,
    is_dominant,
    partitions_of,
    straighten,
    vertical_strip_grow,
    vertical_strip_shrink,
)

_MAX_STEPS = 100000
_MAX_KERNEL_CELLS = 16  # l * k of a swap's dual Cauchy kernel; (5, 5) has 1475856 terms


def _coeff(c) -> QPoly:
    """An int, a QPoly or a QRat with denominator 1 as a QPoly."""
    if isinstance(c, QPoly):
        return c
    if isinstance(c, QRat):
        if not c.den.is_one():
            raise ValueError(f"coefficient {c} is not a Laurent polynomial")
        return c.num
    return QPoly.const(c)


def _opsum(terms: dict) -> "OpSum":
    """An OpSum over already straightened, nonzero terms."""
    out = OpSum.__new__(OpSum)
    out._terms = terms
    return out


class OpSum:
    """Linear combination of operator words with straightened blocks and
    Laurent-polynomial coefficients; a coefficient with a denominator is
    refused with ValueError."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for word, c in terms.items():
                word = _as_word(word)
                for block in word:
                    if not is_dominant(block):
                        raise ValueError(f"block {block} not dominant; use normalize")
                c = _coeff(c)
                if not c.is_zero():
                    t[word] = c
        self._terms = t

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, word) -> QPoly:
        return self._terms.get(_as_word(word), QPoly.zero())

    def words(self):
        return sorted(self._terms)

    def terms(self):
        return sorted(self._terms.items())

    def __add__(self, other):
        if not isinstance(other, OpSum):
            return NotImplemented
        t = dict(self._terms)
        for w, c in other._terms.items():
            _add_term(t, w, c)
        return _opsum(t)

    def __neg__(self):
        return _opsum({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, OpSum):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "OpSum":
        c = _coeff(c)
        return _opsum({} if c.is_zero() else {w: v * c for w, v in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, OpSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __str__(self):
        return format_linear([(QRat(c), format_word(w)) for w, c in self.terms()])

    def __repr__(self):
        return f"OpSum<{self}>"

    def to_json(self) -> dict:
        return {"terms": [{"word": [list(b) for b in w], "coeff": QRat(c).to_json()}
                          for w, c in self.terms()]}


def normalize(raw: dict) -> OpSum:
    """Straighten every block of every word, folding signs into the
    coefficients, dropping vanishing words and combining like terms."""
    terms = []
    for word, c in raw.items():
        c = _coeff(c)
        if not c.is_zero():
            word = _as_word(word)
            terms.extend((word, e, v) for e, v in c.items())
    return _from_slots(_normalize(terms, {}))


def _from_slots(slots: dict) -> OpSum:
    """The OpSum of Z[q] slots {word: {exponent: int}}, one QPoly per word
    whose slot does not cancel."""
    return _opsum({w: QPoly(s) for w, s in slots.items() if any(s.values())})


def _normalize(raw, straight: dict) -> dict:
    """Straighten the blocks of raw (word, exponent, int) terms over int
    words, as normalize and the identity families build them, folding signs
    into the integers, into Z[q] slots {word: {exponent: int}}.  A slot may
    cancel to zeros.  straight maps each block seen so far to its
    straighten() value and may be shared across calls."""
    out: dict = {}
    for word, e, n in raw:
        blocks = []
        for block in word:
            hit = straight.get(block)
            if hit is None:
                hit = straight[block] = straighten(block)
            s, dom = hit
            if not s:
                break
            n *= s
            blocks.append(dom)
        else:
            slot = out.setdefault(tuple(blocks), {})
            slot[e] = slot.get(e, 0) + n
    return out


# -- word notation --------------------------------------------------------


def format_word(word) -> str:
    return "".join("H[" + ",".join(str(x) for x in b) + "]" for b in word) or "H[]"


def parse_word(text: str) -> tuple:
    """Parse `H[2,2]H[4,1]`-style notation into a tuple of blocks."""
    text = text.strip()
    blocks = []
    pos = 0
    while pos < len(text):
        if not text.startswith("H[", pos):
            raise ValueError(f"expected 'H[' at position {pos} in {text!r}")
        close = text.find("]", pos + 2)
        if close < 0:
            raise ValueError(f"unclosed block at position {pos} in {text!r}")
        inner = text[pos + 2:close].strip()
        if inner:
            try:
                blocks.append(tuple(int(t.strip()) for t in inner.split(",")))
            except ValueError:
                raise ValueError(
                    f"invalid weight {inner!r} at position {pos} in {text!r}") from None
        else:
            blocks.append(())
        pos = close + 1
    if not blocks:
        raise ValueError(f"no operator blocks in {text!r}")
    return tuple(blocks)


# -- relation generators ---------------------------------------------------


def _strip_lift(mu, row, nu, straight: dict) -> dict:
    """Lift a one-row relation row = ((a, b, j), ...), the sum of
    (-q)^j H_a H_b, to the strip relation between mu and nu: each pair of
    alpha in vertical_strip_grow(mu) and beta in vertical_strip_shrink(nu)
    contributes the row with H_a H_b replaced by H_{alpha + (a + |nu/beta|)}
    H_{(b - |alpha/mu|) + beta}, times (-q)^(|alpha/mu| + |nu/beta|).  This
    zero operator is returned as _normalize's slots, straightened through
    straight: each second block once per head value b - |alpha/mu|, and a
    vanishing one is dropped before the pairs are formed."""
    out: dict = {}
    by_head: dict = {}  # b - |alpha/mu| -> [(|nu/beta|, its straightened second block)]
    for alpha in vertical_strip_grow(mu):
        ja = sum(alpha) - sum(mu)
        for a, b, j in row:
            seconds = by_head.get(b - ja)
            if seconds is None:
                seconds = by_head[b - ja] = []
                for beta in vertical_strip_shrink(nu):
                    block = (b - ja,) + beta
                    hit = straight.get(block)
                    if hit is None:
                        hit = straight[block] = straighten(block)
                    if hit[0]:
                        seconds.append((sum(nu) - sum(beta), hit))
            for jb, (s, second) in seconds:
                block = alpha + (a + jb,)
                hit = straight.get(block)
                if hit is None:
                    hit = straight[block] = straighten(block)
                if hit[0]:
                    e = ja + jb + j
                    slot = out.setdefault((hit[1], second), {})
                    slot[e] = slot.get(e, 0) + (-s if e % 2 else s) * hit[0]
    return out


def _com1_row(a: int, b: int) -> tuple:
    """Jing's H_a H_b - q H_{a+1} H_{b-1} - q H_b H_a + H_{b-1} H_{a+1};
    at b = a+1 it is twice the com2 row."""
    return ((a, b, 0), (a + 1, b - 1, 1), (b, a, 1), (b - 1, a + 1, 0))


def _com2_row(a: int) -> tuple:
    """Jing's H_a H_{a+1} - q H_{a+1} H_a."""
    return ((a, a + 1, 0), (a + 1, a, 1))


@memo
def _dual_cauchy(l: int, k: int) -> tuple:
    """prod over i < l, j < k of (1 - q y_i z_j), multiplied out one factor
    at a time with integer counts of 0/1 matrices by row and column sums,
    as rows (y exponents, exponent of q, ((z exponents, integer), ...))
    grouped by y.  By the dual Cauchy identity it is the sum over theta in
    the l x k box of (-q)^|theta| s_theta(y) s_theta'(z)."""
    counts = {((0,) * l, (0,) * k): 1}
    for i in range(l):
        for j in range(k):
            for (y, z), n in list(counts.items()):
                key = (y[:i] + (y[i] + 1,) + y[i + 1:], z[:j] + (z[j] + 1,) + z[j + 1:])
                counts[key] = counts.get(key, 0) + n
    rows: dict = {}
    for (y, z), n in counts.items():
        rows.setdefault(y, []).append((z, -n if sum(y) % 2 else n))
    return tuple((y, sum(y), tuple(zs)) for y, zs in rows.items())


def _bigmove_relation(alpha, beta, gamma, straight: dict) -> dict:
    """Slot-moving relation between factor lengths (k+l, m) and (k, l+m)
    for any lengths k, l, m of alpha, beta, gamma, from the Cauchy-twisted
    commutation of generating series: _dual_cauchy(l, m) raising beta and
    lowering gamma (words alpha + (beta + y), gamma - z), minus
    _dual_cauchy(k, l) raising alpha and lowering beta (alpha + x,
    (beta - y) + gamma).  This zero operator is returned as _normalize's
    slots, straightened through straight: each first block once per kernel
    row, whose columns it skips when it vanishes, and each second block
    once per column.  move is the case l = 1, and the factor swap of
    lengths (k+l, k) the case m = k."""
    out: dict = {}
    for head, up, down, tail, kernel, sign in (
            (alpha, beta, gamma, (), _dual_cauchy(len(beta), len(gamma)), 1),
            ((), alpha, beta, gamma, _dual_cauchy(len(alpha), len(beta)), -1)):
        seconds: dict = {}  # column z -> straightened (down - z) + tail
        for y, e, row in kernel:
            block = head + tuple(map(add, up, y))
            hit = straight.get(block)
            if hit is None:
                hit = straight[block] = straighten(block)
            s, first = hit
            if not s:
                continue
            s *= sign
            for z, n in row:
                hit = seconds.get(z)
                if hit is None:
                    block = tuple(map(sub, down, z)) + tail
                    hit = straight.get(block)
                    if hit is None:
                        hit = straight[block] = straighten(block)
                    seconds[z] = hit
                if hit[0]:
                    slot = out.setdefault((first, hit[1]), {})
                    slot[e] = slot.get(e, 0) + s * hit[0] * n
    return out


# Each relation kind as its builder of Z[q] slots {word: {exponent: int}},
# whose argument names are the kind's parameters
_RELATIONS = {
    "com1": lambda mu, a, b, nu: _strip_lift(mu, _com1_row(a, b), nu, {}),
    "com2": lambda mu, a, nu: _strip_lift(mu, _com2_row(a), nu, {}),
    "move": lambda mu, a, nu: _bigmove_relation(mu, (a,), nu, {}),
    "bigmove": lambda alpha, beta, gamma: _bigmove_relation(alpha, beta, gamma, {}),
    # identities of rectangular operators H_{(a^k)}, as raw terms of lhs - rhs:
    # H_{(a^n)} H_{(a^k)} = H_{(a^k)} H_{(a^n)}
    "same-width": lambda a, k, n: _normalize([(((a,) * n, (a,) * k), 0, 1),
                                              (((a,) * k, (a,) * n), 0, -1)], {}),
    # H_{(a^k)} H_{((a+1)^k)} = q^k H_{((a+1)^k)} H_{(a^k)}
    "one-more": lambda a, k: _normalize([(((a,) * k, (a + 1,) * k), 0, 1),
                                         (((a + 1,) * k, (a,) * k), k, -1)], {}),
    # H_{(a^k)} H_{(a^k)} = H_{(a^(k+1))} H_{(a^(k-1))} + q^k H_{((a+1)^k)} H_{((a-1)^k)}
    "quad": lambda a, k: _normalize([(((a,) * k, (a,) * k), 0, 1),
                                     (((a,) * (k + 1), (a,) * (k - 1)), 0, -1),
                                     (((a + 1,) * k, (a - 1,) * k), k, -1)], {}),
}


def relation_instance(kind: str, **params) -> OpSum:
    """A relation instance as a normalized OpSum equal to the zero
    operator; certify with operators_equal against the empty sum.
    Parameters: com1 (mu, a, b, nu), com2 and move (mu, a, nu), bigmove
    (alpha, beta, gamma) of any three lengths, same-width (a, k, n), one-more
    and quad (a, k).  move is bigmove with the one-entry middle block (a,).
    The kind is one of these names exactly; any other kind, a missing or
    extra parameter, a weight parameter that is not a sequence, k or n
    below 1, and a non-dominant mu or nu of com1 or com2 (the strip lift
    assumes both dominant) are refused with ValueError naming it.  Every
    parameter is checked once here, so the generated words are not."""
    try:
        build = _RELATIONS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown relation kind {kind!r}") from None
    names = build.__code__.co_varnames[:build.__code__.co_argcount]
    for key in names:
        if key not in params:
            raise ValueError(f"relation {kind!r} needs parameter {key!r}")
    for key in params:
        if key not in names:
            raise ValueError(f"relation {kind!r} takes no parameter {key!r}")
    checked = {}
    for key, v in params.items():
        try:
            checked[key] = _entry(v) if key in ("a", "b", "k", "n") else tuple(map(_entry, v))
        except TypeError:  # a weight that is not iterable
            raise ValueError(f"relation {kind!r} parameter {key!r} is not a sequence") from None
    for key in ("k", "n"):
        if checked.get(key, 1) < 1:
            raise ValueError(f"relation {kind!r} parameter {key!r} must be at least 1")
    if kind in ("com1", "com2"):
        for key in ("mu", "nu"):
            if not is_dominant(checked[key]):
                raise ValueError(f"relation {kind!r} parameter {key!r} is not dominant")
    return _from_slots(build(**checked))


# -- evaluation (the independent certificate) ------------------------------


def evaluate(opsum: OpSum, f: SymFunc) -> SymFunc:
    """The operator sum applied to f, in one Z[q] pass (apply_H_sum)."""
    return apply_H_sum(opsum.terms(), f)


def operators_equal(a: OpSum, b: OpSum, max_degree: int) -> bool:
    """Evaluation certificate: equal action on every Schur function of
    degree at most max_degree; a negative bound is refused."""
    if _entry(max_degree) < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    diff = a - b
    if diff.is_zero():
        return True
    for d in range(max_degree + 1):
        for tau in partitions_of(d):
            if not evaluate(diff, schur(tau)).is_zero():
                return False
    return True


# -- the three rewriting algorithms ---------------------------------------


def _check_two_dominant_factors(word):
    word = _as_word(word)
    if len(word) != 2:
        raise ValueError("rewriting operates on two-factor words")
    for block in word:
        if not is_dominant(block):
            raise ValueError(f"factor {block} is not dominant")
    return word


def _concat_dominant(word) -> bool:
    f1, f2 = word
    if not f1 or not f2:
        return True
    return f1[-1] >= f2[0]


def _eliminate(word, name: str, relation, finished, measure) -> OpSum:
    """The worklist shared by the rewriting algorithms.

    Words for which finished(w) holds collect in the result.  Each step
    takes the unfinished word with the smallest (measure, word) and solves
    relation(current, straight) == 0 for it in place: the relation comes
    as Z[q] slots, straightened through the block table straight, which
    lives for the whole call; its pivot must be a unit u*q^j (u = +-1),
    and every other slot, times -u*q^-j*coeff, is added straight into its
    word's slot.  Every unfinished word so produced must keep the factor
    lengths of the input and strictly increase the measure, which is
    checked as a hard termination guard, besides a step budget.  The
    result must have coefficients in Z[q].

    Coefficients stay Z[q] slots until each output word gets one QPoly.
    Words enter a heap once, keyed (measure, word), and keep that measure,
    against which a repeat occurrence is checked; a queued word whose slot
    cancels is dropped without a step.
    """
    import heapq  # on use: keeps the CLI's import light

    shape = (len(word[0]), len(word[1]))
    pending: dict = {}  # word -> (measure, slot)
    done: dict = {}
    heap: list = []
    if finished(word):
        done[word] = {0: 1}
    else:
        pending[word] = (m := measure(word), {0: 1})
        heap.append((m, word))
    straight: dict = {}
    steps = 0
    while heap:
        m, current = heapq.heappop(heap)
        coeff = pending.pop(current)[1]
        if not any(coeff.values()):
            continue
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError(f"{name} exceeded the step budget")
        rel = relation(current, straight)
        pivot = [(e, v) for e, v in rel.get(current, {}).items() if v]
        if len(pivot) != 1 or abs(pivot[0][1]) != 1:
            raise RuntimeError(
                f"pivot {QPoly(dict(pivot))} at {format_word(current)} is not a unit")
        (j, u), = pivot
        factor = [(s - j, -u * v) for s, v in coeff.items() if v]
        for w, terms in rel.items():
            if w == current or not any(terms.values()):
                continue
            slot = done.get(w)
            if slot is None:
                queued = pending.get(w)
                if queued is None and finished(w):
                    slot = done[w] = {}
                else:
                    if queued is None:
                        lengths = (len(w[0]), len(w[1]))
                        if lengths != shape:
                            raise RuntimeError(f"unexpected factor lengths {lengths}")
                        queued = pending[w] = (measure(w), {})
                        heapq.heappush(heap, (queued[0], w))
                    if queued[0] <= m:
                        raise RuntimeError(
                            f"termination measure failed to increase at {format_word(w)}")
                    slot = queued[1]
            for e, c in terms.items():
                if c:
                    for s, v in factor:
                        k = s + e
                        slot[k] = slot.get(k, 0) + v * c
    out = _from_slots(done)
    for w, c in out._terms.items():
        if c.valuation() < 0:
            raise RuntimeError(
                f"{name} produced a non-polynomial coefficient {c} at {format_word(w)}")
    return out


def _strip_relation(word, straight: dict) -> dict:
    """The strip relation eliminating the junction of a two-factor word:
    com2 when the head of the second factor exceeds the tail of the first
    by one, com1 otherwise."""
    f1, f2 = word
    a, b = f1[-1], f2[0]
    return _strip_lift(f1[:-1], _com2_row(a) if b == a + 1 else _com1_row(a, b), f2[1:],
                       straight)


def rewrite_dominant(word) -> OpSum:
    """Rewrite a word with dominant factors as an operator-equal sum of
    words whose concatenated weight is dominant.

    Each unresolved word is measured by the tail of the first factor
    minus the head of the second, which is negative until the word is
    resolved; the word with the smallest measure is eliminated through a
    strip relation, and the measure strictly increases, which is checked
    as a hard termination guard.
    """
    return _eliminate(_check_two_dominant_factors(word), "rewrite_dominant",
                      _strip_relation, _concat_dominant,
                      lambda w: w[0][-1] - w[1][0])


def _move_slots(word, name: str, target) -> OpSum:
    """Rewrite word as an operator-equal sum of words with factor lengths
    target through the bigmove that cuts each word at the junction and at
    target[0].  The sum of the first factor strictly increases, which is
    checked as a hard termination guard."""
    lo, hi = sorted((len(word[0]), target[0]))

    def relation(w, straight):
        whole = w[0] + w[1]
        return _bigmove_relation(whole[:lo], whole[lo:hi], whole[hi:], straight)

    return _eliminate(word, name, relation,
                      lambda w: (len(w[0]), len(w[1])) == target,
                      lambda w: sum(w[0]))


def shift_support(word, direction: str) -> OpSum:
    """Rewrite a two-factor word as an operator-equal sum over words with
    one slot moved out of the designated factor (which must be strictly
    longer than the other).  direction is 'left' or 'right'."""
    word = _check_two_dominant_factors(word)
    f1, f2 = word
    p, r = len(f1), len(f2)
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    if direction == "left":
        if p <= r:
            raise ValueError("left factor must be strictly longer")
        target = (p - 1, r + 1)
    else:
        if r <= p:
            raise ValueError("right factor must be strictly longer")
        target = (p + 1, r - 1)
    return _move_slots(word, "shift_support", target)


def swap_factors(word) -> OpSum:
    """Rewrite a two-factor word as an operator-equal sum of words with
    the factor lengths exchanged.  Words whose factors already have equal
    lengths are finished on entry and come back unchanged; a swap whose
    dual Cauchy kernel has more than _MAX_KERNEL_CELLS cells is refused
    with ValueError."""
    word = _check_two_dominant_factors(word)
    f1, f2 = word
    p, r = len(f1), len(f2)
    l, k = abs(p - r), min(p, r)
    if l * k > _MAX_KERNEL_CELLS:
        raise ValueError(f"swapping factor lengths {p} and {r} needs the {l} x {k} "
                         f"dual Cauchy kernel; at most {_MAX_KERNEL_CELLS} cells")
    return _move_slots(word, "swap_factors", (r, p))
