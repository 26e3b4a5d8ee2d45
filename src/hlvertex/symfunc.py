"""The ring of symmetric functions with exact rational-in-q coefficients.

A SymFunc is a finite sparse linear combination of basis elements indexed
by partitions, in either the Schur basis ("schur") or the power-sum basis
("powersum").  Basis conversion goes through symmetric-group characters
computed by the Murnaghan-Nakayama recursion; Schur-basis products and
skews go through one Littlewood-Richardson enumerator of ballot fillings
of skew shapes.  Characters, basis changes and expansions are memoized with
hlvertex.memo; the expansions come back as read-only mappings, so no
caller can alter a cached value.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .coeffs import QPoly, QRat, _add_term, _as_qrat
from .memo import memo
from .weights import (_entry, is_dominant, is_partition, partitions_of, trim_zeros,
                      vertical_strip_shrink)

SCHUR = "schur"
POWERSUM = "powersum"


def _check_basis(b: str) -> str:
    if b != SCHUR and b != POWERSUM:
        raise ValueError(f"unknown basis {b!r}")
    return b


# ----------------------------------------------------------------------
# Symmetric group characters (Murnaghan-Nakayama via beta numbers)
# ----------------------------------------------------------------------

@memo
def _char(lam, mu) -> int:
    """chi^lam(mu) for trimmed partitions of the same size."""
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[0], mu[1:]
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    bset = set(beta)
    val = 0
    for i in range(L):
        nb = beta[i] - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < beta[i])
        newbeta = sorted([x for x in beta if x != beta[i]] + [nb], reverse=True)
        newlam = trim_zeros(tuple(newbeta[j] - (L - 1 - j) for j in range(L)))
        val += (-1) ** height * _char(newlam, rest)
    return val


def z_of(mu) -> int:
    """The centralizer order prod_i i^{m_i} m_i! of a partition."""
    mu = trim_zeros(mu)
    out = 1
    for part in set(mu):
        m = mu.count(part)
        out *= part**m * math.factorial(m)
    return out


@memo
def _schur_to_p(lam) -> MappingProxyType:
    out = {}
    for mu in partitions_of(sum(lam)):
        chi = _char(lam, mu)
        if chi:
            out[mu] = QRat(QPoly.const(chi), QPoly.const(z_of(mu)))
    return MappingProxyType(out)


@memo
def _p_to_schur(mu) -> MappingProxyType:
    out = {}
    for lam in partitions_of(sum(mu)):
        chi = _char(lam, mu)
        if chi:
            out[lam] = chi
    return MappingProxyType(out)


# ----------------------------------------------------------------------
# Littlewood-Richardson machinery
# ----------------------------------------------------------------------

def skew_schur_expansion(lam, mu) -> MappingProxyType:
    """Expansion coefficients {kappa: c^lam_{mu,kappa}} of the skew Schur
    function for the shape lam/mu, by direct enumeration of ballot
    column-strict fillings."""
    return _skew_schur(trim_zeros(lam), trim_zeros(mu))


@memo
def _skew_schur(lam, mu) -> MappingProxyType:
    if not (is_partition(lam) and is_partition(mu)):
        raise ValueError(f"{lam}/{mu} is not a skew shape of partitions")
    if len(mu) > len(lam) or any(mu[i] > lam[i] for i in range(len(mu))):
        return MappingProxyType({})
    mu_full = mu + (0,) * (len(lam) - len(mu))
    # cells in reverse reading order: rows top to bottom, right to left
    cells = []
    for i in range(len(lam)):
        for j in range(lam[i] - 1, mu_full[i] - 1, -1):
            cells.append((i, j))
    ncells = len(cells)
    if ncells == 0:
        return MappingProxyType({(): 1})
    out: dict = {}
    values = {}
    counts = [0] * (len(lam) + 2)  # counts[v] = number of v's placed so far; v <= row index + 1

    def place(idx: int):
        if idx == ncells:
            content = []
            v = 1
            while counts[v]:
                content.append(counts[v])
                v += 1
            tcontent = tuple(content)
            out[tcontent] = out.get(tcontent, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if i > 0 and j >= mu_full[i - 1]:
            lo = max(lo, values[(i - 1, j)] + 1)
        hi = i + 1
        if j + 1 < lam[i]:
            hi = min(hi, values[(i, j + 1)])
        for v in range(lo, hi + 1):
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            values[(i, j)] = v
            place(idx + 1)
            counts[v] -= 1
        values.pop((i, j), None)

    place(0)
    return MappingProxyType(out)


def schur_product_expansion(mu, nu) -> MappingProxyType:
    """Expansion {lam: c^lam_{mu,nu}} of a product of two Schur functions, as
    the skew of the two shapes placed corner to corner (Macdonald I.5)."""
    mu, nu = trim_zeros(mu), trim_zeros(nu)
    if (len(nu), nu) < (len(mu), mu):
        mu, nu = nu, mu  # symmetric; canonical cache key
    w = mu[0] if mu else 0  # nu on top, where its ballot filling is forced
    return _skew_schur(tuple(x + w for x in nu) + mu, trim_zeros((w,) * len(nu)))


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}."""
    lam, mu, nu = trim_zeros(lam), trim_zeros(mu), trim_zeros(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    return skew_schur_expansion(lam, mu).get(nu, 0)


def rational_tensor_multiplicity(k: int, lam, mu, nu) -> int:
    """Tensor product multiplicity of the irreducible GL(k) character
    indexed by lam inside the product of those indexed by mu and nu.
    All three weights must be dominant of length k; computed by shifting
    with powers of the determinant character until everything is a
    partition, then applying the Littlewood-Richardson rule restricted to
    at most k rows."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not (len(lam) == len(mu) == len(nu) == k):
        raise ValueError("all three weights must have length k")
    for w in (lam, mu, nu):
        if not is_dominant(w):
            raise ValueError(f"{w} is not dominant")
    if k == 0:
        return 1
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    m_mu = max(0, -mu[-1])
    m_nu = max(0, -nu[-1])
    m = m_mu + m_nu
    lam2 = tuple(x + m for x in lam)
    if lam2[-1] < 0:
        return 0
    mu2 = trim_zeros(tuple(x + m_mu for x in mu))
    nu2 = trim_zeros(tuple(x + m_nu for x in nu))
    return lr_coefficient(trim_zeros(lam2), mu2, nu2)


# ----------------------------------------------------------------------
# SymFunc values
# ----------------------------------------------------------------------


class SymFunc:
    """Finite sparse linear combination of basis elements with QRat
    coefficients.  Immutable; equality and hashing are structural, with
    zero equal to zero across bases."""

    __slots__ = ("basis", "_terms", "_hash")

    def __init__(self, basis: str, terms=None):
        self.basis = _check_basis(basis)
        t = {}
        if terms:
            for idx, c in terms.items():
                if not isinstance(c, QRat):  # inline: this loop is hot
                    c = QRat(c)
                if not c.is_zero():
                    t[trim_zeros(idx)] = c
        self._terms = t
        self._hash = None

    @classmethod
    def zero(cls, basis: str = SCHUR) -> "SymFunc":
        return cls(basis)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Sorted (index, coefficient) pairs, by (degree, index)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def coefficient(self, idx) -> QRat:
        return self._terms.get(trim_zeros(idx), QRat.zero())

    def degree(self):
        """Maximal degree among terms; None for the zero element."""
        if not self._terms:
            return None
        return max(sum(idx) for idx in self._terms)

    def support(self):
        return sorted(self._terms, key=lambda idx: (sum(idx), idx))

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.basis != other.basis:
            other = convert(other, self.basis)
        t = dict(self._terms)
        for idx, c in other._terms.items():
            _add_term(t, idx, c)
        return _symfunc(self.basis, t)

    def __neg__(self):
        return _symfunc(self.basis, {idx: -c for idx, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        c = _as_qrat(c)
        if c.is_zero():
            return SymFunc(self.basis)
        return _symfunc(self.basis, {idx: v * c for idx, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.basis == other.basis and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            if not self._terms:
                self._hash = hash(("symfunc", 0))
            else:
                self._hash = hash((self.basis, tuple(sorted(self._terms.items()))))
        return self._hash

    # -- rendering -----------------------------------------------------

    def __str__(self):
        tag = "s" if self.basis == SCHUR else "p"
        labels = [(c, f"{tag}[{','.join(str(x) for x in idx)}]")
                  for idx, c in self.terms()]
        return format_linear(labels)

    def __repr__(self):
        return f"SymFunc<{self}>"

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [{"index": list(idx), "coeff": c.to_json()}
                      for idx, c in self.terms()],
        }


def _symfunc(basis: str, terms: dict) -> SymFunc:
    """A SymFunc over trimmed indices with nonzero coefficients."""
    out = SymFunc.__new__(SymFunc)
    out.basis, out._terms, out._hash = basis, terms, None
    return out


def format_linear(pairs) -> str:
    """Render [(QRat coeff, label)] as a signed sum, e.g. `q*s[2] - s[1,1]`."""
    if not pairs:
        return "0"
    chunks = []
    for c, label in pairs:
        neg = False
        if c.den.is_one() and len(c.num._c) == 1 and c.num.leading_coeff() < 0:
            neg, c = True, -c
        if c.is_one():
            body = label
        else:
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:] or "/" in cs:
                cs = f"({cs})"
            body = f"{cs}*{label}"
        chunks.append(("-" if neg else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


# -- basis elements ------------------------------------------------------


def schur(idx) -> SymFunc:
    idx = trim_zeros(map(_entry, idx))
    if not is_dominant(idx) or (idx and idx[-1] < 0):
        raise ValueError(f"{idx} is not a partition")
    return SymFunc(SCHUR, {idx: QRat.one()})


def powersum(idx) -> SymFunc:
    idx = trim_zeros(map(_entry, idx))
    if not is_dominant(idx) or (idx and idx[-1] < 1):
        raise ValueError(f"{idx} is not a partition")
    return SymFunc(POWERSUM, {idx: QRat.one()})


def homogeneous(k: int) -> SymFunc:
    if _entry(k) < 0:
        raise ValueError("negative degree")
    return schur((k,) if k else ())


def elementary(k: int) -> SymFunc:
    if _entry(k) < 0:
        raise ValueError("negative degree")
    return schur((1,) * k)


def one(basis: str = SCHUR) -> SymFunc:
    return SymFunc(basis, {(): QRat.one()})


# -- ring operations ------------------------------------------------------


def convert(f: SymFunc, target: str) -> SymFunc:
    target = _check_basis(target)
    if f.basis == target:
        return f
    table = _schur_to_p if target == POWERSUM else _p_to_schur
    out: dict = {}
    for idx, c in f._terms.items():
        for key, r in table(idx).items():
            _add_term(out, key, c * r)
    return SymFunc(target, out)


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    if f.is_zero() or g.is_zero():
        return SymFunc.zero(f.basis)
    if f.basis == POWERSUM and g.basis == POWERSUM:
        out: dict = {}
        for m1, c1 in f._terms.items():
            for m2, c2 in g._terms.items():
                _add_term(out, tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
        return SymFunc(POWERSUM, out)
    fs, gs = convert(f, SCHUR), convert(g, SCHUR)
    out = {}
    for m1, c1 in fs._terms.items():
        for m2, c2 in gs._terms.items():
            c = c1 * c2
            for lam, mult in schur_product_expansion(m1, m2).items():
                _add_term(out, lam, c * mult)
    return SymFunc(SCHUR, out)


def scalar_product(f: SymFunc, g: SymFunc) -> QRat:
    """Hall pairing: bilinear extension of <p_lam, p_mu> = delta * z_lam."""
    fp, gp = convert(f, POWERSUM), convert(g, POWERSUM)
    total = QRat.zero()
    small, large = (fp, gp) if len(fp._terms) <= len(gp._terms) else (gp, fp)
    for mu, c in small._terms.items():
        d = large._terms.get(mu)
        if d is not None:
            total = total + c * d * z_of(mu)
    return total


def skew(f: SymFunc, g: SymFunc) -> SymFunc:
    """f-perp applied to g, the adjoint of multiplication by f.

    Schur-basis arguments use Littlewood-Richardson deletion; otherwise
    the power-sum route applies z-weighted part deletion.
    """
    if f.is_zero() or g.is_zero():
        return SymFunc.zero(g.basis)
    if f.basis == SCHUR and g.basis == SCHUR:
        out: dict = {}
        for mu, cf in f._terms.items():
            for lam, cg in g._terms.items():
                if sum(mu) > sum(lam):
                    continue
                c = cf * cg
                for kappa, mult in skew_schur_expansion(lam, mu).items():
                    _add_term(out, kappa, c * mult)
        return SymFunc(SCHUR, out)
    fp, gp = convert(f, POWERSUM), convert(g, POWERSUM)
    out = {}
    for mu, cf in fp._terms.items():
        for lam, cg in gp._terms.items():
            target = list(lam)
            factor = 1
            for part in mu:
                m = target.count(part)
                if m == 0:
                    break
                factor *= part * m
                target.remove(part)
            else:
                _add_term(out, tuple(sorted(target, reverse=True)), cf * cg * factor)
    return SymFunc(POWERSUM, out)


def elementary_perp(k: int, f: SymFunc) -> SymFunc:
    """Skewing by e_k implemented by vertical-strip deletion in the Schur
    basis; e_0-perp is the identity and negative k gives zero."""
    if _entry(k) < 0:
        return SymFunc.zero(SCHUR)
    if k == 0:
        return f
    out: dict = {}
    for lam, c in convert(f, SCHUR)._terms.items():
        # lam is trimmed, so every strip removed from it leaves a partition
        for mu in vertical_strip_shrink(lam):
            if sum(lam) - sum(mu) == k:
                _add_term(out, trim_zeros(mu), c)
    return SymFunc(SCHUR, out)


# -- plethystic substitution ----------------------------------------------


@memo
def _phi(base: QRat, k: int) -> QRat:
    return base.subs_qpower(k)


class PowerSumSubst:
    """Substitution rule p_k -> phi(k) * p_k (alphabet c(q)X) or
    p_k -> phi(k) (constant alphabet c(q)), with phi(k) obtained from
    phi(1) by q -> q^k."""

    def __init__(self, scale: QRat, variables: bool = True, name: str = ""):
        self._base = _as_qrat(scale)
        self.variables = variables
        self.name = name

    def phi(self, k: int) -> QRat:
        return _phi(self._base, k)

    def inverse(self) -> "PowerSumSubst":
        if self._base.is_zero():
            raise ZeroDivisionError("scale factor is zero; no inverse alphabet")
        return PowerSumSubst(QRat.one() / self._base, self.variables,
                             name=f"inverse({self.name})" if self.name else "")

    def __repr__(self):
        return f"PowerSumSubst({self.name or self._base})"


X_TIMES_QM1 = PowerSumSubst(QRat(QPoly({1: 1, 0: -1})), name="X(q-1)")
X_TIMES_1MQ = PowerSumSubst(QRat(QPoly({0: 1, 1: -1})), name="X(1-q)")
X_OVER_QM1 = X_TIMES_QM1.inverse()
X_OVER_QM1.name = "X/(q-1)"
X_OVER_1MQ = X_TIMES_1MQ.inverse()
X_OVER_1MQ.name = "X/(1-q)"


def constant_alphabet(scale) -> PowerSumSubst:
    return PowerSumSubst(scale, variables=False)


def plethysm_substitute(f: SymFunc, subst: PowerSumSubst) -> SymFunc:
    """Apply the substitution to f; the result comes back in f's basis
    (constant alphabets collapse everything onto the empty index)."""
    fp = convert(f, POWERSUM)
    out: dict = {}
    for mu, c in fp._terms.items():
        for part in mu:
            c = c * subst.phi(part)
        _add_term(out, mu if subst.variables else (), c)
    result = SymFunc(POWERSUM, out)
    return convert(result, f.basis)


def dual_basis_pair_check(subst: PowerSumSubst, max_degree: int) -> bool:
    """Check that Schur functions twisted by the substitution pair to a
    Kronecker delta against Schur functions twisted by its inverse, for
    all index pairs up to the degree bound; a negative bound is refused."""
    if _entry(max_degree) < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    inv = subst.inverse()
    for d1 in range(max_degree + 1):
        for mu in partitions_of(d1):
            left = plethysm_substitute(schur(mu), subst)
            for d2 in range(max_degree + 1):
                for tau in partitions_of(d2):
                    right = plethysm_substitute(schur(tau), inv)
                    val = scalar_product(left, right)
                    want = QRat.one() if mu == tau else QRat.zero()
                    if val != want:
                        return False
    return True


def specialize_q(f: SymFunc, value) -> dict:
    """Coefficients of f evaluated at a rational q value; zero values
    are dropped."""
    out = {}
    for idx, c in f._terms.items():
        v = c.specialize(value)
        if v:
            out[idx] = v
    return out
