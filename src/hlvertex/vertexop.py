"""Hall-Littlewood vertex operators as executable linear operators.

The operator indexed by a dominant weight nu of length k acts on a
symmetric function f as

    sum over partitions lam, mu with at most k parts of
        cbar(lam; mu, nu) * s_lam * (s_mu[X(q-1)])-perp f,

where cbar is the GL(k) tensor multiplicity.  Only mu with |mu| <= deg f
contribute, so the action is finite and exact.  It is the linear
extension of a memoized kernel on Schur functions computed over Z[q];
QRat appears only at the boundary.  Jing's operators are obtained by
conjugating with the plethystic twist X -> X(1-q).
"""

from __future__ import annotations

from types import MappingProxyType

from .coeffs import QPoly, QRat, _add_term
from .memo import memo
from .symfunc import (
    SCHUR,
    SymFunc,
    X_OVER_1MQ,
    X_TIMES_1MQ,
    convert,
    plethysm_substitute,
    schur_product_expansion,
    skew_schur_expansion,
)
from .weights import (
    conjugate,
    is_dominant,
    partitions_of,
    straighten,
    subpartitions,
    trim_zeros,
)

@memo
def _expansion_pairs(nu, mu):
    """The (lam, cbar(lam; mu, nu)) pairs with cbar > 0, for a dominant nu
    of length k and a partition mu with at most k parts.  Computed from
    the product of Schur functions after shifting nu by a power of the
    determinant character; only lam that are partitions survive."""
    k = len(nu)
    m = max(0, -nu[-1])
    nu_shift = trim_zeros(tuple(x + m for x in nu))
    out = []
    for kappa, c in sorted(schur_product_expansion(mu, nu_shift).items()):
        kp = kappa + (0,) * (k - len(kappa))
        if len(kappa) <= k and kp[-1] >= m:
            out.append((trim_zeros(tuple(x - m for x in kp)), c))
    return tuple(out)


def _add_slot(dst: dict, terms, c: int, shift: int = 0) -> None:
    """dst += c * q**shift * terms, on exponent -> int dicts."""
    for e, v in terms:
        e += shift
        dst[e] = dst.get(e, 0) + c * v


def _frozen(acc: dict) -> MappingProxyType:
    """acc as read-only {index: ((exponent, coefficient), ...)}, zeros dropped."""
    out = {idx: tuple((e, v) for e, v in slot.items() if v) for idx, slot in acc.items()}
    return MappingProxyType({idx: terms for idx, terms in out.items() if terms})


@memo
def _schur_alphabet_qm1(mu) -> MappingProxyType:
    """s_mu[X(q-1)] expanded in the Schur basis over Z[q] (cached).

    Splitting the alphabet as qX - X turns the plethysm into a sum over
    subdiagrams nu of mu of q^|nu| (-1)^{|mu|-|nu|} s_nu times the
    conjugated skew Schur function of mu/nu, so the whole expansion is
    integer Littlewood-Richardson combinatorics."""
    mu_c = conjugate(mu)
    size = sum(mu)
    acc: dict = {}
    for nu in subpartitions(mu):
        e = sum(nu)
        sign = -1 if (size - e) % 2 else 1
        for kappa, c1 in skew_schur_expansion(mu_c, conjugate(nu)).items():
            for tau, c2 in schur_product_expansion(nu, kappa).items():
                _add_slot(acc.setdefault(tau, {}), ((e, c2),), c1 * sign)
    return _frozen(acc)


@memo
def _H_schur(nu, kappa) -> MappingProxyType:
    """The kernel H_nu(s_kappa) over Z[q], in _frozen form.  Skews are
    gathered per factor pair s_lam * s_rho, shared across mu, before the
    products are expanded."""
    factors: dict = {}
    for d in range(sum(kappa) + 1):
        for mu in partitions_of(d, max_len=len(nu)):
            pairs = _expansion_pairs(nu, mu)
            for tau, terms in _schur_alphabet_qm1(mu).items():
                for rho, m in skew_schur_expansion(kappa, tau).items():
                    for lam, c in pairs:
                        _add_slot(factors.setdefault((lam, rho), {}), terms, m * c)
    acc: dict = {}
    for (lam, rho), slot in factors.items():
        for idx, m in schur_product_expansion(lam, rho).items():
            _add_slot(acc.setdefault(idx, {}), slot.items(), m)
    return _frozen(acc)


def apply_H(nu, f: SymFunc) -> SymFunc:
    """Apply the vertex operator indexed by the dominant weight nu (length
    0: the identity) to f, as the linear extension of the Z[q] kernel.  f's
    denominators (from apply_B) join only when the output QRat are built."""
    nu = tuple(nu)
    if not is_dominant(nu):
        raise ValueError(f"{nu} is not dominant; use apply_H_any")
    if not nu or f.is_zero():
        return f
    slots: dict = {}  # (denominator, index) -> numerator
    for kappa, c in convert(f, SCHUR)._terms.items():
        for idx, terms in _H_schur(nu, kappa).items():
            for s, w in c.num._c.items():
                _add_slot(slots.setdefault((c.den, idx), {}), terms, w, s)
    out: dict = {}
    for (den, idx), slot in slots.items():
        _add_term(out, idx, QRat(QPoly(slot), den))
    return SymFunc(SCHUR, out)


def apply_H_any(v, f: SymFunc) -> SymFunc:
    """Apply the operator indexed by an arbitrary integer weight: it is
    zero or agrees up to sign with a dominant one after straightening."""
    sign, nu = straighten(v)
    if sign == 0:
        return SymFunc.zero(SCHUR)
    out = apply_H(nu, f)
    return out if sign > 0 else -out


def apply_H_word(blocks, f: SymFunc) -> SymFunc:
    """Apply a composite of vertex operators indexed by arbitrary integer
    weights, rightmost block first."""
    out = f
    for block in reversed(tuple(blocks)):
        out = apply_H_any(block, out)
    return out


def apply_F(f: SymFunc, inverse: bool = False) -> SymFunc:
    """The plethystic twist X -> X(1-q), or its inverse X -> X/(1-q)."""
    return plethysm_substitute(f, X_OVER_1MQ if inverse else X_TIMES_1MQ)


def apply_B(nu, f: SymFunc) -> SymFunc:
    """Jing's vertex operator, realized by conjugating the Hall-Littlewood
    operator with the plethystic twist."""
    return apply_F(apply_H(tuple(nu), apply_F(f, inverse=True)))
