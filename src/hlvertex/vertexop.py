"""Hall-Littlewood vertex operators as executable linear operators.

The operator indexed by a dominant weight nu of length k acts on a
symmetric function f as

    sum over partitions lam, mu with at most k parts of
        cbar(lam; mu, nu) * s_lam * (s_mu[X(q-1)])-perp f,

where cbar is the GL(k) tensor multiplicity.  Only mu with |mu| <= deg f
contribute, so the action is finite and exact.  Jing's operators are
obtained by conjugating with the plethystic twist X -> X(1-q).
"""

from __future__ import annotations

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
    skew,
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
        if len(kappa) > k:
            continue
        if m:
            kp = kappa + (0,) * (k - len(kappa))
            if kp[-1] - m < 0:
                continue
            lam = trim_zeros(tuple(x - m for x in kp))
        else:
            lam = kappa
        out.append((lam, c))
    return tuple(out)


@memo
def _schur_alphabet_qm1(mu) -> SymFunc:
    """s_mu[X(q-1)] expanded in the Schur basis (cached).

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
            c1s = c1 * sign
            for tau, c2 in schur_product_expansion(nu, kappa).items():
                slot = acc.setdefault(tau, {})
                slot[e] = slot.get(e, 0) + c1s * c2
    return SymFunc(SCHUR, {tau: QRat(QPoly(slot)) for tau, slot in acc.items()})


def apply_H(nu, f: SymFunc) -> SymFunc:
    """Apply the vertex operator indexed by the dominant weight nu to f.
    Length 0 indexes the identity operator."""
    nu = tuple(nu)
    if not is_dominant(nu):
        raise ValueError(f"{nu} is not dominant; use apply_H_any")
    if not nu or f.is_zero():
        return f
    return _apply_H(nu, convert(f, SCHUR))


@memo
def _apply_H(nu, fs: SymFunc) -> SymFunc:
    k = len(nu)
    acc: dict = {}
    for d in range(fs.degree() + 1):
        for mu in partitions_of(d, max_len=k):
            pairs = _expansion_pairs(nu, mu)
            if not pairs:
                continue
            g = skew(_schur_alphabet_qm1(mu), fs)
            if g.is_zero():
                continue
            for lam, c in pairs:
                for idx, cg in g._terms.items():
                    cc = cg * c
                    for kappa, mult in schur_product_expansion(lam, idx).items():
                        _add_term(acc, kappa, cc * mult)
    return SymFunc(SCHUR, acc)


def apply_H_any(v, f: SymFunc) -> SymFunc:
    """Apply the operator indexed by an arbitrary integer weight: it is
    zero or agrees up to sign with a dominant one after straightening."""
    sign, nu = straighten(v)
    if sign == 0:
        return SymFunc.zero(SCHUR)
    out = apply_H(nu, f)
    return out if sign > 0 else -out


def apply_H_word(blocks, f: SymFunc) -> SymFunc:
    """Apply a composite of vertex operators, rightmost block first."""
    out = f
    for block in reversed(tuple(blocks)):
        out = apply_H(tuple(block), out)
    return out


def apply_F(f: SymFunc, inverse: bool = False) -> SymFunc:
    """The plethystic twist X -> X(1-q), or its inverse X -> X/(1-q)."""
    return plethysm_substitute(f, X_OVER_1MQ if inverse else X_TIMES_1MQ)


def apply_B(nu, f: SymFunc) -> SymFunc:
    """Jing's vertex operator, realized by conjugating the Hall-Littlewood
    operator with the plethystic twist."""
    return apply_F(apply_H(tuple(nu), apply_F(f, inverse=True)))
