"""Command-line front end.

Subcommands: kostka, table, straighten, rewrite, swap, shift, check, eval.
Text output is deterministic; --json switches to a stable JSON schema
(sorted keys).  Exit codes: 0 success, 1 suite failure or engine
disagreement, 2 argument or parse error.

Every command computes its result; nothing is read from disk.  Output is
deterministic, so `table ... --json > table.json` keeps a table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .coeffs import QPoly, QRat
from .kostka import (
    blocked_weights,
    check_col_skew,
    compositions,
    kostka,
    kostka_kostant,
    kostka_table,
    kostka_vertex,
)
from .rewrite import (
    OpSum,
    normalize,
    operators_equal,
    parse_word,
    relation_instance,
    rewrite_dominant,
    shift_support,
    swap_factors,
)
from .symfunc import (
    POWERSUM,
    X_OVER_QM1,
    X_TIMES_QM1,
    convert,
    dual_basis_pair_check,
    elementary,
    elementary_perp,
    multiply,
    one as sf_one,
    plethysm_substitute,
    scalar_product,
    schur,
    skew,
    specialize_q,
)
from .vertexop import apply_B, apply_F, apply_H, apply_H_word
from .weights import (
    alpha_beta,
    dominant_weights,
    format_blocked,
    format_weight,
    is_dominant,
    is_vertical_strip,
    pad_zeros,
    parse_blocked,
    parse_weight,
    partitions_of,
    straighten,
    trim_zeros,
    vertical_strip_grow,
    vertical_strip_shrink,
)


def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def cmd_kostka(args) -> int:
    lam = parse_weight(args.lam)
    gamma = parse_blocked(args.gamma)
    sizes = tuple(len(b) for b in gamma)
    eta = sizes if args.eta is None else parse_weight(args.eta)
    if sizes != eta:
        raise ValueError(f"eta {eta} does not match gamma block sizes")
    value = kostka(lam, gamma, method=args.method)
    _emit(args, str(value), {
        "lambda": list(lam), "gamma": [list(b) for b in gamma],
        "eta": list(eta), "K": value.to_json(),
    })
    return 0


def cmd_table(args) -> int:
    eta = parse_weight(args.eta)
    if args.max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {args.max_degree}")
    rows = kostka_table(eta, args.max_degree, method=args.method)
    header = ("lambda", "gamma", "K")
    body = [(format_weight(r["lambda"]), format_blocked(r["gamma"]), str(r["K"]))
            for r in rows]
    widths = [max([len(h)] + [len(row[i]) for row in body]) for i, h in enumerate(header)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in [header] + body]
    _emit(args, "\n".join(lines), {
        "eta": list(eta), "max_degree": args.max_degree,
        "rows": [{"lambda": list(r["lambda"]), "gamma": [list(b) for b in r["gamma"]],
                  "eta": list(eta), "K": r["K"].to_json()} for r in rows],
    })
    return 0


def cmd_straighten(args) -> int:
    sign, nu = straighten(parse_weight(args.weight))
    if sign == 0:
        _emit(args, "0", {"sign": 0})
    else:
        text = ("-" if sign < 0 else "+") + "H[" + format_weight(nu) + "]"
        _emit(args, text, {"sign": sign, "weight": list(nu)})
    return 0


def cmd_two_factor(args) -> int:
    """rewrite, swap and shift: normalize the word, then apply the
    command's rewriter to each resulting word."""
    word = parse_word(args.word)
    if len(word) != 2:
        raise ValueError(f"{args.command} operates on two-factor words")
    extra = ()
    if args.command == "shift":
        direction = args.direction
        if direction == "auto":
            direction = "left" if len(word[0]) > len(word[1]) else "right"
        extra = (direction,)
    total = OpSum()
    for w, c in normalize({word: 1}).terms():
        total = total + args.rewriter(w, *extra).scale(c)
    _emit(args, str(total), total.to_json())
    return 0


def cmd_eval(args) -> int:
    out = apply_H_word(parse_word(args.word), schur(parse_weight(args.on_schur)))
    _emit(args, str(out), out.to_json())
    return 0


# -- invariant suites -------------------------------------------------------


# relation_instance cases in report order; criterion 4 checks larger boxes
_IDENTITY_CASES = (
    [("same-width", dict(a=a, k=k, n=n)) for a in (0, 1) for k in (1, 2) for n in (1, 2)]
    + [("one-more", dict(a=a, k=k)) for a in (0, 1) for k in (1, 2)]
    + [("quad", dict(a=a, k=k)) for a in (1, 2) for k in (1, 2)]
    + [
        ("com1", dict(mu=(2,), a=2, b=4, nu=(1,))),
        ("com1", dict(mu=(), a=1, b=3, nu=(2,))),
        ("com2", dict(mu=(2,), a=3, nu=(1,))),
        ("com2", dict(mu=(1, 1), a=0, nu=(2,))),
        ("move", dict(mu=(5,), a=3, nu=(2,))),
        ("move", dict(mu=(2, 1), a=1, nu=(1,))),
        ("bigmove", dict(alpha=(2,), beta=(1,), gamma=(1,))),
        ("bigmove", dict(alpha=(2, 1), beta=(1,), gamma=(1, 0))),
    ])


def _suite_identities(max_degree: int):
    for kind, params in _IDENTITY_CASES:
        yield kind, operators_equal(relation_instance(kind, **params), OpSum(), max_degree)


def _suite_colskew(max_degree: int):
    rng = random.Random(17)
    total = 0
    etas = [eta for n in range(2, 5) for eta in compositions(n)]
    attempts = 0
    # colskew keys have degree at least 1
    while max_degree >= 1 and total < 20 and attempts < 400:
        attempts += 1
        eta = rng.choice(etas)
        n = sum(eta)
        d = rng.randint(1, min(max_degree, 5))
        gammas = list(blocked_weights(eta, d, max_part=3))
        if not gammas:
            continue
        gamma = rng.choice(gammas)
        k = rng.randint(0, d)
        alphas = [pad_zeros(p, n) for p in partitions_of(d - k, max_len=n)]
        if not alphas:
            continue
        alpha = rng.choice(alphas)
        total += 1
        yield (f"colskew eta={eta} alpha={alpha} gamma={gamma} k={k}",
               check_col_skew(alpha, gamma, k))


def _suite_jing(max_degree: int):
    for n in (1, 2, 3):
        for eta in compositions(n):
            for d in range(0, min(max_degree, 4) + 1):
                for gamma in blocked_weights(eta, d, max_part=2):
                    f = sf_one()
                    for block in reversed(gamma):
                        f = apply_B(block, f)
                    yield (f"jing gamma={gamma}",
                           apply_F(f, inverse=True) == apply_H_word(gamma, sf_one()))


def _suite_engines(max_degree: int):
    for n in (1, 2, 3):
        for eta in compositions(n):
            for d in range(0, min(max_degree, 4) + 1):
                lams = [pad_zeros(p, n) for p in partitions_of(d, max_len=n, max_part=3)]
                for gamma in blocked_weights(eta, d, max_part=3):
                    for lam in lams:
                        yield (f"engines lam={lam} gamma={gamma}",
                               kostka(lam, gamma, method="kostant")
                               == kostka(lam, gamma, method="vertex"))


def _suite_core(max_degree: int):
    """Condensed run of the per-module invariants not covered by the
    other suites."""
    rng = random.Random(31)

    # weight combinatorics
    doms = list(dominant_weights(3, -2, 2))
    yield ("straighten idempotent",
           all(straighten(nu) == (1, nu) for nu in doms))
    ok = True
    for nu in doms[:30]:
        for beta in vertical_strip_shrink(nu):
            ok = ok and is_dominant(beta) and is_vertical_strip(nu, beta)
        for alpha in vertical_strip_grow(nu):
            ok = ok and is_dominant(alpha) and is_vertical_strip(alpha, nu)
    yield "vertical strips", ok
    yield ("alpha-beta split",
           all(alpha_beta(g)[0] == g and not any(alpha_beta(g)[1])
               for g in dominant_weights(3, 0, 2)))

    # coefficient canonicality and the power-substitution homomorphism
    ok = True
    for _ in range(25):
        num = QPoly({rng.randint(-2, 3): rng.randint(-4, 4) for _ in range(3)})
        den = QPoly({rng.randint(0, 2): rng.randint(-4, 4) for _ in range(2)})
        if den.is_zero():
            continue
        a = QRat(num, den)
        b = QRat(QPoly({rng.randint(0, 2): rng.randint(-3, 3), 0: 1}))
        k = rng.randint(1, 3)
        ok = ok and (a - a).is_zero() and ((a * b) / b == a if not b.is_zero() else True)
        ok = ok and (a + b).subs_qpower(k) == a.subs_qpower(k) + b.subs_qpower(k)
        ok = ok and (a * b).subs_qpower(k) == a.subs_qpower(k) * b.subs_qpower(k)
    yield "coefficient canonicality", ok

    # symmetric function layer
    parts = [p for d in range(min(max_degree, 4) + 1) for p in partitions_of(d)]
    yield ("conversion round trip",
           all(convert(convert(schur(p), POWERSUM), "schur") == schur(p)
               for p in parts))
    yield ("schur orthonormality",
           all(scalar_product(schur(a), schur(b)) ==
               (QRat.one() if a == b else QRat.zero())
               for a in parts for b in parts))
    ok = True
    for _ in range(15):
        mu, kappa, lam = rng.choice(parts), rng.choice(parts), rng.choice(parts)
        lhs = scalar_product(skew(schur(mu), schur(lam)), schur(kappa))
        rhs = scalar_product(schur(lam), multiply(schur(mu), schur(kappa)))
        ok = ok and lhs == rhs
    yield "skew adjunction", ok
    yield ("elementary perp matches skew",
           all(elementary_perp(k, schur(p)) == skew(elementary(k), schur(p))
               for p in parts for k in range(3)))
    yield ("plethystic twist round trip",
           all(plethysm_substitute(plethysm_substitute(schur(p), X_TIMES_QM1),
                                   X_OVER_QM1) == schur(p) for p in parts))
    yield "dual bases", dual_basis_pair_check(X_TIMES_QM1, min(max_degree, 3))

    # vertex operator layer
    yield ("partition blocks on 1",
           all(apply_H(pad_zeros(p, 2), sf_one()) == schur(p)
               for p in partitions_of(3, max_len=2)))
    yield "negative tail kills 1", apply_H((1, -1), sf_one()).is_zero()
    ok = True
    for v in [(1, 3), (0, 2, 1)]:
        for i in range(len(v) - 1):
            w = list(v)
            w[i], w[i + 1] = v[i + 1] - 1, v[i] + 1
            ok = ok and (apply_H_word((v,), schur((1,)))
                         == -apply_H_word((tuple(w),), schur((1,))))
    yield "shifted skew symmetry", ok
    ok = True
    for gamma in dominant_weights(2, -2, 2):
        al, be = alpha_beta(gamma)
        vec = plethysm_substitute(schur(trim_zeros(be)), X_OVER_QM1)
        ok = ok and apply_H(gamma, vec) == schur(trim_zeros(al))
    yield "independence vectors", ok
    ok = True
    for lam, tau in [((1,), (2,)), ((2, 1), (1, 1))]:
        at0 = specialize_q(apply_H(lam, schur(tau)), 0)
        at1 = specialize_q(apply_H(lam, schur(tau)), 1)
        ok = ok and at1 == specialize_q(multiply(schur(lam), schur(tau)), 1)
        word = tuple((x,) for x in lam)
        ok = ok and at0 == specialize_q(apply_H_word((lam,), schur(tau)), 0)
        ok = ok and specialize_q(apply_H_word(word, schur(tau)), 0) == at0
    yield "q specializations", ok

    # Kostka layer: shift invariance on a few keys
    ok = True
    for lam, gamma in [((2, 0), ((1,), (1,))), ((1, 1), ((1, 1),))]:
        base = kostka_kostant(lam, gamma)
        for a in (-1, 1, 2):
            lam_s = tuple(x + a for x in lam)
            gamma_s = tuple(tuple(x + a for x in b) for b in gamma)
            ok = ok and kostka_kostant(lam_s, gamma_s) == base
            ok = ok and kostka_vertex(lam_s, gamma_s) == base
    yield "kostka shift invariance", ok


_SUITES = {
    "identities": _suite_identities,
    "colskew": _suite_colskew,
    "jing": _suite_jing,
    "engines": _suite_engines,
    "core": _suite_core,
}


def cmd_check(args) -> int:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be nonnegative, got {args.max_degree}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = {}
    ok = True
    lines = []
    for name in names:
        total, failures = 0, []
        for label, held in _SUITES[name](args.max_degree):
            total += 1
            if not held:
                failures.append(label)
        passed = total - len(failures)
        if total == 0:
            failures.append("no checks evaluated")
        report[name] = {"passed": passed, "total": total, "failures": failures}
        ok = ok and not failures
        lines.append(f"suite {name}: {passed}/{total} passed")
        lines.extend(f"  FAIL {f}" for f in failures)
    _emit(args, "\n".join(lines), {"suites": report, "ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlvertex",
        description="Exact Hall-Littlewood vertex operators, generalized "
                    "Kostka polynomials, and operator-word rewriting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kostka", help="one Kostka polynomial")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="dominant weight, e.g. 2,0")
    p.add_argument("--gamma", required=True,
                   help="blocked weight, e.g. \"1;1\" or \"2,2;4,1\"")
    p.add_argument("--eta", default=None, help="shape; defaults to block sizes")
    p.add_argument("--method", choices=("kostant", "vertex", "both"), default="both")
    p.set_defaults(fn=cmd_kostka)

    p = sub.add_parser("table", help="table of Kostka polynomials")
    p.add_argument("--eta", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--method", choices=("kostant", "vertex", "both"), default="both")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("straighten", help="straighten a weight")
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=cmd_straighten)

    p = sub.add_parser("rewrite", help="dominance-normalize a two-factor word")
    p.add_argument("--word", required=True, help="e.g. \"H[2,2]H[4,1]\"")
    p.set_defaults(fn=cmd_two_factor, rewriter=rewrite_dominant)

    p = sub.add_parser("swap", help="swap the factor lengths of a word")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_two_factor, rewriter=swap_factors)

    p = sub.add_parser("shift", help="move one slot between the factors")
    p.add_argument("--word", required=True)
    p.add_argument("--direction", choices=("left", "right", "auto"), default="auto")
    p.set_defaults(fn=cmd_two_factor, rewriter=shift_support)

    p = sub.add_parser("eval", help="apply a word to a Schur function")
    p.add_argument("--word", required=True)
    p.add_argument("--on-schur", default="", help="partition; empty means 1")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run invariant suites")
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_check)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="JSON output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`... | head`); stdout goes to
        # devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
