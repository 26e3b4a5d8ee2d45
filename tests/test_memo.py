"""The memo mechanism: clearing, normalized keys, the cache registry."""

import importlib
import pkgutil

import hlvertex
from hlvertex.coeffs import QRat
from hlvertex.kostka import kostka, kostka_kostant, kostka_vertex
from hlvertex.memo import _CACHES, clear_caches, memo
from hlvertex.rewrite import rewrite_dominant, swap_factors
from hlvertex.symfunc import (
    X_TIMES_QM1,
    plethysm_substitute,
    schur,
    schur_product_expansion,
    skew,
    skew_schur_expansion,
)
from hlvertex.vertexop import apply_H


def test_product_key_is_normalized():
    assert schur_product_expansion((1, 0), (2, 1, 0)) is schur_product_expansion((2, 1), (1,))
    assert skew_schur_expansion((2, 1, 0), (1, 0)) is skew_schur_expansion((2, 1), (1,))


def test_clear_caches_then_recompute_gives_equal_results():
    keys = [((3, 1, 0), ((2,), (1, 1))), ((2, 1, 0), ((1,), (1,), (1,)))]
    before = [(kostka_kostant(*k), kostka_vertex(*k)) for k in keys]
    f = apply_H((2, 1), schur((2, 1)))
    g = skew(schur((1,)), schur((3, 2)))
    expansion = skew_schur_expansion((4, 2, 1), (2, 1))
    clear_caches()
    assert [(kostka_kostant(*k), kostka_vertex(*k)) for k in keys] == before
    again = apply_H((2, 1), schur((2, 1)))
    assert again == f and again is not f
    assert skew(schur((1,)), schur((3, 2))) == g
    again = skew_schur_expansion((4, 2, 1), (2, 1))
    assert again == expansion and again is not expansion


def test_memo_returns_a_plain_function_that_caches():
    calls = []

    def square(x):
        """Square x."""
        calls.append(x)
        return x * x

    cached = memo(square)
    assert (cached.__name__, cached.__module__, cached.__doc__) == (
        "square", __name__, "Square x.")
    assert cached(3) == cached(3) == 9
    assert calls == [3]
    clear_caches()
    assert cached(3) == 9
    assert calls == [3, 3]


def _namespace_caches() -> dict:
    """Every object with cache_clear in an hlvertex module namespace, by
    its qualified name in that namespace."""
    modules = [hlvertex] + [importlib.import_module(f"hlvertex.{m.name}")
                            for m in pkgutil.iter_modules(hlvertex.__path__)]
    return {f"{module.__name__}.{name}": value
            for module in modules
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")}


def test_every_cache_is_registered_and_private():
    caches = _namespace_caches()
    assert len(caches) >= 12
    for qualified, cached in caches.items():
        assert cached in _CACHES, qualified
        assert qualified.rsplit(".", 1)[1].startswith("_"), qualified


def test_clear_caches_empties_every_registered_cache():
    kostka((3, 1, 0), ((2,), (1, 1)), "both")
    apply_H((2, 1), schur((2, 1)))
    rewrite_dominant(((1,), (2, 1)))
    swap_factors(((2, 1), (1,)))
    skew_schur_expansion((3, 1), (1,))
    plethysm_substitute(schur((2, 1)), X_TIMES_QM1)
    for qualified, cached in _namespace_caches().items():
        assert cached.cache_info().currsize > 0, qualified
    clear_caches()
    for cached in _CACHES:
        assert cached.cache_info().currsize == 0, cached.__qualname__


def test_clear_caches_empties_the_power_substitution_values(monkeypatch):
    plethysm_substitute(schur((2, 1)), X_TIMES_QM1)
    clear_caches()
    powers = []
    subs_qpower = QRat.subs_qpower

    def counted(self, k):
        powers.append(k)
        return subs_qpower(self, k)

    monkeypatch.setattr(QRat, "subs_qpower", counted)
    values = [X_TIMES_QM1.phi(k) for k in (1, 3, 3)]
    assert powers == [1, 3]
    assert values == [QRat.q() - 1, QRat.q() ** 3 - 1, QRat.q() ** 3 - 1]
