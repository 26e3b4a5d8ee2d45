"""One memo mechanism for the library's pure functions.

`memo` caches a function's results in a dict keyed by its positional
arguments, which must be hashable and already normalized by the caller.
The wrapper is a plain function, so tools that instrument module
namespaces see it like any other.  Every cache is registered, and
`clear_caches()` empties them all.  Inserts are idempotent, so concurrent
callers at worst duplicate work.
"""

import functools

_CACHES: list = []
_MISSING = object()


def memo(fn):
    cache: dict = {}
    _CACHES.append(cache)

    # a sentinel lookup, not KeyError, so that a miss raises nothing
    @functools.wraps(fn)
    def cached(*args):
        value = cache.get(args, _MISSING)
        if value is _MISSING:
            value = cache[args] = fn(*args)
        return value

    return cached


def clear_caches() -> None:
    """Empty every memo cache."""
    for cache in _CACHES:
        cache.clear()
