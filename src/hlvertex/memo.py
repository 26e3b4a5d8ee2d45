"""One memo mechanism for the library's pure functions.

`memo` is `functools.cache` plus registration: results are keyed by the
positional arguments, which must be hashable and already normalized by
the caller, and kept until `clear_caches()` empties every registered
cache.  Each cache reports its hits, misses and size through
`cache_info()`.  Inserts are idempotent, so concurrent callers at worst
duplicate work.
"""

import functools

_CACHES: list = []


def memo(fn):
    cached = functools.cache(fn)
    _CACHES.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo cache."""
    for cached in _CACHES:
        cached.cache_clear()
