"""The one memo type behind every cache in the package.

Each cache owner (a Cartan datum, an algebra, a pairing, a ring, a module,
...) holds a single ``Memo`` and keys it by what it computes, e.g.
``("xi", beta)``.  Memoized results are pure functions of their owner and
key, so the cache changes timing and never an answer.
"""

from __future__ import annotations

from threading import Lock
from typing import Callable, Dict, Hashable, TypeVar

T = TypeVar("T")

_MISSING = object()


class Memo:
    """A thread-safe table of computed results.

    ``get(key, compute)`` returns the value stored under ``key`` (a stored
    ``None`` is a hit), else runs ``compute()`` outside the lock, so a
    computation may recurse into the same memo, and stores its result.
    When two threads compute the same key, the first stored value wins and
    every caller gets that one object."""

    __slots__ = ("_data", "_lock")

    def __init__(self):
        self._data: Dict[Hashable, object] = {}
        self._lock = Lock()

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            with self._lock:
                value = self._data.setdefault(key, value)
        return value
