import gc
import re
import threading
import weakref
from pathlib import Path

import qflag

from qflag.cartan import preset
from qflag.center import center_solve
from qflag.enveloping import UAlgebra
from qflag.memo import Memo


def test_memo_stores_none_and_runs_compute_once():
    memo = Memo()
    calls = []

    def compute():
        calls.append(1)
        return None

    assert memo.get("k", compute) is None
    assert memo.get("k", compute) is None
    assert calls == [1]


def test_memo_compute_may_recurse():
    memo = Memo()

    def fib(n):
        return n if n < 2 else memo.get(n, lambda: fib(n - 1) + fib(n - 2))

    assert fib(60) == 1548008755920


def test_memo_first_stored_value_wins():
    memo = Memo()
    start = threading.Barrier(4, timeout=10)
    got = []

    def compute():
        start.wait()  # all four threads compute before any of them stores
        return []

    def worker():
        got.append(memo.get("k", compute))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    # all four computed a fresh list; every caller got the stored one
    assert len(got) == 4 and all(v is got[0] for v in got)
    assert memo.get("k", lambda: "other") is got[0]


def test_caches_do_not_keep_owners_alive():
    datum = preset("A1")
    datum.positive_roots()
    alg = UAlgebra(preset("A1"))
    center_solve(alg, 1)
    refs = [weakref.ref(datum), weakref.ref(alg)]
    del datum, alg
    gc.collect()
    assert [r() for r in refs] == [None, None]


# every cache in the package is a Memo; only memo.py takes a lock
_FORBIDDEN = re.compile(
    r"\blru_cache\b|\bfunctools\.cache\b|^\s*@cache\b"
    r"|^\s*from functools import .*\bcache\b|\bR?Lock\b", re.M)


def test_forbidden_pattern_catches_other_caches_and_locks():
    for line in ["@functools.lru_cache(maxsize=None)", "@functools.cache",
                 "@cache", "from functools import partial, cache",
                 "self._lock = threading.RLock()", "from threading import Lock"]:
        assert _FORBIDDEN.search(line), line
    for line in ["self.memo = Memo()", "# cached per depth", "cached_value = 1"]:
        assert not _FORBIDDEN.search(line), line


def test_memo_is_the_only_cache_and_lock_in_the_package():
    src = Path(qflag.__file__).parent
    hits = [f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}: {m.group()}"
            for path in sorted(src.glob("*.py")) if path.name != "memo.py"
            for text in [path.read_text()]
            for m in _FORBIDDEN.finditer(text)]
    assert hits == []
