"""``repro.memo.Memo``: second-chance eviction, its bound under threads,
the eviction counter and a limit of 0."""

import random
import sys
import threading

from repro import obs
from repro.memo import Memo

NAMES = ("test.hits", "test.misses", "test.evictions")


def test_a_re_read_key_outlives_unread_ones():
    memo = Memo(3, *NAMES)
    for key in "abc":
        memo.put(key, 0, key.upper())
    assert memo.get("a", 0) == "A"  # "a" is the oldest, but read
    memo.put("d", 0, "D")
    assert [key in memo for key in "abcd"] == [True, False, True, True]
    memo.put("e", 0, "E")  # "a" had its second pass: "c" is now the oldest
    assert [key in memo for key in "acde"] == [True, False, True, True]
    for key in "fg":
        memo.put(key, 0, key.upper())
    assert "a" not in memo  # unread since its pass, so it ages out in turn


def test_the_bound_and_the_tokens_hold_under_threads():
    memo = Memo(16, *NAMES)
    wrong, over = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(3000):
            key, token = rng.randrange(48), rng.randrange(3)
            value = memo.get(key, token)
            if value is None:
                memo.put(key, token, (key, token))
            elif value != (key, token):
                wrong.append((key, token, value))
            if len(memo) > memo.limit:
                over.append(len(memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [] and over == []
    assert len(memo) == memo.limit


def test_the_eviction_counter_moves_once_per_dropped_key():
    with obs.instrumentation() as (_tracer, metrics):
        memo = Memo(2, *NAMES)
        for key in "abcde":
            memo.put(key, 0, key)
        assert metrics.counter("test.evictions").value == 3
        memo.put("e", 1, "e1")  # a kept key, put again: nothing dropped
        memo.get("d", 0)
        memo.put("f", 0, "f")  # "d" is passed over, "e" goes
        assert metrics.counter("test.evictions").value == 4
        assert ["d" in memo, "e" in memo, len(memo)] == [True, False, 2]


def test_a_limit_of_zero_keeps_nothing():
    with obs.instrumentation() as (_tracer, metrics):
        memo = Memo(0, *NAMES)
        memo.put("k", 0, "value")
        assert memo.get("k", 0) is None
        assert len(memo) == 0 and "k" not in memo
        assert metrics.counter("test.evictions").value == 0
