"""The lock table holds only live entries: one per resource something holds,
waits on or is acquiring, none for a resource once it is released."""

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.oodb.locks import LockManager, LockMode


def table(locks: LockManager) -> set:
    return set(locks._entries)


def test_grants_and_releases():
    locks = LockManager(timeout=0.5)
    for resource in range(100):
        locks.acquire(1, resource, LockMode.SHARED)
    locks.acquire(2, 0, LockMode.SHARED)
    locks.acquire(2, "x", LockMode.EXCLUSIVE)
    assert table(locks) == set(range(100)) | {"x"}
    locks.release_all(1)
    assert table(locks) == {0, "x"}
    locks.release_all(2)
    assert table(locks) == set()


def test_upgrade_keeps_one_entry():
    locks = LockManager(timeout=0.5)
    locks.acquire(1, "r", LockMode.SHARED)
    locks.acquire(1, "r", LockMode.EXCLUSIVE)
    locks.acquire(1, "r", LockMode.SHARED)  # re-request: a no-op
    assert table(locks) == {"r"}
    locks.release_all(1)
    assert table(locks) == set()


def test_timeout_leaves_only_the_holder():
    locks = LockManager(timeout=0.05)
    locks.acquire(1, "r", LockMode.EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "r", LockMode.SHARED)
    assert table(locks) == {"r"}
    assert locks._entries["r"].waiters == []
    locks.release_all(1)
    locks.release_all(2)
    assert table(locks) == set()


def test_deadlock_victim_leaves_no_entry_behind():
    locks = LockManager(timeout=2.0)
    locks.acquire(1, "a", LockMode.EXCLUSIVE)
    locks.acquire(2, "b", LockMode.EXCLUSIVE)
    granted = threading.Event()

    def txn1():
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        granted.set()

    thread = threading.Thread(target=txn1)
    thread.start()
    deadline = time.monotonic() + 5
    while 1 not in locks._waits_for and time.monotonic() < deadline:
        time.sleep(0.005)
    with pytest.raises(DeadlockError):
        locks.acquire(2, "a", LockMode.EXCLUSIVE)
    # The victim neither waits on "a" nor left an acquirer behind.
    assert table(locks) == {"a", "b"}
    assert locks._entries["a"].waiters == []
    locks.release_all(2)
    thread.join(timeout=5)
    assert granted.is_set()
    assert table(locks) == {"a", "b"}
    locks.release_all(1)
    assert table(locks) == set()


def test_concurrent_traffic_drains_the_table():
    locks = LockManager(timeout=5.0)
    errors = []

    def worker(txn_id: int) -> None:
        try:
            for round_ in range(200):
                resource = (txn_id + round_) % 7
                mode = LockMode.SHARED if round_ % 3 else LockMode.EXCLUSIVE
                locks.acquire(txn_id * 1000 + round_, resource, mode)
                locks.release_all(txn_id * 1000 + round_)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(1, 5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert errors == []
    assert table(locks) == set()
