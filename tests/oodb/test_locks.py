"""Lock manager: modes, blocking, deadlock detection."""

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.oodb.locks import LockManager, LockMode


@pytest.fixture
def locks():
    return LockManager(timeout=0.5)


class TestGrants:
    def test_shared_locks_coexist(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        assert locks.holds(1, "r", LockMode.SHARED)
        assert locks.holds(2, "r", LockMode.SHARED)

    def test_exclusive_lock_granted_alone(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_reacquire_is_noop(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.SHARED)
        assert locks.holds(1, "r", LockMode.SHARED)
        assert not locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_lone_holder_upgrades(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_exclusive_implies_shared(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.SHARED)

    def test_release_all_frees_everything(self, locks):
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(1, "b", LockMode.SHARED)
        locks.release_all(1)
        assert not locks.holds(1, "a") and not locks.holds(1, "b")
        locks.acquire(2, "a", LockMode.EXCLUSIVE)  # no blocking


class TestConflicts:
    def test_exclusive_blocks_shared_until_release(self, locks):
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def attempt():
            locks.acquire(2, "r", LockMode.SHARED)
            acquired.set()

        thread = threading.Thread(target=attempt)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        locks.release_all(1)
        thread.join(timeout=1)
        assert acquired.is_set()

    def test_timeout_raises(self):
        locks = LockManager(timeout=0.05)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "r", LockMode.EXCLUSIVE)

    def test_holds_false_for_strangers(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        assert not locks.holds(2, "r")
        assert not locks.holds(1, "other")


class TestDeadlock:
    def test_two_party_deadlock_detected(self, locks):
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)
        failures = []
        done = threading.Barrier(3, timeout=5)

        def txn1():
            try:
                locks.acquire(1, "b", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as exc:
                failures.append(exc)
                locks.release_all(1)
            done.wait()

        def txn2():
            time.sleep(0.1)  # let txn1 start waiting first
            try:
                locks.acquire(2, "a", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as exc:
                failures.append(exc)
                locks.release_all(2)
            done.wait()

        t1 = threading.Thread(target=txn1)
        t2 = threading.Thread(target=txn2)
        t1.start()
        t2.start()
        done.wait()
        t1.join()
        t2.join()
        assert any(isinstance(f, DeadlockError) for f in failures)

    def test_self_wait_is_not_deadlock(self, locks):
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)  # upgrade: no other holder
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)
