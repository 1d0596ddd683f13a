"""Concurrency: multi-threaded transactions against one database."""

import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionError
from repro.oodb import Database


@pytest.fixture
def db():
    d = Database(lock_timeout=2.0)
    d.define_class("Account", attributes={"balance": "INT"})
    return d


class TestParallelTransactions:
    def test_disjoint_writers_proceed_in_parallel(self, db):
        objs = [db.create_object("Account", balance=0) for _ in range(8)]
        errors = []

        def worker(start):
            try:
                with db.begin():
                    for obj in objs[start::2]:
                        obj.set("balance", obj.get("balance") + 1)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(obj.get("balance") == 1 for obj in objs)

    def test_conflicting_writers_serialize(self, db):
        obj = db.create_object("Account", balance=0)
        barrier = threading.Barrier(4, timeout=10)
        failures = []

        def worker():
            barrier.wait()
            for _ in range(5):
                try:
                    with db.begin():
                        obj.set("balance", obj.get("balance") + 1)
                except (DeadlockError, LockTimeoutError):
                    failures.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every successful increment is atomic under X locks.
        assert obj.get("balance") + len(failures) == 20

    def test_transfer_invariant_under_contention(self, db):
        accounts = [db.create_object("Account", balance=100) for _ in range(4)]
        total = sum(a.get("balance") for a in accounts)
        aborted = []

        def transfer(src, dst, amount):
            try:
                with db.begin():
                    # Deterministic lock order prevents deadlock.
                    first, second = sorted((src, dst), key=lambda o: o.oid)
                    first.get("balance")
                    second.get("balance")
                    src.set("balance", src.get("balance") - amount)
                    dst.set("balance", dst.get("balance") + amount)
            except (DeadlockError, LockTimeoutError):
                aborted.append(1)

        threads = []
        for i in range(12):
            src = accounts[i % 4]
            dst = accounts[(i + 1) % 4]
            threads.append(threading.Thread(target=transfer, args=(src, dst, 5)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(a.get("balance") for a in accounts) == total

    def test_per_thread_transaction_state(self, db):
        results = {}

        def worker(name):
            txn = db.begin()
            results[name] = db._current_txn() is not None
            txn.rollback()

        thread = threading.Thread(target=worker, args=("other",))
        thread.start()
        thread.join()
        assert results["other"] is True
        assert db._current_txn() is None  # main thread unaffected

    def test_nested_begin_still_rejected_per_thread(self, db):
        with db.begin():
            with pytest.raises(TransactionError):
                db.begin()
