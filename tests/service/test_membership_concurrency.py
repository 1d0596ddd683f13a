"""Membership readers against a propagating writer: whole batches only.

Propagation writes ``doc_map`` items into the stored dictionary in place.
Reader threads keep asking what iterates or measures the membership —
``memberCount``, the closed universe of :mod:`repro.core.negation`, the
``#not`` operator — while one writer inserts and deletes paragraphs six at
a time and propagates.  No reader may meet a dictionary that changes size
under its iteration, and none may count a batch half applied: every
membership size it sees differs from the first by a multiple of six.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.core import negation
from repro.core.context import coupling_context
from tests.support import wait_until

BATCH = 6
ROUNDS = 50
GROW_FIRST = 25  # rounds that only insert: a map worth iterating

READS = {
    "memberCount": lambda coll: coll.send("memberCount"),
    "members": lambda coll: len(negation.members(coll)),
    "closed_world_not": lambda coll: len(negation.closed_world_not(coll, "telnet", 0.4)),
    "IRSOperatorNOT": lambda coll: len(coll.send("IRSOperatorNOT", "telnet")),
}


def test_readers_see_whole_batches_and_a_stable_dictionary(system, collection):
    mutex = coupling_context(system.db).mutation_mutex(str(collection.oid))
    base = {name: read(collection) for name, read in READS.items()}
    torn, errors = [], []
    passes = Counter()
    stop = threading.Event()

    def reader(name):
        read = READS[name]
        try:
            while not stop.is_set():
                count = read(collection)
                if (count - base[name]) % BATCH:
                    torn.append((name, count))
                passes[name] += 1
        except BaseException as exc:  # surfaced after the join
            errors.append((name, exc))
            stop.set()

    threads = [threading.Thread(target=reader, args=(name,)) for name in READS for _ in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    added = []
    try:
        for thread in threads:
            thread.start()
        for number in range(ROUNDS):
            seen = dict(passes)
            # The mutex keeps a reader's forced propagation from applying
            # the batch while it is still being recorded.
            with mutex:
                if number < GROW_FIRST or number % 2:
                    batch = [
                        system.loader.insert_element(
                            system.roots[number % 4], "PARA", f"gopher archive {number} {i}"
                        )
                        for i in range(BATCH)
                    ]
                    for para in batch:
                        collection.send("insertObject", para)
                    added.extend(batch)
                else:
                    # Three out, three changed, three in: the size moves by
                    # zero, a half of it by up to three.
                    for para in added[:3]:
                        collection.send("deleteObject", para)
                    for para in added[3:6]:
                        system.loader.update_content(para, f"gopher rewritten {number}")
                        collection.send("modifyObject", para)
                    fresh = [
                        system.loader.insert_element(
                            system.roots[0], "PARA", f"archie swap {number} {i}"
                        )
                        for i in range(3)
                    ]
                    for para in fresh:
                        collection.send("insertObject", para)
                    added[:3] = fresh
                assert collection.send("propagateUpdates") > 0
            wait_until(
                lambda: stop.is_set() or all(passes[n] > seen.get(n, 0) for n in READS),
                timeout=60,
                message="readers made no progress",
            )
            if stop.is_set():
                break
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert not torn, torn[:5]
    assert collection.send("memberCount") == base["memberCount"] + len(added)
    assert min(passes.values()) >= ROUNDS
