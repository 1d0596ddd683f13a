"""Pooled mixed queries against concurrent propagation: no stale buffer value.

Eight client threads run probe-compiled ``execute`` statements through a
pooled session while one updater rewrites a paragraph and propagates.  Each
rewrite plants a token no earlier text had; readers keep asking for the
*next* token too, so an empty result for it sits in the persistent buffer
(and in the decoded view) when the propagation that makes it wrong arrives.
Once a propagation has returned, every statement started afterwards must
find the token — at paragraph level (IRS value) and at document level (value
derived from the paragraph and amended to the buffer).
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from tests.support import wait_until

READERS = 8
ROUNDS = 8

PARA_QUERY = "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, $q) > 0.4"
DOC_QUERY = "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(coll, $q) > 0.4"


def test_no_stale_value_under_concurrent_propagation(system, collection):
    session = system.open_session(workers=READERS)
    target = system.db.instances_of("PARA")[0]
    document = target.send("getContaining", "MMFDOC")
    published = [0]  # highest token whose propagation has returned
    stale, errors = [], []
    finished = Counter()  # generation -> reader passes begun and ended in it
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                generation = published[0]
                for token in (generation, generation + 1):
                    bindings = {"coll": collection, "q": f"token{token}"}
                    paras = {r[0].oid for r in session.execute(PARA_QUERY, bindings)}
                    docs = {r[0].oid for r in session.execute(DOC_QUERY, bindings)}
                    if token == generation and generation > 0:
                        if target.oid not in paras:
                            stale.append(("para", token))
                        if document.oid not in docs:
                            stale.append(("doc", token))
                finished[generation] += 1
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for generation in range(1, ROUNDS + 1):
            # Cumulative: a token, once planted, stays in the paragraph.
            tokens = " ".join(f"token{g}" for g in range(1, generation + 1))
            system.loader.update_content(target, f"paragraph now about {tokens}")
            collection.send("modifyObject", target)
            session.propagate(collection)
            published[0] = generation
            # Pace on progress, not wall clock: two passes per reader, so the
            # empty result for the next token is buffered and hit again
            # before the propagation that invalidates it.
            wait_until(
                lambda: stop.is_set() or finished[generation] >= 2 * READERS,
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
    assert not errors, errors
    assert not stale, stale[:5]
    # The statements did go through probes, buffer hits and amends.
    final = {"coll": collection, "q": f"token{published[0]}"}
    assert {r[0].oid for r in session.execute(PARA_QUERY, final)} == {target.oid}
    assert {r[0].oid for r in session.execute(DOC_QUERY, final)} == {document.oid}
