"""Outside-in tracing: timing wrappers around each layer's entry points.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces the
functions listed in :func:`targets` with wrappers (``setattr`` on the owning
class or module) and :meth:`Tracer.uninstall` puts the originals back.  A
wrapper records one span — name, start, end, parent span, operation id — in
a per-thread list; the lists are written out after the run.

Self time of a span is its duration minus the durations of its direct
children.  Spans only nest within one thread, so a span that waits for
another thread (the client's socket round trip, the synchronous wrapper
around the service queue) would count the other thread's work a second
time; those are listed in :data:`BLOCKING` and left out of the layer shares.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import buffer, collection, derivation, updates
from repro.irs.engine import IRSEngine
from repro.net import wire
from repro.net.client import RemoteSession
from repro.net.server import DocumentServer
from repro.oodb.database import Database
from repro.oodb.query.evaluator import QueryEvaluator
from repro.oodb.transactions import Transaction
from repro.oodb.wal import WriteAheadLog
from repro.service import batch
from repro.service.executor import DocumentService
from repro.service.session import Session
from repro.sgml.loader import SGMLLoader
from repro.store import SingleFileStore

#: Spans whose self time is waiting for work recorded on another thread.
BLOCKING = frozenset({"net.client_roundtrip", "service.query"})

#: Layers, in the order reports list them.
LAYERS = ("irs", "core", "oodb", "sgml", "service", "net", "store")

# A span is a list so the wrapper can fill in the end time in place.
NAME, START, END, PARENT, OP = range(5)


class _ThreadState:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.counts: Dict[str, float] = defaultdict(float)


def _count_frame_bytes(state: _ThreadState, args: tuple, result: Any) -> None:
    # Client threads carry an operation id, so their frames are requests;
    # frames encoded on any other thread are the server's responses.
    kind = "net.request_bytes" if state.op is not None else "net.response_bytes"
    state.counts[kind] += len(result)
    state.counts[kind.replace("_bytes", "_frames")] += 1


def _count_query_stats(state: _ThreadState, args: tuple, result: Any) -> None:
    rows, stats = result
    state.counts["oodb.tuples_examined"] += stats.tuples_examined
    state.counts["oodb.rows_produced"] += len(rows)


def targets() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """``(span name, owner, attribute, after-hook)`` for every wrapped call."""
    return [
        ("irs.query", IRSEngine, "query", None),
        ("irs.index_document", IRSEngine, "index_document", None),
        ("irs.replace_document", IRSEngine, "replace_document", None),
        ("irs.remove_document", IRSEngine, "remove_document", None),
        ("core.get_irs_result", collection, "_get_irs_result", None),
        ("core.find_irs_value", collection, "_find_irs_value", None),
        ("core.index_objects", collection, "index_objects", None),
        ("core.buffer_lookup", buffer.ResultBuffer, "lookup", None),
        ("core.buffer_store", buffer.ResultBuffer, "store", None),
        ("core.buffer_amend", buffer.ResultBuffer, "amend", None),
        ("core.derive", derivation, "derive", None),
        ("core.propagate", updates, "propagate", None),
        ("oodb.query", QueryEvaluator, "run_with_stats", _count_query_stats),
        ("oodb.commit", Transaction, "commit", None),
        ("oodb.wal_append", WriteAheadLog, "append", None),
        ("oodb.checkpoint", Database, "checkpoint", None),
        ("oodb.recovery", Database, "__init__", None),
        ("sgml.load_document", SGMLLoader, "load_document", None),
        ("sgml.insert_element", SGMLLoader, "insert_element", None),
        ("sgml.update_content", SGMLLoader, "update_content", None),
        ("sgml.delete_document", SGMLLoader, "delete_document", None),
        ("service.session_query", Session, "query", None),
        ("service.session_execute", Session, "execute", None),
        ("service.submit_query", DocumentService, "submit_query", None),
        ("service.query", DocumentService, "query", None),
        ("service.execute_group", batch, "execute_group", None),
        ("net.encode_frame", wire, "encode_frame", _count_frame_bytes),
        ("net.decode_payload", wire, "decode_payload", None),
        ("net.encode_value", wire, "encode_value", None),
        ("net.server_handle", DocumentServer, "_handle_request", None),
        ("net.client_query", RemoteSession, "query", None),
        ("net.client_roundtrip", RemoteSession, "_call", None),
        ("store.checkpoint", SingleFileStore, "checkpoint", None),
        ("store.load_engine", SingleFileStore, "load_engine", None),
        ("store.materialize", SingleFileStore, "_materialize", None),
    ]


def _reattach_coupling_methods(db: Any) -> None:
    """Point the COLLECTION method table at the current module functions.

    ``define_collection_class`` copies ``_get_irs_result`` & co. into the
    class's method table when a database is opened; a database opened before
    install (or uninstall) still holds the previous functions.
    """
    collection.define_collection_class(db)


class Tracer:
    """Records spans from installed wrappers; one instance per traced run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        get_state = self._state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            spans, stack = state.spans, state.stack
            if stack and spans[stack[-1]][NAME] == name:
                # Recursion (encode_value, delete_document): one span.
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, state.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return wrapper

    def begin_op(self, kind: str, op_id: int) -> None:
        """Open the root span of one client operation on this thread."""
        state = self._state()
        state.op = op_id
        state.stack.append(len(state.spans))
        state.spans.append(["client." + kind, perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        state = self._state()
        state.spans[state.stack.pop()][END] = perf_counter()
        state.op = None

    # -- installation ------------------------------------------------------

    def install(self, db: Any = None) -> None:
        """Wrap every target; ``db`` is a live database to re-point."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, after in targets():
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, after))
        if db is not None:
            _reattach_coupling_methods(db)

    def uninstall(self, db: Any = None) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        if db is not None:
            _reattach_coupling_methods(db)

    # -- results -----------------------------------------------------------

    def counts(self) -> Dict[str, float]:
        """Counts taken by after-hooks, summed over threads."""
        total: Dict[str, float] = defaultdict(float)
        for state in self._threads:
            for key, value in state.counts.items():
                total[key] += value
        return total

    def iter_spans(self) -> Iterator[Tuple[int, int, list, float]]:
        """``(thread, index, span, self seconds)`` for every finished span."""
        for thread, state in enumerate(self._threads):
            spans = state.spans
            self_time = [span[END] - span[START] for span in spans]
            for index, span in enumerate(spans):
                if span[PARENT] >= 0:
                    self_time[span[PARENT]] -= span[END] - span[START]
            for index, span in enumerate(spans):
                if span[END]:  # a thread still inside a span has END 0.0
                    yield thread, index, span, self_time[index]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``."""
        table: Dict[str, Dict[str, float]] = {}
        for _thread, _index, span, self_seconds in self.iter_spans():
            row = table.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += self_seconds
        return table

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every finished span called ``name``."""
        return [
            span[END] - span[START]
            for _thread, _index, span, _self in self.iter_spans()
            if span[NAME] == name
        ]

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span; returns the number written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for thread, index, span, self_seconds in self.iter_spans():
                parent = "null" if span[PARENT] < 0 else span[PARENT]
                op = "null" if span[OP] is None else span[OP]
                handle.write(
                    f'{{"thread":{thread},"id":{index},"name":"{span[NAME]}",'
                    f'"start":{span[START]!r},"end":{span[END]!r},'
                    f'"self":{self_seconds!r},"parent":{parent},"op":{op}}}\n'
                )
                written += 1
        return written


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_shares(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of the busy self time recorded inside the system.

    The harness's own root spans (``client.*``) and the :data:`BLOCKING`
    spans are left out, so the shares describe where the system worked.
    """
    busy = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        layer = layer_of(name)
        if layer in busy and name not in BLOCKING:
            busy[layer] += row["self_s"]
    total = sum(busy.values())
    return {layer: (busy[layer] / total if total else 0.0) for layer in LAYERS}
