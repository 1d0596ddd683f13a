"""An interactive shell for the document system.

``python -m repro.shell [directory]`` opens a small REPL over a
:class:`~repro.core.system.DocumentSystem` (persistent when a directory is
given).  Commands:

.. code-block:: text

    .help                               this text
    .load <file.sgml>                   parse + fragment a document file
    .dtd <file.dtd>                     register a DTD file
    .mmf                                register the built-in MMF DTD
    .collection <name> <spec query>     create + index a collection
    .collections                        list collections
    .irs <collection> <irs query>       run a pure content query
    .explain <vql>                      plan + executed per-stage timing tree
    .trace <vql>                        run a query and print its span tree
    .stats                              metrics, cache and slow-query statistics
    .dash                               health verdict, latency percentiles, hot spots
    .checkpoint                         commit IRS + DB state to the durable store
    .pack                               compact the store file (reclaims dead space)
    .serve [port]                       start a network server on this system
    .connect <host:port>                attach the shell to a remote server
    .classes                            list schema classes
    .counters                           show coupling/IRS counters
    .bind <name> <collection>           bind a name usable in queries
    .quit                               leave
    <anything else>                     evaluated as a VQL query

Query results print as a table; DBObject cells render as ``CLASS OIDn``.
The shell is line-oriented and side-effect free beyond the system it owns,
so it is fully scriptable (see ``tests/test_shell.py``).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, TextIO

from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.core.system import DocumentSystem
from repro.errors import ReproError
from repro.oodb.objects import DBObject
from repro.sgml.dtd import parse_dtd
from repro.sgml.mmf import mmf_dtd
from repro.workloads.metrics import format_table

PROMPT = "repro> "


class Shell:
    """The REPL engine; IO is injected so tests can drive it."""

    def __init__(
        self,
        system: Optional[DocumentSystem] = None,
        stdout: Optional[TextIO] = None,
    ) -> None:
        self.system = system or DocumentSystem()
        self._out = stdout or sys.stdout
        self._bindings: Dict[str, Any] = {}
        self._running = True
        self._remote: Optional[Any] = None

    # -- plumbing -------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        self._out.write(text + "\n")

    def run(self, stdin: Optional[TextIO] = None, interactive: bool = True) -> None:
        """Read-eval-print until EOF or ``.quit``."""
        source = stdin or sys.stdin
        while self._running:
            if interactive:
                self._out.write(PROMPT)
                self._out.flush()
            line = source.readline()
            if not line:
                break
            self.execute(line.strip())

    def execute(self, line: str) -> None:
        """Execute one shell line."""
        if not line or line.startswith("#"):
            return
        try:
            if line.startswith("."):
                self._command(line)
            else:
                self._query(line)
        except ReproError as exc:
            self._print(f"error: {exc}")
        except FileNotFoundError as exc:
            self._print(f"error: {exc}")

    # -- commands ----------------------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split(None, 2)
        command = parts[0]
        handlers = {
            ".help": self._cmd_help,
            ".quit": self._cmd_quit,
            ".mmf": self._cmd_mmf,
            ".dtd": self._cmd_dtd,
            ".load": self._cmd_load,
            ".collection": self._cmd_collection,
            ".collections": self._cmd_collections,
            ".report": self._cmd_report,
            ".irs": self._cmd_irs,
            ".explain": self._cmd_explain,
            ".trace": self._cmd_trace,
            ".stats": self._cmd_stats,
            ".dash": self._cmd_dash,
            ".checkpoint": self._cmd_checkpoint,
            ".pack": self._cmd_pack,
            ".serve": self._cmd_serve,
            ".connect": self._cmd_connect,
            ".classes": self._cmd_classes,
            ".counters": self._cmd_counters,
            ".bind": self._cmd_bind,
        }
        handler = handlers.get(command)
        if handler is None:
            self._print(f"unknown command {command}; try .help")
            return
        handler(parts[1:])

    def _cmd_help(self, _args: List[str]) -> None:
        self._print(__doc__.split("Commands:")[-1].replace(".. code-block:: text", "").strip("\n"))

    def _cmd_quit(self, _args: List[str]) -> None:
        self._running = False
        self._disconnect()
        self._print("bye")

    def _disconnect(self) -> None:
        if self._remote is not None:
            self._remote.close()
            self._remote = None

    def _cmd_checkpoint(self, _args: List[str]) -> None:
        stats = self.system.checkpoint()
        self._print(
            f"checkpoint {stats['checkpoint_id']}: "
            f"{stats['records_appended']} records appended "
            f"({stats['bytes_appended']} bytes), "
            f"{stats['records_reused']} reused; "
            f"store {stats['size_bytes']} bytes "
            f"({stats['dead_bytes']} dead)"
        )

    def _cmd_pack(self, _args: List[str]) -> None:
        stats = self.system.pack()
        self._print(
            f"packed: reclaimed {stats['reclaimed_bytes']} bytes, "
            f"store now {stats['size_bytes']} bytes"
        )

    def _cmd_serve(self, args: List[str]) -> None:
        port = int(args[0]) if args else 0
        server = self.system.serve(port=port)
        host, bound = server.address
        self._print(f"serving on {host}:{bound} (connect with .connect {host}:{bound})")

    def _cmd_connect(self, args: List[str]) -> None:
        if not args:
            self._print("usage: .connect <host:port>")
            return
        from repro.net import RemoteSession

        self._disconnect()
        self._remote = RemoteSession(args[0])
        pong = self._remote.ping()
        self._print(
            f"connected to {args[0]} "
            f"(server {pong.get('server_version')}, protocol {pong.get('protocol')}); "
            f".irs now runs remotely"
        )

    def _cmd_mmf(self, _args: List[str]) -> None:
        created = self.system.register_dtd(mmf_dtd())
        self._print(f"MMF DTD registered; new classes: {', '.join(created) or 'none'}")

    def _cmd_dtd(self, args: List[str]) -> None:
        if not args:
            self._print("usage: .dtd <file.dtd>")
            return
        with open(args[0], "r", encoding="utf-8") as fh:
            dtd = parse_dtd(fh.read(), name=args[0])
        created = self.system.register_dtd(dtd)
        self._print(f"registered {args[0]}; new classes: {', '.join(created) or 'none'}")

    def _cmd_load(self, args: List[str]) -> None:
        if not args:
            self._print("usage: .load <file.sgml>")
            return
        with open(args[0], "r", encoding="utf-8") as fh:
            root = self.system.add_document(fh.read())
        count = len(list(root.send("getDescendants"))) + 1
        self._print(f"loaded {args[0]}: root {root.class_name} {root.oid}, {count} objects")

    def _cmd_collection(self, args: List[str]) -> None:
        if len(args) < 2:
            self._print("usage: .collection <name> <spec query>")
            return
        name, spec = args[0], args[1] if len(args) == 2 else f"{args[1]} {args[2]}"
        collection = _create_collection(self.system.db, name, spec)
        index_objects(collection)
        self._bindings[name] = collection
        self._print(
            f"collection {name}: {collection.send('memberCount')} objects indexed "
            f"(bound as {name!r} for queries)"
        )

    def _cmd_collections(self, _args: List[str]) -> None:
        from repro.core.admin import all_collection_reports

        reports = all_collection_reports(self.system.db)
        if not reports:
            self._print("no collections")
            return
        for r in reports:
            stale = " STALE" if r.is_stale else ""
            self._print(
                f"  {r.name}: {r.members} objects, {r.irs_documents} IRS docs, "
                f"{r.index_terms} terms, {r.buffered_queries} buffered queries, "
                f"policy={r.update_policy}, derivation={r.derivation}{stale}"
            )

    def _cmd_report(self, _args: List[str]) -> None:
        from repro.core.admin import system_report

        report = system_report(self.system.db)
        for key, value in report.items():
            if key == "objects_by_class":
                continue
            self._print(f"  {key}: {value}")

    def _cmd_irs(self, args: List[str]) -> None:
        if len(args) < 2:
            self._print("usage: .irs <collection> <irs query>")
            return
        name = args[0]
        irs_query = args[1] if len(args) == 2 else f"{args[1]} {args[2]}"
        if self._remote is not None:
            results = self._remote.query(name, irs_query)
            rows = [
                [f"{hit.element.class_name} {hit.oid}" if hit.element else str(hit.oid),
                 f"{hit.score:.4f}"]
                for hit in results
            ]
            self._print(format_table(["object", "IRS value"], rows))
            return
        collection = self._bindings.get(name)
        if not isinstance(collection, DBObject):
            self._print(f"no collection bound as {name!r}; use .collection first")
            return
        values = _get_irs_result(collection, irs_query)
        rows = [
            [self._render(self.system.db.get_object(oid)), f"{value:.4f}"]
            for oid, value in sorted(values.items(), key=lambda kv: -kv[1])
        ]
        self._print(format_table(["object", "IRS value"], rows))

    def _cmd_explain(self, args: List[str]) -> None:
        if not args:
            self._print("usage: .explain <vql query>")
            return
        self._print(self.system.explain(" ".join(args), self._bindings).render())

    def _cmd_trace(self, args: List[str]) -> None:
        if not args:
            self._print("usage: .trace <vql query>")
            return
        result = self.system.explain(" ".join(args), self._bindings)
        self._print(result.render_tree())
        self._print(f"({len(result.rows)} row{'s' if len(result.rows) != 1 else ''})")

    def _cmd_stats(self, _args: List[str]) -> None:
        from repro import obs

        snapshot = obs.metrics().snapshot()
        if not any(snapshot.values()) and not obs.is_enabled():
            self._print("  (observability disabled; repro.obs.enable() to turn on)")
        for name, value in snapshot["counters"].items():
            self._print(f"  {name}: {value}")
        for name, value in snapshot["gauges"].items():
            self._print(f"  {name}: {value:.6g}")
        for name, hist in snapshot["histograms"].items():
            mean = hist["mean"] * 1000.0
            worst = (hist["max"] or 0.0) * 1000.0
            self._print(
                f"  {name}: count={hist['count']} mean={mean:.2f}ms max={worst:.2f}ms"
            )
        for name, roll in snapshot["rolling"].items():
            self._print(
                f"  {name} (rolling): count={roll['count']} "
                f"p50={roll['p50'] * 1000:.2f}ms p99={roll['p99'] * 1000:.2f}ms"
            )
        engine = self.system.engine
        for name in engine.collection_names():
            if engine.is_lazy(name):
                continue
            info = engine.collection(name).stats.cache_info()
            self._print(
                f"  statistics cache {name!r}: hits={info['hits']} "
                f"misses={info['misses']} invalidations={info['invalidations']}"
            )
        slow = obs.slow_log()
        self._print(f"  slow queries (>{slow.threshold * 1000:.0f}ms): {len(slow)}")
        for entry in slow.entries()[-5:]:
            self._print(f"    [{entry.kind}] {entry.seconds * 1000:.1f}ms {entry.text[:80]}")

    def _cmd_dash(self, _args: List[str]) -> None:
        """One screen of operational truth: health verdict + live percentiles."""
        from repro import obs

        health = self.system.health()
        self._print(f"  status: {health['status']}")
        admission = health["admission"]
        self._print(
            f"  admission: depth={admission['queue_depth']}/"
            f"{admission['queue_capacity'] or '-'} "
            f"peak={admission['depth_peak']:g} rejected={admission['rejected']}"
        )
        merge = health["merge"]
        self._print(
            f"  merge: backlog={merge['backlog']} segments={merge['segments']}"
        )
        memtable = health["memtable"]
        self._print(
            f"  memtable: {memtable['documents']} docs, {memtable['tokens']} tokens, "
            f"~{memtable['bytes'] / 1024.0:.1f} KiB"
        )
        latency = health["latency"]
        if latency["source"] is None:
            self._print("  latency: no windowed traffic yet")
        else:
            self._print(
                f"  latency [{latency['source']}] (last "
                f"{obs.metrics().rolling(latency['source']).window_seconds:.0f}s, "
                f"{latency['count']} reqs): "
                f"p50={latency['p50'] * 1000:.2f}ms p95={latency['p95'] * 1000:.2f}ms "
                f"p99={latency['p99'] * 1000:.2f}ms p999={latency['p999'] * 1000:.2f}ms"
            )
            self._print(
                f"  slo: {latency['slo_seconds'] * 1000:.0f}ms "
                f"slow_ratio={latency['slow_ratio']:.1%}"
            )
        slow = obs.slow_log()
        for entry in slow.entries()[-3:]:
            outcome = entry.info.get("outcome", "")
            extras = f" top_k={entry.info['top_k']}" if "top_k" in entry.info else ""
            self._print(
                f"  slow [{entry.kind}] {entry.seconds * 1000:.1f}ms"
                f"{extras}{' ' + outcome if outcome else ''} {entry.text[:60]}"
            )

    def _cmd_classes(self, _args: List[str]) -> None:
        for name in self.system.db.schema.class_names():
            cdef = self.system.db.schema.get_class(name)
            sup = f" isA {cdef.superclass}" if cdef.superclass else ""
            self._print(f"  {name}{sup}")

    def _cmd_counters(self, _args: List[str]) -> None:
        from collections import Counter

        from repro import obs

        counts = Counter(obs.metrics().snapshot()["counters"])  # 0 when never counted
        self._print(
            f"  getIRSValue calls: {counts['coupling.getIRSValue.calls']}, "
            f"buffer hits/misses: {counts['coupling.buffer.hits']}/{counts['coupling.buffer.misses']}, "
            f"derivations: {counts['coupling.derivations']}"
        )
        indexed = counts["irs.index.additions"] + counts["irs.index.replacements"]
        self._print(
            f"  IRS queries: {counts['irs.query.executed']}, documents indexed: {indexed}"
        )

    def _cmd_bind(self, args: List[str]) -> None:
        if len(args) < 2:
            self._print("usage: .bind <name> <collection-name>")
            return
        target = self._bindings.get(args[1])
        if target is None:
            self._print(f"nothing bound as {args[1]!r}")
            return
        self._bindings[args[0]] = target
        self._print(f"{args[0]} -> {args[1]}")

    # -- queries --------------------------------------------------------------------

    def _query(self, text: str) -> None:
        rows = self.system.db.query(text, self._bindings)
        if not rows:
            self._print("(no rows)")
            return
        width = max(len(r) for r in rows)
        headers = [f"col{i + 1}" for i in range(width)]
        rendered = [[self._render(cell) for cell in row] for row in rows]
        self._print(format_table(headers, rendered))
        self._print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")

    @staticmethod
    def _render(cell: Any) -> str:
        if isinstance(cell, DBObject):
            return f"{cell.class_name} {cell.oid}"
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.shell``."""
    argv = argv if argv is not None else sys.argv[1:]
    directory = argv[0] if argv else None
    shell = Shell(DocumentSystem(directory=directory))
    shell._print("repro shell — .help for commands")
    try:
        shell.run(interactive=sys.stdin.isatty())
    except KeyboardInterrupt:
        shell._print("")
    finally:
        shell._disconnect()
        shell.system.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
