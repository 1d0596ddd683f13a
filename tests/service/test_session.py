"""The Session surface: typed results, both execution modes, error routing."""

from __future__ import annotations

import pytest

from repro import ResultSet, ScoredHit, ServiceConfig, Session
from repro.errors import (
    CouplingError,
    IRSQuerySyntaxError,
    QueryError,
    ReproError,
)
from repro.oodb.oid import OID


class TestResultSet:
    def _sample(self):
        return ResultSet.from_values(
            {OID(3): 0.5, OID(1): 0.9, OID(2): 0.5},
            collection="c",
            query="q",
            epoch=7,
        )

    def test_ranked_best_first_oid_tiebreak(self):
        rs = self._sample()
        assert rs.oids() == [OID(1), OID(2), OID(3)]
        assert rs.scores() == [0.9, 0.5, 0.5]

    def test_sequence_protocol(self):
        rs = self._sample()
        assert len(rs) == 3
        assert bool(rs)
        assert isinstance(rs[0], ScoredHit)
        assert rs[0].oid == OID(1)
        sliced = rs[1:]
        assert isinstance(sliced, ResultSet)
        assert sliced.epoch == 7
        assert sliced.oids() == [OID(2), OID(3)]
        assert not ResultSet([])

    def test_hit_unpacking(self):
        rs = self._sample()
        oid, score, element = rs[0]
        assert (oid, score, element) == (OID(1), 0.9, None)

    def test_top_and_to_dict(self):
        rs = self._sample()
        assert rs.top(2).oids() == [OID(1), OID(2)]
        assert rs.top(0).oids() == []
        assert rs.to_dict() == {OID(1): 0.9, OID(2): 0.5, OID(3): 0.5}

    def test_equality_is_by_ranked_values(self):
        a = ResultSet.from_values({OID(1): 0.4, OID(2): 0.8})
        b = ResultSet.from_values({OID(2): 0.8, OID(1): 0.4}, collection="other")
        assert a == b
        assert a != ResultSet.from_values({OID(1): 0.4})


class TestInlineSession:
    def test_system_owns_inline_session(self, system):
        assert isinstance(system.session, Session)
        assert not system.session.pooled
        assert system.session.service is None

    def test_query_returns_ranked_result_set(self, system, collection):
        rs = system.session.query(collection, "telnet")
        assert isinstance(rs, ResultSet)
        assert rs.collection == "collPara"
        assert rs.query == "telnet"
        assert rs.epoch is not None
        assert rs.scores() == sorted(rs.scores(), reverse=True)
        # Hits carry live element handles.
        assert all(hit.element is not None for hit in rs)
        assert all(hit.element.oid == hit.oid for hit in rs)

    def test_query_batch_preserves_order(self, system, collection):
        results = system.session.query_batch(
            [(collection, "telnet"), (collection, "www"), (collection, "telnet")]
        )
        assert [r.query for r in results] == ["telnet", "www", "telnet"]
        assert results[0] == results[2]

    def test_model_override(self, system, collection):
        ranked = system.session.query(collection, "telnet", model="boolean")
        assert set(ranked.scores()) <= {0.0, 1.0}
        assert ranked.model == "boolean"

    def test_find_value(self, system, collection):
        rs = system.session.query(collection, "telnet")
        hit = rs[0]
        value = system.session.find_value(collection, "telnet", hit.element)
        assert value == pytest.approx(hit.score)

    def test_execute_mixed_query(self, system, collection):
        rows = system.session.execute(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue($c, 'telnet') > 0.1",
            {"c": collection},
        )
        assert rows

    def test_explain(self, system, collection):
        result = system.session.explain(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue($c, 'telnet') > 0.1",
            {"c": collection},
        )
        assert result.rows
        assert result.render()


class TestPooledSession:
    def test_open_session_pooled(self, system, collection):
        sess = system.open_session(workers=2)
        assert sess.pooled
        try:
            rs = sess.query(collection, "telnet")
            assert rs == system.session.query(collection, "telnet")
        finally:
            sess.close()

    def test_pooled_batch_matches_inline(self, system, collection):
        queries = ["telnet", "www", "nii", "#and(www nii)", "telnet"]
        with system.open_session(workers=4) as sess:
            pooled = sess.query_batch([(collection, q) for q in queries])
        inline = system.session.query_batch([(collection, q) for q in queries])
        assert pooled == inline
        # One group, one snapshot: every result carries the same epoch.
        assert len({r.epoch for r in pooled}) == 1

    def test_pooled_execute_and_index(self, system, collection):
        with system.open_session(workers=2) as sess:
            assert sess.index(collection)
            rows = sess.execute(
                "ACCESS p FROM p IN PARA WHERE p -> getIRSValue($c, 'www') > 0.1",
                {"c": collection},
            )
            assert rows

    def test_sessions_closed_with_system(self, system):
        sess = system.open_session(workers=1)
        assert sess.service.running
        system.close()
        assert not sess.service.running

    def test_config_object(self, system, collection):
        config = ServiceConfig(workers=1, max_batch_per_worker=8)
        with Session(system.db, config=config) as sess:
            assert sess.pooled
            assert sess.service.config.window_size == 8
            assert sess.query(collection, "www")


class TestErrorRouting:
    def test_repro_errors_pass_through(self, system, collection):
        with pytest.raises(IRSQuerySyntaxError):
            system.session.query(collection, "#and(")
        with system.open_session(workers=1) as sess:
            with pytest.raises(IRSQuerySyntaxError):
                sess.query(collection, "#and(")

    def test_duplicate_collection_is_coupling_error(self, system, collection):
        with pytest.raises(CouplingError):
            system.session.create_collection("collPara")

    def test_unknown_model_is_repro_error(self, system, collection):
        with pytest.raises(ReproError):
            system.session.query(collection, "www", model="nonsense")
        with system.open_session(workers=1) as sess:
            with pytest.raises(ReproError):
                sess.query(collection, "www", model="nonsense")

    def test_malformed_mixed_query_is_query_error(self, system):
        with pytest.raises(QueryError) as excinfo:
            system.session.execute("FROM FROM FROM")
        assert isinstance(excinfo.value, ReproError)

    def test_store_failure_maps_alike_inline_and_pooled(self, tmp_path, monkeypatch):
        """A non-Repro failure under ``checkpoint`` reaches an inline and a
        pooled caller as the same type with the same cause."""
        from repro.core import DocumentSystem

        system = DocumentSystem(directory=str(tmp_path))
        failure = OSError("no space left on device")

        def fail(*_args, **_kwargs):
            raise failure

        monkeypatch.setattr(system.store, "checkpoint", fail)
        raised = []
        with system.open_session(workers=1) as pooled:
            for session in (system.session, pooled):
                with pytest.raises(ReproError) as excinfo:
                    session.checkpoint()
                raised.append(excinfo.value)
        monkeypatch.undo()
        system.close()
        assert [type(exc) for exc in raised] == [CouplingError, CouplingError]
        assert [exc.__cause__ for exc in raised] == [failure, failure]

    def test_batch_failure_is_contained(self, system, collection):
        with system.open_session(workers=2) as sess:
            futures = [
                sess.service.submit_query(collection, "telnet"),
                sess.service.submit_query(collection, "#and("),
                sess.service.submit_query(collection, "www"),
            ]
            assert futures[0].result(10)
            with pytest.raises(IRSQuerySyntaxError):
                futures[1].result(10)
            assert futures[2].result(10)
