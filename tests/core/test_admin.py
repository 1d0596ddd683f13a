"""Administration reports."""

from repro.core.admin import all_collection_reports, collection_report, system_report
from repro.core.collection import _create_collection, _get_irs_result


class TestCollectionReport:
    def test_basic_fields(self, mmf_system, para_collection):
        report = collection_report(para_collection)
        assert report.name == "collPara"
        assert report.members == 6
        assert report.irs_documents == 6
        assert report.index_terms > 0
        assert report.index_bytes > 0
        assert report.update_policy in ("eager", "deferred")
        assert not report.is_stale

    def test_buffer_counted(self, mmf_system, para_collection):
        _get_irs_result(para_collection, "www")
        _get_irs_result(para_collection, "nii")
        report = collection_report(para_collection)
        assert report.buffered_queries == 2

    def test_staleness_reflects_pending_ops(self, mmf_system, para_collection):
        para_collection.set("update_policy", "deferred")
        para = mmf_system.db.instances_of("PARA")[0]
        para_collection.send("modifyObject", para)
        assert collection_report(para_collection).is_stale
        para_collection.send("propagateUpdates")
        assert not collection_report(para_collection).is_stale

    def test_all_reports(self, mmf_system, para_collection):
        _create_collection(mmf_system.db, "second", "ACCESS d FROM d IN MMFDOC")
        reports = all_collection_reports(mmf_system.db)
        assert {r.name for r in reports} == {"collPara", "second"}


class TestSystemReport:
    def test_shape(self, mmf_system, para_collection):
        _get_irs_result(para_collection, "www")
        report = system_report(mmf_system.db)
        assert report["objects"] == mmf_system.db.object_count()
        assert report["collections"] == 1
        assert report["objects_by_class"]["PARA"] == 6
        assert report["irs_queries_executed"] >= 1
        assert 0.0 <= report["buffer_hit_rate"] <= 1.0

    def test_stale_collections_listed(self, mmf_system, para_collection):
        para_collection.set("update_policy", "deferred")
        para = mmf_system.db.instances_of("PARA")[0]
        para_collection.send("modifyObject", para)
        report = system_report(mmf_system.db)
        assert report["stale_collections"] == ["collPara"]

    def test_empty_system(self, system):
        report = system_report(system.db)
        assert report["collections"] == 0
        assert report["buffer_hit_rate"] == 0.0
