"""Attribution of result-cache and statistics-cache hit/miss counters."""

import pytest

from repro import obs
from repro.irs.engine import IRSEngine


@pytest.fixture()
def engine():
    engine = IRSEngine(result_cache_size=2)
    engine.create_collection("c")
    engine.index_document("c", "the www hypertext web")
    engine.index_document("c", "the nii infrastructure network")
    return engine


class TestResultCacheStats:
    def test_miss_then_hit(self, engine):
        engine.query("c", "www")
        engine.query("c", "www")
        stats = engine.cache_stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.epoch_invalidations == 0
        assert stats.hit_rate == 0.5

    def test_epoch_invalidation_is_not_a_plain_miss(self, engine):
        engine.query("c", "www")
        engine.index_document("c", "more www text bumps the epoch")
        engine.query("c", "www")
        stats = engine.cache_stats
        assert stats.epoch_invalidations == 1
        assert stats.misses == 2  # both executions had to score
        assert stats.hits == 0

    def test_lru_eviction_is_counted(self, engine):
        # Cache holds 2 entries; the third distinct query evicts the oldest.
        engine.query("c", "www")
        engine.query("c", "nii")
        engine.query("c", "network")
        assert engine.cache_stats.evictions == 1
        # The oldest entry ("www") is gone, so re-querying it misses again.
        engine.query("c", "www")
        assert engine.cache_stats.misses == 4
        assert engine.cache_stats.hits == 0

    def test_lru_order_refreshed_on_hit(self, engine):
        engine.query("c", "www")
        engine.query("c", "nii")
        engine.query("c", "www")  # hit -> "www" becomes most recent
        engine.query("c", "network")  # evicts "nii", not "www"
        engine.query("c", "www")
        assert engine.cache_stats.hits == 2
        assert engine.cache_stats.evictions == 1

    def test_drop_collection_counts_dropped_entries(self, engine):
        engine.query("c", "www")
        engine.query("c", "nii")
        engine.drop_collection("c")
        assert engine.cache_stats.dropped == 2

    def test_zero_capacity_disables_caching(self):
        engine = IRSEngine(result_cache_size=0)
        engine.create_collection("c")
        engine.index_document("c", "the www web")
        engine.query("c", "www")
        engine.query("c", "www")
        stats = engine.cache_stats
        assert stats.hits == 0
        assert stats.misses == 2
        assert stats.evictions == 0

    def test_metrics_registry_mirrors_attribution(self, engine):
        with obs.instrumentation() as (_tracer, metrics):
            engine.query("c", "www")
            engine.query("c", "www")
            engine.index_document("c", "epoch bump www")
            engine.query("c", "www")
            counters = metrics.snapshot()["counters"]
            assert counters["irs.result_cache.misses"] == 2
            assert counters["irs.result_cache.hits"] == 1
            assert counters["irs.result_cache.epoch_invalidations"] == 1
            assert counters["irs.index.additions"] == 1
            assert counters["irs.index.epoch_bumps"] >= 1

    def test_legacy_counter_still_tracks_hits(self, engine):
        engine.query("c", "www")
        engine.query("c", "www")
        assert engine.counters.result_cache_hits == 1


class TestStatisticsCacheStats:
    def test_cold_then_warm_accessors(self, engine):
        collection = engine.collection("c")
        collection.stats.reset_cache_info()
        collection.stats.average_document_length
        collection.stats.average_document_length
        info = collection.stats.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["invalidations"] == 0

    def test_index_mutation_invalidates_statistics(self, engine):
        collection = engine.collection("c")
        collection.stats.reset_cache_info()
        collection.stats.average_document_length
        engine.index_document("c", "fresh text changes the statistics")
        collection.stats.average_document_length
        info = collection.stats.cache_info()
        assert info["invalidations"] == 1
        assert info["misses"] == 2

    def test_reset_cache_stats_zeroes_everything(self, engine):
        engine.query("c", "www")
        engine.query("c", "www")
        engine.reset_cache_stats()
        assert engine.cache_stats.as_dict()["hits"] == 0
        assert engine.cache_stats.misses == 0
        for name in engine.collection_names():
            info = engine.collection(name).stats.cache_info()
            assert info == {"hits": 0, "misses": 0, "invalidations": 0}


class TestBulkNormCounters:
    """``document_norms(ids)`` moves hits/misses exactly like a per-id loop."""

    TEXTS = [
        "the www hypertext web",
        "the nii infrastructure network",
        "www network pages",
        "telnet remote login",
    ]
    #: Repeats and an unknown id: the second occurrence of an id is a hit,
    #: an unknown document is a (memoized) 0.0 norm.
    IDS = [2, 1, 2, 4, 99, 3, 1, 99]

    def _collection(self, sealing=True):
        """Two sealed segments of two documents, or all four in the memtable."""
        from repro.irs.segments import SegmentConfig

        engine = IRSEngine(
            result_cache_size=0,
            segment_config=SegmentConfig(seal_document_count=2 if sealing else 1024),
        )
        engine.create_collection("c")
        for text in self.TEXTS:
            engine.index_document("c", text)
        return engine.collection("c")

    @staticmethod
    def _delta(stats, read):
        stats.reset_cache_info()
        values = read()
        info = stats.cache_info()
        return values, (info["hits"], info["misses"])

    @pytest.mark.parametrize("sealing", [True, False], ids=["segmented", "memtable"])
    def test_bulk_equals_per_id_loop(self, sealing):
        collection = self._collection(sealing)
        assert bool(collection.segments.sealed_segments()) == sealing
        looped = collection.stats
        bulk = self._collection(sealing).stats
        for _round in ("cold", "warm"):
            want, loop_delta = self._delta(
                looped, lambda: [looped.document_norm(d) for d in self.IDS]
            )
            got, bulk_delta = self._delta(
                bulk, lambda: bulk.document_norms(self.IDS)
            )
            assert got == want
            assert bulk_delta == loop_delta
        assert got[4] == 0.0 and got[0] > 0.0

    def test_counts_are_one_per_id(self):
        """Pinned to what the per-posting ``document_norm`` calls counted:
        one miss per distinct id, one hit per repeat — plus the idf lookups
        each computed norm makes (one per document term, a miss the first
        time a term is seen)."""
        collection = self._collection()
        vectors = [collection.index.document_vector(d) for d in (1, 2, 3, 4)]
        lookups = sum(len(vector) for vector in vectors)
        terms = len(set().union(*vectors))
        lazy = collection.stats
        _values, delta = self._delta(lazy, lambda: lazy.document_norms(self.IDS))
        distinct = len(set(self.IDS))
        assert delta == (len(self.IDS) - distinct + lookups - terms, distinct + terms)
        _values, delta = self._delta(lazy, lambda: lazy.document_norms(self.IDS))
        assert delta == (len(self.IDS), 0)

    def test_imported_bulk_equals_per_id_loop(self):
        """Over an older build's two shards, opened as one manager."""
        from tests.legacy import ShardedHistory

        def build():
            history = ShardedHistory("s", 2)
            for text in self.TEXTS:
                history.add_document(text)
            return history.load().stats

        looped, bulk = build(), build()
        want, loop_delta = self._delta(
            looped, lambda: [looped.document_norm(d) for d in self.IDS]
        )
        got, bulk_delta = self._delta(bulk, lambda: bulk.document_norms(self.IDS))
        assert got == want
        assert bulk_delta == loop_delta

    def test_empty_column_counts_nothing(self):
        stats = self._collection().stats
        _values, delta = self._delta(stats, lambda: stats.document_norms([]))
        assert delta == (0, 0)

    def test_cost_profile_counts_bulk_access(self):
        """The per-request CostProfile sees the same statistics-cache traffic
        a scoring query generates through the bulk path."""
        from repro.obs.telemetry import CostProfile, collecting

        engine = IRSEngine(result_cache_size=0)
        engine.create_collection("c")
        for text in self.TEXTS:
            engine.index_document("c", text)
        stats = engine.collection("c").stats
        stats.reset_cache_info()
        profile = CostProfile()
        with collecting(profile):
            engine.query("c", "www network", model="vector", top_k=2)
        info = stats.cache_info()
        assert profile.stats_cache_hits == info["hits"] > 0
        assert profile.stats_cache_misses == info["misses"] > 0
