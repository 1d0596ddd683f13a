"""Analysis pipeline: tokenization, stopwords, stemming."""

import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.irs import analysis, porter
from repro.irs.analysis import DEFAULT_STOPWORDS, Analyzer


class TestTokenization:
    def test_lowercases(self):
        assert Analyzer(stemming=False).tokens("WWW Browser") == ["www", "browser"]

    def test_punctuation_splits(self):
        tokens = Analyzer(stemming=False).tokens("client-server, really!")
        assert tokens == ["client", "server", "really"]

    def test_numbers_kept(self):
        assert "1994" in Analyzer(stemming=False).tokens("in 1994 we")

    def test_empty_text(self):
        assert Analyzer().tokens("") == []
        assert Analyzer().tokens("   \n\t ") == []


class TestStopwords:
    def test_default_stopwords_removed(self):
        tokens = Analyzer(stemming=False).tokens("the web is a system")
        assert "the" not in tokens
        assert "is" not in tokens
        assert "web" in tokens

    def test_custom_stopword_set(self):
        analyzer = Analyzer(stopwords={"web"}, stemming=False)
        assert analyzer.tokens("the web") == ["the"]

    def test_empty_stopword_set_keeps_all(self):
        analyzer = Analyzer(stopwords=set(), stemming=False)
        assert analyzer.tokens("the web") == ["the", "web"]

    def test_default_list_is_frozen(self):
        assert isinstance(DEFAULT_STOPWORDS, frozenset)


class TestStemming:
    def test_stemming_applied(self):
        assert Analyzer().tokens("retrieving documents") == ["retriev", "document"]

    def test_stemming_disabled(self):
        assert Analyzer(stemming=False).tokens("retrieving") == ["retrieving"]

    def test_query_and_index_agree(self):
        analyzer = Analyzer()
        assert analyzer.term("Retrieval") == analyzer.tokens("retrieval systems")[0]


class TestTerm:
    def test_single_term(self):
        assert Analyzer(stemming=False).term("WWW") == "www"

    def test_stopped_term_is_none(self):
        assert Analyzer().term("the") is None

    def test_min_length_filter(self):
        analyzer = Analyzer(stemming=False, min_length=3, stopwords=set())
        assert analyzer.tokens("go web now") == ["web", "now"]

    def test_config_serializable(self):
        config = Analyzer().config()
        assert config["stemming"] is True
        assert config["stopword_count"] > 0


# -- memoised analysis against an uncached reference -----------------------

_CONFIGS = {
    "default": {},
    "custom-stopwords": {"stopwords": {"web", "retrieval", "x"}},
    "no-stemming": {"stemming": False},
    "min-length-3": {"min_length": 3},
}

_WORDS = [
    "the", "Web", "retrieval", "retrieving", "Documents", "ran", "x", "go",
    "caresses", "ponies", "1994", "relational", "hopping", "a", "is",
]

_texts = st.lists(
    st.one_of(
        st.sampled_from(_WORDS),
        st.text(alphabet="abzAZ09 -.,!\n", max_size=8),
    ),
    max_size=20,
).map(" ".join)


def reference_tokens(text, stopwords=None, stemming=True, min_length=1):
    """The pipeline without a memo: regex, stop/length filter, Porter."""
    stopwords = DEFAULT_STOPWORDS if stopwords is None else frozenset(stopwords)
    result = []
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        if len(token) < min_length or token in stopwords:
            continue
        result.append(porter.stem(token) if stemming else token)
    return result


@pytest.mark.parametrize("config", list(_CONFIGS), ids=list(_CONFIGS))
class TestMemoisedAnalysis:
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(_texts, min_size=1, max_size=4))
    def test_tokens_and_term_match_reference(self, config, texts):
        options = _CONFIGS[config]
        analyzer = Analyzer(**options)
        for _ in range(2):  # the second pass is served from the memo
            for text in texts:
                expected = reference_tokens(text, **options)
                assert analyzer.tokens(text) == expected
                assert analyzer.term(text) == (expected[0] if expected else None)

    def test_memo_bounded_and_results_unchanged(self, config, monkeypatch):
        monkeypatch.setattr(analysis, "MEMO_LIMIT", 16)
        options = _CONFIGS[config]
        analyzer = Analyzer(**options)
        words = [f"{word}{i}" for i in range(40) for word in ("web", "hopping")]
        for _ in range(2):
            for word in words:
                assert analyzer.tokens(word) == reference_tokens(word, **options)
                assert len(analyzer._memo) <= 16


def test_memo_bound_at_module_constant():
    analyzer = Analyzer(stemming=False)
    text = " ".join(f"w{i}" for i in range(analysis.MEMO_LIMIT + 100))
    assert analyzer.tokens(text) == text.split()
    assert 0 < len(analyzer._memo) <= analysis.MEMO_LIMIT


def test_threads_sharing_one_analyzer_agree_with_reference(monkeypatch):
    monkeypatch.setattr(analysis, "MEMO_LIMIT", 8)  # force clears mid-race
    analyzer = Analyzer()
    texts = [" ".join(f"{w}{i % 13}" for w in _WORDS) for i in range(40)]
    expected = [reference_tokens(text) for text in texts]
    failures = []

    def worker():
        for _ in range(5):
            for text, want in zip(texts, expected):
                if analyzer.tokens(text) != want:
                    failures.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
