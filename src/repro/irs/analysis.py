"""Text analysis: tokenization, stopword removal, stemming.

The paper treats an IRS document as "a flat text (a list of words)"
(Section 1.1).  The :class:`Analyzer` turns raw text into that list with a
configurable pipeline, used identically at indexing and at query time so
query terms match indexed terms.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set

from repro.irs import porter

#: A compact classic stopword list (van Rijsbergen-style subset).
DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can did do does doing down
    during each few for from further had has have having he her here hers
    him his how i if in into is it its itself just me more most my no nor
    not now of off on once only or other our ours out over own same she so
    some such than that the their theirs them then there these they this
    those through to too under until up very was we were what when where
    which while who whom why will with you your yours
    """.split()
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")

#: Entries an analyser's token memo holds before it is cleared.
MEMO_LIMIT = 1 << 16

_MISSING = object()


class Analyzer:
    """A configurable indexing/query analysis pipeline.

    Parameters
    ----------
    stopwords:
        Words dropped after tokenization; pass an empty set to keep all.
    stemming:
        When True (default), surviving tokens are Porter-stemmed.
    min_length:
        Tokens shorter than this are dropped (default 1: keep everything).

    The configuration is fixed at construction, so each analyser memoises
    raw token -> term (``None`` when dropped) and stems each distinct token
    once.  Concurrent callers may race on the memo; a race only recomputes
    a pure function.
    """

    def __init__(
        self,
        stopwords: Optional[Set[str]] = None,
        stemming: bool = True,
        min_length: int = 1,
    ) -> None:
        self._stopwords = DEFAULT_STOPWORDS if stopwords is None else frozenset(stopwords)
        self._stemming = stemming
        self._min_length = min_length
        self._memo: Dict[str, Optional[str]] = {}

    def tokens(self, text: str) -> List[str]:
        """Analyze ``text`` into the final term list."""
        memo = self._memo
        result = []
        for token in _TOKEN_PATTERN.findall(text.lower()):
            term = memo.get(token, _MISSING)
            if term is _MISSING:
                if len(token) < self._min_length or token in self._stopwords:
                    term = None
                else:
                    term = porter.stem(token) if self._stemming else token
                if len(memo) >= MEMO_LIMIT:
                    memo.clear()
                memo[token] = term
            if term is not None:
                result.append(term)
        return result

    def term(self, word: str) -> Optional[str]:
        """Analyze a single query term; None when it is stopped out."""
        terms = self.tokens(word)
        return terms[0] if terms else None

    def config(self) -> dict:
        """A serializable description (stored with persisted collections)."""
        return {
            "stemming": self._stemming,
            "min_length": self._min_length,
            "stopword_count": len(self._stopwords),
        }

    def __repr__(self) -> str:
        return f"<Analyzer stemming={self._stemming} stopwords={len(self._stopwords)}>"
