"""``repro.workloads`` — corpora and metrics.

The paper's MMF document base is proprietary; this package generates
seeded synthetic MMF corpora with controllable topic placement (so every
experiment is reproducible bit-for-bit), reconstructs the exact Figure 4
document base, and provides the counters/metrics the benchmarks print.
"""

from repro.workloads.corpus import CorpusGenerator, TOPICS
from repro.workloads.figure4 import load_figure4, figure4_documents
from repro.workloads import metrics

__all__ = [
    "CorpusGenerator",
    "TOPICS",
    "load_figure4",
    "figure4_documents",
    "metrics",
]
