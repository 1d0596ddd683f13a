"""repro — reproduction of "Applying a Flexible OODBMS-IRS-Coupling to
Structured Document Handling" (Volz, Aberer, Böhm, ICDE 1996).

Subpackages
-----------
``repro.oodb``
    The OODBMS substrate (VODAK stand-in): objects, transactions, indexes,
    and the VQL-like query language.
``repro.irs``
    The IRS substrate (INQUERY stand-in): analysis, inverted index,
    boolean/vector/probabilistic retrieval, passages, feedback,
    hierarchical scoring.
``repro.sgml``
    DTDs, SGML parsing/validation, and the document-to-object loader.
``repro.core``
    The paper's contribution: the COLLECTION/IRSObject coupling.
``repro.hypermedia``
    Section 5: links, media text modes, link-based derivation.
``repro.workloads``
    Seeded corpora, the Figure 4 base, query workloads, metrics.
``repro.net``
    The out-of-process service: wire protocol, socket server, remote
    sessions.  :func:`repro.connect` is the transport-agnostic
    front door.
"""

import logging as _logging

# Library etiquette: diagnostics flow through ``repro.*`` loggers; the
# embedding application decides whether and where they appear.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.core.system import DocumentSystem  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.service import ResultSet, ScoredHit, ServiceConfig, Session  # noqa: E402
from repro.net import (  # noqa: E402
    DocumentServer,
    RemoteSession,
    connect,
)

__version__ = "1.2.0"

__all__ = [
    "DocumentServer",
    "DocumentSystem",
    "RemoteSession",
    "ReproError",
    "ResultSet",
    "ScoredHit",
    "ServiceConfig",
    "Session",
    "__version__",
    "connect",
]
