"""The MultiMedia Forum scenario (Section 1 of the paper).

An interactive online journal: readers access documents through the table
of contents, through database queries on attributes, and through vague
content-based queries; the editorial team adds and modifies documents at
any time.  This example exercises all of it, including the paper's two
Section 4.4 queries verbatim and the update-propagation workflow of
Section 4.6.

Run:  python examples/mmf_journal.py
"""

from repro import obs
from repro.core import DocumentSystem
from repro.sgml.mmf import build_document, mmf_dtd
from repro.workloads.corpus import CorpusGenerator, load_corpus

system = DocumentSystem()
dtd = mmf_dtd()
system.register_dtd(dtd)

# --- the journal issue: a seeded corpus plus two hand-written articles ----
generator = CorpusGenerator(seed=7)
load_corpus(system, generator.corpus(documents=12, paragraphs=4, sections=1))
system.add_document(
    build_document(
        "WWW and NII: a Survey",
        [
            "the www hypertext web browsers and servers multiply",
            "the nii national information infrastructure funds expansion",
            "archives and mirrors keep the content available",
        ],
        year="1994",
        author="volz",
    ),
    dtd=dtd,
)
travel = system.add_document(
    build_document(
        "Travel Report: Darmstadt",
        ["the gmd ipsi institute hosts the multimedia forum journal"],
        year="1994",
        author="boehm",
        doc_type="report",
    ),
    dtd=dtd,
)

session = system.session
coll_para = session.create_collection(
    "collPara", "ACCESS p FROM p IN PARA", update_policy="deferred"
)
session.index(coll_para)

# --- access path 1: the table of contents (structural navigation) ---------
print("== Table of contents ==")
for doc in system.db.instances_of("MMFDOC"):
    title = doc.send("getAttributeValue", "TITLE")
    paras = len(doc.send("getDescendants", "PARA"))
    print(f"  {title}  ({doc.send('getAttributeValue', 'YEAR')}, {paras} paragraphs)")

# --- access path 2: attribute queries ("all travel reports") --------------
print("\n== All reports ==")
for (title,) in system.query(
    "ACCESS d -> getAttributeValue('TITLE') FROM d IN MMFDOC "
    "WHERE d -> getAttributeValue('TYPE') = 'report'"
):
    print(f"  {title}")

# --- access path 3: the paper's mixed queries ------------------------------
print("\n== Section 4.4 query 1: WWW paragraphs with their length ==")
rows = system.query(
    "ACCESS p, p -> length() FROM p IN PARA "
    "WHERE p -> getIRSValue (collPara, 'WWW') > 0.5;",
    {"collPara": coll_para},
)
for para, length in rows:
    print(f"  {para.send('getTextContent')[:56]!r}  length={length}")

print("\n== Section 4.4 query 2: 1994 docs, WWW paragraph then NII paragraph ==")
rows = system.query(
    "ACCESS d -> getAttributeValue ('TITLE') "
    "FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA "
    "WHERE d -> getAttributeValue ('YEAR') = '1994' AND "
    "p1 -> getNext() == p2 AND "
    "p1 -> getContaining ('MMFDOC') == d AND "
    "p1 -> getIRSValue (collPara, 'WWW') > 0.4 AND "
    "p2 -> getIRSValue (collPara, 'NII') > 0.4;",
    {"collPara": coll_para},
)
for (title,) in rows:
    print(f"  {title}")

# --- the editorial team at work (Section 4.6) ------------------------------
print("\n== Editorial updates (deferred propagation) ==")
new_para = system.loader.insert_element(
    travel, "PARA", "a new paragraph about the www workshop in darmstadt"
)
coll_para.send("insertObject", new_para)
print(f"  pending operations: {coll_para.get('pending_ops')}")

# A reader's query forces propagation before evaluation:
hits = session.query(coll_para, "workshop")
print(f"  after reader query, new paragraph retrievable: {new_para.oid in hits.oids()}")
print(f"  forced propagations: {obs.metrics().counter('coupling.updates.forced_propagations').value}")

# An insert-then-delete sequence never reaches the IRS:
doomed = system.loader.insert_element(travel, "PARA", "temporary text")
coll_para.send("insertObject", doomed)
coll_para.send("deleteObject", doomed)
system.loader.remove_element(doomed)
print(f"  annihilated operations: {obs.metrics().counter('coupling.updates.cancelled').value}")
