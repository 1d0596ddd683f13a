"""A durable system answers IRS queries exactly as an in-memory one does.

IRS values come back through the engine's API in both; no result file is
written and parsed (which rounded every value), and the system directory
holds no exchange files.
"""

from repro.core import DocumentSystem
from repro.sgml.mmf import build_document, mmf_dtd

DOCUMENTS = [
    ("Telnet", ["Telnet is a protocol for remote login", "Telnet sessions reach the www"]),
    ("The Web", ["The WWW connects documents worldwide", "The NII supports the WWW expansion"]),
    ("Mosaic", ["Mosaic browses the www", "A browser for hypertext", "www www www pages"]),
]
STATEMENTS = [
    # members of the collection: the IRS value itself
    "ACCESS p, p -> getIRSValue(coll, 'www') FROM p IN PARA",
    "ACCESS p, p -> getIRSValue(coll, '#and(www nii)') FROM p IN PARA",
    # non-members: values derived from the members'
    "ACCESS d, d -> getIRSValue(coll, 'www') FROM d IN MMFDOC",
]


def values(system):
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    for title, paragraphs in DOCUMENTS:
        system.add_document(build_document(title, paragraphs), dtd=dtd)
    collection = system.session.create_collection("collPara", "ACCESS p FROM p IN PARA")
    system.session.index(collection)
    return [
        [(obj.oid, value) for obj, value in system.query(statement, {"coll": collection})]
        for statement in STATEMENTS
    ]


def test_durable_values_equal_in_memory_values(tmp_path):
    in_memory = values(DocumentSystem())
    with DocumentSystem(directory=str(tmp_path)) as durable:
        on_disk = values(durable)
        left = sorted(path.name for path in tmp_path.iterdir())
    assert all(rows for rows in in_memory)
    assert any(value != round(value, 6) for rows in in_memory for _oid, value in rows)
    assert on_disk == in_memory  # exact: no value is rounded on the way
    assert left == ["db", "irs.store"]  # no irs/ directory of exchange files


def test_no_exchange_directory_after_restart(tmp_path):
    with DocumentSystem(directory=str(tmp_path)) as durable:
        values(durable)
    with DocumentSystem(directory=str(tmp_path)):
        pass
    assert sorted(path.name for path in tmp_path.iterdir()) == ["db", "irs.store"]


def test_repeated_statement_is_answered_from_the_buffer(tmp_path):
    with DocumentSystem(directory=str(tmp_path)) as durable:
        first = values(durable)
        queries = durable.engine.counters.queries_executed
        assert queries > 0
        collection = durable.db.query("ACCESS c FROM c IN COLLECTION")[0][0]
        again = [
            [(obj.oid, value) for obj, value in durable.query(statement, {"coll": collection})]
            for statement in STATEMENTS
        ]
        assert durable.engine.counters.queries_executed == queries
    assert again == first


def test_long_query_text_is_answered(tmp_path):
    """A query text too long for a file name is still answered, exactly."""
    long_query = "#or(" + " ".join(f"term{i}" for i in range(40)) + " www)"
    statement = "ACCESS p, p -> getIRSValue(coll, $q) FROM p IN PARA"

    def answer(system):
        values(system)
        collection = system.db.query("ACCESS c FROM c IN COLLECTION")[0][0]
        return [
            (obj.oid, value)
            for obj, value in system.query(statement, {"coll": collection, "q": long_query})
        ]

    in_memory = answer(DocumentSystem())
    with DocumentSystem(directory=str(tmp_path)) as durable:
        on_disk = answer(durable)
    assert any(value > 0 for _oid, value in in_memory)
    assert on_disk == in_memory
