"""ORDER BY over join results (the ordered-rows join path)."""

import pytest

from repro.oodb import Database


@pytest.fixture
def db():
    d = Database()
    d.define_class("Doc", attributes={"year": "STRING"})
    d.define_class("Para", attributes={"n": "INT", "doc": "OID"})
    d.schema.get_class("Para").add_method(
        "getDoc", lambda o: o.database.get_object(o.get("doc"))
    )
    d1 = d.create_object("Doc", year="1993")
    d2 = d.create_object("Doc", year="1994")
    for i in range(6):
        d.create_object("Para", n=i, doc=(d1 if i % 2 else d2).oid)
    return d


class TestOrderedJoins:
    def test_order_by_on_join(self, db):
        rows = db.query(
            "ACCESS d.year, p.n FROM d IN Doc, p IN Para "
            "WHERE p -> getDoc() == d ORDER BY p.n DESC"
        )
        assert [r[1] for r in rows] == [5, 4, 3, 2, 1, 0]

    def test_order_with_pushdown_filters(self, db):
        rows = db.query(
            "ACCESS p.n FROM d IN Doc, p IN Para "
            "WHERE p -> getDoc() == d AND d.year = '1994' AND p.n > 0 "
            "ORDER BY p.n"
        )
        assert rows == [(2,), (4,)]

    def test_order_limit_on_join(self, db):
        rows = db.query(
            "ACCESS d.year, p.n FROM d IN Doc, p IN Para "
            "WHERE p -> getDoc() == d ORDER BY p.n LIMIT 2"
        )
        assert rows == [("1994", 0), ("1993", 1)]

    def test_order_key_with_nulls_sorts_last(self, db):
        db.create_object("Para", n=None)
        rows = db.query("ACCESS p.n FROM p IN Para ORDER BY p.n")
        assert rows[-1] == (None,)
        assert [r[0] for r in rows[:-1]] == [0, 1, 2, 3, 4, 5]

    def test_order_by_expression(self, db):
        rows = db.query("ACCESS p.n FROM p IN Para ORDER BY 0 - p.n LIMIT 1")
        assert rows == [(5,)]


class TestShellMain:
    def test_main_runs_script(self, monkeypatch, capsys, tmp_path):
        import io

        from repro.shell import main

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(".mmf\n.quit\n")
        )
        monkeypatch.setattr("sys.stdin.isatty", lambda: False, raising=False)
        exit_code = main([])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "repro shell" in out
        assert "bye" in out

    def test_main_with_directory(self, monkeypatch, capsys, tmp_path):
        import io

        from repro.shell import main

        monkeypatch.setattr("sys.stdin", io.StringIO(".quit\n"))
        monkeypatch.setattr("sys.stdin.isatty", lambda: False, raising=False)
        assert main([str(tmp_path)]) == 0
        assert (tmp_path / "db").exists()
