"""The interactive shell, driven programmatically."""

import io

import pytest

from repro import obs
from repro.core import DocumentSystem
from repro.sgml.mmf import PAPER_FRAGMENT
from repro.shell import Shell


@pytest.fixture
def shell():
    out = io.StringIO()
    s = Shell(DocumentSystem(), stdout=out)
    s.out = out
    return s


def output_of(shell):
    return shell.out.getvalue()


class TestCommands:
    def test_help(self, shell):
        shell.execute(".help")
        assert ".load" in output_of(shell)

    def test_unknown_command(self, shell):
        shell.execute(".frobnicate")
        assert "unknown command" in output_of(shell)

    def test_mmf_registration(self, shell):
        shell.execute(".mmf")
        assert "MMFDOC" in output_of(shell)

    def test_classes(self, shell):
        shell.execute(".mmf")
        shell.execute(".classes")
        assert "PARA isA Element" in output_of(shell)

    def test_load_document_file(self, shell, tmp_path):
        path = tmp_path / "doc.sgml"
        path.write_text(PAPER_FRAGMENT)
        shell.execute(".mmf")
        shell.execute(f".load {path}")
        assert "root MMFDOC" in output_of(shell)

    def test_load_missing_file(self, shell):
        shell.execute(".load /nonexistent.sgml")
        assert "error:" in output_of(shell)

    def test_dtd_file(self, shell, tmp_path):
        path = tmp_path / "tiny.dtd"
        path.write_text("<!ELEMENT NOTE - - (#PCDATA)>")
        shell.execute(f".dtd {path}")
        assert "NOTE" in output_of(shell)

    def test_quit_stops_run_loop(self, shell):
        source = io.StringIO(".quit\n.mmf\n")
        shell.run(stdin=source, interactive=False)
        assert "bye" in output_of(shell)
        assert "MMFDOC" not in output_of(shell)

    def test_comments_and_blank_lines_ignored(self, shell):
        shell.execute("")
        shell.execute("# a comment")
        assert output_of(shell) == ""


class TestQueriesInShell:
    @pytest.fixture
    def loaded(self, shell, tmp_path):
        path = tmp_path / "doc.sgml"
        path.write_text(PAPER_FRAGMENT)
        shell.execute(".mmf")
        shell.execute(f".load {path}")
        shell.execute(".collection collPara ACCESS p FROM p IN PARA")
        return shell

    def test_collection_creation(self, loaded):
        assert "2 objects indexed" in output_of(loaded)

    def test_collections_listing(self, loaded):
        loaded.execute(".collections")
        out = output_of(loaded)
        assert "collPara: 2 objects, 2 IRS docs" in out
        assert "derivation=maximum" in out

    def test_report_command(self, loaded):
        loaded.execute(".report")
        out = output_of(loaded)
        assert "objects:" in out
        assert "collections: 1" in out

    def test_plain_query(self, loaded):
        loaded.execute("ACCESS p FROM p IN PARA")
        out = output_of(loaded)
        assert "PARA OID" in out
        assert "(2 rows)" in out

    def test_mixed_query_with_bound_collection(self, loaded):
        loaded.execute(
            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.4"
        )
        assert "(2 rows)" in output_of(loaded)

    def test_irs_command(self, loaded):
        loaded.execute(".irs collPara telnet")
        assert "IRS value" in output_of(loaded)

    def test_irs_unknown_binding(self, loaded):
        loaded.execute(".irs nope telnet")
        assert "no collection bound" in output_of(loaded)

    def test_explain(self, loaded):
        loaded.execute(".explain ACCESS p FROM p IN PARA WHERE p.doc_order = 3")
        assert "p IN PARA" in output_of(loaded)

    def test_counters(self, loaded):
        loaded.execute(".irs collPara telnet")
        loaded.execute(".counters")
        assert "IRS queries: " in output_of(loaded)

    def test_counters_read_the_registry(self, loaded):
        with obs.instrumentation():
            loaded.execute(".irs collPara telnet")
            loaded.execute(".irs collPara telnet")
            loaded.execute(".counters")
        lines = output_of(loaded).splitlines()[-2:]
        assert lines == [
            "  getIRSValue calls: 0, buffer hits/misses: 1/1, derivations: 0",
            "  IRS queries: 1, documents indexed: 0",
        ]

    def test_stats_reports_each_statistics_cache(self, loaded):
        loaded.execute(".collection collDoc ACCESS d FROM d IN MMFDOC")
        loaded.execute(".irs collPara telnet")
        loaded.execute(".stats")
        lines = output_of(loaded).splitlines()
        caches = [line.split(":")[0].strip() for line in lines if "statistics cache" in line]
        assert caches == ["statistics cache 'collDoc'", "statistics cache 'collPara'"]
        para = next(line for line in lines if "statistics cache 'collPara'" in line)
        assert "misses=0" not in para

    def test_dash_renders_health(self, loaded):
        loaded.execute(".irs collPara telnet")
        loaded.execute(".dash")
        out = output_of(loaded)
        assert "status: " in out
        assert "admission: " in out
        assert "merge: " in out
        assert "p50" in out

    def test_bind_alias(self, loaded):
        loaded.execute(".bind c collPara")
        loaded.execute("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(c, 'telnet') > 0.4")
        assert "(2 rows)" in output_of(loaded)

    def test_query_error_reported_not_raised(self, loaded):
        loaded.execute("ACCESS FROM nothing")
        assert "error:" in output_of(loaded)

    def test_no_rows(self, loaded):
        loaded.execute("ACCESS p FROM p IN PARA WHERE p.doc_order = 999")
        assert "(no rows)" in output_of(loaded)

    def test_aggregate_query(self, loaded):
        loaded.execute("ACCESS COUNT(*) FROM p IN PARA")
        assert "2" in output_of(loaded)


class TestScriptedSession:
    def test_full_session(self, tmp_path):
        doc = tmp_path / "d.sgml"
        doc.write_text(PAPER_FRAGMENT)
        script = io.StringIO(
            f".mmf\n.load {doc}\n.collection c ACCESS p FROM p IN PARA\n"
            "ACCESS p, p -> length() FROM p IN PARA "
            "WHERE p -> getIRSValue(c, 'telnet') > 0.4\n.quit\n"
        )
        out = io.StringIO()
        shell = Shell(DocumentSystem(), stdout=out)
        shell.run(stdin=script, interactive=False)
        text = out.getvalue()
        assert "2 objects indexed" in text
        assert "(2 rows)" in text
        assert "bye" in text


class TestDurableCommands:
    @pytest.fixture
    def durable(self, tmp_path):
        out = io.StringIO()
        s = Shell(DocumentSystem(directory=str(tmp_path / "shellsys")), stdout=out)
        s.out = out
        return s

    def test_checkpoint_reports_stats(self, durable, tmp_path):
        doc = tmp_path / "d.sgml"
        doc.write_text(PAPER_FRAGMENT)
        durable.execute(".mmf")
        durable.execute(f".load {doc}")
        durable.execute(".checkpoint")
        out = output_of(durable)
        assert "checkpoint 1:" in out
        assert "records appended" in out

    def test_pack_reports_reclaim(self, durable):
        durable.execute(".checkpoint")
        durable.execute(".pack")
        assert "store now" in output_of(durable)

    def test_checkpoint_on_memory_system_reports_error(self, shell):
        shell.execute(".checkpoint")
        assert "error:" in output_of(shell)

    def test_help_mentions_durability_commands(self, shell):
        shell.execute(".help")
        out = output_of(shell)
        assert ".checkpoint" in out
        assert ".pack" in out
