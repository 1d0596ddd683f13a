"""HTML export of document objects."""

import pytest

from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.sgml.export import HTMLExporter
from repro.sgml.mmf import build_document, mmf_dtd


@pytest.fixture
def doc_root(system):
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    return system.add_document(
        build_document(
            "Export & Test",
            ["the www paragraph <one>", "another paragraph"],
            abstract="short abstract",
            sections=[{"title": "Sec", "paragraphs": ["inner para"]}],
            figures=["a diagram"],
        ),
        dtd=dtd,
    )


class TestRendering:
    def test_structure_mapped_to_html(self, doc_root):
        html_text = HTMLExporter().render(doc_root)
        assert html_text.startswith("<article>")
        assert "<h1>Export &amp; Test</h1>" in html_text
        assert "<h2>Sec</h2>" in html_text
        assert "<figcaption>a diagram</figcaption>" in html_text

    def test_entities_escaped(self, doc_root):
        html_text = HTMLExporter().render(doc_root)
        assert "&lt;one&gt;" in html_text
        assert "<one>" not in html_text

    def test_logbook_becomes_comment(self, doc_root):
        html_text = HTMLExporter().render(doc_root)
        assert "<!-- logbook:" in html_text

    def test_unknown_tags_render_as_div(self, system, doc_root):
        element = system.loader.insert_element(doc_root, "WEIRD", "odd content")
        html_text = HTMLExporter().render(element)
        assert html_text == "<div>odd content</div>"

    def test_page_wrapper(self, doc_root):
        page = HTMLExporter().render_page(doc_root)
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>Export &amp; Test</title>" in page

    def test_custom_stylesheet(self, doc_root):
        exporter = HTMLExporter(stylesheet={"PARA": ("<li>", "</li>")})
        html_text = exporter.render(doc_root)
        assert "<li>the www paragraph" in html_text


class TestHighlighting:
    def test_relevant_paragraphs_marked(self, system, doc_root):
        collection = _create_collection(system.db, "c", "ACCESS p FROM p IN PARA")
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        exporter = HTMLExporter(highlight_values=values)
        html_text = exporter.render(doc_root)
        assert "<mark>the www paragraph" in html_text
        assert "data-relevance=" in html_text
        assert "<mark>another paragraph" not in html_text

    def test_threshold_filters_marks(self, system, doc_root):
        collection = _create_collection(system.db, "c2", "ACCESS p FROM p IN PARA")
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        exporter = HTMLExporter(highlight_values=values, highlight_threshold=0.99)
        assert "<mark>" not in exporter.render(doc_root)

    def test_rendering_reflects_edits(self, system, doc_root):
        para = doc_root.send("getDescendants", "PARA")[0]
        system.loader.update_content(para, "edited body")
        assert "edited body" in HTMLExporter().render(doc_root)
