"""SGML document parser and serializer."""

import pytest

from repro.errors import SGMLSyntaxError, ValidationError
from repro.sgml.mmf import PAPER_FRAGMENT, build_document, mmf_dtd
from repro.sgml.parser import parse_document, serialize


class TestParsing:
    def test_paper_fragment(self):
        root = parse_document(PAPER_FRAGMENT)
        assert root.tag == "MMFDOC"
        assert [c.tag for c in root.child_elements()] == [
            "LOGBOOK", "DOCTITLE", "ABSTRACT", "PARA", "PARA",
        ]

    def test_attributes(self):
        root = parse_document('<D year="1994" kind=draft flag><P>x</P></D>')
        assert root.attributes == {"YEAR": "1994", "KIND": "draft", "FLAG": "flag"}

    def test_single_quoted_attribute(self):
        root = parse_document("<D a='b c'><P>x</P></D>")
        assert root.attributes["A"] == "b c"

    def test_text_with_entities(self):
        root = parse_document("<P>Fischer &amp; Aberer &lt;eds&gt;</P>")
        assert root.text() == "Fischer & Aberer <eds>"

    def test_numeric_entities(self):
        assert parse_document("<P>&#65;&#x42;</P>").text() == "AB"

    def test_comments_skipped(self):
        root = parse_document("<!-- prolog --><D><!-- inner --><P>x</P></D>")
        assert [child.tag for child in root.child_elements()] == ["P"]
        assert root.text() == "x"

    def test_doctype_skipped(self):
        root = parse_document('<!DOCTYPE MMFDOC SYSTEM "mmf.dtd"><MMFDOC></MMFDOC>')
        assert root.tag == "MMFDOC"

    def test_self_closing_tag(self):
        root = parse_document("<D><IMG src='x'/><P>t</P></D>")
        assert root.child_elements()[0].tag == "IMG"

    def test_whitespace_only_text_dropped(self):
        root = parse_document("<D>\n  <P>x</P>\n</D>")
        assert len(root.children) == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "<D><P>x</P>",            # missing end tag
            "<D></E>",                # mismatched end tag
            "<D><P>x</P></D><D></D>", # two roots
            "<D>&nope;</D>",          # unknown entity
            "<D a='b></D>",           # unterminated quote
            "just text",              # no root element
            "<1BAD></1BAD>",          # bad element name
            "<D",                     # unterminated tag
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(SGMLSyntaxError):
            parse_document(text)


class TestValidationIntegration:
    def test_parse_with_dtd_applies_defaults(self):
        root = parse_document(PAPER_FRAGMENT, dtd=mmf_dtd())
        assert root.attributes["TYPE"] == "article"

    def test_parse_with_dtd_rejects_invalid(self):
        with pytest.raises(ValidationError):
            parse_document("<MMFDOC><PARA>x</PARA></MMFDOC>", dtd=mmf_dtd())


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        original = build_document(
            "Round Trip", ["first para", "second para"],
            sections=[{"title": "S", "paragraphs": ["inner"]}],
        )
        text = serialize(original)
        reparsed = parse_document(text)
        assert [e.tag for e in reparsed.iter()] == [e.tag for e in original.iter()]
        assert reparsed.text() == original.text()
        assert reparsed.attributes == original.attributes

    def test_entities_escaped(self):
        doc = build_document("A & B < C", ["x > y"])
        reparsed = parse_document(serialize(doc))
        assert reparsed.attributes["TITLE"] == "A & B < C"
        assert "x > y" in reparsed.text()

    def test_compact_mode(self):
        doc = build_document("T", ["p"])
        compact = serialize(doc, pretty=False)
        assert "\n" not in compact
        assert parse_document(compact).text() == doc.text()
