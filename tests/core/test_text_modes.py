"""Text modes: the getText strategies of Section 4.3."""

import pytest

from repro.core import text_modes
from repro.errors import CouplingError
from repro.sgml.mmf import build_document, mmf_dtd


@pytest.fixture
def doc_root(system):
    system.register_dtd(mmf_dtd())
    doc = build_document(
        "Telnet Guide",
        ["telnet connects remote hosts. second sentence here.", "sessions persist. more detail."],
        abstract="about telnet",
        sections=[{"title": "Advanced Telnet", "paragraphs": ["options negotiation works. detail."]}],
    )
    return system.add_document(doc, dtd=mmf_dtd())


class TestFullText:
    def test_full_subtree_text(self, doc_root):
        text = text_modes.text_for(doc_root, text_modes.FULL_TEXT)
        assert "telnet connects remote hosts" in text
        assert "options negotiation" in text

    def test_full_text_of_leaf_is_its_content(self, doc_root):
        para = doc_root.send("getDescendants", "PARA")[0]
        assert text_modes.text_for(para, text_modes.FULL_TEXT) == para.get("content")


class TestOwnText:
    def test_internal_node_own_text_empty(self, doc_root):
        assert text_modes.text_for(doc_root, text_modes.OWN_TEXT) == ""

    def test_leaf_own_text(self, doc_root):
        para = doc_root.send("getDescendants", "PARA")[0]
        assert text_modes.text_for(para, text_modes.OWN_TEXT).startswith("telnet connects")


class TestTitleAbstract:
    def test_collects_titles(self, doc_root):
        text = text_modes.text_for(doc_root, text_modes.TITLE_ABSTRACT)
        assert "Telnet Guide" in text
        assert "Advanced Telnet" in text
        assert "sessions persist" not in text

    def test_title_element_contributes_own_content(self, doc_root):
        sectitle = doc_root.send("getDescendants", "SECTITLE")[0]
        assert "Advanced Telnet" in text_modes.text_for(sectitle, text_modes.TITLE_ABSTRACT)


class TestFirstSentences:
    def test_first_sentence_per_leaf(self, doc_root):
        text = text_modes.text_for(doc_root, text_modes.FIRST_SENTENCES)
        assert "telnet connects remote hosts" in text
        assert "second sentence" not in text

    def test_leaf_first_sentence(self, doc_root):
        para = doc_root.send("getDescendants", "PARA")[0]
        text = text_modes.text_for(para, text_modes.FIRST_SENTENCES)
        assert text == "telnet connects remote hosts"


class TestRegistry:
    def test_unknown_mode_raises(self, doc_root):
        with pytest.raises(CouplingError):
            text_modes.text_for(doc_root, 999)

    def test_register_custom_mode(self, doc_root):
        text_modes.register_text_mode(50, lambda obj: "constant")
        try:
            assert text_modes.text_for(doc_root, 50) == "constant"
        finally:
            text_modes._MODES.pop(50, None)
