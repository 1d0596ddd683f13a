"""Element tree: construction, navigation, text extraction."""

import pytest

from repro.sgml.document import Element, Text


@pytest.fixture
def tree():
    doc = Element("MMFDOC", {"year": "1994"})
    title = doc.append_element("DOCTITLE")
    title.append_text("Telnet")
    section = doc.append_element("SECTION")
    section.append_element("SECTITLE").append_text("Intro")
    p1 = section.append_element("PARA")
    p1.append_text("first paragraph")
    p2 = section.append_element("PARA")
    p2.append_text("second paragraph")
    doc.tree_parts = (title, section, p1, p2)
    return doc


class TestConstruction:
    def test_tags_uppercased(self):
        assert Element("para").tag == "PARA"

    def test_attribute_names_uppercased(self):
        assert Element("p", {"id": "x"}).attributes == {"ID": "x"}

    def test_append_sets_parent(self, tree):
        _title, section, p1, _p2 = tree.tree_parts
        assert p1.parent is section
        assert section.parent is tree


class TestNavigation:
    def test_child_elements_excludes_text(self, tree):
        title = tree.tree_parts[0]
        assert title.child_elements() == []
        assert len(tree.child_elements()) == 2

    def test_iter_document_order(self, tree):
        tags = [e.tag for e in tree.iter()]
        assert tags == ["MMFDOC", "DOCTITLE", "SECTION", "SECTITLE", "PARA", "PARA"]


class TestText:
    def test_subtree_text(self, tree):
        assert tree.text() == "Telnet Intro first paragraph second paragraph"

    def test_own_text_only_direct_leaves(self, tree):
        section = tree.tree_parts[1]
        assert section.own_text() == ""
        assert tree.tree_parts[0].own_text() == "Telnet"

    def test_whitespace_leaves_skipped(self):
        element = Element("P")
        element.append(Text("  \n "))
        element.append_text("word")
        assert element.text() == "word"

    def test_is_leaf(self, tree):
        assert tree.tree_parts[2].is_leaf()
        assert not tree.is_leaf()

    def test_text_node_equality(self):
        assert Text("x") == Text("x")
        assert Text("x") != Text("y")
