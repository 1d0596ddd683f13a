"""Section 5: media text, implies-augmented text, link derivation."""

import pytest

from repro.core.collection import _create_collection, _get_irs_result, index_objects
from repro.hypermedia import (
    MEDIA_TEXT_MODE,
    create_link,
    install_hypermedia_text_modes,
    register_link_derivation,
)
from repro.hypermedia.links import DESCRIBES, IMPLIES
from repro.hypermedia.text_providers import implies_text, media_text
from repro.sgml.mmf import build_document, mmf_dtd


@pytest.fixture
def hyper(system):
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    install_hypermedia_text_modes(system.db)
    register_link_derivation()
    doc = build_document(
        "Media Piece",
        ["The www topology diagram below shows growth"],
        figures=["network graph"],
    )
    root = system.add_document(doc, dtd=dtd)
    figure = system.db.instances_of("FIGURE")[0]
    para = system.db.instances_of("PARA")[0]
    return system, root, figure, para


class TestMediaText:
    def test_caption_included(self, hyper):
        _system, _root, figure, _para = hyper
        assert "network graph" in media_text(figure)

    def test_describes_link_source_included(self, hyper):
        system, _root, figure, para = hyper
        create_link(system.db, para, figure, DESCRIBES)
        assert "topology diagram" in media_text(figure)

    def test_previous_sibling_included(self, hyper):
        # The paragraph right before the figure introduces it.
        _system, _root, figure, _para = hyper
        assert "topology" in media_text(figure)

    def test_media_collection_makes_figures_retrievable(self, hyper):
        system, _root, figure, para = hyper
        create_link(system.db, para, figure, DESCRIBES)
        collection = _create_collection(
            system.db, "media", "ACCESS f FROM f IN FIGURE",
            text_mode=MEDIA_TEXT_MODE,
        )
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        assert figure.oid in values

    def test_caption_only_collection_misses_topic(self, hyper):
        system, _root, figure, _para = hyper
        collection = _create_collection(
            system.db, "media_plain", "ACCESS f FROM f IN FIGURE",
            text_mode=0,
        )
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        assert figure.oid not in values


class TestImpliesText:
    def test_sources_text_included(self, hyper):
        system, _root, _figure, para = hyper
        target = system.loader.insert_element(
            system.db.get_object(para.get("parent")), "PARA", "plain conclusion"
        )
        create_link(system.db, para, target, IMPLIES)
        text = implies_text(target)
        assert "plain conclusion" in text
        assert "www" in text.lower()

    def test_no_links_means_own_text(self, hyper):
        _system, _root, _figure, para = hyper
        assert implies_text(para) == para.send("getTextContent")


class TestLinkDerivation:
    def test_value_propagates_along_implies(self, hyper):
        system, root, _figure, para = hyper
        # A second document whose paragraph says nothing about www.
        other = system.add_document(
            build_document("Other", ["completely unrelated content"]), dtd=mmf_dtd()
        )
        other_para = system.db.instances_of("PARA")[-1]
        create_link(system.db, para, other_para, IMPLIES)

        collection = _create_collection(
            system.db, "collPara", "ACCESS p FROM p IN PARA",
            derivation="link_propagation",
        )
        index_objects(collection)
        # The *document root* of `other` is not indexed; derivation walks
        # components and links.
        collection.set("derivation", "link_propagation")
        value_with_links = other_para.send("deriveIRSValue", collection, "www")
        assert value_with_links > 0

    def test_damping_reduces_value(self, hyper):
        system, _root, _figure, para = hyper
        other = system.add_document(
            build_document("Other", ["completely unrelated content"]), dtd=mmf_dtd()
        )
        other_para = system.db.instances_of("PARA")[-1]
        create_link(system.db, para, other_para, IMPLIES)
        collection = _create_collection(
            system.db, "collPara", "ACCESS p FROM p IN PARA",
            derivation="link_propagation",
        )
        index_objects(collection)
        values = _get_irs_result(collection, "www")
        direct = values[para.oid]
        derived = other_para.send("deriveIRSValue", collection, "www")
        assert derived < direct

    def test_cycles_terminate(self, hyper):
        system, _root, _figure, para = hyper
        other = system.add_document(
            build_document("Other", ["more text here"]), dtd=mmf_dtd()
        )
        other_para = system.db.instances_of("PARA")[-1]
        create_link(system.db, para, other_para, IMPLIES)
        create_link(system.db, other_para, para, IMPLIES)
        collection = _create_collection(
            system.db, "collPara", "ACCESS p FROM p IN PARA",
            derivation="link_propagation",
        )
        index_objects(collection)
        # Must not recurse forever.
        assert other_para.send("deriveIRSValue", collection, "www") >= 0
