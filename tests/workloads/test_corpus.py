"""Corpus generator: determinism and ground-truth control."""

from repro.sgml.mmf import mmf_dtd
from repro.workloads.corpus import TOPICS, CorpusGenerator, load_corpus


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = CorpusGenerator(seed=5).corpus(documents=4)
        b = CorpusGenerator(seed=5).corpus(documents=4)
        for doc_a, doc_b in zip(a, b):
            assert doc_a.title == doc_b.title
            assert doc_a.element.text() == doc_b.element.text()

    def test_different_seeds_differ(self):
        a = CorpusGenerator(seed=5).corpus(documents=4)
        b = CorpusGenerator(seed=6).corpus(documents=4)
        assert any(
            x.element.text() != y.element.text() for x, y in zip(a, b)
        )


class TestGroundTruth:
    def test_topic_signal_term_guaranteed(self):
        generator = CorpusGenerator(seed=1)
        for topic in TOPICS:
            paragraph = generator.paragraph(topic, words=10)
            assert any(word in TOPICS[topic] for word in paragraph.split())

    def test_fixed_topics_respected(self):
        generator = CorpusGenerator(seed=2)
        document = generator.document(topics=["www", None, "nii"])
        assert document.paragraph_topics == ["www", None, "nii"]
        paras = [e for e in document.element.iter() if e.tag == "PARA"]
        assert "www" in paras[0].text()
        assert "nii" in paras[2].text()

    def test_filler_paragraph_has_no_signal(self):
        generator = CorpusGenerator(seed=3)
        paragraph = generator.paragraph(None, words=30)
        for topic, vocabulary in TOPICS.items():
            assert topic not in paragraph.split() or topic in vocabulary


class TestDocumentShape:
    def test_documents_validate_against_mmf_dtd(self):
        dtd = mmf_dtd()
        generator = CorpusGenerator(seed=4)
        for generated in generator.corpus(documents=5, sections=1, figures=1):
            assert dtd.validation_errors(generated.element) == []

    def test_paragraph_count(self):
        generator = CorpusGenerator(seed=5)
        document = generator.document(paragraphs=7)
        # 7 body paragraphs directly under MMFDOC
        body_paras = [
            e for e in document.element.child_elements() if e.tag == "PARA"
        ]
        assert len(body_paras) == 7

    def test_sections_and_figures_present(self):
        generator = CorpusGenerator(seed=6)
        document = generator.document(sections=2, figures=1)
        tags = [e.tag for e in document.element.iter()]
        assert tags.count("SECTION") == 2
        assert tags.count("FIGURE") == 1


class TestLoading:
    def test_load_corpus_returns_aligned_roots(self, system):
        generator = CorpusGenerator(seed=7)
        generated = generator.corpus(documents=3)
        roots = load_corpus(system, generated)
        assert len(roots) == 3
        for root, gen in zip(roots, generated):
            assert root.send("getAttributeValue", "TITLE") == gen.title
