"""SGML text in: the journal's documents as they are written.

The other examples build element trees in code.  This one starts from SGML
text, the paper's own input: the MMF's documents are "SGML documents
conformant to a proprietary document type definition" (Section 1).
``DocumentSystem.add_document(text, dtd=...)`` parses the text, resolves
entities, applies the DTD's attribute defaults, validates the instance and
fragments it into one database object per element (Section 4.1).

Run:  python examples/sgml_text.py
"""

from repro.core import DocumentSystem
from repro.errors import ValidationError
from repro.sgml.mmf import PAPER_FRAGMENT, mmf_dtd
from repro.sgml.parser import parse_document, serialize

REPORT = """<!DOCTYPE MMFDOC SYSTEM "mmf.dtd">
<!-- A report with a section, quoted and unquoted attribute values and entities. -->
<MMFDOC YEAR="1994" TITLE='Gopher &amp; the Web' TYPE=report AUTHOR="B. Editor">
<LOGBOOK>received 1994-03-02</LOGBOOK>
<DOCTITLE>Gopher &amp; the Web</DOCTITLE>
<PARA>Gopher menus index documents by topic &lt;and by site&gt;</PARA>
<SECTION>
<SECTITLE>The WWW</SECTITLE>
<PARA ID=p7>The WWW links hypertext documents worldwide</PARA>
<PARA>Telnet still reaches the hosts the WWW does not</PARA>
</SECTION>
</MMFDOC>
"""

EDITORIAL = """<MMFDOC YEAR=1995 TITLE="Editorial" TYPE=editorial>
<LOGBOOK>received 1995-01-09</LOGBOOK>
<DOCTITLE>Editorial</DOCTITLE>
<ABSTRACT>What the NII means for an online journal</ABSTRACT>
<PARA>The NII promises bandwidth; the WWW already delivers documents</PARA>
</MMFDOC>
"""

# Out of order: the DTD wants LOGBOOK before DOCTITLE.
INVALID = "<MMFDOC><DOCTITLE>Late</DOCTITLE><LOGBOOK>x</LOGBOOK></MMFDOC>"

system = DocumentSystem()
dtd = mmf_dtd()
system.register_dtd(dtd)

# 1. Parse, validate and fragment each text: one object per element.
for text in (PAPER_FRAGMENT, REPORT, EDITORIAL):
    root = system.add_document(text, dtd=dtd)
    elements = 1 + len(root.send("getDescendants"))
    print(
        f"{root.send('getAttributeValue', 'TITLE') or '(untitled)'!r:<24} "
        f"TYPE={root.send('getAttributeValue', 'TYPE'):<10} {elements} objects"
    )
try:
    system.add_document(INVALID, dtd=dtd)
except ValidationError as exc:
    print(f"rejected: {exc}")
print(f"{system.db.extent_size('PARA')} PARA objects in the database")

# 2. Entities are decoded once, on the way in.
title = system.query("ACCESS d FROM d IN MMFDOC WHERE d -> getAttributeValue('TYPE') = 'report'")
print(f"\nthe report's title: {title[0][0].send('getAttributeValue', 'TITLE')!r}")

# 3. Content-based access over paragraphs loaded from text.
session = system.session
paras = session.create_collection("collPara", "ACCESS p FROM p IN PARA")
session.index(paras)
for hit in session.query(paras, "telnet WWW", top_k=3):
    print(f"  {hit.score:.3f}  {hit.element.send('getTextContent')!r}")

# 4. A mixed query: paragraphs of 1994 documents relevant to 'WWW'.
rows = system.query(
    "ACCESS p FROM d IN MMFDOC, p IN PARA "
    "WHERE d -> getAttributeValue('YEAR') = '1994' AND "
    "p -> getContaining('MMFDOC') == d AND p -> getIRSValue(collPara, 'WWW') > 0.4",
    {"collPara": paras},
)
print(f"\n1994 paragraphs relevant to 'WWW': {sorted(p.send('getTextContent') for (p,) in rows)}")

# 5. The parsed tree serializes back to text that parses to the same tree.
tree = parse_document(REPORT, dtd=dtd)
again = serialize(tree)
assert serialize(parse_document(again, dtd=dtd)) == again
print("\n" + "\n".join(again.splitlines()[:4]) + "\n  ...")
