"""A durable system's bytes are a function of its operations.

One script of writes, checkpoints that seal and fold, a restart and a
``pack`` runs in two processes under different ``PYTHONHASHSEED``s.
``irs.store`` (both halves of the coupling) and ``db/wal.log`` must come
out byte for byte the same, apart from the superblock's random token and
the checksum over it: nothing the system writes may follow ``str``
hashing or set order.
"""

import os
import subprocess
import sys

import repro

SCRIPT = r"""
import json
import random
import sys

from repro.core.system import DocumentSystem
from repro.irs.segments import SegmentConfig
from repro.sgml.mmf import build_document, mmf_dtd

path = sys.argv[1]
WORDS = ["www", "nii", "telnet", "café", "straße", "日本語", "gopher", "archie"] + [
    "w%d" % i for i in range(30)
]
rng = random.Random(7)
CONFIG = SegmentConfig(seal_document_count=3, tier_fanout=2)


def text():
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 8)))


def open_system():
    system = DocumentSystem(directory=path)
    system.engine.segment_config = CONFIG  # before any collection materializes
    return system


system = open_system()
dtd = mmf_dtd()
system.register_dtd(dtd)
roots = [
    system.add_document(build_document("T%d" % i, [text(), text()]), dtd=dtd)
    for i in range(6)
]
collection = system.session.create_collection("paras", "ACCESS p FROM p IN PARA")
system.session.index(collection)
system.session.query(collection, "www telnet", top_k=5)
system.checkpoint()
for round_ in range(4):
    db = system.db
    with db.begin():
        root = system.add_document(build_document("R%d" % round_, [text(), text()]), dtd=dtd)
        for para in root.send("getDescendants", "PARA"):
            collection.send("insertObject", para)
    element = roots[round_].send("getDescendants", "PARA")[0]
    with db.begin():
        system.loader.update_content(element, text())
        collection.send("modifyObject", element)
    if round_ == 2:
        victim = roots.pop()
        with db.begin():
            for para in victim.send("getDescendants", "PARA"):
                system.session.remove(collection, para)
            system.delete_document(victim)
    system.session.propagate(collection)
    system.session.query(collection, "#sum(nii gopher)", top_k=5)
    system.checkpoint()
merges = system.engine.collection("paras").segments.merges
system.close()

system = open_system()
collection = system.session.collection("paras")
system.session.query(collection, "www", top_k=5)
system.checkpoint()
system.pack()
system.close()
json.dump({"merges": merges}, sys.stdout)
"""

#: The superblock's token (u64) and CRC (u32), at bytes 12..24.
TOKEN = slice(12, 24)


def run_script(path: str, seed: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, path],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    with open(os.path.join(path, "irs.store"), "rb") as fh:
        store = bytearray(fh.read())
    with open(os.path.join(path, "db", "wal.log"), "rb") as fh:
        wal = fh.read()
    store[TOKEN] = bytes(TOKEN.stop - TOKEN.start)
    return {"stdout": result.stdout, "store": bytes(store), "wal": wal}


def test_two_hash_seeds_write_the_same_store_and_wal(tmp_path):
    first = run_script(str(tmp_path / "one"), "1")
    second = run_script(str(tmp_path / "two"), "2")
    assert '"merges": 0' not in first["stdout"], "the script must fold"
    assert first["stdout"] == second["stdout"]
    assert first["wal"] == second["wal"]
    assert len(first["store"]) == len(second["store"])
    assert first["store"] == second["store"]
