"""A database directory opened without the store that holds its image.

A checkpoint writes the database's objects into the system's
``irs.store`` and then resets ``db/wal.log`` in place, so after two
checkpoints the log starts past LSN 1 and holds only what came since.
``Database(directory=<system>/db)`` alone finds no image there: it must
refuse, naming the missing checkpoint image, rather than replay the tail
of the log over an empty object table.  Before any checkpoint the log
still starts at LSN 1 and ``db/`` alone recovers; a bare database keeps
its image beside its log, so a log past LSN 1 replays over it.
"""

import os
import shutil

import pytest

from repro.core.system import DocumentSystem
from repro.errors import RecoveryError
from repro.oodb.database import Database
from repro.oodb.wal import WriteAheadLog
from repro.sgml.mmf import build_document, mmf_dtd
from repro.store import SingleFileStore


def copy_system(tmp_path, checkpoints: int):
    """A system that loaded one document before each of ``checkpoints``
    checkpoints and one after them, copied whole (``whole``) and as its
    ``db/`` directory alone (``alone``); returns its objects' classes."""
    path = str(tmp_path / "sys")
    system = DocumentSystem(directory=path)
    dtd = mmf_dtd()
    system.register_dtd(dtd)
    for round_ in range(checkpoints + 1):
        system.add_document(build_document(f"T{round_}", [f"text of round {round_}"]), dtd=dtd)
        if round_ < checkpoints:
            system.checkpoint()
    objects = {obj.oid: obj.class_name for obj in system.db.iter_objects()}
    system.db._wal._file.flush()
    shutil.copytree(path, str(tmp_path / "whole"))
    shutil.copytree(os.path.join(path, "db"), str(tmp_path / "alone"))
    system.close()
    return objects


@pytest.fixture
def copied(tmp_path):
    """A system after two checkpoints and one later write, copied."""
    return tmp_path, copy_system(tmp_path, checkpoints=2)


def test_db_directory_alone_is_refused(copied):
    tmp_path, _objects = copied
    with pytest.raises(RecoveryError, match="checkpoint"):
        Database(directory=str(tmp_path / "alone"))


def test_db_directory_with_its_store_recovers_every_object(copied):
    tmp_path, objects = copied
    whole = str(tmp_path / "whole")
    store = SingleFileStore(os.path.join(whole, "irs.store"))
    db = Database(directory=os.path.join(whole, "db"), store=store)
    assert {obj.oid: obj.class_name for obj in db.iter_objects()} == objects
    db.close()
    store.close()


def test_the_refusal_names_the_directory_and_the_first_lsn(copied):
    tmp_path, _objects = copied
    alone = str(tmp_path / "alone")
    log = WriteAheadLog(os.path.join(alone, "wal.log"))
    first = next(log.records()).lsn
    log.close()
    assert first > 1
    with pytest.raises(RecoveryError) as refused:
        Database(directory=alone)
    assert alone in str(refused.value)
    assert f"LSN {first}," in str(refused.value)


def test_db_directory_alone_before_any_checkpoint_recovers_every_object(tmp_path):
    """No checkpoint reset the log: it starts at LSN 1 and holds it all."""
    objects = copy_system(tmp_path, checkpoints=0)
    db = Database(directory=str(tmp_path / "alone"))
    assert {obj.oid: obj.class_name for obj in db.iter_objects()} == objects
    db.close()


def test_db_directory_alone_after_one_checkpoint_and_a_write_is_refused(tmp_path):
    copy_system(tmp_path, checkpoints=1)
    with pytest.raises(RecoveryError, match="checkpoint"):
        Database(directory=str(tmp_path / "alone"))


def test_a_database_with_its_own_image_reopens_after_two_checkpoints(tmp_path):
    """The refusal needs a missing image: a bare database keeps its own,
    so a log past LSN 1 replays over it."""
    path = str(tmp_path / "db")
    db = Database(directory=path)
    db.define_class("Doc", attributes={"n": "INT"})
    for n in range(3):
        db.create_object("Doc", n=n)
        if n < 2:
            db.checkpoint()
    assert next(db._wal.records()).lsn > 1
    db._wal.close()  # a crash: the last write is only in the log
    reopened = Database(directory=path)
    assert sorted(obj.get("n") for obj in reopened.instances_of("Doc")) == [0, 1, 2]
    reopened.close()
