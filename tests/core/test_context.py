"""Coupling context: installation and wiring."""

import pytest

from repro.core import coupling_context, install_coupling
from repro.errors import CouplingError
from repro.irs import IRSEngine
from repro.oodb import Database


class TestInstallation:
    def test_install_defines_coupling_classes(self):
        db = Database()
        install_coupling(db, IRSEngine())
        assert db.schema.has_class("IRSObject")
        assert db.schema.has_class("COLLECTION")
        assert db.schema.has_method("IRSObject", "getIRSValue")
        assert db.schema.has_method("COLLECTION", "indexObjects")

    def test_context_retrievable(self):
        db = Database()
        engine = IRSEngine()
        context = install_coupling(db, engine)
        assert coupling_context(db) is context
        assert context.engine is engine

    def test_missing_context_raises(self):
        with pytest.raises(CouplingError):
            coupling_context(Database())

    def test_reinstall_replaces_engine(self):
        db = Database()
        install_coupling(db, IRSEngine())
        second_engine = IRSEngine()
        install_coupling(db, second_engine)
        assert coupling_context(db).engine is second_engine

    def test_context_options(self):
        db = Database()
        context = install_coupling(
            db, IRSEngine(), default_update_policy="eager"
        )
        assert context.default_update_policy == "eager"

