"""The PR 3 deprecation shims are gone; the Session surface is warning-free."""

from __future__ import annotations

import warnings

import pytest

import repro.core
import repro.core.collection as collection_module


class TestShimsRemoved:
    """The deprecated free functions were removed after one release of warnings.

    The supported surface is :class:`repro.Session`; the underscore
    implementations remain internal (``_create_collection`` et al.).
    """

    @pytest.mark.parametrize(
        "name", ["create_collection", "get_irs_result", "find_irs_value"]
    )
    def test_shim_gone_from_module(self, name):
        assert not hasattr(collection_module, name)
        assert hasattr(collection_module, f"_{name}")  # internals remain

    def test_shim_gone_from_package(self):
        assert not hasattr(repro.core, "create_collection")
        assert "create_collection" not in repro.core.__all__

    def test_module_no_longer_imports_warnings(self):
        # The only use of ``warnings`` was the shim layer.
        assert not hasattr(collection_module, "warnings")


class TestSessionSurfaceWarningFree:
    def test_session_surface_is_warning_free(self, system, collection):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            coll2 = system.session.create_collection(
                "clean", "ACCESS p FROM p IN PARA"
            )
            system.session.index(coll2)
            system.session.query(coll2, "telnet")
            system.session.query_batch([(coll2, "www"), (coll2, "nii")])
