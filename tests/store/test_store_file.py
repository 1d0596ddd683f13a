"""StoreFile: append/commit durability contract and tail recovery."""

import os

import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import blocks
from repro.store.file import StoreFile, require_store


def _store(tmp_path, name="s.store", **kwargs):
    return StoreFile(str(tmp_path / name), **kwargs)


def _commit_one(store, payload=b'{"collections":{}}'):
    ref = store.append_record(blocks.KIND_DOCS, b"some docs")
    store.commit(payload)
    return ref


class TestLifecycle:
    def test_new_file_has_superblock_and_no_manifest(self, tmp_path):
        store = _store(tmp_path)
        assert store.manifest_offset is None
        assert store.read_manifest() is None
        assert store.size == blocks.SUPER_SIZE
        store.close()

    def test_token_survives_reopen(self, tmp_path):
        store = _store(tmp_path)
        token = store.token
        store.close()
        again = _store(tmp_path)
        assert again.token == token
        again.close()

    def test_commit_then_reopen_reads_manifest(self, tmp_path):
        store = _store(tmp_path)
        offset, length = _commit_one(store)
        store.close()
        again = _store(tmp_path)
        assert again.read_manifest() == {"collections": {}}
        assert again.read_record(offset, length, blocks.KIND_DOCS) == b"some docs"
        assert again.recovered_tail_bytes == 0
        again.close()

    def test_record_kind_reads_the_header_and_a_read_checks_it(self, tmp_path):
        store = _store(tmp_path)
        offset, length = _commit_one(store)
        assert store.record_kind(offset) == blocks.KIND_DOCS
        assert store.record_kind(store.manifest_offset) == blocks.KIND_MANIFEST
        with pytest.raises(StoreCorruptionError):
            store.read_record(offset, length, blocks.KIND_BLOCKS)
        store.close()

    def test_mmap_and_fallback_reads_agree(self, tmp_path):
        plain = _store(tmp_path, "a.store", use_mmap=False)
        offset, length = _commit_one(plain)
        plain.close()
        mapped = StoreFile(str(tmp_path / "a.store"), use_mmap=True)
        assert mapped.read_record(offset, length) == b"some docs"
        mapped.close()


class TestRecovery:
    def test_uncommitted_appends_are_discarded(self, tmp_path):
        store = _store(tmp_path)
        _commit_one(store)
        committed_end = store.size
        store.append_record(blocks.KIND_SEGMENT, b"never committed")
        store.close()
        again = _store(tmp_path)
        assert again.read_manifest() == {"collections": {}}
        assert again.size == committed_end
        assert again.recovered_tail_bytes > 0
        again.close()

    @pytest.mark.parametrize("cut", [1, 5, blocks.FOOTER_SIZE - 1])
    def test_torn_footer_falls_back_to_previous_commit(self, tmp_path, cut):
        store = _store(tmp_path)
        _commit_one(store, b'{"checkpoint":1}')
        store.append_record(blocks.KIND_DOCS, b"second wave")
        store.commit(b'{"checkpoint":2}')
        store.close()
        path = str(tmp_path / "s.store")
        os.truncate(path, os.path.getsize(path) - cut)
        again = StoreFile(path)
        assert again.read_manifest() == {"checkpoint": 1}
        again.close()

    def test_torn_manifest_falls_back_to_previous_commit(self, tmp_path):
        store = _store(tmp_path)
        _commit_one(store, b'{"checkpoint":1}')
        end_of_first = store.size
        store.commit(b'{"checkpoint":2,"padding":"' + b"x" * 200 + b'"}')
        store.close()
        path = str(tmp_path / "s.store")
        # Cut into the middle of the second manifest record.
        os.truncate(path, end_of_first + 40)
        again = StoreFile(path)
        assert again.read_manifest() == {"checkpoint": 1}
        again.close()

    def test_crash_before_first_commit_is_an_empty_store(self, tmp_path):
        store = _store(tmp_path)
        store.append_record(blocks.KIND_DOCS, b"lost")
        store.close()
        again = _store(tmp_path)
        assert again.read_manifest() is None
        assert again.recovered_tail_bytes > 0
        again.close()

    def test_footer_magic_inside_garbage_is_not_trusted(self, tmp_path):
        store = _store(tmp_path)
        _commit_one(store, b'{"checkpoint":1}')
        store.close()
        path = str(tmp_path / "s.store")
        with open(path, "ab") as fh:
            # A forged footer magic with garbage after it: the candidate
            # fails validation and scan-back continues to the real footer.
            fh.write(b"junk" + blocks.FOOTER_MAGIC + b"\x00" * 40)
        again = StoreFile(path)
        assert again.read_manifest() == {"checkpoint": 1}
        again.close()

    def test_tail_is_truncated_before_next_append(self, tmp_path):
        store = _store(tmp_path)
        _commit_one(store)
        store.close()
        path = str(tmp_path / "s.store")
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef" * 16)
        again = StoreFile(path)
        end = again.size
        again.append_record(blocks.KIND_DOCS, b"fresh")
        again.commit(b"{}")
        again.close()
        # The garbage is physically gone: the new record begins at the
        # committed end, and a reopen finds a clean file.
        final = StoreFile(path)
        assert final.recovered_tail_bytes == 0
        assert final.read_record(end + 0, final.manifest_offset - end) == b"fresh"
        final.close()

    def test_bit_flip_in_referenced_record_surfaces_on_read(self, tmp_path):
        store = _store(tmp_path)
        offset, length = _commit_one(store)
        store.close()
        path = str(tmp_path / "s.store")
        with open(path, "r+b") as fh:
            fh.seek(offset + blocks.RECORD_HEADER_SIZE + 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x10]))
        again = StoreFile(path)
        assert again.read_manifest() is not None  # manifest itself intact
        with pytest.raises(StoreCorruptionError):
            again.read_record(offset, length)
        again.close()


class TestRequireStore:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            require_store(str(tmp_path / "nope.store"))

    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a store file header")
        with pytest.raises(StoreCorruptionError):
            require_store(str(path))

    def test_valid_store(self, tmp_path):
        store = _store(tmp_path)
        store.close()
        require_store(str(tmp_path / "s.store"))
