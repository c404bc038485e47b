"""Daemon handlers, exercised directly (no client in between)."""

import pytest

from repro.common.errors import ExistsError, IsADirectoryError_, NotFoundError
from repro.core.daemon import HANDLER_NAMES, GekkoDaemon
from repro.core.metadata import Metadata, new_dir_metadata, new_file_metadata
from repro.rpc import BulkHandle, RpcNetwork
from repro.storage import MemoryChunkStorage


@pytest.fixture
def daemon():
    network = RpcNetwork()
    return GekkoDaemon(0, network.create_engine(0), chunk_size=128)


def file_md(**kw):
    return new_file_metadata(**kw).encode()


class TestSetup:
    def test_all_handlers_registered(self, daemon):
        assert set(daemon.engine.handler_names) == set(HANDLER_NAMES)

    def test_storage_chunk_size_must_match(self):
        network = RpcNetwork()
        with pytest.raises(ValueError):
            GekkoDaemon(
                0, network.create_engine(0), chunk_size=128,
                storage=MemoryChunkStorage(256),
            )


class TestMetadataHandlers:
    def test_create_then_stat(self, daemon):
        record = file_md()
        daemon.create("/f", record, exclusive=True)
        assert daemon.stat("/f") == record

    def test_exclusive_create_conflict(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        with pytest.raises(ExistsError):
            daemon.create("/f", file_md(), exclusive=True)

    def test_nonexclusive_create_returns_existing(self, daemon):
        first = file_md()
        daemon.create("/f", first, exclusive=False)
        returned = daemon.create("/f", file_md(), exclusive=False)
        assert returned == first  # the original record, untouched

    def test_stat_missing(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.stat("/ghost")

    def test_remove_returns_record(self, daemon):
        record = file_md()
        daemon.create("/f", record, exclusive=True)
        assert daemon.remove_metadata("/f") == record
        with pytest.raises(NotFoundError):
            daemon.stat("/f")

    def test_remove_missing(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.remove_metadata("/ghost")


class TestSizeUpdates:
    def test_update_size_is_max(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        assert daemon.update_size("/f", 100) == 100
        assert daemon.update_size("/f", 50) == 100  # late small update loses
        assert daemon.update_size("/f", 150) == 150

    def test_append_mode_accumulates(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 10, append=True)
        assert daemon.update_size("/f", 10, append=True) == 20

    def test_update_size_missing_file(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.update_size("/ghost", 10)

    def test_update_size_on_directory(self, daemon):
        daemon.create("/d", new_dir_metadata().encode(), exclusive=True)
        with pytest.raises(IsADirectoryError_):
            daemon.update_size("/d", 10)

    def test_update_size_maintains_blocks(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 300)
        md = Metadata.decode(daemon.stat("/f"))
        assert md.blocks == 3  # 300 bytes / 128-byte chunks

    def test_truncate_metadata_sets_exactly(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 500)
        old = daemon.truncate_metadata("/f", 100)
        assert old == 500
        assert Metadata.decode(daemon.stat("/f")).size == 100


class TestReaddir:
    def test_lists_direct_children_only(self, daemon):
        daemon.create("/d", new_dir_metadata().encode(), exclusive=True)
        daemon.create("/d/a", file_md(), exclusive=True)
        daemon.create("/d/sub", new_dir_metadata().encode(), exclusive=True)
        daemon.create("/d/sub/deep", file_md(), exclusive=True)
        daemon.create("/other", file_md(), exclusive=True)
        assert sorted(daemon.readdir("/d")) == [("a", False), ("sub", True)]

    def test_root_listing(self, daemon):
        daemon.create("/x", file_md(), exclusive=True)
        daemon.create("/y/z", file_md(), exclusive=True)
        assert daemon.readdir("/") == [("x", False)]  # /y/z is not a direct child

    def test_empty_dir(self, daemon):
        assert daemon.readdir("/nothing") == []


class TestDataHandlers:
    def test_write_inline_then_read(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"hello")
        assert daemon.read_chunk("/f", 0, 0, 5) == b"hello"

    def test_write_via_bulk_pull(self, daemon):
        payload = BulkHandle(b"bulk-bytes", readonly=True)
        assert daemon.write_chunk("/f", 1, 0, bulk=payload) == 10
        assert daemon.read_chunk("/f", 1, 0, 10) == b"bulk-bytes"

    def test_read_via_bulk_push(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"abcd")
        sink = bytearray(4)
        pushed = daemon.read_chunk("/f", 0, 0, 4, bulk=BulkHandle(sink))
        assert pushed == 4
        assert bytes(sink) == b"abcd"

    def test_write_needs_payload(self, daemon):
        with pytest.raises(ValueError):
            daemon.write_chunk("/f", 0, 0)

    def test_truncate_chunks_drops_tail(self, daemon):
        for cid in range(4):
            daemon.write_chunk("/f", cid, 0, data=b"x" * 128)
        daemon.truncate_chunks("/f", 200)  # keep chunk 0 + 72 bytes of chunk 1
        assert list(daemon.storage.chunk_ids("/f")) == [0, 1]
        assert daemon.read_chunk("/f", 1, 0, 128) == b"x" * 72

    def test_truncate_chunks_on_boundary(self, daemon):
        for cid in range(2):
            daemon.write_chunk("/f", cid, 0, data=b"x" * 128)
        daemon.truncate_chunks("/f", 128)
        assert list(daemon.storage.chunk_ids("/f")) == [0]
        assert daemon.read_chunk("/f", 0, 0, 128) == b"x" * 128

    def test_remove_chunks(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"x")
        daemon.write_chunk("/f", 1, 0, data=b"y")
        assert daemon.remove_chunks("/f") == 2


class TestReplicaEngineHandlers:
    def test_scan_pages_cover_everything_once(self, daemon):
        for i in range(5):
            daemon.create(f"/f{i}", file_md(), exclusive=True)
            daemon.write_chunk(f"/f{i}", 0, 0, b"x" * (i + 1))
            daemon.write_chunk(f"/f{i}", 1, 0, b"y")
        whole = daemon.scan(None, 100)
        assert whole["next"] is None
        assert [path for path, _ in whole["records"]] == [f"/f{i}" for i in range(5)]
        assert len(whole["chunks"]) == 10
        records, chunks, cursor = [], [], None
        while True:  # pages of 3 straddle the record/chunk boundary
            page = daemon.scan(cursor, 3)
            assert len(page["records"]) + len(page["chunks"]) <= 3
            records += page["records"]
            chunks += page["chunks"]
            cursor = page["next"]
            if cursor is None:
                break
        assert records == whole["records"]
        assert chunks == whole["chunks"]
        path, chunk_id, digest = chunks[0]
        assert digest == daemon.chunk_digest(path, chunk_id)

    def test_scan_pages_list_each_path_about_once(self, daemon):
        # More chunks than one page, spread over many paths: resuming a
        # page must not re-list the chunks of paths before the cursor.
        paths = [f"/p{i:03d}" for i in range(60)]
        for path in paths:
            for chunk_id in range(3):
                daemon.write_chunk(path, chunk_id, 0, b"c")
        listed = []
        chunk_ids = daemon.storage.chunk_ids
        daemon.storage.chunk_ids = lambda path: listed.append(path) or chunk_ids(path)
        chunks, cursor, pages = [], None, 0
        while True:
            page = daemon.scan(cursor, 7)
            chunks += [(path, chunk_id) for path, chunk_id, _ in page["chunks"]]
            pages += 1
            cursor = page["next"]
            if cursor is None:
                break
        assert chunks == [(p, c) for p in paths for c in range(3)]
        assert pages == 26
        # Each path once, plus the cursor's path re-listed per page.
        assert len(listed) <= len(paths) + 2 * pages

    def test_scan_reports_rotted_chunk_as_none(self):
        network = RpcNetwork()
        storage = MemoryChunkStorage(128, integrity=True)
        daemon = GekkoDaemon(0, network.create_engine(0), 128, storage=storage)
        daemon.write_chunk("/f", 0, 0, b"z" * 64)
        assert storage.corrupt_chunk("/f", 0, 3)
        assert daemon.scan(None, 10)["chunks"] == [["/f", 0, None]]

    def test_replace_metadata_is_compare_and_swap(self, daemon):
        old, new = file_md(), new_file_metadata().with_size(4096, 128).encode()
        assert daemon.replace_metadata("/f", old, None)  # absent -> install
        assert not daemon.replace_metadata("/f", new, None)  # changed since
        assert daemon.replace_metadata("/f", new, old)
        assert daemon.stat("/f") == new


class TestStatfs:
    def test_snapshot_fields(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.write_chunk("/f", 0, 0, data=b"12345")
        snap = daemon.statfs()
        assert snap["used_bytes"] == 5
        assert snap["metadata_records"] == 1
        assert snap["storage"]["write_ops"] == 1
        assert snap["kv"]["puts"] >= 1
