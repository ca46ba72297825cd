"""Unit tests for value versioning and the per-node storage engine."""

from __future__ import annotations

from repro.cluster import StorageEngine, VersionStamp, VersionedValue, compare_versions


def version(ts, seq=0, value=b"v", size=10, write_id=1):
    return VersionedValue(
        stamp=VersionStamp(timestamp=ts, sequence=seq), value=value, write_id=write_id, size=size
    )


# ----------------------------------------------------------------------
# VersionStamp / compare_versions
# ----------------------------------------------------------------------
def test_version_stamps_are_totally_ordered():
    assert VersionStamp(1.0, 0) < VersionStamp(2.0, 0)
    assert VersionStamp(1.0, 1) > VersionStamp(1.0, 0)
    assert VersionStamp(1.0, 0) == VersionStamp(1.0, 0)


def test_compare_versions_handles_missing_values():
    newer = version(2.0)
    older = version(1.0)
    assert compare_versions(None, None) == 0
    assert compare_versions(None, older) < 0
    assert compare_versions(older, None) > 0
    assert compare_versions(newer, older) > 0
    assert compare_versions(older, newer) < 0
    assert compare_versions(older, version(1.0)) == 0


def test_tombstone_flag():
    tombstone = VersionedValue(stamp=VersionStamp(1.0, 0), value=None, write_id=1)
    assert tombstone.is_tombstone
    assert not version(1.0).is_tombstone


# ----------------------------------------------------------------------
# StorageEngine
# ----------------------------------------------------------------------
def test_apply_and_get_roundtrip():
    engine = StorageEngine("n1")
    v = version(1.0)
    assert engine.apply("k", v)
    assert engine.get("k") is v
    assert engine.key_count() == 1
    assert engine.bytes_stored() == 10
    assert "k" in engine


def test_lww_keeps_newest_version():
    engine = StorageEngine("n1")
    newer = version(5.0, seq=2, size=20)
    older = version(1.0, seq=1, size=10)
    assert engine.apply("k", newer)
    assert not engine.apply("k", older)
    assert engine.get("k") is newer
    assert engine.stats.writes_superseded == 1
    assert engine.bytes_stored() == 20


def test_reapplying_same_version_is_superseded():
    engine = StorageEngine("n1")
    v = version(1.0)
    assert engine.apply("k", v)
    assert not engine.apply("k", v)


def test_get_holds_the_newest_stamp():
    engine = StorageEngine("n1")
    old = version(1.0, seq=1)
    new = version(4.0, seq=2)
    engine.apply("k", old)
    engine.apply("k", new)
    assert engine.get("k").stamp == new.stamp
    assert engine.get("missing") is None


def test_remove_updates_accounting():
    engine = StorageEngine("n1")
    engine.apply("k", version(1.0, size=42))
    engine.remove("k")
    assert engine.key_count() == 0
    assert engine.bytes_stored() == 0
    assert engine.get("k") is None
    # Removing again is a no-op.
    engine.remove("k")
    assert engine.key_count() == 0


def test_tombstone_accounting():
    engine = StorageEngine("n1")
    engine.apply("k", version(1.0))
    tombstone = VersionedValue(stamp=VersionStamp(2.0, 5), value=None, write_id=2, size=0)
    engine.apply("k", tombstone)
    assert engine.stats.tombstones == 1
    assert engine.get("k").is_tombstone


def test_keys_snapshot():
    engine = StorageEngine("n1")
    for i in range(5):
        engine.apply(f"k{i}", version(float(i), seq=i))
    assert set(engine.keys()) == {f"k{i}" for i in range(5)}
    assert len(engine) == 5
