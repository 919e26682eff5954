import io
import struct
import tracemalloc
import zipfile

import pytest

from botgrid.apk import MAX_ENTRY_BYTES, ApkArchive, open_apk
from botgrid.errors import (
    EntryTooLarge,
    NotAZip,
    ParseError,
    TruncatedArchive,
    UnsupportedCompression,
)

from zip_writer import build_zip


def test_single_stored_entry(tmp_path):
    blob = build_zip([("AndroidManifest.xml", b"<manifest/>", 0)])
    path = tmp_path / "one.apk"
    path.write_bytes(blob)
    archive = open_apk(path)
    assert "AndroidManifest.xml" in archive
    assert "classes.dex" not in archive
    assert archive.read("AndroidManifest.xml") == b"<manifest/>"


def test_empty_file_is_not_a_zip(tmp_path):
    path = tmp_path / "empty.apk"
    path.write_bytes(b"")
    with pytest.raises(NotAZip):
        open_apk(path)


def test_garbage_is_not_a_zip():
    with pytest.raises(NotAZip):
        ApkArchive(b"certainly not a zip file, far too long to be one anyway")


def test_round_trip_byte_exact():
    # Known binary payload written by the oracle writer must come back
    # byte for byte, stored and deflated.
    payload = bytes(range(256)) * 5
    for method in (0, 8):
        blob = build_zip(
            [("AndroidManifest.xml", payload, method), ("assets/a.txt", b"hi", 0)]
        )
        archive = ApkArchive(blob)
        assert archive.read("AndroidManifest.xml") == payload
        assert archive.read("assets/a.txt") == b"hi"


def test_reads_stdlib_zipfile_output():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("AndroidManifest.xml", b"\x03\x00\x08\x00payload")
        zf.writestr("classes.dex", b"dex\n035")
    archive = ApkArchive(buf.getvalue())
    assert "AndroidManifest.xml" in archive and "classes.dex" in archive
    assert archive.read("AndroidManifest.xml") == b"\x03\x00\x08\x00payload"
    assert archive.read("classes.dex") == b"dex\n035"


def test_unsupported_compression_method():
    blob = build_zip([("AndroidManifest.xml", b"data", 12)])  # bzip2 method id
    archive = ApkArchive(blob)
    with pytest.raises(UnsupportedCompression):
        archive.read("AndroidManifest.xml")


def test_truncated_payload():
    blob = build_zip([("AndroidManifest.xml", b"x" * 100, 0)])
    # Slice into the payload but keep the central directory intact by
    # rebuilding: corrupt the stored offset instead.
    archive = ApkArchive(blob)
    assert archive.read("AndroidManifest.xml") == b"x" * 100
    broken = blob[:40] + blob[60:]
    with pytest.raises((TruncatedArchive, NotAZip)):
        ApkArchive(broken).read("AndroidManifest.xml")


def test_truncated_central_directory():
    blob = build_zip([("a", b"1", 0), ("b", b"2", 0)])
    eocd_at = blob.rfind(b"PK\x05\x06")
    # EOCD claiming the directory extends past the end of file
    patched = bytearray(blob)
    struct.pack_into("<I", patched, eocd_at + 12, len(blob) + 50)
    with pytest.raises((TruncatedArchive, NotAZip)):
        ApkArchive(bytes(patched))


def test_missing_entry_raises_keyerror():
    archive = ApkArchive(build_zip([("AndroidManifest.xml", b"m", 0)]))
    with pytest.raises(KeyError):
        archive.read("nope.txt")


def test_duplicate_entry_last_wins():
    blob = build_zip([("a.txt", b"first", 0), ("a.txt", b"second", 0)])
    archive = ApkArchive(blob)
    assert "a.txt" in archive
    assert archive.read("a.txt") == b"second"


def test_zip_with_trailing_comment():
    blob = build_zip([("AndroidManifest.xml", b"m", 0)], comment=b"built by tests")
    assert ApkArchive(blob).read("AndroidManifest.xml") == b"m"


BOMB_BYTES = 100 * 1024 * 1024


@pytest.fixture(scope="module")
def bomb_zip():
    # About 100 KB on disk; its manifest inflates to 100 MiB of zeros.
    return build_zip([("AndroidManifest.xml", bytes(BOMB_BYTES), 8)])


def declare_size(blob: bytes, size: int) -> bytes:
    """Rewrite the uncompressed size in the only entry's two headers."""
    patched = bytearray(blob)
    struct.pack_into("<I", patched, 22, size)  # local header
    cd_offset = struct.unpack_from("<I", blob, blob.rfind(b"PK\x05\x06") + 16)[0]
    struct.pack_into("<I", patched, cd_offset + 24, size)  # central directory
    return bytes(patched)


@pytest.mark.parametrize(
    "declared, error",
    [(BOMB_BYTES, EntryTooLarge), (1024, TruncatedArchive)],
    ids=["declared", "understated"],
)
def test_inflate_bomb_fails_in_bounded_memory(bomb_zip, declared, error):
    archive = ApkArchive(declare_size(bomb_zip, declared))
    tracemalloc.start()
    try:
        with pytest.raises(error) as exc:
            archive.read("AndroidManifest.xml")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, ParseError)
    assert peak < MAX_ENTRY_BYTES
