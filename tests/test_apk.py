import io
import re
import struct
import zipfile

import pytest

from botgrid.apk import MAX_ENTRY_BYTES, ApkArchive, open_apk
from botgrid.dataset import ManifestRecord, extract_corpus
from botgrid.errors import (
    ChecksumMismatch,
    EntryTooLarge,
    NotAZip,
    ParseError,
    TruncatedArchive,
    UnsupportedCompression,
)
from botgrid.manifest import read_permissions

from traced_memory import peak_bytes_of
from zip_writer import build_zip


def test_single_stored_entry(tmp_path):
    blob = build_zip([("AndroidManifest.xml", b"<manifest/>", 0)])
    path = tmp_path / "one.apk"
    path.write_bytes(blob)
    archive = open_apk(path)
    assert archive.read("AndroidManifest.xml") == b"<manifest/>"
    with pytest.raises(NotAZip):
        archive.read("classes.dex")


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


def test_missing_entry_raises_not_a_zip(tmp_path):
    archive = ApkArchive(build_zip([("AndroidManifest.xml", b"m", 0)]))
    with pytest.raises(NotAZip, match="^<memory>: archive has no nope.txt entry$"):
        archive.read("nope.txt")
    path = tmp_path / "bare.apk"
    path.write_bytes(build_zip([("classes.dex", b"dex\n035", 0)]))
    message = f"{path}: archive has no AndroidManifest.xml entry"
    with pytest.raises(NotAZip, match=f"^{re.escape(message)}$"):
        read_permissions(path, "apk")


def test_duplicate_entry_last_wins():
    blob = build_zip([("a.txt", b"first", 0), ("a.txt", b"second", 0)])
    archive = ApkArchive(blob)
    assert archive.read("a.txt") == b"second"


def test_zip_with_trailing_comment():
    blob = build_zip([("AndroidManifest.xml", b"m", 0)], comment=b"built by tests")
    assert ApkArchive(blob).read("AndroidManifest.xml") == b"m"


def forged(field_at, fmt: str, value: int, method: int = 0) -> bytes:
    """A one-entry <manifest/> archive with one field overwritten; field_at
    maps the archive to the field's offset."""
    blob = bytearray(build_zip([("AndroidManifest.xml", b"<manifest/>", method)]))
    struct.pack_into(fmt, blob, field_at(blob), value)
    return bytes(blob)


def eocd(offset: int):
    return lambda blob: blob.rfind(b"PK\x05\x06") + offset


def central(offset: int):
    return lambda blob: struct.unpack_from("<I", blob, eocd(16)(blob))[0] + offset


def entry_payload(blob) -> int:
    return 30 + len("AndroidManifest.xml")


@pytest.mark.parametrize(
    "blob, outcome",
    [
        (forged(eocd(4), "<H", 1), (NotAZip, "multi-disk")),  # disk number
        # one more entry than the directory holds
        (forged(eocd(10), "<H", 2), (TruncatedArchive, "directory record truncated")),
        (forged(central(28), "<H", 0xFFFF), (TruncatedArchive, "name truncated")),
        (forged(central(42), "<I", 200), (TruncatedArchive, "local header of .* truncated")),
        (forged(central(42), "<I", 1), (TruncatedArchive, "bad local header signature")),
        (forged(central(20), "<I", 1000), (TruncatedArchive, "payload of .* truncated")),
        # a final block of the reserved type 3
        (forged(entry_payload, "<B", 0xFF, method=8), (TruncatedArchive, "DEFLATE .* corrupt")),
        # a signature at the very end of the comment leaves no room for an
        # end record, so the scan goes on back to the real one
        (build_zip([("AndroidManifest.xml", b"<manifest/>", 0)], comment=b"PK\x05\x06"),
         b"<manifest/>"),
    ],
    ids=["multi-disk", "directory-record-truncated", "name-truncated",
         "local-header-truncated", "local-header-signature", "payload-truncated",
         "deflate-corrupt", "signature-in-comment"],
)
def test_forged_archive_reads_or_is_rejected(blob, outcome):
    if isinstance(outcome, bytes):
        assert ApkArchive(blob).read("AndroidManifest.xml") == outcome
    else:
        error, match = outcome
        with pytest.raises(error, match=match):
            ApkArchive(blob).read("AndroidManifest.xml")


def corrupt(method: int) -> bytes:
    """A one-entry archive whose <manifest/> payload disagrees with its CRC-32."""
    blob = bytearray(build_zip([("AndroidManifest.xml", b"<manifest/>", method)]))
    if method == 0:
        # The payload follows the 30-byte local header and the name.
        blob[30 + len("AndroidManifest.xml") + 1] ^= 0x20  # <Manifest/>
    else:
        # Flipping a DEFLATE byte would break the stream; flip the CRC instead.
        cd_offset = struct.unpack_from("<I", blob, blob.rfind(b"PK\x05\x06") + 16)[0]
        for crc_offset in (14, cd_offset + 16):  # local header, central directory
            blob[crc_offset] ^= 0x01
    return bytes(blob)


@pytest.mark.parametrize("method", [0, 8], ids=["stored", "deflate"])
def test_corrupted_entry_fails_its_crc(tmp_path, method):
    good = build_zip([("AndroidManifest.xml", b"<manifest/>", 0)])
    blob = corrupt(method)
    with pytest.raises(ChecksumMismatch) as exc:
        ApkArchive(blob).read("AndroidManifest.xml")
    assert isinstance(exc.value, ParseError)

    (tmp_path / "good.apk").write_bytes(good)
    (tmp_path / "bad.apk").write_bytes(blob)
    records = [
        ManifestRecord(str(tmp_path / name), "benign", "apk") for name in ("good.apk", "bad.apk")
    ]
    corpus = extract_corpus(records)
    assert corpus.paths == [str(tmp_path / "good.apk")]
    assert len(corpus.failures) == 1
    assert corpus.failures[0][0].endswith("bad.apk")
    assert corpus.failures[0][1].startswith("ChecksumMismatch")


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

    def read() -> None:
        with pytest.raises(error) as exc:
            archive.read("AndroidManifest.xml")
        assert isinstance(exc.value, ParseError)

    assert peak_bytes_of(read) < MAX_ENTRY_BYTES


def shift_offsets(blob: bytes, prefix: int) -> bytes:
    """Move a one-entry archive's two offsets past `prefix` leading bytes."""
    patched = bytearray(blob)
    eocd_at = blob.rfind(b"PK\x05\x06")
    cd_offset = struct.unpack_from("<I", blob, eocd_at + 16)[0]
    struct.pack_into("<I", patched, cd_offset + 42, prefix)  # local header offset
    struct.pack_into("<I", patched, eocd_at + 16, cd_offset + prefix)
    return bytes(patched)


def hole_before(blob: bytes, hole: int) -> tuple[bytes, bytes]:
    """A valid archive after `hole` zero bytes, its offsets moved on."""
    return b"", shift_offsets(blob, hole)


def split_payload_from_directory(blob: bytes, hole: int) -> tuple[bytes, bytes]:
    """A one-entry archive cut after its payload, its central directory
    moved `hole` bytes on and counting the gap as part of the payload."""
    eocd_at = blob.rfind(b"PK\x05\x06")
    cd_offset = struct.unpack_from("<I", blob, eocd_at + 16)[0]
    tail = bytearray(blob[cd_offset:])
    csize = struct.unpack_from("<I", tail, 20)[0]
    struct.pack_into("<I", tail, 20, csize + hole)  # compressed size
    struct.pack_into("<I", tail, eocd_at - cd_offset + 16, cd_offset + hole)
    return blob[:cd_offset], bytes(tail)


def directory_in_the_hole(blob: bytes, hole: int) -> tuple[bytes, bytes]:
    """A valid archive after `hole` zero bytes, its end record pointing an
    empty central directory at offset 0."""
    tail = bytearray(shift_offsets(blob, hole))
    eocd_at = tail.rfind(b"PK\x05\x06")
    struct.pack_into("<II", tail, eocd_at + 12, 0, 0)  # directory size and offset
    return b"", bytes(tail)


MANIFEST_PAYLOAD = bytes(range(256)) * 64
MiB = 1024 * 1024


@pytest.mark.parametrize(
    "method, layout, hole, outcome",
    [
        (8, hole_before, 1 * MiB, MANIFEST_PAYLOAD),
        (8, hole_before, 256 * MiB, MANIFEST_PAYLOAD),
        (8, directory_in_the_hole, 256 * MiB, TruncatedArchive),
        (0, split_payload_from_directory, 256 * MiB, EntryTooLarge),
        (8, split_payload_from_directory, 256 * MiB, MANIFEST_PAYLOAD),
    ],
    ids=["prefix-1MiB", "prefix-256MiB", "directory-offset-0", "stored-size", "deflate-size"],
)
def test_open_apk_reads_in_memory_bounded_by_the_archive(tmp_path, method, layout, hole, outcome):
    # A sparse file with a large hole of zeros.  What is read stays the
    # same whatever the size of the hole, also when the declared offsets
    # and sizes span it.  A DEFLATE stream that ends early is still the
    # entry.
    head, tail = layout(build_zip([("AndroidManifest.xml", MANIFEST_PAYLOAD, method)]), hole)
    path = tmp_path / "sparse.apk"
    with open(path, "wb") as fh:
        fh.write(head)
        fh.seek(len(head) + hole)
        fh.write(tail)

    def read() -> None:
        if isinstance(outcome, bytes):
            assert open_apk(path).read("AndroidManifest.xml") == outcome
        else:
            with pytest.raises(outcome):
                open_apk(path).read("AndroidManifest.xml")

    assert peak_bytes_of(read) < 256 * 1024
