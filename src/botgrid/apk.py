"""Minimal ZIP container reader for APK files.

Reads the end-of-central-directory record and the central directory to
build the entry table, then decodes individual entries on demand.  An
archive opened from a file is memory-mapped, not read: only the pages the
reader touches are loaded, and no declared size is ever copied whole.  Only
the two compression methods found in real APKs are supported: stored (0)
and DEFLATE (8).
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass

from .errors import (
    ChecksumMismatch,
    EntryTooLarge,
    NotAZip,
    TruncatedArchive,
    UnsupportedCompression,
)

EOCD_SIG = 0x06054B50
CENTRAL_SIG = 0x02014B50
LOCAL_SIG = 0x04034B50

MANIFEST_ENTRY = "AndroidManifest.xml"

# Largest entry the reader decodes.  Real AndroidManifest.xml files are
# tens of KiB; the cap bounds what a hostile archive can make the reader
# allocate, since DEFLATE expands up to about 1000:1.
MAX_ENTRY_BYTES = 4 * 1024 * 1024

# EOCD is 22 bytes plus an up-to-64KiB trailing comment.
_MAX_EOCD_SCAN = 22 + 0xFFFF

# DEFLATE input is fed in slices of this size, so a payload's declared
# compressed size bounds how far the reader looks, not what it copies.
_INFLATE_CHUNK = 64 * 1024

_EOCD = struct.Struct("<IHHHHIIH")
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")
_LOCAL = struct.Struct("<IHHHHHIIIHH")


@dataclass(frozen=True)
class ZipEntry:
    name: str
    method: int
    compressed_size: int
    uncompressed_size: int
    local_header_offset: int
    crc32: int


class ApkArchive:
    """Read-only view of a ZIP archive; safe to share across workers.

    `data` is the whole archive as bytes or a read-only `mmap`."""

    def __init__(self, data: bytes | mmap.mmap, source: str = "<memory>"):
        self._data = data
        self.source = source
        self._entries = self._read_central_directory()

    def read(self, name: str) -> bytes:
        """Decode one entry's payload (stored or DEFLATE).  A name the
        archive lacks raises NotAZip naming the archive and the entry, the
        error of an APK with no AndroidManifest.xml."""
        try:
            entry = self._entries[name]
        except KeyError:
            raise NotAZip(f"{self.source}: archive has no {name} entry") from None
        return self._read_entry(entry)

    def _read_central_directory(self) -> dict[str, ZipEntry]:
        data = self._data
        if len(data) < _EOCD.size:
            raise NotAZip(f"{self.source}: too small to hold an end-of-central-directory record")
        eocd_off = self._find_eocd()
        (_, disk_no, cd_disk, _, total_entries, cd_size, cd_offset, _) = _EOCD.unpack_from(
            data, eocd_off
        )
        if disk_no != 0 or cd_disk != 0:
            raise NotAZip(f"{self.source}: multi-disk archives are not supported")
        if cd_offset + cd_size > len(data):
            raise TruncatedArchive(f"{self.source}: central directory extends past end of file")

        entries: dict[str, ZipEntry] = {}
        pos = cd_offset
        for _ in range(total_entries):
            if pos + _CENTRAL.size > len(data):
                raise TruncatedArchive(f"{self.source}: central directory record truncated")
            fields = _CENTRAL.unpack_from(data, pos)
            if fields[0] != CENTRAL_SIG:
                raise TruncatedArchive(
                    f"{self.source}: bad central directory signature at offset {pos}"
                )
            (_, _, _, _, method, _, _, crc, csize, usize,
             name_len, extra_len, comment_len, _, _, _, local_off) = fields
            name_start = pos + _CENTRAL.size
            name_end = name_start + name_len
            if name_end > len(data):
                raise TruncatedArchive(f"{self.source}: entry name truncated")
            name = data[name_start:name_end].decode("utf-8", errors="replace")
            # Duplicate paths violate the archive contract; last record wins,
            # matching what Android's own extractor effectively does.
            entries[name] = ZipEntry(name, method, csize, usize, local_off, crc)
            pos = name_end + extra_len + comment_len
        return entries

    def _find_eocd(self) -> int:
        data = self._data
        scan_from = max(0, len(data) - _MAX_EOCD_SCAN)
        pos = data.rfind(struct.pack("<I", EOCD_SIG), scan_from)
        while pos != -1:
            if pos + _EOCD.size <= len(data):
                comment_len = struct.unpack_from("<H", data, pos + 20)[0]
                if pos + _EOCD.size + comment_len <= len(data):
                    return pos
            pos = data.rfind(struct.pack("<I", EOCD_SIG), scan_from, pos)
        raise NotAZip(f"{self.source}: no end-of-central-directory record found")

    def _read_entry(self, entry: ZipEntry) -> bytes:
        if entry.uncompressed_size > MAX_ENTRY_BYTES:
            raise EntryTooLarge(
                f"{self.source}: {entry.name!r} declares {entry.uncompressed_size} bytes, "
                f"more than the {MAX_ENTRY_BYTES}-byte limit"
            )
        data = self._data
        pos = entry.local_header_offset
        if pos + _LOCAL.size > len(data):
            raise TruncatedArchive(f"{self.source}: local header of {entry.name!r} truncated")
        fields = _LOCAL.unpack_from(data, pos)
        if fields[0] != LOCAL_SIG:
            raise TruncatedArchive(
                f"{self.source}: bad local header signature for {entry.name!r}"
            )
        name_len, extra_len = fields[9], fields[10]
        payload_start = pos + _LOCAL.size + name_len + extra_len
        payload_end = payload_start + entry.compressed_size
        if payload_end > len(data):
            raise TruncatedArchive(f"{self.source}: payload of {entry.name!r} truncated")

        if entry.method == 0:
            # A stored payload is the entry itself, so the limit holds for it.
            if entry.compressed_size > MAX_ENTRY_BYTES:
                raise EntryTooLarge(
                    f"{self.source}: {entry.name!r} stores {entry.compressed_size} bytes, "
                    f"more than the {MAX_ENTRY_BYTES}-byte limit"
                )
            out = data[payload_start:payload_end]
        elif entry.method == 8:
            # One byte past the declared size is enough to detect a stream
            # that inflates to more than its header says.
            limit = entry.uncompressed_size + 1
            inflater = zlib.decompressobj(-15)
            parts, produced = [], 0
            try:
                for start in range(payload_start, payload_end, _INFLATE_CHUNK):
                    chunk = data[start : min(start + _INFLATE_CHUNK, payload_end)]
                    parts.append(inflater.decompress(chunk, limit - produced))
                    produced += len(parts[-1])
                    if inflater.eof or produced == limit:
                        break
            except zlib.error as exc:
                raise TruncatedArchive(
                    f"{self.source}: DEFLATE stream of {entry.name!r} is corrupt: {exc}"
                ) from exc
            out = b"".join(parts)
            if len(out) != entry.uncompressed_size:
                raise TruncatedArchive(
                    f"{self.source}: {entry.name!r} inflated to {len(out)} bytes, "
                    f"expected {entry.uncompressed_size}"
                )
        else:
            raise UnsupportedCompression(
                f"{self.source}: entry {entry.name!r} uses compression method {entry.method}"
            )
        if zlib.crc32(out) != entry.crc32:
            raise ChecksumMismatch(f"{self.source}: CRC-32 of {entry.name!r} does not match")
        return out


def open_apk(path) -> ApkArchive:
    """Open an APK (ZIP) file and index its central directory.

    The file is mapped rather than read, so opening it and reading one entry
    load the pages of the end-of-central-directory record, the central
    directory and that entry, whatever the size of the file."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # an empty file cannot be mapped
            return ApkArchive(b"", source=str(path))
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return ApkArchive(data, source=str(path))
