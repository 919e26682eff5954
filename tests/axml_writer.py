"""Standalone binary-XML encoder used as the parser's round-trip oracle.

Written directly from the wire format with its own constants and no
imports from the package under test.  Documents are plain nested tuples:

    element = (name, [(namespace, attr_name, value), ...], [child, ...])

A value is a string, written as a pool string, or a typed pair
(attr_type, data) written with raw index NO_INDEX.  The data of a typed
pair is a 32-bit word or, for ATTR_TYPE_STRING, a string whose pool
index becomes the word.
"""

import struct

FILE_CHUNK = 0x0003
POOL_CHUNK = 0x0001
RESOURCE_MAP_CHUNK = 0x0180
NS_START_CHUNK = 0x0100
NS_END_CHUNK = 0x0101
ELEMENT_START_CHUNK = 0x0102
ELEMENT_END_CHUNK = 0x0103
POOL_UTF8_FLAG = 0x00000100
NO_INDEX = 0xFFFFFFFF
ATTR_TYPE_REFERENCE = 0x01
ATTR_TYPE_STRING = 0x03
ATTR_TYPE_FLOAT = 0x04
ATTR_TYPE_INT_DEC = 0x10
ATTR_TYPE_INT_HEX = 0x11
ATTR_TYPE_INT_BOOLEAN = 0x12

ANDROID_URI = "http://schemas.android.com/apk/res/android"


class _Pool:
    def __init__(self):
        self.strings: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, s: str) -> int:
        if s not in self._index:
            self._index[s] = len(self.strings)
            self.strings.append(s)
        return self._index[s]


def _collect(element, pool: _Pool) -> None:
    name, attrs, children = element
    pool.add(name)
    for ns, attr_name, value in attrs:
        if ns:
            pool.add(ns)
        pool.add(attr_name)
        if isinstance(value, str):
            pool.add(value)
        elif isinstance(value[1], str):
            pool.add(value[1])
    for child in children:
        _collect(child, pool)


def _encode_pool(pool: _Pool, utf8: bool) -> bytes:
    blobs = []
    offsets = []
    at = 0
    for s in pool.strings:
        offsets.append(at)
        if utf8:
            data = s.encode("utf-8")
            assert len(s) < 0x80 and len(data) < 0x80, "oracle writer keeps strings short"
            blob = bytes([len(s), len(data)]) + data + b"\x00"
        else:
            data = s.encode("utf-16-le")
            units = len(data) // 2
            assert units < 0x8000, "oracle writer keeps strings short"
            blob = struct.pack("<H", units) + data + b"\x00\x00"
        blobs.append(blob)
        at += len(blob)
    string_data = b"".join(blobs)
    while len(string_data) % 4:
        string_data += b"\x00"

    header_size = 28
    strings_start = header_size + 4 * len(pool.strings)
    chunk_size = strings_start + len(string_data)
    out = struct.pack(
        "<HHIIIIII",
        POOL_CHUNK,
        header_size,
        chunk_size,
        len(pool.strings),
        0,  # style count
        POOL_UTF8_FLAG if utf8 else 0,
        strings_start,
        0,  # styles start
    )
    out += struct.pack(f"<{len(offsets)}I", *offsets)
    return out + string_data


def _encode_element(element, pool: _Pool) -> bytes:
    name, attrs, children = element
    out = bytearray()
    start_size = 16 + 20 + 20 * len(attrs)
    out += struct.pack(
        "<HHIII", ELEMENT_START_CHUNK, 16, start_size, 1, NO_INDEX
    )  # header, line number, comment
    out += struct.pack(
        "<IIHHHHHH",
        NO_INDEX,  # element namespace
        pool.add(name),
        20,  # attribute start (relative to end of the 16-byte header)
        20,  # attribute record size
        len(attrs),
        0, 0, 0,  # id/class/style attribute slots
    )
    for ns, attr_name, value in attrs:
        if isinstance(value, str):
            raw = data = pool.add(value)
            attr_type = ATTR_TYPE_STRING
        else:
            raw = NO_INDEX
            attr_type, data = value
            if isinstance(data, str):
                data = pool.add(data)
        out += struct.pack(
            "<IIIHBBI",
            pool.add(ns) if ns else NO_INDEX,
            pool.add(attr_name),
            raw,
            8,  # typed value size
            0,  # res0
            attr_type,
            data,
        )
    for child in children:
        out += _encode_element(child, pool)
    out += struct.pack(
        "<HHIIIII", ELEMENT_END_CHUNK, 16, 24, 1, NO_INDEX, NO_INDEX, pool.add(name)
    )
    return bytes(out)


def build_axml(
    root,
    utf8: bool = False,
    resource_map_ids: int = 0,
    namespace_uri: str = ANDROID_URI,
) -> bytes:
    """Encode one element tree as an AXML byte blob."""
    pool = _Pool()
    prefix_idx = pool.add("android")
    uri_idx = pool.add(namespace_uri)
    _collect(root, pool)

    body = bytearray()
    if resource_map_ids:
        body += struct.pack("<HHI", RESOURCE_MAP_CHUNK, 8, 8 + 4 * resource_map_ids)
        body += struct.pack(f"<{resource_map_ids}I", *range(0x7F010000, 0x7F010000 + resource_map_ids))
    body += struct.pack("<HHIIIII", NS_START_CHUNK, 16, 24, 1, NO_INDEX, prefix_idx, uri_idx)
    body += _encode_element(root, pool)
    body += struct.pack("<HHIIIII", NS_END_CHUNK, 16, 24, 1, NO_INDEX, prefix_idx, uri_idx)

    pool_bytes = _encode_pool(pool, utf8)
    total = 8 + len(pool_bytes) + len(body)
    return struct.pack("<HHI", FILE_CHUNK, 8, total) + pool_bytes + bytes(body)


def permissions_manifest(permissions, element="uses-permission"):
    """Element tree of a manifest requesting the given permissions."""
    children = [
        (element, [(ANDROID_URI, "name", perm)], []) for perm in permissions
    ]
    return ("manifest", [], children)
