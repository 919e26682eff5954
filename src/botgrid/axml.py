"""Decoder for Android's binary XML (AXML) manifest encoding.

The format is a little-endian chunk stream: an outer file chunk (type
0x0003), a string pool (0x0001, UTF-16LE by default or UTF-8 when pool
flag 0x100 is set), an optional resource map (0x0180), then namespace
and element chunks that describe the document tree.  All string-valued
fields are indices into the pool.

Each fixed-size record (a chunk header, the string-pool header, an
element's start and end records, an attribute record) is read whole
after one bounds check against the declared chunk sizes, and every
variable-length read is checked the same way.  So arbitrary input either
parses or fails with one of the declared errors; it never reads out of
bounds or allocates proportionally to a forged length field.

Memory stays proportional to the input too.  A pool string is decoded
once however many indices point at its offset, and a pool whose strings
overlap, so that they decode to more bytes than its data region holds,
is rejected.  The attribute keys built as "{namespace}name" may total at
most KEY_CHARS_PER_BYTE characters per input byte.
"""

from __future__ import annotations

import struct
import xml.etree.ElementTree as ET

from .errors import (
    BadMagic,
    BadStringIndex,
    OversizedStrings,
    TruncatedChunk,
    UnbalancedElements,
)

RES_STRING_POOL_TYPE = 0x0001
RES_XML_TYPE = 0x0003
RES_XML_START_NAMESPACE = 0x0100
RES_XML_END_NAMESPACE = 0x0101
RES_XML_START_ELEMENT = 0x0102
RES_XML_END_ELEMENT = 0x0103

UTF8_FLAG = 0x00000100
NO_INDEX = 0xFFFFFFFF

# Typed-value dataType codes that appear in manifest attributes.
TYPE_REFERENCE = 0x01
TYPE_STRING = 0x03
TYPE_FLOAT = 0x04
TYPE_INT_DEC = 0x10
TYPE_INT_HEX = 0x11
TYPE_INT_BOOLEAN = 0x12

_CHUNK_HEADER = struct.Struct("<HHI")  # type, header size, chunk size
# string count, style count, flags, strings start, styles start
_POOL_HEADER = struct.Struct("<5I")
# namespace, name, attribute start, attribute size, attribute count, then
# the id/class/style attribute indices (skipped)
_START_ELEMENT = struct.Struct("<IIHHH6x")
# namespace, name, raw value, typed value size (skipped), res0 (skipped),
# data type, data
_ATTRIBUTE = struct.Struct("<IIIxxxBI")
_END_ELEMENT = struct.Struct("<4xI")  # namespace (skipped), name
_U16 = struct.Struct("<H")

# The attribute keys of one document may total this many characters per
# byte of input.  The manifests perfbench and the tests write reach 0.49.
KEY_CHARS_PER_BYTE = 16


def is_axml(data: bytes) -> bool:
    """True when the buffer starts with the AXML file chunk header."""
    return len(data) >= 4 and data[:2] == b"\x03\x00" and data[2:4] == b"\x08\x00"


def _unpack(record: struct.Struct, data: bytes, pos: int, limit: int) -> tuple:
    """Unpack one fixed-size record after a single bounds check."""
    if pos + record.size > limit:
        raise TruncatedChunk(
            f"need {record.size} bytes at offset {pos}, only {limit - pos} remain"
        )
    return record.unpack_from(data, pos)


class _StringPool:
    """Lazy string pool; strings decode on first reference."""

    def __init__(self, data: bytes, chunk_start: int, header_size: int, chunk_size: int):
        self.string_count, self.style_count, flags, strings_start, styles_start = _unpack(
            _POOL_HEADER, data, chunk_start + 8, chunk_start + chunk_size
        )
        self.is_utf8 = bool(flags & UTF8_FLAG)

        offsets_at = chunk_start + header_size
        if offsets_at + 4 * self.string_count > chunk_start + chunk_size:
            raise TruncatedChunk("string offset table exceeds pool chunk")
        self._offsets = struct.unpack_from(f"<{self.string_count}I", data, offsets_at)
        self._data = data
        self._base = chunk_start + strings_start
        end = chunk_start + (styles_start if self.style_count and styles_start else chunk_size)
        self._end = min(end, chunk_start + chunk_size)
        if self._base > self._end:
            raise TruncatedChunk("string data region starts past pool chunk end")
        self._by_index: list[str | None] = [None] * self.string_count
        self._by_offset: dict[int, str] = {}
        # bytes of the data region that strings not yet decoded may span
        self._room = self._end - self._base

    def get(self, index: int) -> str:
        try:
            s = self._by_index[index]
        except IndexError:
            raise BadStringIndex(
                f"string index {index} out of range ({self.string_count})"
            ) from None
        if s is None:
            s = self._by_index[index] = self._load(index)
        return s

    def _load(self, index: int) -> str:
        at = self._base + self._offsets[index]
        s = self._by_offset.get(at)
        if s is not None:
            return s
        try:
            if self.is_utf8:
                s, end = self._decode_utf8(at)
            else:
                s, end = self._decode_utf16(at)
        except (struct.error, IndexError) as exc:
            raise BadStringIndex(f"string {index} lies outside the pool data") from exc
        self._room -= end - at
        if self._room < 0:
            raise OversizedStrings(
                f"string {index} overlaps others: the strings span more than "
                f"the pool's {self._end - self._base}-byte data region"
            )
        self._by_offset[at] = s
        return s

    # Each decoder returns the string whose length field starts at `at`,
    # and the offset where it ends.

    def _decode_utf16(self, at: int) -> tuple[str, int]:
        # u16 char count; high bit extends the length with a second word.
        if at + 2 > self._end:
            raise BadStringIndex("UTF-16 length field out of bounds")
        (n,) = _U16.unpack_from(self._data, at)
        at += 2
        if n & 0x8000:
            if at + 2 > self._end:
                raise BadStringIndex("extended UTF-16 length out of bounds")
            n = ((n & 0x7FFF) << 16) | _U16.unpack_from(self._data, at)[0]
            at += 2
        end = at + 2 * n
        if end > self._end:
            raise BadStringIndex("UTF-16 string data out of bounds")
        try:
            return self._data[at:end].decode("utf-16-le"), end
        except UnicodeDecodeError as exc:
            raise BadStringIndex(f"undecodable UTF-16 string: {exc}") from exc

    def _decode_utf8(self, at: int) -> tuple[str, int]:
        # Two varlen fields: UTF-16 char count (unused) then byte count.
        _, at = self._read_utf8_len(at)
        nbytes, at = self._read_utf8_len(at)
        end = at + nbytes
        if end > self._end:
            raise BadStringIndex("UTF-8 string data out of bounds")
        try:
            return self._data[at:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise BadStringIndex(f"undecodable UTF-8 string: {exc}") from exc

    def _read_utf8_len(self, at: int) -> tuple[int, int]:
        if at + 1 > self._end:
            raise BadStringIndex("UTF-8 length field out of bounds")
        n = self._data[at]
        at += 1
        if n & 0x80:
            if at + 1 > self._end:
                raise BadStringIndex("extended UTF-8 length out of bounds")
            n = ((n & 0x7F) << 8) | self._data[at]
            at += 1
        return n, at


def _format_typed_value(data_type: int, data: int, pool: _StringPool) -> str:
    if data_type == TYPE_STRING:
        return pool.get(data)
    if data_type == TYPE_INT_BOOLEAN:
        return "true" if data else "false"
    if data_type == TYPE_INT_DEC:
        if data & 0x80000000:
            data -= 1 << 32
        return str(data)
    if data_type == TYPE_INT_HEX:
        return f"0x{data:x}"
    if data_type == TYPE_REFERENCE:
        return f"@0x{data:08x}"
    if data_type == TYPE_FLOAT:
        return repr(struct.unpack("<f", struct.pack("<I", data))[0])
    return f"0x{data:08x}"


def parse_axml(data: bytes) -> ET.Element:
    """Decode an AXML buffer into the manifest's root element.

    Element tags are the bare element names.  Attributes are keyed
    ElementTree's way, "{namespace}name" or just "name" when the namespace
    is empty; of attributes with equal keys the first is kept.
    """
    file_type, header_size, declared = _unpack(_CHUNK_HEADER, data, 0, len(data))
    if file_type != RES_XML_TYPE or header_size != 8:
        raise BadMagic(
            f"expected file chunk type 0x0003 with header size 8, "
            f"got type 0x{file_type:04x} size {header_size}"
        )
    if declared > len(data):
        raise TruncatedChunk(f"file chunk declares {declared} bytes, buffer has {len(data)}")
    limit = declared
    pos = 8

    pool: _StringPool | None = None
    root: ET.Element | None = None
    stack: list[ET.Element] = []
    ns_depth = 0
    key_budget = KEY_CHARS_PER_BYTE * len(data)

    while pos < limit:
        ctype, chsize, csize = _unpack(_CHUNK_HEADER, data, pos, limit)
        if csize < chsize or chsize < 8:
            raise TruncatedChunk(
                f"chunk 0x{ctype:04x} declares size {csize} with header {chsize}"
            )
        if pos + csize > limit:
            raise TruncatedChunk(
                f"chunk 0x{ctype:04x} at offset {pos} overruns the file chunk"
            )

        if pool is None:
            if ctype != RES_STRING_POOL_TYPE:
                raise BadMagic(
                    f"expected string pool chunk after file header, got 0x{ctype:04x}"
                )
            pool = _StringPool(data, pos, chsize, csize)
        elif ctype == RES_XML_START_NAMESPACE:
            ns_depth += 1
        elif ctype == RES_XML_END_NAMESPACE:
            if ns_depth == 0:
                raise UnbalancedElements("namespace end without a matching start")
            ns_depth -= 1
        elif ctype == RES_XML_START_ELEMENT:
            element, key_budget = _parse_start_element(
                data, pos, chsize, csize, pool, key_budget
            )
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            else:
                raise UnbalancedElements("second root element")
            stack.append(element)
        elif ctype == RES_XML_END_ELEMENT:
            (name_idx,) = _unpack(_END_ELEMENT, data, pos + chsize, pos + csize)
            if name_idx == NO_INDEX:
                raise BadStringIndex("end tag with no name string")
            name = pool.get(name_idx)
            if not stack:
                raise UnbalancedElements(f"end of element {name!r} with no element open")
            opened = stack.pop()
            if opened.tag != name:
                raise UnbalancedElements(
                    f"element {opened.tag!r} closed by end tag {name!r}"
                )
        # Other chunk types (resource map, CDATA, ...) are skipped by their
        # declared length.

        pos += csize

    if stack:
        raise UnbalancedElements(f"{len(stack)} element(s) left open at end of input")
    if root is None:
        raise UnbalancedElements("document contains no element")
    return root


def _parse_start_element(
    data: bytes, start: int, header_size: int, chunk_size: int, pool: _StringPool,
    key_budget: int,
) -> tuple[ET.Element, int]:
    """The element, and what is left of key_budget after building its keys."""
    limit = start + chunk_size
    ns_idx, name_idx, attr_start, attr_size, attr_count = _unpack(
        _START_ELEMENT, data, start + header_size, limit
    )

    if name_idx == NO_INDEX:
        raise BadStringIndex("element with no name string")
    name = pool.get(name_idx)
    element = ET.Element(name)
    if ns_idx != NO_INDEX:
        pool.get(ns_idx)  # validate the reference even though names are unprefixed

    if attr_size < _ATTRIBUTE.size:
        raise TruncatedChunk(f"attribute record size {attr_size} below minimum 20")
    attrs_at = start + header_size + attr_start
    if attrs_at + attr_count * attr_size > limit:
        raise TruncatedChunk(
            f"{attr_count} attribute records overrun the element chunk"
        )
    # With attr_size >= 20 and the check above, every record lies inside the
    # chunk, so each is unpacked without a check of its own.
    for at in range(attrs_at, attrs_at + attr_count * attr_size, attr_size):
        a_ns, a_name, a_raw, a_type, a_data = _ATTRIBUTE.unpack_from(data, at)
        if a_name == NO_INDEX:
            raise BadStringIndex("attribute with no name string")
        namespace = "" if a_ns == NO_INDEX else pool.get(a_ns)
        if a_raw != NO_INDEX:
            value = pool.get(a_raw)
        else:
            value = _format_typed_value(a_type, a_data, pool)
        attr_name = pool.get(a_name)
        key = f"{{{namespace}}}{attr_name}" if namespace else attr_name
        key_budget -= len(key)
        if key_budget < 0:
            raise OversizedStrings(
                f"attribute keys exceed {KEY_CHARS_PER_BYTE} characters per input byte"
            )
        element.attrib.setdefault(key, value)
    return element, key_budget
