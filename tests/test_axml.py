import random
import struct
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from botgrid.axml import is_axml, parse_axml
from botgrid.cli import main
from botgrid.errors import (
    BadMagic,
    BadStringIndex,
    OversizedStrings,
    ParseError,
    TruncatedChunk,
    UnbalancedElements,
)
from botgrid.manifest import ANDROID_NS

from axml_writer import (
    ANDROID_URI,
    ATTR_TYPE_FLOAT,
    ATTR_TYPE_INT_BOOLEAN,
    ATTR_TYPE_INT_DEC,
    ATTR_TYPE_INT_HEX,
    ATTR_TYPE_REFERENCE,
    ATTR_TYPE_STRING,
    build_axml,
    permissions_manifest,
)
from traced_memory import peak_bytes_of


class _TreeMatcher:
    """Equal to an ET.Element with exactly the tuple tree's structure."""

    def __init__(self, tree):
        self.tree = tree

    def __eq__(self, element):
        return _matches(self.tree, element)

    def __repr__(self):
        return f"to_document({self.tree!r})"


def _matches(node, element) -> bool:
    name, attrs, children = node
    # The parser keeps the first of attributes with equal keys, so the
    # expected attributes collapse the same way.
    expected = {}
    for ns, an, av in attrs:
        expected.setdefault(f"{{{ns}}}{an}" if ns else an, av)
    return (
        isinstance(element, ET.Element)
        and element.tag == name
        and list(element.attrib.items()) == list(expected.items())
        and len(element) == len(children)
        and all(_matches(c, e) for c, e in zip(children, element))
    )


def to_document(tree) -> _TreeMatcher:
    """Strict matcher: tag, attribute keys, values and order, and the count
    and order of the children."""
    return _TreeMatcher(tree)


def test_internet_permission_manifest():
    tree = permissions_manifest(["android.permission.INTERNET"])
    root = parse_axml(build_axml(tree))
    assert root.tag == "manifest"
    assert len(root) == 1
    child = root[0]
    assert child.tag == "uses-permission"
    assert child.get(f"{{{ANDROID_NS}}}name") == "android.permission.INTERNET"


def test_utf8_pool_gives_identical_tree():
    tree = permissions_manifest(
        ["android.permission.INTERNET", "android.permission.SEND_SMS"]
    )
    assert parse_axml(build_axml(tree, utf8=False)) == to_document(tree)
    assert parse_axml(build_axml(tree, utf8=True)) == to_document(tree)


def test_matcher_is_strict():
    tree = ("manifest", [("", "a", "1"), (ANDROID_URI, "b", "2")], [("x", [], [])])
    assert parse_axml(build_axml(tree)) == to_document(tree)
    for other in [
        ("manifesto", [("", "a", "1"), (ANDROID_URI, "b", "2")], [("x", [], [])]),
        ("manifest", [(ANDROID_URI, "b", "2"), ("", "a", "1")], [("x", [], [])]),
        ("manifest", [("", "a", "1"), ("", "b", "2")], [("x", [], [])]),
        ("manifest", [("", "a", "1"), (ANDROID_URI, "b", "3")], [("x", [], [])]),
        ("manifest", [("", "a", "1")], [("x", [], [])]),
        ("manifest", [("", "a", "1"), (ANDROID_URI, "b", "2")], []),
        ("manifest", [("", "a", "1"), (ANDROID_URI, "b", "2")], [("x", [], [])] * 2),
        ("manifest", [("", "a", "1"), (ANDROID_URI, "b", "2")], [("y", [], [])]),
    ]:
        assert parse_axml(build_axml(tree)) != to_document(other)


def test_repeated_attribute_key_keeps_first_and_checks_the_rest():
    tree = ("manifest", [("", "label", "first"), ("", "label", "second")], [])
    blob = bytearray(build_axml(tree))
    assert parse_axml(bytes(blob)).attrib == {"label": "first"}
    # The second record's raw value index: the start-element chunk's 16-byte
    # header, its 20-byte body, one 20-byte record, then namespace and name.
    at = blob.find(b"\x02\x01\x10\x00") + 16 + 20 + 20 + 8
    struct.pack_into("<I", blob, at, 9999)
    with pytest.raises(BadStringIndex):
        parse_axml(bytes(blob))


def test_four_byte_input_truncated():
    with pytest.raises(TruncatedChunk):
        parse_axml(b"\x03\x00\x08\x00")


def test_wrong_magic():
    with pytest.raises(BadMagic):
        parse_axml(b"\x02\x00\x08\x00" + b"\x00" * 60)


def test_resource_map_is_skipped():
    tree = permissions_manifest(["android.permission.CAMERA"])
    doc = parse_axml(build_axml(tree, resource_map_ids=5))
    assert doc == to_document(tree)


def test_non_ascii_strings_survive():
    tree = ("manifest", [("", "label", "приложение ☂")], [])
    for utf8 in (False, True):
        assert parse_axml(build_axml(tree, utf8=utf8)).get("label") == "приложение ☂"


@pytest.mark.parametrize(
    "typed, text",
    [
        ((ATTR_TYPE_INT_DEC, 42), "42"),
        ((ATTR_TYPE_INT_DEC, 0xFFFFFFFF), "-1"),
        ((ATTR_TYPE_INT_BOOLEAN, 0xFFFFFFFF), "true"),
        ((ATTR_TYPE_INT_BOOLEAN, 0), "false"),
        ((ATTR_TYPE_INT_HEX, 0x10), "0x10"),
        ((ATTR_TYPE_REFERENCE, 0x7F040001), "@0x7f040001"),
        ((ATTR_TYPE_FLOAT, 0x3F800000), "1.0"),
        ((ATTR_TYPE_STRING, "by-data"), "by-data"),
        ((0x1C, 0xFF00FF00), "0xff00ff00"),  # a color: no formatting of its own
    ],
    ids=["int", "int-negative", "true", "false", "hex", "reference", "float",
         "string-by-data", "unknown-type"],
)
@pytest.mark.parametrize("utf8", [False, True], ids=["utf16", "utf8"])
def test_typed_attribute_values(typed, text, utf8):
    tree = ("manifest", [(ANDROID_URI, "versionCode", typed)], [])
    root = parse_axml(build_axml(tree, utf8=utf8))
    assert root.get(f"{{{ANDROID_NS}}}versionCode") == text


def test_declared_size_beyond_buffer():
    blob = build_axml(permissions_manifest(["p"]))
    with pytest.raises(TruncatedChunk):
        parse_axml(blob[:-10])


def test_unbalanced_when_end_tag_missing():
    blob = bytearray(build_axml(("manifest", [], [])))
    # Chop the trailing end-namespace and end-element chunks, fixing up
    # the declared file size so truncation is not the failure mode.
    struct.pack_into("<I", blob, 4, len(blob) - 48)
    with pytest.raises(UnbalancedElements):
        parse_axml(bytes(blob[:-48]))


def test_bad_string_index():
    blob = bytearray(build_axml(("manifest", [], [])))
    # Point the root element's name index far out of the pool.
    at = blob.find(b"\x02\x01\x10\x00")  # start-element chunk header
    struct.pack_into("<I", blob, at + 20, 9999)
    with pytest.raises(BadStringIndex):
        parse_axml(bytes(blob))


def raw_axml(offsets, string_data: bytes, attrs, utf8: bool = False) -> bytes:
    """An AXML of one element named by pool string 0, whose pool is the given
    offsets and string data as they are, and whose attributes are given as
    (namespace, name, value) pool indices."""
    no_index = 0xFFFFFFFF
    pool_start = 28 + 4 * len(offsets)
    pool = struct.pack(
        "<HHIIIIII", 0x0001, 28, pool_start + len(string_data), len(offsets), 0,
        0x100 if utf8 else 0, pool_start, 0,
    ) + struct.pack(f"<{len(offsets)}I", *offsets) + string_data
    body = struct.pack("<HHIII", 0x0102, 16, 36 + 20 * len(attrs), 1, no_index)
    body += struct.pack("<IIHHHHHH", no_index, 0, 20, 20, len(attrs), 0, 0, 0)
    for ns, name, value in attrs:
        body += struct.pack("<IIIHBBI", ns, name, value, 8, 0, 0x03, value)
    body += struct.pack("<HHIIIII", 0x0103, 16, 24, 1, no_index, no_index, 0)
    return struct.pack("<HHI", 0x0003, 8, 8 + len(pool) + len(body)) + pool + body


def utf16_string(s: str) -> bytes:
    units = len(s.encode("utf-16-le")) // 2
    head = struct.pack("<HH", 0x8000 | units >> 16, units & 0xFFFF) if units >= 0x8000 \
        else struct.pack("<H", units)
    return head + s.encode("utf-16-le") + b"\0\0"


@pytest.mark.parametrize(
    "data, match",
    [
        # the element's name: a length with the extension bit and no second word
        (raw_axml([0], b"\x00\x80", []), "extended UTF-16 length out of bounds"),
        (raw_axml([0], b"\x80", [], utf8=True), "extended UTF-8 length out of bounds"),
        (raw_axml([0], utf16_string("m"), [(0xFFFFFFFF, 0xFFFFFFFF, 0)]),
         "attribute with no name"),
    ],
    ids=["utf16-extended-length", "utf8-extended-length", "attribute-without-name"],
)
def test_forged_string_reference_is_a_bad_string_index(data, match):
    with pytest.raises(BadStringIndex, match=match):
        parse_axml(data)


# A run of one 2-byte unit that reads, from any even offset into it, as a
# length field followed by that many valid characters: 32,767 UTF-16 units
# of U+7FFF, or 24,510 UTF-8 bytes of U+07FE.
OVERLAP_RUNS = {"utf16": (b"\xff\x7f", 2 + 2 * 0x7FFF), "utf8": (b"\xdf\xbe", 4 + 0x5FBE)}


@pytest.mark.parametrize("encoding", ["utf16", "utf8"])
def test_overlapping_pool_strings_fail_in_bounded_memory(encoding, tmp_path):
    # 200 strings start 2 bytes apart in one run, so each decodes to tens of
    # KB from 26 bytes of input (an offset, an attribute and 2 bytes of run).
    # Decoded one by one, they held 13.2 MB (UTF-16) for a 71 KB input.
    unit, span = OVERLAP_RUNS[encoding]
    name = utf16_string("m") if encoding == "utf16" else b"\x01\x01m\x00"
    offsets = [0] + [len(name) + 2 * i for i in range(200)]
    data = raw_axml(
        offsets, name + unit * ((span + 2 * 200) // 2 + 1),
        [(0xFFFFFFFF, 0, 1 + i) for i in range(200)], utf8=encoding == "utf8",
    )
    with pytest.raises(OversizedStrings, match="overlaps others"):
        parse_axml(data)
    assert peak_bytes_of(lambda: pytest.raises(OversizedStrings, parse_axml, data)) < 1_000_000
    path = tmp_path / "bomb.bin"
    path.write_bytes(data)
    assert main(["extract", "--kind", "manifest", str(path)]) == 3


def test_long_namespace_keys_fail_in_bounded_memory():
    # 200 attributes under one 32,767-character namespace: each key repeats
    # it, which held 6.6 MB for a 73 KB input.
    strings = ["manifest", "x" * 0x7FFF] + [f"a{i}" for i in range(200)]
    offsets, blob = [], b""
    for s in strings:
        offsets.append(len(blob))
        blob += utf16_string(s)
    data = raw_axml(offsets, blob, [(1, 2 + i, 2 + i) for i in range(200)])
    with pytest.raises(OversizedStrings, match="characters per input byte"):
        parse_axml(data)
    assert peak_bytes_of(lambda: pytest.raises(OversizedStrings, parse_axml, data)) < 2_000_000


def test_pool_indices_may_share_one_string():
    # Indices that point at one offset decode it once and count its bytes once.
    name, value = utf16_string("manifest"), utf16_string("v" * 1000)
    offsets = [0] + [len(name)] * 40 + [len(name) + len(value) + 10 * i for i in range(40)]
    names = b"".join(utf16_string(f"a{i:02d}") for i in range(40))
    root = parse_axml(raw_axml(offsets, name + value + names,
                               [(0xFFFFFFFF, 41 + i, 1 + i) for i in range(40)]))
    assert root.attrib == {f"a{i:02d}": "v" * 1000 for i in range(40)}


def test_is_axml_sniffing():
    assert is_axml(build_axml(("m", [], [])))
    assert not is_axml(b"<manifest/>")
    assert not is_axml(b"")


# --- randomized round trips ---

_name_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=12,
)
_value_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFFF),
    max_size=16,
)
_attr_st = st.tuples(st.sampled_from(["", ANDROID_URI]), _name_st, _value_st)
_leaf_st = st.tuples(_name_st, st.lists(_attr_st, max_size=3), st.just([]))
_tree_st = st.recursive(
    _leaf_st,
    lambda children: st.tuples(_name_st, st.lists(_attr_st, max_size=3), st.lists(children, max_size=3)),
    max_leaves=10,
)


@given(tree=_tree_st, utf8=st.booleans())
def test_round_trip_random_trees(tree, utf8):
    assert parse_axml(build_axml(tree, utf8=utf8)) == to_document(tree)


def random_tree(rng: random.Random, depth: int = 0):
    name = rng.choice(["manifest", "uses-permission", "application", "activity", "meta-data"])
    attrs = [
        (
            rng.choice(["", ANDROID_URI]),
            rng.choice(["name", "label", "value", "exported"]),
            "".join(rng.choice("abcdefghij.XYZ_-0123456789") for _ in range(rng.randint(0, 14))),
        )
        for _ in range(rng.randint(0, 3))
    ]
    children = []
    if depth < 3:
        children = [random_tree(rng, depth + 1) for _ in range(rng.randint(0, 3 - depth))]
    return (name, attrs, children)


def test_round_trip_seeded_corpus():
    rng = random.Random(1234)
    for i in range(100):
        tree = random_tree(rng)
        utf8 = i % 2 == 0
        assert parse_axml(build_axml(tree, utf8=utf8)) == to_document(tree)


def test_fuzz_smoke_only_declared_errors():
    rng = random.Random(99)
    base = build_axml(permissions_manifest(["android.permission.INTERNET"]))
    for _ in range(2000):
        choice = rng.random()
        if choice < 0.4:
            data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 120)))
        elif choice < 0.7:
            data = base[: rng.randint(0, len(base))]
        else:
            data = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                data[rng.randrange(len(data))] = rng.getrandbits(8)
            data = bytes(data)
        try:
            parse_axml(data)
        except ParseError:
            pass
