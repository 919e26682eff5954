import random

import pytest
from hypothesis import given, strategies as st

from botgrid.axml import is_axml, parse_axml
from botgrid.errors import (
    BadMagic,
    BadStringIndex,
    ParseError,
    TruncatedChunk,
    UnbalancedElements,
)
from botgrid.xmldoc import ANDROID_NS, ManifestDocument, XmlAttribute, XmlElement

from axml_writer import ANDROID_URI, build_axml, permissions_manifest


def to_document(tree) -> ManifestDocument:
    def convert(node):
        name, attrs, children = node
        return XmlElement(
            name,
            [XmlAttribute(ns, an, av) for ns, an, av in attrs],
            [convert(c) for c in children],
        )

    return ManifestDocument(convert(tree))


def test_internet_permission_manifest():
    tree = permissions_manifest(["android.permission.INTERNET"])
    doc = parse_axml(build_axml(tree))
    assert doc.root.name == "manifest"
    assert len(doc.root.children) == 1
    child = doc.root.children[0]
    assert child.name == "uses-permission"
    assert child.attribute("name", ANDROID_NS) == "android.permission.INTERNET"


def test_utf8_pool_gives_identical_tree():
    tree = permissions_manifest(
        ["android.permission.INTERNET", "android.permission.SEND_SMS"]
    )
    utf16_doc = parse_axml(build_axml(tree, utf8=False))
    utf8_doc = parse_axml(build_axml(tree, utf8=True))
    assert utf16_doc == utf8_doc == to_document(tree)


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
        doc = parse_axml(build_axml(tree, utf8=utf8))
        assert doc.root.attribute("label") == "приложение ☂"


def test_declared_size_beyond_buffer():
    blob = build_axml(permissions_manifest(["p"]))
    with pytest.raises(TruncatedChunk):
        parse_axml(blob[:-10])


def test_unbalanced_when_end_tag_missing():
    blob = bytearray(build_axml(("manifest", [], [])))
    # Chop the trailing end-namespace and end-element chunks, fixing up
    # the declared file size so truncation is not the failure mode.
    import struct

    struct.pack_into("<I", blob, 4, len(blob) - 48)
    with pytest.raises(UnbalancedElements):
        parse_axml(bytes(blob[:-48]))


def test_bad_string_index():
    blob = bytearray(build_axml(("manifest", [], [])))
    # Point the root element's name index far out of the pool.
    at = blob.find(b"\x02\x01\x10\x00")  # start-element chunk header
    import struct

    struct.pack_into("<I", blob, at + 20, 9999)
    with pytest.raises(BadStringIndex):
        parse_axml(bytes(blob))


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
