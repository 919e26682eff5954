import random

import pytest
from hypothesis import given, strategies as st

from botgrid.dataset import ManifestRecord, extract_corpus
from botgrid.errors import MalformedXml
from botgrid.manifest import (
    ANDROID_NS,
    extract_permissions,
    parse_manifest_bytes,
    parse_plain_manifest,
    read_names,
    read_permissions,
    sniff_kind,
    write_names,
)
from botgrid.axml import parse_axml

from axml_writer import ANDROID_URI, build_axml, permissions_manifest
from test_axml import random_tree
from zip_writer import build_zip

PLAIN = """<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example.app">
  <uses-permission android:name="android.permission.INTERNET"/>
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <application android:label="demo"/>
</manifest>
"""


def test_empty_manifest():
    root = parse_plain_manifest("<manifest/>")
    assert root.tag == "manifest"
    assert len(root) == 0


def test_parser_preserves_duplicates():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        "</manifest>"
    )
    root = parse_plain_manifest(text)
    assert len(root) == 2  # dedup happens in extraction, not parsing


def test_sdk23_element_name_passthrough():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission-sdk-23 android:name="android.permission.CAMERA"/>'
        "</manifest>"
    )
    root = parse_plain_manifest(text)
    assert root[0].tag == "uses-permission-sdk-23"
    perms = extract_permissions(root, "x")
    assert perms.permissions == frozenset({"android.permission.CAMERA"})


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        parse_plain_manifest("<manifest><unclosed></manifest>")


def test_extract_two_permissions():
    perms = extract_permissions(parse_plain_manifest(PLAIN), "app")
    assert perms.permissions == frozenset(
        {"android.permission.INTERNET", "android.permission.SEND_SMS"}
    )
    assert perms.app_id == "app"


def test_extract_collapses_duplicates():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        '<uses-permission android:name=" android.permission.INTERNET "/>'
        "</manifest>"
    )
    perms = extract_permissions(parse_plain_manifest(text), "x")
    assert perms.permissions == frozenset({"android.permission.INTERNET"})


def test_extract_empty_manifest():
    assert extract_permissions(parse_plain_manifest("<manifest/>"), "x").permissions == frozenset()


def test_blank_names_skipped_and_tallied():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="  "/>'
        "<uses-permission/>"
        '<uses-permission android:name="android.permission.NFC"/>'
        "</manifest>"
    )
    perms = extract_permissions(parse_plain_manifest(text), "x")
    assert perms.permissions == frozenset({"android.permission.NFC"})


def test_names_a_line_file_cannot_hold_are_skipped():
    # &#10; survives attribute normalization as a line feed; U+2028 is a
    # line break to str.splitlines; AXML strings hold any character.
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="#evil"/>'
        '<uses-permission android:name="a&#10;b"/>'
        '<uses-permission android:name="c\u2028d"/>'
        '<uses-permission android:name=" android.permission.NFC&#10;"/>'
        "</manifest>"
    )
    perms = extract_permissions(parse_plain_manifest(text), "x")
    assert perms.permissions == frozenset({"android.permission.NFC"})
    tree = permissions_manifest(["# comment", "e\rf", "g\x85h", "android.permission.NFC"])
    perms = extract_permissions(parse_axml(build_axml(tree)), "x")
    assert perms.permissions == frozenset({"android.permission.NFC"})


def deep_manifest(depth: int) -> str:
    """A well-formed plaintext manifest whose one permission sits depth
    elements below the root."""
    return (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        + "<a>" * depth
        + '<uses-permission android:name="android.permission.DEEP"/>'
        + "</a>" * depth
        + "</manifest>"
    )


def test_deeply_nested_manifest_is_read(tmp_path):
    deep = tmp_path / "deep.xml"
    deep.write_text(deep_manifest(5000))
    good = tmp_path / "good.xml"
    good.write_text(PLAIN)
    assert read_permissions(deep, "manifest").permissions == {"android.permission.DEEP"}
    corpus = extract_corpus([
        ManifestRecord(str(deep), "botnet", "manifest"),
        ManifestRecord(str(good), "benign", "manifest"),
    ])
    assert corpus.failures == []
    assert [len(ps.permissions) for ps in corpus.perm_sets] == [1, 2]


def _expected_permissions(tree) -> set[str]:
    """The documented extraction rules, applied to a tuple tree: the
    uses-permission and uses-permission-sdk-23 elements at any depth, named
    by their first android:name, else by their first bare name, stripped,
    with blank names, names starting with # and names holding a line break
    skipped."""
    name, attrs, children = tree
    found = set()
    if name in ("uses-permission", "uses-permission-sdk-23"):
        values = [v for ns, an, v in attrs if (ns, an) == (ANDROID_URI, "name")]
        values = values or [v for ns, an, v in attrs if (ns, an) == ("", "name")]
        value = values[0].strip() if values else ""
        if value and not value.startswith("#") and len(value.splitlines()) == 1:
            found.add(value)
    for child in children:
        found |= _expected_permissions(child)
    return found


def _with_sdk23(tree):
    name, attrs, children = tree
    name = "uses-permission-sdk-23" if name == "meta-data" else name
    return (name, attrs, [_with_sdk23(c) for c in children])


def test_extraction_follows_the_documented_rules():
    rng = random.Random(2024)
    found = 0
    for _ in range(500):
        tree = _with_sdk23(random_tree(rng))
        expected = _expected_permissions(tree)
        for utf8 in (False, True):
            root = parse_axml(build_axml(tree, utf8=utf8))
            assert extract_permissions(root, "x").permissions == expected
        found += len(expected)
    assert found > 0


def test_custom_permission_names_kept_verbatim():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="com.vendor.sdk.READ_THINGS"/>'
        "</manifest>"
    )
    perms = extract_permissions(parse_plain_manifest(text), "x")
    assert perms.permissions == frozenset({"com.vendor.sdk.READ_THINGS"})


def test_axml_and_plaintext_extract_identically():
    names = ["android.permission.INTERNET", "android.permission.READ_PHONE_STATE"]
    axml_doc = parse_axml(build_axml(permissions_manifest(names)))
    plain = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        + "".join(f'<uses-permission android:name="{n}"/>' for n in names)
        + "</manifest>"
    )
    plain_doc = parse_plain_manifest(plain)
    assert (
        extract_permissions(axml_doc, "a").permissions
        == extract_permissions(plain_doc, "a").permissions
    )


@given(st.lists(st.sampled_from([
    "android.permission.INTERNET",
    "android.permission.SEND_SMS",
    "android.permission.CAMERA",
    "android.permission.READ_SMS",
]), max_size=4))
def test_extraction_order_insensitive(names):
    docs = [
        permissions_manifest(names),
        permissions_manifest(list(reversed(names))),
    ]
    results = {
        extract_permissions(parse_axml(build_axml(d)), "x").permissions for d in docs
    }
    assert len(results) == 1


def test_permission_list_parsing(tmp_path):
    text = "# corpus sample\nandroid.permission.INTERNET\n\n  android.permission.NFC \nandroid.permission.INTERNET\n"
    assert read_names(text) == [
        "android.permission.INTERNET", "android.permission.NFC", "android.permission.INTERNET"
    ]
    path = tmp_path / "perms.txt"
    path.write_text(text)
    assert read_permissions(path, "permlist").permissions == frozenset(
        {"android.permission.INTERNET", "android.permission.NFC"}
    )


def test_permission_list_round_trip(tmp_path):
    out = tmp_path / "perms.txt"
    write_names(["b.perm", "a.perm"], out)
    assert out.read_bytes() == b"b.perm\na.perm\n"
    assert read_names(out.read_text()) == ["b.perm", "a.perm"]
    assert read_permissions(out, "permlist").permissions == {"a.perm", "b.perm"}


def test_permission_list_with_bom(tmp_path):
    path = tmp_path / "perms.txt"
    path.write_bytes("android.permission.INTERNET\nandroid.permission.NFC\n".encode("utf-8-sig"))
    assert read_permissions(path, "permlist").permissions == {
        "android.permission.INTERNET",
        "android.permission.NFC",
    }


def test_read_permissions_dispatch(tmp_path):
    axml_blob = build_axml(permissions_manifest(["android.permission.INTERNET"]))
    apk = tmp_path / "app.apk"
    apk.write_bytes(build_zip([("AndroidManifest.xml", axml_blob, 8)]))
    man_bin = tmp_path / "AndroidManifest.xml"
    man_bin.write_bytes(axml_blob)
    man_plain = tmp_path / "manifest.xml"
    man_plain.write_text(PLAIN)
    man_bom = tmp_path / "bom.xml"
    man_bom.write_bytes(" \r\n\t".encode("utf-8-sig") + PLAIN.encode())
    perm_list = tmp_path / "perms.txt"
    perm_list.write_text("android.permission.INTERNET\nandroid.permission.NFC\n")
    no_perms = tmp_path / "none.txt"
    no_perms.write_bytes(b"")

    assert read_permissions(apk, "apk").permissions == {"android.permission.INTERNET"}
    assert read_permissions(man_bin, "manifest").permissions == {"android.permission.INTERNET"}
    assert read_permissions(man_plain, "manifest").permissions == {
        "android.permission.INTERNET",
        "android.permission.SEND_SMS",
    }
    assert sniff_kind(apk) == "apk"
    assert sniff_kind(man_bin) == "manifest"
    assert sniff_kind(man_plain) == "manifest"
    assert sniff_kind(man_bom) == "manifest"
    assert sniff_kind(perm_list) == "permlist"
    assert sniff_kind(no_perms) == "permlist"

    with pytest.raises(ValueError):
        read_permissions(man_plain, "dex")


def test_manifest_bytes_sniffs_binary_vs_text():
    axml_blob = build_axml(permissions_manifest(["p.x"]))
    assert parse_manifest_bytes(axml_blob).tag == "manifest"
    assert parse_manifest_bytes(PLAIN.encode()).tag == "manifest"
    assert parse_manifest_bytes("<manifest/>".encode("utf-8-sig")).tag == "manifest"


def test_android_namespace_required_for_name():
    # A bare name attribute still counts when no android:name exists,
    # but the namespaced one wins when both are present.
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission name="bare.permission.FIRST"/>'
        '<uses-permission android:name="ns.permission.SECOND" name="ignored.one"/>'
        "</manifest>"
    )
    perms = extract_permissions(parse_plain_manifest(text), "x")
    assert perms.permissions == frozenset({"bare.permission.FIRST", "ns.permission.SECOND"})
    assert ANDROID_NS == "http://schemas.android.com/apk/res/android"
