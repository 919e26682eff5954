import pytest
from hypothesis import given, strategies as st

from botgrid.errors import MalformedXml
from botgrid.manifest import (
    ExtractionStats,
    extract_permissions,
    parse_manifest_bytes,
    parse_permission_list,
    parse_plain_manifest,
    read_permissions,
    sniff_kind,
    write_permission_list,
)
from botgrid.axml import parse_axml
from botgrid.xmldoc import ANDROID_NS

from axml_writer import build_axml, permissions_manifest
from zip_writer import build_zip

PLAIN = """<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example.app">
  <uses-permission android:name="android.permission.INTERNET"/>
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <application android:label="demo"/>
</manifest>
"""


def test_empty_manifest():
    doc = parse_plain_manifest("<manifest/>")
    assert doc.root.name == "manifest"
    assert doc.root.children == []


def test_parser_preserves_duplicates():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        '<uses-permission android:name="android.permission.INTERNET"/>'
        "</manifest>"
    )
    doc = parse_plain_manifest(text)
    assert len(doc.root.children) == 2  # dedup happens in extraction, not parsing


def test_sdk23_element_name_passthrough():
    text = (
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">'
        '<uses-permission-sdk-23 android:name="android.permission.CAMERA"/>'
        "</manifest>"
    )
    doc = parse_plain_manifest(text)
    assert doc.root.children[0].name == "uses-permission-sdk-23"
    perms = extract_permissions(doc, "x")
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
    stats = ExtractionStats()
    perms = extract_permissions(parse_plain_manifest(text), "x", stats)
    assert perms.permissions == frozenset({"android.permission.NFC"})
    assert stats.elements_seen == 3
    assert stats.skipped_blank == 2


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


def test_permission_list_parsing():
    text = "# corpus sample\nandroid.permission.INTERNET\n\nandroid.permission.NFC\nandroid.permission.INTERNET\n"
    perms = parse_permission_list(text, "sample")
    assert perms.permissions == frozenset(
        {"android.permission.INTERNET", "android.permission.NFC"}
    )


def test_permission_list_round_trip(tmp_path):
    perms = parse_permission_list("b.perm\na.perm\n", "x")
    out = tmp_path / "perms.txt"
    write_permission_list(perms, out)
    assert out.read_text() == "a.perm\nb.perm\n"
    again = read_permissions(out, "permlist")
    assert again.permissions == perms.permissions


def test_read_permissions_dispatch(tmp_path):
    axml_blob = build_axml(permissions_manifest(["android.permission.INTERNET"]))
    apk = tmp_path / "app.apk"
    apk.write_bytes(build_zip([("AndroidManifest.xml", axml_blob, 8)]))
    man_bin = tmp_path / "AndroidManifest.xml"
    man_bin.write_bytes(axml_blob)
    man_plain = tmp_path / "manifest.xml"
    man_plain.write_text(PLAIN)

    assert read_permissions(apk, "apk").permissions == {"android.permission.INTERNET"}
    assert read_permissions(man_bin, "manifest").permissions == {"android.permission.INTERNET"}
    assert read_permissions(man_plain, "manifest").permissions == {
        "android.permission.INTERNET",
        "android.permission.SEND_SMS",
    }
    assert sniff_kind(apk) == "apk"
    assert sniff_kind(man_bin) == "manifest"
    assert sniff_kind(man_plain) == "manifest"

    with pytest.raises(ValueError):
        read_permissions(man_plain, "dex")


def test_manifest_bytes_sniffs_binary_vs_text():
    axml_blob = build_axml(permissions_manifest(["p.x"]))
    assert parse_manifest_bytes(axml_blob).root.name == "manifest"
    assert parse_manifest_bytes(PLAIN.encode()).root.name == "manifest"
    assert parse_manifest_bytes("<manifest/>".encode("utf-8-sig")).root.name == "manifest"


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
