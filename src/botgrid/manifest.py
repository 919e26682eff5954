"""Permission extraction from Android manifests in any supported form.

Three ingestion forms are accepted: a full APK (ZIP wrapping a binary
manifest), a standalone manifest file (binary or plaintext XML, told
apart by magic bytes), and a plain permission-list text file with one
permission per line.

This module owns that one-name-per-line format: `read_names` and
`write_names` are its only reader and writer, for permission lists,
vocabulary files and synthetic corpora alike.
"""

from __future__ import annotations

import codecs
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from . import axml
from .apk import MANIFEST_ENTRY, open_apk
from .errors import MalformedXml, NotAZip, NotUtf8

ANDROID_NS = "http://schemas.android.com/apk/res/android"
PERMISSION_ELEMENTS = ("uses-permission", "uses-permission-sdk-23")
KINDS = ("apk", "manifest", "permlist")  # the declared source kinds


@dataclass(frozen=True)
class PermissionSet:
    """Canonical permissions requested by one application."""

    app_id: str
    permissions: frozenset[str]

    def __contains__(self, permission: str) -> bool:
        return permission in self.permissions


def parse_plain_manifest(text: str) -> ET.Element:
    """Parse a decompiled/plaintext manifest; returns the root element."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc


def extract_permissions(root: ET.Element, app_id: str) -> PermissionSet:
    """Collect requested permission names from a parsed manifest.

    Elements match by local name, whatever their namespace.  The name is
    android:name, or a bare name only when android:name is absent, with
    surrounding whitespace stripped.  A name that `read_names` would not
    give back alone is skipped: a blank one, one starting with #, and one
    holding a line break as str.splitlines counts them (\\n, \\r, U+2028
    ...).  So every kept name survives a permission-list or vocabulary file.
    """
    names: set[str] = set()
    for element in root.iter():
        tag = element.tag
        if tag[:1] == "{":  # ElementTree spells namespaced names {uri}local
            tag = tag.partition("}")[2]
        if tag not in PERMISSION_ELEMENTS:
            continue
        value = element.get(f"{{{ANDROID_NS}}}name")
        if value is None:
            value = element.get("name")
        if value is None:
            continue
        value = value.strip()
        if value and not value.startswith("#") and value.splitlines() == [value]:
            names.add(value)
    return PermissionSet(app_id, frozenset(names))


def read_text(path) -> str:
    """A UTF-8 text file's contents, without a leading BOM."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 text: {exc}") from exc


def read_names(text: str) -> list[str]:
    """The names of a one-name-per-line file, in file order: each line
    stripped, blank lines and # comments skipped."""
    return [name for line in text.splitlines() if (name := line.strip()) and name[0] != "#"]


def write_names(names, path) -> None:
    """One name and a newline per line, UTF-8; `read_names` reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(name + "\n" for name in names)


def parse_manifest_bytes(data: bytes) -> ET.Element:
    """Standalone manifest file, binary or plaintext by magic bytes."""
    if axml.is_axml(data):
        return axml.parse_axml(data)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedXml(f"manifest is neither AXML nor UTF-8 XML: {exc}") from exc
    return parse_plain_manifest(text)


def read_permissions(path, kind: str) -> PermissionSet:
    """Read one sample of a declared source kind: apk, manifest, or permlist."""
    if kind == "apk":
        archive = open_apk(path)
        if MANIFEST_ENTRY not in archive:
            raise NotAZip(f"{path}: archive has no {MANIFEST_ENTRY} entry")
        data = archive.read(MANIFEST_ENTRY)
    elif kind == "manifest":
        with open(path, "rb") as fh:
            data = fh.read()
    elif kind == "permlist":
        return PermissionSet(str(path), frozenset(read_names(read_text(path))))
    else:
        raise ValueError(f"unknown source kind {kind!r}, expected one of {list(KINDS)}")
    return extract_permissions(parse_manifest_bytes(data), str(path))


def sniff_kind(path) -> str:
    """Guess a sample's kind from its first 4 KiB.  A ZIP's PK is an apk.
    The AXML magic is a manifest, and so is a text whose first character
    after an optional UTF-8 BOM and whitespace is <.  Anything else is a
    permission list, an empty file (an app with no permissions) included."""
    with open(path, "rb") as fh:
        head = fh.read(4096)
    if head[:2] == b"PK":
        return "apk"
    if axml.is_axml(head) or head.removeprefix(codecs.BOM_UTF8).lstrip()[:1] == b"<":
        return "manifest"
    return "permlist"
