"""Permission extraction from Android manifests in any supported form.

Three ingestion forms are accepted: a full APK (ZIP wrapping a binary
manifest), a standalone manifest file (binary or plaintext XML, told
apart by magic bytes), and a plain permission-list text file with one
permission per line.
"""

from __future__ import annotations

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
    surrounding whitespace stripped.  A name that a one-per-line file could
    not hold is skipped: a blank one, one starting with #, and one holding
    a line break as str.splitlines counts them (\\n, \\r, U+2028 ...).  So
    every kept name survives a permission-list or vocabulary file.
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


def parse_permission_list(text: str, app_id: str) -> PermissionSet:
    """One permission per line; blank lines and # comments ignored."""
    names = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        names.add(line)
    return PermissionSet(app_id, frozenset(names))


def read_text(path) -> str:
    """A UTF-8 text file's contents, without a leading BOM."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 text: {exc}") from exc


def write_permission_list(perms: PermissionSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(perms.permissions):
            fh.write(name + "\n")


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
        return parse_permission_list(read_text(path), str(path))
    else:
        raise ValueError(f"unknown source kind {kind!r}, expected one of {list(KINDS)}")
    return extract_permissions(parse_manifest_bytes(data), str(path))


def sniff_kind(path) -> str:
    """Guess apk vs. manifest from leading magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return "apk" if head[:2] == b"PK" else "manifest"
