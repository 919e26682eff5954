"""Namespace-aware element tree shared by the binary and plaintext parsers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

ANDROID_NS = "http://schemas.android.com/apk/res/android"


@dataclass(frozen=True)
class XmlAttribute:
    namespace: str
    name: str
    value: str


@dataclass
class XmlElement:
    name: str
    attributes: list[XmlAttribute] = field(default_factory=list)
    children: list["XmlElement"] = field(default_factory=list)

    def attribute(self, name: str, namespace: str | None = None) -> str | None:
        """First matching attribute value; namespace=None matches any."""
        for attr in self.attributes:
            if attr.name == name and (namespace is None or attr.namespace == namespace):
                return attr.value
        return None

    def iter(self) -> Iterator["XmlElement"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class ManifestDocument:
    root: XmlElement
