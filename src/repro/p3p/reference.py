"""P3P reference files (Section 2.3 of the paper).

A site's reference file maps portions of its URI space to privacy policies:
a META element contains POLICY-REF elements, each naming a policy (the
``about`` attribute) and carrying INCLUDE/EXCLUDE (and COOKIE-INCLUDE/
COOKIE-EXCLUDE) URI patterns.  ``*`` in a pattern matches any sequence of
characters, per the P3P 1.0 Recommendation.

:func:`ReferenceFile.applicable_policy` implements the lookup step that
precedes preference matching: "Once a specific policy for a requested URI
has been located using the reference file, the APPEL preferences can be
matched against the selected P3P policy".
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import lru_cache

from repro import xmlutil
from repro.errors import ReferenceFileError


@lru_cache(maxsize=1024)
def pattern_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a P3P URI pattern (``*`` wildcards) to a regex, once per
    pattern.

    ``*`` matches any characters, newlines included, as it does in the
    database's ``GLOB`` lookup; match with ``fullmatch`` so that nothing,
    not even a trailing newline, follows the pattern's last character.
    """
    parts = [re.escape(chunk) for chunk in pattern.split("*")]
    return re.compile(".*".join(parts), re.DOTALL)


def uri_matches(pattern: str, uri: str) -> bool:
    """True if *uri* matches the P3P wildcard *pattern*."""
    return pattern_to_regex(pattern).fullmatch(uri) is not None


@dataclass(frozen=True)
class PolicyRef:
    """One POLICY-REF element."""

    about: str  # policy URI, usually "policy.xml#name" or "#name"
    includes: tuple[str, ...] = ()
    excludes: tuple[str, ...] = ()
    cookie_includes: tuple[str, ...] = ()
    cookie_excludes: tuple[str, ...] = ()

    @property
    def policy_name(self) -> str:
        """The fragment part of ``about`` (the policy's name attribute)."""
        if "#" in self.about:
            return self.about.rsplit("#", 1)[1]
        return self.about

    def covers(self, uri: str) -> bool:
        """True if this reference covers *uri* (INCLUDE minus EXCLUDE)."""
        if not any(uri_matches(p, uri) for p in self.includes):
            return False
        return not any(uri_matches(p, uri) for p in self.excludes)

    def covers_cookie(self, uri: str) -> bool:
        """True if this reference covers a cookie set from *uri*."""
        if not any(uri_matches(p, uri) for p in self.cookie_includes):
            return False
        return not any(uri_matches(p, uri) for p in self.cookie_excludes)


@dataclass(frozen=True)
class ReferenceFile:
    """A parsed reference file (one META element)."""

    refs: tuple[PolicyRef, ...] = ()
    expiry: str | None = None

    def applicable_policy(self, uri: str) -> PolicyRef | None:
        """The first POLICY-REF (document order) covering *uri*, or None."""
        for ref in self.refs:
            if ref.covers(uri):
                return ref
        return None

    def applicable_cookie_policy(self, uri: str) -> PolicyRef | None:
        """The first POLICY-REF covering cookies set from *uri*, or None."""
        for ref in self.refs:
            if ref.covers_cookie(uri):
                return ref
        return None


def parse_reference_file(source: str | ET.Element) -> ReferenceFile:
    """Parse a reference file from XML text or an element tree."""
    if isinstance(source, ET.Element):
        root = source
    else:
        try:
            root = xmlutil.parse_string(source)
        except ET.ParseError as exc:
            raise ReferenceFileError(
                f"malformed reference file XML: {exc}"
            ) from exc

    meta = xmlutil.first_by_local_name(root, "META")
    if meta is None:
        raise ReferenceFileError("document contains no META element")

    refs: list[PolicyRef] = []
    expiry: str | None = None

    references = xmlutil.first_by_local_name(meta, "POLICY-REFERENCES")
    container = references if references is not None else meta
    expiry_el = xmlutil.first_by_local_name(container, "EXPIRY")
    if expiry_el is not None:
        expiry = xmlutil.local_attrib(expiry_el).get("max-age")

    for ref_el in _descendants(container, "POLICY-REF"):
        attrib = xmlutil.local_attrib(ref_el)
        about = attrib.get("about")
        if about is None:
            raise ReferenceFileError("POLICY-REF lacks about attribute")
        refs.append(
            PolicyRef(
                about=about,
                includes=_texts(ref_el, "INCLUDE"),
                excludes=_texts(ref_el, "EXCLUDE"),
                cookie_includes=_texts(ref_el, "COOKIE-INCLUDE"),
                cookie_excludes=_texts(ref_el, "COOKIE-EXCLUDE"),
            )
        )
    return ReferenceFile(refs=tuple(refs), expiry=expiry)


def serialize_reference_file(reference: ReferenceFile,
                             indent: bool = True) -> str:
    """Serialize *reference* back to META XML."""
    meta = ET.Element("META")
    container = ET.SubElement(meta, "POLICY-REFERENCES")
    if reference.expiry is not None:
        ET.SubElement(container, "EXPIRY", {"max-age": reference.expiry})
    for ref in reference.refs:
        ref_el = ET.SubElement(container, "POLICY-REF", {"about": ref.about})
        for tag, patterns in (
            ("INCLUDE", ref.includes),
            ("EXCLUDE", ref.excludes),
            ("COOKIE-INCLUDE", ref.cookie_includes),
            ("COOKIE-EXCLUDE", ref.cookie_excludes),
        ):
            for pattern in patterns:
                element = ET.SubElement(ref_el, tag)
                element.text = pattern
    return xmlutil.to_string(meta, indent)


def _descendants(root: ET.Element, name: str) -> list[ET.Element]:
    found: list[ET.Element] = []

    def visit(element: ET.Element) -> None:
        if xmlutil.local_name(element.tag) == name:
            found.append(element)
            return
        for child in element:
            visit(child)

    visit(root)
    return found


def _texts(element: ET.Element, name: str) -> tuple[str, ...]:
    values: list[str] = []
    for child in xmlutil.find_children(element, name):
        values.append(xmlutil.element_text(child))
    return tuple(values)
