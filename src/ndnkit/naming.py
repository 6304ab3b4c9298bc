"""Hierarchical content names.

A name is an ordered list of opaque byte components, written in text form as
"/"-separated segments, e.g. /snnu/images/a.jpg/v1/s1.  Prefix relations over
names drive both PIT/FIB lookups and trust-anchor selection, so every CS, PIT
and FIB step hashes or compares a name.  Name is therefore a tuple of its
components: hashing and equality run in C, and a Name equals, and hashes
like, the plain tuple of the same components.
"""

from __future__ import annotations

from typing import Iterable, Optional


class MalformedName(ValueError):
    """Raised for text forms that do not parse to a valid name."""


# characters kept literal in the text form: printable ASCII minus "/" and "%"
_LITERAL = frozenset(
    b for b in range(0x20, 0x7F) if b not in (0x2F, 0x25)
)

_LITERAL_BYTES = bytes(sorted(_LITERAL))

_HEX = "0123456789ABCDEF"


class Name(tuple):
    """Immutable sequence of byte components.  The root name has none.

    A Name is the tuple of its components, so Name((b"a",)) == (b"a",) and
    both hash alike; construction still rejects non-bytes and empty
    components.
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[bytes] = ()) -> "Name":
        self = super().__new__(cls, components)
        for c in self:
            if not isinstance(c, bytes):
                raise TypeError("name components must be bytes")
            if c == b"":
                raise MalformedName("empty name component")
        return self

    @property
    def components(self) -> tuple[bytes, ...]:
        return self

    def child(self, component: bytes) -> "Name":
        return Name(self + (component,))

    def prefix(self, length: int) -> "Name":
        return Name(self[:length])

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Name({to_text(self)!r})"


def _escape_component(comp: bytes) -> str:
    if not comp.translate(None, _LITERAL_BYTES):  # every byte is literal
        return comp.decode("ascii")
    out = []
    for b in comp:
        if b in _LITERAL:
            out.append(chr(b))
        else:
            out.append("%" + _HEX[b >> 4] + _HEX[b & 15])
    return "".join(out)


def _unescape_component(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            if i + 3 > len(text):
                raise MalformedName(f"dangling percent-escape in {text!r}")
            hi, lo = text[i + 1], text[i + 2]
            if hi not in "0123456789abcdefABCDEF" or lo not in "0123456789abcdefABCDEF":
                raise MalformedName(f"bad percent-escape in {text!r}")
            out.append(int(hi + lo, 16))
            i += 3
        else:
            code = ord(ch)
            if code < 0x20 or code > 0x7E or ch == "/":
                raise MalformedName(f"unescaped byte {code:#x} in component {text!r}")
            out.append(code)
            i += 1
    return bytes(out)


def parse_name(text: str) -> Name:
    """Parse the canonical text form.  "/" alone is the root name."""
    if not isinstance(text, str):
        raise MalformedName("name text must be str")
    if not text.startswith("/"):
        raise MalformedName(f"name must start with '/': {text!r}")
    if text == "/":
        return Name(())
    parts = text[1:].split("/")
    comps = []
    for part in parts:
        if part == "":
            raise MalformedName(f"empty component in {text!r}")
        comps.append(_unescape_component(part))
    return Name(tuple(comps))


def to_text(name: Name) -> str:
    if not name:
        return "/"
    return "/" + "/".join(map(_escape_component, name))


def is_prefix(prefix: Name, name: Name) -> bool:
    """True when every component of prefix matches the head of name."""
    return name[: len(prefix)] == prefix


def longest_prefix_match(candidates: Iterable[Name], name: Name) -> Optional[Name]:
    """The longest candidate that is a prefix of name, or None.

    The root name, if present among the candidates, matches everything and
    acts as a default route.
    """
    best: Optional[Name] = None
    for cand in candidates:
        if is_prefix(cand, name):
            if best is None or len(cand) > len(best):
                best = cand
    return best
