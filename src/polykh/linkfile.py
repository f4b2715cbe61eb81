"""Plain-text serialization of polygonal links.

Format: ``#`` starts a comment; each component is a single line

    component x1 y1 z1  x2 y2 z2  ...

with coordinates written as integers or ``a/b`` fractions.
"""

from __future__ import annotations

import importlib.resources
import re
from fractions import Fraction
from pathlib import Path

from .geometry import PolygonalLink, validate_link, GeometryError


class LinkFileError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(token: str) -> Fraction:
    """An integer or ``a/b``, the one number form of the link and diagram
    files and of ``--dir``.  Anything else raises LinkFileError before
    ``Fraction`` sees it, which would also read decimals, ``nan`` and
    exponents such as ``1e100000000``, a power of ten with a hundred
    million digits."""
    if _RATIONAL.fullmatch(token):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):     # b = 0, or too many digits
            pass
    raise LinkFileError(
        f"bad rational {token!r}: expected an integer or a/b with b > 0")


def parse_integer(token: str) -> int:
    """A decimal integer with an optional sign; anything else raises
    LinkFileError, where ``int`` would also read spaces, underscores and
    non-ASCII digits, or fail with a bare ValueError."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:          # more digits than int() converts
            pass
    raise LinkFileError(f"bad integer {token!r}")


def parse_link(text: str) -> PolygonalLink:
    comps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "component":
            raise LinkFileError(f"line {lineno}: expected 'component', got {fields[0]!r}")
        nums = fields[1:]
        if len(nums) % 3 != 0:
            raise LinkFileError(f"line {lineno}: coordinate count not a multiple of 3")
        try:
            vals = [parse_rational(tok) for tok in nums]
        except LinkFileError as exc:
            raise LinkFileError(f"line {lineno}: {exc}") from None
        comps.append(tuple(tuple(vals[i:i + 3]) for i in range(0, len(vals), 3)))
    if not comps:
        raise LinkFileError("no components in file")
    return PolygonalLink(tuple(comps))


def load_link(path) -> PolygonalLink:
    """Parse and validate a link file; raises on any invariant violation."""
    link = parse_link(Path(path).read_text())
    problems = validate_link(link)
    if problems:
        raise GeometryError("; ".join(str(p) for p in problems))
    return link


def dump_link(link: PolygonalLink) -> str:
    lines = ["component " + " ".join(str(c) for p in comp for c in p)
             for comp in link.components]
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path to a bundled example link (``name`` with or without ``.link``)."""
    if not name.endswith(".link"):
        name += ".link"
    return Path(importlib.resources.files("polykh").joinpath("data", name))


def load_fixture(name: str) -> PolygonalLink:
    return load_link(fixture_path(name))
