"""Permutations of {1..n} with the cycle calculus used throughout the cube.

Composition convention: ``compose(a, b)`` applies ``b`` first and then ``a``,
so a product written ``t * s`` acts as "do s, then t".  All formulas in the
cube module are transcribed under this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class PermError(ValueError):
    pass


class Permutation:
    """An element of S_n in one-line notation (1-based)."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise PermError(f"not a bijection on 1..{n}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        img = list(range(1, n + 1))
        img[a - 1], img[b - 1] = b, a
        return cls(img)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        img = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise PermError(f"index {x} appears in two cycles")
                seen.add(x)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                img[a - 1] = b
        return cls(img)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def cycle_containing(self, x: int) -> tuple[int, ...]:
        img = self.images
        cyc = [x]
        y = img[x - 1]
        while y != x:
            cyc.append(y)
            y = img[y - 1]
        return tuple(cyc)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated min-first, sorted by minimum.

        Fixed points are included as 1-cycles.  Each cycle is walked from
        the least index not yet seen, which is its minimum.
        """
        seen = [False] * (self.n + 1)
        out = []
        for x in range(1, self.n + 1):
            if seen[x]:
                continue
            cyc = self.cycle_containing(x)
            for y in cyc:
                seen[y] = True
            out.append(cyc)
        return out

    def nontrivial_cycles(self) -> list[tuple[int, ...]]:
        return [c for c in self.cycles() if len(c) > 1]

    def cycle_str(self) -> str:
        cycs = self.nontrivial_cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_str()}, n={self.n})"


def compose(a: Permutation, *rest: Permutation) -> Permutation:
    """Product applied right to left: compose(a, b)(x) = a(b(x))."""
    out = a
    for b in rest:
        if out.n != b.n:
            raise PermError(f"size mismatch: {out.n} vs {b.n}")
        # a list, not a generator: tuple() of a generator allocates a
        # 10-slot tuple and resizes it, the resized tuples collect in
        # CPython's tuple free lists, and peak RSS grew with each repetition
        # of the same work
        out = Permutation([out.images[y - 1] for y in b.images])
    return out


def inverse(a: Permutation) -> Permutation:
    return a.inverse()


def conjugate(a: Permutation, g: Permutation) -> Permutation:
    """g a g^-1 -- relabels a's cycle notation through g."""
    return compose(compose(g, a), g.inverse())


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle-notation text like ``(1,9,3)(4,11,7)``; fixed points implicit."""
    text = text.strip()
    if text in ("()", "", "id"):
        return Permutation.identity(n)
    if not (text.startswith("(") and text.endswith(")")):
        raise PermError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        try:
            cyc = [int(t) for t in chunk.replace(" ", "").split(",") if t]
        except ValueError as exc:
            raise PermError(f"bad cycle chunk {chunk!r}") from exc
        if any(not (1 <= x <= n) for x in cyc):
            raise PermError(f"cycle entry out of range in {chunk!r}")
        cycles.append(cyc)
    return Permutation.from_cycles(n, cycles)


@dataclass(frozen=True)
class DihedralFactor:
    """One dihedral factor of a smoothing group: the rotation generator as a cycle."""

    cycle: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.cycle)

    @property
    def group_order(self) -> int:
        """Order of the dihedral factor: 2d for d >= 3, else d (bigon: 2, point: 1)."""
        d = len(self.cycle)
        return 2 * d if d >= 3 else d

    def rotation(self, n: int) -> Permutation:
        return Permutation.from_cycles(n, [self.cycle])


def reflection_xi(factor: DihedralFactor, a: int, b: int, n: int) -> Permutation:
    """The reflection of the dihedral group on ``factor.cycle`` exchanging a and b.

    Writing the cycle as c_0..c_{d-1}, the reflection r_s(c_x) = c_{(s-x) mod d}
    with s = pos(a) + pos(b) is the unique element of order <= 2 swapping a and b.
    Indices outside the factor are fixed.
    """
    cyc = factor.cycle
    if a == b:
        raise PermError("reflection needs two distinct indices")
    try:
        pa, pb = cyc.index(a), cyc.index(b)
    except ValueError as exc:
        raise PermError(f"{a},{b} not both members of cycle {cyc}") from exc
    d = len(cyc)
    s = pa + pb
    img = list(range(1, n + 1))
    for x in range(d):
        img[cyc[x] - 1] = cyc[(s - x) % d]
    return Permutation(img)


def canonical_involution(factor: DihedralFactor, n: int) -> Permutation:
    """The order-2 generator (c_1,c_d)(c_2,c_{d-1})... of the dihedral factor."""
    cyc = factor.cycle
    d = len(cyc)
    img = list(range(1, n + 1))
    for t in range(d // 2):
        x, y = cyc[t], cyc[d - 1 - t]
        img[x - 1], img[y - 1] = y, x
    return Permutation(img)


def reflection_in(perm: Permutation, a: int, b: int) -> Permutation:
    """Reflection exchanging a and b inside the cycle of ``perm`` containing both."""
    cyc = perm.cycle_containing(a)
    if b not in cyc:
        raise PermError(f"{a} and {b} lie in different cycles of {perm.cycle_str()}")
    return reflection_xi(DihedralFactor(cyc), a, b, perm.n)
