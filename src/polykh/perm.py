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

    __slots__ = ("images", "_cycles")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise PermError(f"not a bijection on 1..{n}: {images}")
        self.images = images
        self._cycles = None

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

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated min-first, sorted by minimum.

        Fixed points are included as 1-cycles.  Each cycle is walked from
        the least index not yet seen, which is its minimum.  The walk runs
        once per permutation; every call returns a new list of the same
        cycle tuples.
        """
        if self._cycles is None:
            todo = [0, *self.images]     # todo[x] = 0 once x is walked
            out = []
            for x in range(1, len(todo)):
                y = todo[x]
                if not y:
                    continue
                cyc = [x]
                todo[x] = 0
                while y != x:
                    cyc.append(y)
                    z = todo[y]
                    todo[y] = 0
                    y = z
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        return list(self._cycles)

    def dihedral_factors(self, pool: dict) -> tuple["DihedralFactor", ...]:
        """One DihedralFactor per cycle, in the order of ``cycles()``.

        ``pool`` maps each cycle tuple met so far to its factor; a cycle
        found there takes that factor, and a new one is added.  The cached
        cycles become the factors' own tuples, so permutations that share a
        pool hold one tuple and one factor per distinct cycle.
        """
        factors = []
        for cyc in self.cycles():
            factor = pool.get(cyc)
            if factor is None:
                factor = pool[cyc] = DihedralFactor(cyc)
            factors.append(factor)
        self._cycles = tuple([f.cycle for f in factors])
        return tuple(factors)

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


@dataclass(frozen=True, slots=True)
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
