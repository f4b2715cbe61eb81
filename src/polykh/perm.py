"""Permutations of {1..n}: the successor permutations of smoothings, their
cycles and their dihedral factors.

The group algebra in which the cube's formulas are stated (composition,
inverse, conjugation, cycle notation) is the reference in
``tests/conftest.py``.  Its convention: ``compose(a, b)`` applies ``b``
first and then ``a``.  The package computes those formulas on image lists
(see the cube module) and never composes Permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

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

    def cycle_str(self) -> str:
        cycs = [c for c in self.cycles() if len(c) > 1]
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_str()}, n={self.n})"


@dataclass(frozen=True, slots=True)
class DihedralFactor:
    """One dihedral factor of a smoothing group: the rotation generator as a cycle."""

    cycle: tuple[int, ...]

    @property
    def group_order(self) -> int:
        """Order of the dihedral factor: 2d for d >= 3, else d (bigon: 2, point: 1)."""
        d = len(self.cycle)
        return 2 * d if d >= 3 else d
