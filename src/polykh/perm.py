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
        """Walk the cycles of ``images`` once, each from its least index:
        the walk is the check that they are a bijection on 1..n, and the
        cycles it yields are kept."""
        images = tuple(images)
        n = len(images)
        todo = [0, *images]     # todo[x] = 0 once x is walked
        cycles = []
        try:    # an entry that is not an int fails as an index or below
            if n and min(images) < 1:
                raise IndexError
            for x in range(1, n + 1):
                y = todo[x]
                if not y:
                    continue
                todo[x] = 0
                cyc = [x]
                while y != x and y:     # a walked index reads as 0
                    cyc.append(y)
                    z = todo[y]
                    todo[y] = 0
                    y = z
                if y != x or type(y) is not int:
                    # the walk met an index twice, or closed on an entry
                    # that only equals x
                    raise IndexError
                cycles.append(tuple(cyc))
        except (IndexError, TypeError):
            raise PermError(f"not a bijection on 1..{n}: {images}") from None
        self.images, self._cycles = images, tuple(cycles)

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

        Fixed points are included as 1-cycles.  The constructor walked
        them; every call returns a new list of the same cycle tuples.
        """
        return list(self._cycles)

    def dihedral_factors(self, pool: dict) -> tuple["DihedralFactor", ...]:
        """One DihedralFactor per cycle, in the order of ``cycles()``.

        ``pool`` maps each cycle tuple met so far to its factor; a cycle
        found there takes that factor, and a new one is added.  The kept
        cycles become the factors' own tuples, so permutations that share a
        pool hold one tuple and one factor per distinct cycle.
        """
        get, add = pool.get, pool.setdefault
        factors = tuple([get(cyc) or add(cyc, DihedralFactor(cyc))
                         for cyc in self._cycles])
        self._cycles = tuple([f.cycle for f in factors])
        return factors

    def cycle_str(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")"
                       for c in self._cycles if len(c) > 1) or "()"

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
