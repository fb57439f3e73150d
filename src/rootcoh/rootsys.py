"""Exact integer data for the simple root systems A1 through G2.

Everything here is computed in plain Python integers: root coordinates over
the simple roots, dual (fundamental-weight) coordinates, coroot coordinates,
Coxeter numbers.  No floating point is used anywhere, so generated tables are
bit-exact and safe to diff against golden files.

Conventions, fixed once and tested:

* ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
  simple coroot, so ``weight_coords = cartan @ root_coords``.
* Numbering of simple roots: the A/B/C chains run left to right with the
  short root last in B and the long root last in C; D branches at the
  (n-2)-nd node; E puts node 2 on the branch attached to node 4; F4 is
  long-long-short-short; G2 is long-short.
* Lengths are normalised so that short roots have ``half_norm`` 1; long
  roots have 2 (B, C, F4) or 3 (G2).  This keeps coroot coordinates
  integral.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import prod
from typing import Iterator, Sequence

#: Number of positive roots per family, used as a construction self-check.
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

#: Admissible ranks per family: (lowest, highest), None for no upper bound.
_RANKS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


#: Largest ``|Phi+| * rank`` a catalogue may hold, checked before it is built;
#: it admits A <= 202 and B, C, D <= 161.  The exterior engine imports the
#: same 2**22 as ``MAX_LIVE_KEYS``, its cap on the keys held at once.
MAX_CATALOGUE_ENTRIES = 2**22


class RootSystemError(ValueError):
    """Raised on a malformed simple type or an inconsistent root-system catalogue."""


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Dynkin type, e.g. B4 or E8."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANKS:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _RANKS[self.family]
        if (
            not isinstance(self.rank, int)
            or self.rank < lo
            or (hi is not None and self.rank > hi)
        ):
            need = (
                f"rank >= {lo}"
                if hi is None
                else "rank in {" + ", ".join(map(str, range(lo, hi + 1))) + "}"
            )
            raise RootSystemError(
                f"invalid rank {self.rank} for family {self.family} (need {need})"
            )

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        m = re.fullmatch(r"\s*([A-Ga-g])\s*([0-9]+)\s*", text)
        if not m:
            raise RootSystemError(f"cannot parse simple type from {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, order=True)
class Weight:
    """Integer weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    @classmethod
    def of(cls, *coords: int) -> "Weight":
        return cls(tuple(int(c) for c in coords))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    @property
    def is_strictly_dominant(self) -> bool:
        return all(c > 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class Root:
    """A positive root with both coordinate systems attached."""

    root_coords: tuple[int, ...]
    weight: Weight
    coroot_coords: tuple[int, ...]
    half_norm: int
    height: int


def _edges(t: SimpleType) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (i, j, cartan[i][j], cartan[j][i]) with 0-based nodes."""
    n = t.rank
    f = t.family
    simply = lambda i, j: (i, j, -1, -1)
    if f == "A":
        return [simply(i, i + 1) for i in range(n - 1)]
    if f == "B":
        # short root last: (alpha_{n-1}, alpha_n^v) = -2
        es = [simply(i, i + 1) for i in range(n - 2)]
        es.append((n - 1, n - 2, -2, -1))
        return es
    if f == "C":
        # long root last: (alpha_n, alpha_{n-1}^v) = -2
        es = [simply(i, i + 1) for i in range(n - 2)]
        es.append((n - 2, n - 1, -2, -1))
        return es
    if f == "D":
        es = [simply(i, i + 1) for i in range(n - 3)]
        es.append(simply(n - 3, n - 2))
        es.append(simply(n - 3, n - 1))
        return es
    if f == "E":
        es = [simply(0, 2), simply(2, 3), simply(1, 3), simply(3, 4), simply(4, 5)]
        if n >= 7:
            es.append(simply(5, 6))
        if n == 8:
            es.append(simply(6, 7))
        return es
    if f == "F":
        return [simply(0, 1), (2, 1, -2, -1), simply(2, 3)]
    if f == "G":
        return [(1, 0, -3, -1)]
    raise RootSystemError(f"unknown family {f!r}")


def _half_norms(t: SimpleType) -> tuple[int, ...]:
    n = t.rank
    f = t.family
    if f in ("A", "D", "E"):
        return (1,) * n
    if f == "B":
        return (2,) * (n - 1) + (1,)
    if f == "C":
        return (1,) * (n - 1) + (2,)
    if f == "F":
        return (2, 2, 1, 1)
    if f == "G":
        return (3, 1)
    raise RootSystemError(f"unknown family {f!r}")


def _cartan(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    n = t.rank
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in _edges(t):
        mat[i][j] = cij
        mat[j][i] = cji
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class RootSystem:
    """Immutable catalogue of one simple type.

    ``positive_roots`` is ordered by ascending height with lexicographic
    root-coordinate tiebreak; every derived table in this package inherits
    that order.  The derived tables below are built on first use and cached
    on the instance.
    """

    simple_type: SimpleType
    cartan: tuple[tuple[int, ...], ...]
    half_norms: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    rho: Weight
    coxeter_number: int
    coxeter_per_root: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (0-based): the canonical order puts the unit
        vectors first, the last node lowest."""
        return self.positive_roots[self.rank - 1 :: -1][i]

    def root_by_coords(self, root_coords: Sequence[int]) -> Root:
        return self.positive_roots[self._root_index[tuple(root_coords)]]

    @cached_property
    def _root_index(self) -> dict[tuple[int, ...], int]:
        return {r.root_coords: k for k, r in enumerate(self.positive_roots)}

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @cached_property
    def simple_weight_rows(self) -> tuple[tuple[int, ...], ...]:
        """weight_coords of each simple root, i.e. the columns of cartan.

        Reflecting at node ``i`` subtracts ``x[i]`` times row ``i`` from a
        weight ``x``.  Criterion 9's ``|W|`` oracle builds the group from
        these dense rows, so it shares no code with the sparse
        :attr:`reflection_table` that :func:`~rootcoh.weyl.bwb` reads.
        """
        n = self.rank
        return tuple(tuple(self.cartan[a][i] for a in range(n)) for i in range(n))

    @cached_property
    def reflection_table(self) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
        """``(rank, N, neighbours)``: what one simple reflection changes.

        ``N`` is :attr:`num_positive_roots`, the longest reduced word, so at
        most ``N`` reflections regularize a weight.  ``neighbours[i]`` lists
        ``(j, a)`` for each Dynkin neighbour ``j`` of node ``i``, with
        ``a = simple_weight_rows[i][j] != 0``.  Reflecting ``x`` at ``i``
        sets ``x[i] = -x[i]`` (the diagonal entry is 2) and ``x[j] -= x[i] * a``
        at each neighbour; no other coordinate moves.  Raises
        :class:`RootSystemError` if a diagonal entry is not 2.
        """
        rows = self.simple_weight_rows
        n = self.rank
        if any(rows[i][i] != 2 for i in range(n)):
            raise RootSystemError(f"{self.simple_type}: cartan diagonal is not 2")
        neighbours = tuple(
            tuple((j, a) for j, a in enumerate(row) if a and j != i)
            for i, row in enumerate(rows)
        )
        return n, self.num_positive_roots, neighbours

    @cached_property
    def coroot_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coroot coordinates of the positive roots, in canonical root order."""
        return tuple(r.coroot_coords for r in self.positive_roots)

    @cached_property
    def coroot_chain(self) -> tuple[tuple[int, int, int], ...]:
        """One step ``(k, j, i)`` per positive coroot, each computed from an earlier one.

        ``coroot_rows[k] == coroot_rows[j] + e_i``, where ``j == -1`` stands
        for the zero vector, so the simple coroot ``e_i`` has ``j == -1``.
        Steps run by ascending coroot height, so ``j`` is the ``k`` of an
        earlier step.  Every positive coroot but a simple one is a positive
        coroot plus a simple coroot (the coroots form the dual root system);
        raises :class:`RootSystemError` if some coroot has no such predecessor.
        """
        rows = self.coroot_rows
        seen: dict[tuple[int, ...], int] = {(0,) * self.rank: -1}
        steps = []
        for k in sorted(range(len(rows)), key=lambda k: sum(rows[k])):
            row = rows[k]
            for i, c in enumerate(row):
                j = seen.get(row[:i] + (c - 1,) + row[i + 1 :]) if c else None
                if j is not None:
                    steps.append((k, j, i))
                    break
            else:
                raise RootSystemError(
                    f"{self.simple_type}: coroot {row} is no earlier coroot plus a simple one"
                )
            seen[row] = k
        return tuple(steps)

    @cached_property
    def max_coroot_height(self) -> int:
        """The largest coroot height: the largest absolute row sum of
        :attr:`coroot_rows`, so ``|(x, gamma^v)| <= max|x| * max_coroot_height``."""
        return max(map(sum, self.coroot_rows))

    @cached_property
    def column_profile(self) -> tuple[tuple[int, ...], ...]:
        """Row ``p`` holds ``M_i(p)`` for every column ``i``, ``0 <= p <= N``: the
        largest sum of ``p`` entries in column ``i`` of the positive-root weight
        rows.  The ``p`` largest entries attain it, so one descending sort and
        one running sum per column give every ``p`` at once.
        """
        columns = zip(*(r.weight.coords for r in self.positive_roots))
        sums = (accumulate(sorted(col, reverse=True), initial=0) for col in columns)
        return tuple(zip(*sums))

    @cached_property
    def rho_denominator(self) -> int:
        """prod over positive roots of (rho, gamma^v)."""
        return prod(sum(row) for row in self.coroot_rows)

    def __str__(self) -> str:
        return str(self.simple_type)


def _generate_positive_roots(
    cartan: tuple[tuple[int, ...], ...], n: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Close the simple roots under simple reflections, keeping positives.

    Maps the root coordinates of each positive root to its weight
    coordinates, ``cartan @ root_coords``.  A simple root's weight is
    column ``i`` of the Cartan matrix, and reflecting at ``i`` subtracts
    ``c = w[i]`` times that column from the weight ``w``, as it subtracts
    ``c`` from root coordinate ``i``; so no weight is computed twice.
    """
    columns = [tuple(cartan[a][i] for a in range(n)) for i in range(n)]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    work: list[tuple[int, ...]] = []
    for i in range(n):
        unit = tuple(1 if k == i else 0 for k in range(n))
        seen[unit] = columns[i]
        work.append(unit)
    while work:
        rc = work.pop()
        w = seen[rc]
        for i in range(n):
            c = w[i]
            if c == 0 or rc[i] < c:
                continue
            refl = list(rc)
            refl[i] -= c
            new = tuple(refl)
            if new not in seen:
                col = columns[i]
                seen[new] = tuple(w[a] - c * col[a] for a in range(n))
                work.append(new)
    return {rc: seen[rc] for rc in sorted(seen, key=lambda rc: (sum(rc), rc))}


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Construct the full positive-root catalogue for a simple type.

    Generation is a closure of the simple roots under simple reflections
    using integer arithmetic only; it hands over each root's weight
    coordinates with its root coordinates.  The result is cached
    per type; RootSystem is immutable and safe to share between threads.
    A type whose ``|Phi+| * rank`` passes :data:`MAX_CATALOGUE_ENTRIES` is
    refused before anything is allocated.
    """
    n = t.rank
    expected = _POSITIVE_COUNT[t.family](n)
    entries = expected * n
    if entries > MAX_CATALOGUE_ENTRIES:
        raise RootSystemError(
            f"{t}: |Phi+| * rank = {entries} passes the catalogue bound "
            f"{MAX_CATALOGUE_ENTRIES}"
        )
    cartan = _cartan(t)
    hn = _half_norms(t)
    for i in range(n):
        for j in range(n):
            if cartan[i][j] * hn[i] != cartan[j][i] * hn[j]:
                raise RootSystemError("cartan matrix is not symmetrizable")

    weights = _generate_positive_roots(cartan, n)
    if len(weights) != expected:
        raise RootSystemError(
            f"{t}: generated {len(weights)} positive roots, expected {expected}"
        )

    roots = []
    for rc, w in weights.items():
        norm2 = sum(rc[j] * w[j] * hn[j] for j in range(n))
        if norm2 <= 0 or norm2 % 2 != 0:
            raise RootSystemError(f"{t}: bad squared length for root {rc}")
        half = norm2 // 2
        if half not in (1, 2, 3):
            raise RootSystemError(f"{t}: half norm {half} out of range for {rc}")
        cv = []
        for j in range(n):
            num = rc[j] * hn[j]
            if num % half != 0:
                raise RootSystemError(f"{t}: non-integral coroot for {rc}")
            cv.append(num // half)
        roots.append(
            Root(
                root_coords=rc,
                weight=Weight(w),
                coroot_coords=tuple(cv),
                half_norm=half,
                height=sum(rc),
            )
        )

    total = [0] * n
    for r in roots:
        for a in range(n):
            total[a] += r.weight.coords[a]
    if total != [2] * n:
        raise RootSystemError(f"{t}: positive roots do not sum to 2*rho")

    h = (2 * len(roots)) // n
    if 2 * len(roots) != h * n:
        raise RootSystemError(f"{t}: Coxeter number is not integral")
    per = tuple(
        sum(r.weight.coords[i] for r in roots if r.weight.coords[i] > 0) for i in range(n)
    )

    return RootSystem(
        simple_type=t,
        cartan=cartan,
        half_norms=hn,
        positive_roots=tuple(roots),
        rho=Weight((1,) * n),
        coxeter_number=h,
        coxeter_per_root=per,
    )


def root_system(name: str | SimpleType) -> RootSystem:
    """Convenience wrapper accepting either 'B4' or a SimpleType."""
    t = name if isinstance(name, SimpleType) else SimpleType.parse(name)
    return build_root_system(t)


#: The values a weight-row entry can take, in the order column_stats counts them.
_STAT_VALUES = (0, 1, 2, 3, -1, -2, -3)


def column_stats(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Per column of the weight rows of all positive roots, in canonical
    order, the counts of the values 0, 1, 2, 3, -1, -2, -3."""
    out = []
    for i in range(rs.rank):
        col = [r.weight.coords[i] for r in rs.positive_roots]
        for v in col:
            if v not in _STAT_VALUES:
                raise RootSystemError(f"entry {v} outside the expected value range")
        out.append(tuple(col.count(v) for v in _STAT_VALUES))
    return tuple(out)


def column_classes(rs: RootSystem) -> tuple[str, ...]:
    """'short' or 'long' for each simple root."""
    shortest = min(rs.half_norms)
    return tuple("short" if hn == shortest else "long" for hn in rs.half_norms)


def all_simple_types(max_rank: int = 8) -> list[SimpleType]:
    """Every valid simple type up to the given rank, in a stable order."""
    return [
        SimpleType(family, n)
        for family, (lo, hi) in _RANKS.items()
        for n in range(lo, min(max_rank, hi or max_rank) + 1)
    ]
