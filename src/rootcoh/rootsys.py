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
from math import prod
from typing import Iterator, Sequence

import numpy as np

SCHEMA = "rootcoh/1"

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


class RootSystemError(ValueError):
    """Raised when a simple type or root-system document is malformed."""


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
        m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", text)
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

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

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

    def __str__(self) -> str:
        rc = " ".join(str(c) for c in self.root_coords)
        wc = " ".join(str(c) for c in self.weight.coords)
        return f"({rc}) <-> ({wc})"


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

    @property
    def dim_group(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (0-based)."""
        return self.positive_roots[self._simple_indices[i]]

    @cached_property
    def _simple_indices(self) -> tuple[int, ...]:
        return tuple(
            self.index_of(tuple(1 if k == i else 0 for k in range(self.rank)))
            for i in range(self.rank)
        )

    def index_of(self, root_coords: Sequence[int]) -> int:
        return self._root_index[tuple(root_coords)]

    def root_by_coords(self, root_coords: Sequence[int]) -> Root:
        return self.positive_roots[self.index_of(root_coords)]

    @cached_property
    def _root_index(self) -> dict[tuple[int, ...], int]:
        return {r.root_coords: k for k, r in enumerate(self.positive_roots)}

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @cached_property
    def simple_weight_rows(self) -> tuple[tuple[int, ...], ...]:
        """weight_coords of each simple root, i.e. the columns of cartan."""
        n = self.rank
        return tuple(tuple(self.cartan[a][i] for a in range(n)) for i in range(n))

    @cached_property
    def coroot_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coroot coordinates of the positive roots, in canonical root order."""
        return tuple(r.coroot_coords for r in self.positive_roots)

    @cached_property
    def coroot_matrix(self) -> np.ndarray:
        """:attr:`coroot_rows` as a read-only int64 array."""
        mat = np.array(self.coroot_rows, dtype=np.int64)
        mat.flags.writeable = False
        return mat

    @cached_property
    def rho_denominator(self) -> int:
        """prod over positive roots of (rho, gamma^v)."""
        return prod(sum(row) for row in self.coroot_rows)

    def __str__(self) -> str:
        return str(self.simple_type)


def to_weight_coords(rs: RootSystem, root_coords: Sequence[int]) -> Weight:
    """Pair an integer combination of simple roots against all simple coroots."""
    n = rs.rank
    vec = tuple(root_coords)
    if len(vec) != n:
        raise RootSystemError(f"expected {n} coordinates, got {len(vec)}")
    return Weight(tuple(sum(rs.cartan[a][b] * vec[b] for b in range(n)) for a in range(n)))


def _generate_positive_root_coords(
    cartan: tuple[tuple[int, ...], ...], n: int
) -> list[tuple[int, ...]]:
    """Close the simple roots under simple reflections, keeping positives."""
    seen: set[tuple[int, ...]] = set()
    work: list[tuple[int, ...]] = []
    for i in range(n):
        unit = tuple(1 if k == i else 0 for k in range(n))
        seen.add(unit)
        work.append(unit)
    while work:
        rc = work.pop()
        pair = [sum(cartan[a][b] * rc[b] for b in range(n)) for a in range(n)]
        for i in range(n):
            c = pair[i]
            if c == 0:
                continue
            refl = list(rc)
            refl[i] -= c
            new = tuple(refl)
            if min(new) < 0:
                continue
            if new not in seen:
                seen.add(new)
                work.append(new)
    return sorted(seen, key=lambda rc: (sum(rc), rc))


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Construct the full positive-root catalogue for a simple type.

    Generation is a breadth-first closure of the simple roots under simple
    reflections using integer pairing arithmetic only.  The result is cached
    per type; RootSystem is immutable and safe to share between threads.
    """
    n = t.rank
    cartan = _cartan(t)
    hn = _half_norms(t)
    for i in range(n):
        for j in range(n):
            if cartan[i][j] * hn[i] != cartan[j][i] * hn[j]:
                raise RootSystemError("cartan matrix is not symmetrizable")

    coords = _generate_positive_root_coords(cartan, n)
    expected = _POSITIVE_COUNT[t.family](n)
    if len(coords) != expected:
        raise RootSystemError(
            f"{t}: generated {len(coords)} positive roots, expected {expected}"
        )

    roots = []
    for rc in coords:
        w = tuple(sum(cartan[a][b] * rc[b] for b in range(n)) for a in range(n))
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


def rs_to_json_dict(rs: RootSystem) -> dict:
    """Versioned JSON document for a root system."""
    return {
        "schema": SCHEMA,
        "kind": "root_system",
        "type": str(rs.simple_type),
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "half_norms": list(rs.half_norms),
        "h": rs.coxeter_number,
        "h_per_root": list(rs.coxeter_per_root),
        "roots": [
            {
                "root": list(r.root_coords),
                "weight": list(r.weight.coords),
                "coroot": list(r.coroot_coords),
                "half_norm": r.half_norm,
                "height": r.height,
            }
            for r in rs.positive_roots
        ],
    }


def rs_from_json_dict(doc: dict) -> RootSystem:
    """Rebuild a RootSystem from its JSON document, validating as it goes."""
    if doc.get("schema") != SCHEMA or doc.get("kind") != "root_system":
        raise RootSystemError("not a root_system document")
    try:
        t = SimpleType.parse(doc["type"])
        rs = RootSystem(
            simple_type=t,
            cartan=tuple(tuple(int(x) for x in row) for row in doc["cartan"]),
            half_norms=tuple(int(x) for x in doc["half_norms"]),
            positive_roots=tuple(
                Root(
                    root_coords=tuple(int(x) for x in r["root"]),
                    weight=Weight(tuple(int(x) for x in r["weight"])),
                    coroot_coords=tuple(int(x) for x in r["coroot"]),
                    half_norm=int(r["half_norm"]),
                    height=int(r["height"]),
                )
                for r in doc["roots"]
            ),
            rho=Weight((1,) * t.rank),
            coxeter_number=int(doc["h"]),
            coxeter_per_root=tuple(int(x) for x in doc["h_per_root"]),
        )
    except KeyError as exc:
        raise RootSystemError(f"root_system document lacks the field {exc}") from None
    reference = build_root_system(t)
    if rs != reference:
        raise RootSystemError(f"document for {t} disagrees with the generated system")
    return rs


def all_simple_types(max_rank: int = 8) -> list[SimpleType]:
    """Every valid simple type up to the given rank, in a stable order."""
    out: list[SimpleType] = []
    for n in range(1, max_rank + 1):
        out.append(SimpleType("A", n))
    for fam in ("B", "C"):
        for n in range(2, max_rank + 1):
            out.append(SimpleType(fam, n))
    for n in range(4, max_rank + 1):
        out.append(SimpleType("D", n))
    for n in (6, 7, 8):
        if n <= max_rank:
            out.append(SimpleType("E", n))
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return out
