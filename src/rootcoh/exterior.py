"""Sums of p distinct roots and the weight multisets of Lambda^p n- (x) k_lam.

The weights of ``Lambda^p n-`` with their multiplicities are the coefficients
of ``t^p`` in ``prod_{gamma > 0} (1 + t e^{-gamma})`` (Kostant, Ann. of Math.
74, 1961).  One engine expands that product root by root.  Layer ``j`` holds
the sums of ``j`` distinct roots as sorted int64 keys (packed by
:func:`encode_vectors`) with their multiplicities; adding the root ``gamma``
merges layer ``j`` with layer ``j - 1`` shifted by the packed key of
``gamma``.  The expansion runs only to depth ``d = min(p, N - p)``.  A subset
and its complement sum to the sum of all the signed roots, so

    layer N - p = (sum of the signed roots) - layer p,

and the high degrees are read off the low ones.

Each (type, sign) keeps the deepest layer list built so far in one in-memory
cache; a request for a deeper layer rebuilds the list and replaces the entry.
Jobs whose subset count C(N, p) exceeds the budget, or whose multiplicities
could pass int64, are refused with :class:`BudgetExceededError` before any
allocation.  The plain enumerator :func:`subset_sums_reference` is kept as
the test oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rootsys import RootSystem, Weight

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """A job would exceed the subset budget or overflow int64 multiplicities."""


class ExteriorError(ValueError):
    """Raised on out-of-range degrees or malformed cache files."""


@dataclass(frozen=True)
class WeightMultiset:
    """Weights with multiplicities arising from sums of p distinct roots."""

    p: int
    entries: tuple[tuple[Weight, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def support(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries)

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.entries)

    def multiplicity(self, w: Weight) -> int:
        return self.as_dict().get(w, 0)

    def translate(self, lam: Weight) -> "WeightMultiset":
        moved = sorted(((w + lam, m) for w, m in self.entries), key=lambda e: e[0].coords)
        return WeightMultiset(p=self.p, entries=tuple(moved))

    def negate(self) -> "WeightMultiset":
        flipped = sorted(((-w, m) for w, m in self.entries), key=lambda e: e[0].coords)
        return WeightMultiset(p=self.p, entries=tuple(flipped))

    def to_json_dict(self) -> dict:
        from .rootsys import SCHEMA

        return {
            "schema": SCHEMA,
            "kind": "weight_multiset",
            "p": self.p,
            "total": str(self.total),
            "entries": [
                {"weight": list(w.coords), "mult": str(m)} for w, m in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WeightMultiset":
        if doc.get("kind") != "weight_multiset":
            raise ExteriorError("not a weight_multiset document")
        entries = tuple(
            (Weight(tuple(int(c) for c in e["weight"])), int(e["mult"]))
            for e in doc["entries"]
        )
        return cls(p=int(doc["p"]), entries=entries)


# ---------------------------------------------------------------------------
# encoding of integer vectors into sortable int64 keys


def _field_bits(rank: int) -> int:
    return min(62 // rank, 16)


def _encoder(rank: int) -> tuple[int, int]:
    bits = _field_bits(rank)
    return bits, 1 << (bits - 1)


def encode_vectors(arr: np.ndarray, rank: int) -> np.ndarray:
    """Pack integer row vectors into int64 keys preserving lexicographic order."""
    bits, bias = _encoder(rank)
    if arr.size and (arr.min() <= -bias or arr.max() >= bias):
        raise ExteriorError("vector entries exceed the packing range")
    keys = np.zeros(arr.shape[0], dtype=np.int64)
    for k in range(rank):
        keys = (keys << bits) + (arr[:, k].astype(np.int64) + bias)
    return keys


def decode_vectors(keys: np.ndarray, rank: int) -> np.ndarray:
    bits, bias = _encoder(rank)
    out = np.empty((keys.shape[0], rank), dtype=np.int64)
    rest = keys.astype(np.int64)
    mask = (1 << bits) - 1
    for k in range(rank - 1, -1, -1):
        out[:, k] = (rest & mask) - bias
        rest = rest >> bits
    return out


def _merge_key_counts(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge (sorted-or-not) key/count blocks into one sorted unique block."""
    keys = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate(([0], boundaries))
    uniq = keys[starts]
    summed = np.add.reduceat(counts, starts)
    return uniq, summed


# ---------------------------------------------------------------------------
# engine


def subset_sums_reference(
    rows: Sequence[Sequence[int]], p: int
) -> dict[tuple[int, ...], int]:
    """Plain depth-first enumeration with an accumulator (small-case oracle)."""
    n = len(rows)
    rank = len(rows[0]) if rows else 0
    out: dict[tuple[int, ...], int] = {}
    acc = [0] * rank

    def go(start: int, left: int) -> None:
        if left == 0:
            key = tuple(acc)
            out[key] = out.get(key, 0) + 1
            return
        for j in range(start, n - left + 1):
            row = rows[j]
            for k in range(rank):
                acc[k] += row[k]
            go(j + 1, left - 1)
            for k in range(rank):
                acc[k] -= row[k]

    if 0 <= p <= n:
        go(0, p)
    return out


def _layers(mat: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layers 0..depth of ``prod (1 + t e^row)`` over the rows of ``mat``.

    Layer j is (sorted keys, multiplicities) of the sums of j distinct rows.
    Keys are added to keys, so no sum passes through :func:`encode_vectors`;
    instead every column is checked up front: the sum of its ``depth``
    largest positive entries, and of its ``depth`` most negative ones, must
    stay inside the field's bias, or a carry would corrupt the next field.
    """
    n, rank = mat.shape
    _, bias = _encoder(rank)
    cols = np.sort(mat, axis=0)
    high = np.clip(cols[::-1][:depth], 0, None).sum(axis=0)
    low = np.clip(cols[:depth], None, 0).sum(axis=0)
    if (high >= bias).any() or (low <= -bias).any():
        raise ExteriorError(
            f"sums of {depth} rows exceed the packing range of {bias} per coordinate"
        )
    zero = encode_vectors(np.zeros((1, rank), dtype=np.int64), rank)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    layers = [(zero, np.ones(1, dtype=np.int64))] + [empty] * depth
    if depth == 0:
        return layers
    shifts = encode_vectors(mat, rank) - zero[0]
    for k, shift in enumerate(shifts):
        for j in range(min(k + 1, depth), 0, -1):
            keys, counts = layers[j - 1]
            layers[j] = _merge_key_counts([layers[j], (keys + shift, counts)])
    return layers


# ---------------------------------------------------------------------------
# budget and public operations

#: Deepest layer list built so far, per (type, sign).
_layer_cache: dict[tuple[str, int], list[tuple[np.ndarray, np.ndarray]]] = {}


def _check_budget(n: int, p: int, budget: int | None) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    jobs = math.comb(n, p)
    if jobs > limit:
        raise BudgetExceededError(
            f"enumerating C({n},{p}) = {jobs} subsets exceeds the budget of {limit}"
        )


def _root_matrix(rs: RootSystem, sign: int) -> np.ndarray:
    mat = np.array([r.weight.coords for r in rs.positive_roots], dtype=np.int64)
    return mat if sign > 0 else -mat


def _signed(sign: str | int) -> int:
    if sign in ("+", 1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ExteriorError(f"sign must be '+' or '-', got {sign!r}")


def sum_keys(
    rs: RootSystem,
    p: int,
    sign: str | int = "-",
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encoded (keys, multiplicities) of all sums of p distinct roots.

    Keys are sorted ascending, which is lexicographic order of the weights.
    The root-by-root expansion runs to depth ``d = min(p, N - p)``; for
    ``p > N / 2`` the layer is ``(sum of the signed roots) - layer N - p``,
    decoded, subtracted, reversed (which keeps it sorted) and re-encoded.
    The layer list of each (type, sign) is cached and rebuilt only when a
    deeper layer is asked for.  A job over ``budget`` subsets (default
    :data:`DEFAULT_BUDGET`), or with ``C(N, d) >= 2**63`` so that a
    multiplicity could wrap, is refused with :class:`BudgetExceededError`.
    """
    n = rs.num_positive_roots
    if not 0 <= p <= n:
        raise ExteriorError(f"p must lie in [0, {n}], got {p}")
    _check_budget(n, p, budget)
    s = _signed(sign)
    depth = min(p, n - p)
    if math.comb(n, depth) >= 2**63:
        raise BudgetExceededError(
            f"multiplicities up to C({n},{depth}) would overflow int64"
        )
    key = (str(rs.simple_type), s)
    layers = _layer_cache.get(key)
    if layers is None or len(layers) <= depth:
        layers = _layers(_root_matrix(rs, s), depth)
        _layer_cache[key] = layers
    if p == depth:
        return layers[p]
    keys, counts = layers[depth]
    total = _root_matrix(rs, s).sum(axis=0)
    vecs = total - decode_vectors(keys, rs.rank)
    return encode_vectors(vecs[::-1], rs.rank), counts[::-1].copy()


def sum_vectors(
    rs: RootSystem,
    p: int,
    sign: str | int = "-",
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoded (vectors, multiplicities), rows sorted lexicographically."""
    keys, counts = sum_keys(rs, p, sign, budget)
    return decode_vectors(keys, rs.rank), counts


def phi_sums(
    rs: RootSystem,
    p: int,
    sign: str | int = "-",
    budget: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> WeightMultiset:
    """The multiset of sums of p distinct positive (or negative) roots."""
    s = _signed(sign)
    if cache_dir is not None:
        cached = _cache_read(rs, p, s, cache_dir)
        if cached is not None:
            return cached
    vecs, counts = sum_vectors(rs, p, s, budget)
    entries = tuple(
        (Weight(tuple(int(c) for c in vecs[i])), int(counts[i]))
        for i in range(vecs.shape[0])
    )
    ms = WeightMultiset(p=p, entries=entries)
    if cache_dir is not None:
        _cache_write(rs, p, s, cache_dir, ms)
    return ms


def lambda_p_weights(
    rs: RootSystem,
    p: int,
    lam: Weight,
    budget: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> WeightMultiset:
    """Weights of Lambda^p n- tensored by the character lam."""
    if len(lam.coords) != rs.rank:
        raise ExteriorError(f"weight has {len(lam.coords)} coordinates")
    return phi_sums(rs, p, "-", budget, cache_dir).translate(lam)


def max_column_profile(
    rs: RootSystem,
    p: int,
    budget: int | None = None,
) -> tuple[int, ...]:
    """Per-column maxima of the pairings over all sums of p distinct positive roots.

    Coordinate i of the result is the largest value of (mu, alpha_i^v) as mu
    ranges over the support of the degree-p sums; subtracting 1 yields the
    dominance threshold that forces every translated weight to sit at
    pairing >= -1.
    """
    vecs, _ = sum_vectors(rs, p, "+", budget)
    return tuple(int(v) for v in vecs.max(axis=0))


def greedy_column_profile(rs: RootSystem, p: int) -> tuple[int, ...]:
    """Column maxima computed without enumeration: sum of the p largest entries.

    The subset achieving the maximum of one column is simply the p rows with
    the largest entries there, so sorted prefix sums give the same numbers as
    the enumeration route; the two are cross-checked in the test suite.
    """
    n = rs.num_positive_roots
    if not 0 <= p <= n:
        raise ExteriorError(f"p must lie in [0, {n}], got {p}")
    out = []
    for i in range(rs.rank):
        col = sorted((r.weight.coords[i] for r in rs.positive_roots), reverse=True)
        out.append(sum(col[:p]))
    return tuple(out)


# ---------------------------------------------------------------------------
# on-disk cache

_CACHE_MAGIC = "rootcoh-wms/1"


def cache_filename(rs: RootSystem, p: int, sign: int) -> str:
    tag = "plus" if sign > 0 else "minus"
    return f"{rs.simple_type}_{p}_{tag}.wms"


def _cache_read(
    rs: RootSystem, p: int, sign: int, cache_dir: str | os.PathLike
) -> WeightMultiset | None:
    path = os.path.join(os.fspath(cache_dir), cache_filename(rs, p, sign))
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if (
            len(header) != 5
            or header[0] != _CACHE_MAGIC
            or header[1] != str(rs.simple_type)
            or header[2] != str(p)
            or header[3] != ("+" if sign > 0 else "-")
        ):
            raise ExteriorError(f"cache file {path} has a foreign header")
        count = int(header[4])
        entries = []
        for _ in range(count):
            parts = fh.readline().split()
            coords = tuple(int(x) for x in parts[: rs.rank])
            mult = int(parts[rs.rank])
            entries.append((Weight(coords), mult))
    return WeightMultiset(p=p, entries=tuple(entries))


def _cache_write(
    rs: RootSystem, p: int, sign: int, cache_dir: str | os.PathLike, ms: WeightMultiset
) -> None:
    directory = os.fspath(cache_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, cache_filename(rs, p, sign))
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(
            f"{_CACHE_MAGIC} {rs.simple_type} {p} {'+' if sign > 0 else '-'} "
            f"{len(ms.entries)}\n"
        )
        for w, m in ms.entries:
            fh.write(" ".join(str(c) for c in w.coords) + f" {m}\n")
    os.replace(tmp, path)
