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
The cache holds at most :data:`MAX_LIVE_KEYS` keys over all its entries: a
new entry evicts the oldest ones until the total fits.  A sweep over every
degree of one type should therefore ask for its deepest layer, ``N // 2``,
first: walking ``p`` upwards instead rebuilds the list at each new depth.

Memory is bounded by one fixed cap, :data:`MAX_LIVE_KEYS`, on the distinct
weights the expansion holds: before each merge, the keys held by all layers
plus the incoming shifted layer must stay within it, or the job is refused
with :class:`BudgetExceededError` before that merge allocates.  Jobs whose
multiplicities could pass int64 (``C(N, d) >= 2**63``) are refused before
anything is allocated.  The plain enumerator :func:`subset_sums_reference`
is kept as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rootsys import SCHEMA, RootSystem, Weight

#: Most keys the expansion may hold at once, over all its layers together
#: with the shifted layer being merged in.  Of the rank <= 8 jobs with at most
#: 10**8 subsets, A8 at p = 9 needs the most: 1,852,982 (1,645,110 at the end).
MAX_LIVE_KEYS = 2**22


class BudgetExceededError(RuntimeError):
    """A job would pass :data:`MAX_LIVE_KEYS` or overflow int64 multiplicities."""


class ExteriorError(ValueError):
    """Raised on out-of-range degrees, signs or packing ranges."""


@dataclass(frozen=True)
class WeightMultiset:
    """Weights with multiplicities arising from sums of p distinct roots."""

    p: int
    entries: tuple[tuple[Weight, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def translate(self, lam: Weight) -> "WeightMultiset":
        """Add lam to every weight; a translation keeps lexicographic order."""
        return WeightMultiset(self.p, tuple((w + lam, m) for w, m in self.entries))

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "weight_multiset",
            "p": self.p,
            "total": str(self.total),
            "entries": [
                {"weight": list(w.coords), "mult": str(m)} for w, m in self.entries
            ],
        }


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
    A merge that would take the keys held past :data:`MAX_LIVE_KEYS` raises
    :class:`BudgetExceededError` before it allocates.
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
    live = 1
    for k, shift in enumerate(shifts):
        for j in range(min(k + 1, depth), 0, -1):
            keys, counts = layers[j - 1]
            if live + keys.size > MAX_LIVE_KEYS:
                raise BudgetExceededError(
                    f"sums of up to {depth} of {n} roots would hold more than "
                    f"MAX_LIVE_KEYS = {MAX_LIVE_KEYS} keys"
                )
            held = layers[j][0].size
            layers[j] = _merge_key_counts([layers[j], (keys + shift, counts)])
            live += layers[j][0].size - held
    return layers


# ---------------------------------------------------------------------------
# public operations

#: Deepest layer list built so far, per (type, sign), oldest entry first.
_layer_cache: dict[tuple[str, int], list[tuple[np.ndarray, np.ndarray]]] = {}


def _cache_layers(key: tuple[str, int], layers: list) -> None:
    """Store ``layers`` as the newest entry, evicting the oldest entries
    until the keys cached over all entries fit in :data:`MAX_LIVE_KEYS`.

    The new entry itself is never evicted: its build already kept within
    the cap.
    """
    _layer_cache.pop(key, None)
    _layer_cache[key] = layers
    held = {k: sum(ks.size for ks, _ in v) for k, v in _layer_cache.items()}
    total = sum(held.values())
    for k in list(_layer_cache)[:-1]:
        if total <= MAX_LIVE_KEYS:
            break
        total -= held[k]
        del _layer_cache[k]


def _root_matrix(rs: RootSystem, sign: int) -> np.ndarray:
    mat = np.array([r.weight.coords for r in rs.positive_roots], dtype=np.int64)
    return mat if sign > 0 else -mat


def _signed(sign: str) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ExteriorError(f"sign must be '+' or '-', got {sign!r}")


def sum_keys(rs: RootSystem, p: int, sign: str = "-") -> tuple[np.ndarray, np.ndarray]:
    """Encoded (keys, multiplicities) of all sums of p distinct roots.

    Keys are sorted ascending, which is lexicographic order of the weights.
    The root-by-root expansion runs to depth ``d = min(p, N - p)``; for
    ``p > N / 2`` the layer is ``(sum of the signed roots) - layer N - p``,
    decoded, subtracted, reversed (which keeps it sorted) and re-encoded.
    The layer list of each (type, sign) is cached and rebuilt only when a
    deeper layer is asked for; the oldest entries are evicted so that the
    cache holds at most :data:`MAX_LIVE_KEYS` keys.  A job with
    ``C(N, d) >= 2**63``, so that a multiplicity could wrap, is refused with
    :class:`BudgetExceededError` before anything is allocated; so is a build
    that would hold more than :data:`MAX_LIVE_KEYS` keys, before the merge
    that would cross the cap.
    A cached layer list is served without a second check.
    """
    n = rs.num_positive_roots
    if not 0 <= p <= n:
        raise ExteriorError(f"p must lie in [0, {n}], got {p}")
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
        _cache_layers(key, layers)
    if p == depth:
        return layers[p]
    keys, counts = layers[depth]
    total = _root_matrix(rs, s).sum(axis=0)
    vecs = total - decode_vectors(keys, rs.rank)
    return encode_vectors(vecs[::-1], rs.rank), counts[::-1].copy()


def sum_vectors(rs: RootSystem, p: int, sign: str = "-") -> tuple[np.ndarray, np.ndarray]:
    """Decoded (vectors, multiplicities), rows sorted lexicographically."""
    keys, counts = sum_keys(rs, p, sign)
    return decode_vectors(keys, rs.rank), counts


def phi_sums(rs: RootSystem, p: int, sign: str = "-") -> WeightMultiset:
    """The multiset of sums of p distinct positive (or negative) roots."""
    vecs, counts = sum_vectors(rs, p, sign)
    entries = tuple(
        (Weight(tuple(int(c) for c in vecs[i])), int(counts[i]))
        for i in range(vecs.shape[0])
    )
    return WeightMultiset(p=p, entries=entries)


def lambda_p_weights(rs: RootSystem, p: int, lam: Weight) -> WeightMultiset:
    """Weights of Lambda^p n- tensored by the character lam."""
    if len(lam.coords) != rs.rank:
        raise ExteriorError(f"weight has {len(lam.coords)} coordinates")
    return phi_sums(rs, p, "-").translate(lam)


def greedy_column_profile(rs: RootSystem, p: int) -> tuple[int, ...]:
    """Per-column maxima of the pairings over all sums of p distinct positive roots.

    Coordinate i of the result is the largest value of (mu, alpha_i^v) as mu
    ranges over the degree-p sums.  The subset attaining it is the p roots
    with the largest entries in column i, so it is the sum of those entries
    and needs no enumeration.  The tests compare :func:`prop2_threshold
    <rootcoh.vanishing.prop2_threshold>` with these maxima less 1.
    """
    n = rs.num_positive_roots
    if not 0 <= p <= n:
        raise ExteriorError(f"p must lie in [0, {n}], got {p}")
    out = []
    for i in range(rs.rank):
        col = sorted((r.weight.coords[i] for r in rs.positive_roots), reverse=True)
        out.append(sum(col[:p]))
    return tuple(out)

