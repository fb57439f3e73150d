"""Sums of p distinct negative roots and the weights of Lambda^p n- (x) k_lam.

The weights of ``Lambda^p n-`` with their multiplicities are the coefficients
of ``t^p`` in ``prod_{gamma > 0} (1 + t e^{-gamma})`` (Kostant, Ann. of Math.
74, 1961).  One engine expands that product root by root.  Layer ``j`` holds
the sums of ``j`` distinct negative roots as sorted int64 keys with their
multiplicities; adding the root ``-gamma`` merges layer ``j`` with layer
``j - 1`` shifted by the key of ``-gamma``.  A key holds one field per
coordinate, sized to that coordinate's range over the layers built
(:func:`_fields`); a job whose fields need more than 62 bits is refused
with :class:`ExteriorError`.  The keys stay inside this module: callers
read weights through the readers below.

The expansion runs only to depth ``d = min(p, N - p)``.  A subset and its
complement sum to ``-2 rho``, whose fundamental-weight coordinates are all
``-2`` (:func:`build_root_system <rootcoh.rootsys.build_root_system>`
checks the sum), so

    layer N - p = -2 - layer p,

and :func:`sum_keys` hands out layer ``p`` itself for every ``p``: for
``p > N / 2`` it reflects the keys and fields of layer ``N - p``.  No reader
knows about the complement.  The readers:

- :func:`phi_sums` returns ``(rows, multiplicities)``, int64 arrays in
  lexicographic order of the weights, for sums of negative roots; the
  sums of positive roots are their negatives, read in reverse order.
- :func:`lambda_p_weights` returns the rows of :func:`phi_sums` translated
  by lam as Python-int tuples, and the multiplicities as Python ints.
- :func:`rows_below` returns ``(rows, size)``: only the rows with some
  coordinate below a floor, found on the packed fields, in :func:`phi_sums`
  order, and the size of the whole support.  No other row is decoded.
- :func:`translate` adds a shift to rows that a reader returned, in int64
  while the sums fit and in Python ints past that, so exact for any ints.

Each type keeps the deepest layer list built so far in one in-memory cache;
a request for a deeper layer rebuilds the list and replaces the entry.
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
from typing import Sequence

import numpy as np

# MAX_LIVE_KEYS, the catalogue bound 2**22, is the most keys the expansion may
# hold at once, over all its layers together with the shifted layer being
# merged in.  Of the rank <= 8 jobs with at most 10**8 subsets, A8 at p = 9
# needs the most: 1,852,982 (1,645,110 at the end).
from .rootsys import MAX_CATALOGUE_ENTRIES as MAX_LIVE_KEYS, RootSystem, Weight


class BudgetExceededError(RuntimeError):
    """A job would pass :data:`MAX_LIVE_KEYS` or overflow int64 multiplicities."""


class ExteriorError(ValueError):
    """Raised on out-of-range degrees or packing ranges."""


# ---------------------------------------------------------------------------
# encoding of integer vectors into sortable int64 keys


Fields = tuple[tuple[int, int, int], ...]


def _fields(mat: np.ndarray, depth: int) -> Fields:
    """Per column ``k``, the key field ``(low_k, shift_k, width_k)`` that
    holds column ``k`` of every sum of at most ``depth`` rows of ``mat``.

    Those sums lie in ``[low_k, high_k]``, the sums of the column's ``depth``
    most negative and ``depth`` largest positive entries.  The field holds
    ``v_k - low_k`` in ``width_k = (high_k - low_k).bit_length()`` bits from
    bit ``shift_k`` up, the last column lowest, so key order is lexicographic
    order.  Widths past 62 bits in all, which would take an int64 key's one
    spare bit, raise :class:`ExteriorError`.
    """
    cols = np.sort(mat, axis=0)
    high = np.clip(cols[::-1][:depth], 0, None).sum(axis=0).tolist()
    low = np.clip(cols[:depth], None, 0).sum(axis=0).tolist()
    widths = [(h - lo).bit_length() for h, lo in zip(high, low)]
    if sum(widths) > 62:
        raise ExteriorError(f"sums of {depth} rows need {sum(widths)} bits per key, "
                            "past the 62 an int64 key holds")
    return tuple(zip(low, [sum(widths[k + 1:]) for k in range(len(widths))], widths))


def encode_vectors(arr: np.ndarray, fields: Fields) -> np.ndarray:
    """Pack integer row vectors, each inside ``fields``' ranges, into int64
    keys preserving lexicographic order."""
    keys = np.zeros(arr.shape[0], dtype=np.int64)
    for col, (low, shift, _) in zip(arr.T.astype(np.int64), fields):
        keys += (col - low) << shift
    return keys


def decode_vectors(keys: np.ndarray, fields: Fields) -> np.ndarray:
    out = np.empty((keys.shape[0], len(fields)), dtype=np.int64)
    for k, (low, shift, width) in enumerate(fields):
        out[:, k] = ((keys >> shift) & ((1 << width) - 1)) + low
    return out


def _merge_key_counts(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge (sorted-or-not) key/count blocks, at least one key in all,
    into one sorted unique block."""
    keys = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
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


def _layers(mat: np.ndarray, depth: int) -> tuple[list, Fields]:
    """Layers 0..depth of ``prod (1 + t e^row)`` over the rows of ``mat``,
    and the :func:`_fields` they are packed in.

    Layer j is (sorted keys, multiplicities) of the sums of j distinct rows.
    Keys are added to keys; each field holds its column's whole range of
    sums, so no carry reaches the next field.
    A merge that would take the keys held past :data:`MAX_LIVE_KEYS` raises
    :class:`BudgetExceededError` before it allocates.
    """
    n, rank = mat.shape
    fields = _fields(mat, depth)
    zero = encode_vectors(np.zeros((1, rank), dtype=np.int64), fields)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    layers = [(zero, np.ones(1, dtype=np.int64))] + [empty] * depth
    if depth == 0:
        return layers, fields
    shifts = encode_vectors(mat, fields) - zero[0]
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
    return layers, fields


# ---------------------------------------------------------------------------
# public operations

#: Deepest layer list built so far and its fields, per type, oldest entry first.
_layer_cache: dict[str, tuple[list, Fields]] = {}


def _cache_layers(key: str, entry: tuple[list, Fields]) -> None:
    """Store ``entry`` as the newest entry, evicting the oldest entries
    until the keys cached over all entries fit in :data:`MAX_LIVE_KEYS`.

    The new entry itself is never evicted: its build already kept within
    the cap.
    """
    _layer_cache.pop(key, None)
    _layer_cache[key] = entry
    held = {k: sum(ks.size for ks, _ in v[0]) for k, v in _layer_cache.items()}
    total = sum(held.values())
    for k in list(_layer_cache)[:-1]:
        if total <= MAX_LIVE_KEYS:
            break
        total -= held[k]
        del _layer_cache[k]


def sum_keys(rs: RootSystem, p: int) -> tuple[np.ndarray, np.ndarray, Fields]:
    """Encoded (keys, multiplicities, fields) of layer ``p``, the sums of
    ``p`` distinct negative roots, the keys ascending in lexicographic order.

    Only the layers up to ``d = min(p, N - p)`` are built, packed in the
    :func:`_fields` of the deepest layer built for the type.  For
    ``p > N / 2`` layer ``d`` is reflected, ``v_k -> -2 - v_k``: field ``k``
    of mask ``m_k`` holds ``m_k - (v_k - low_k)`` over a low of
    ``-2 - low_k - m_k``, so the keys are ``top - keys[::-1]``, with every
    field of ``top`` at its mask, the multiplicities come reversed, and the
    widths do not change.  Layer lists are cached as the module docstring
    says.  A job with ``C(N, d) >= 2**63``, so that a multiplicity could
    wrap, is refused with :class:`BudgetExceededError` before anything is
    allocated; so is a build that would hold more than
    :data:`MAX_LIVE_KEYS` keys, before the merge that would cross the cap.
    A cached layer list is served without a second check.
    """
    n = rs.num_positive_roots
    if not 0 <= p <= n:
        raise ExteriorError(f"p must lie in [0, {n}], got {p}")
    depth = min(p, n - p)
    if math.comb(n, depth) >= 2**63:
        raise BudgetExceededError(
            f"multiplicities up to C({n},{depth}) would overflow int64"
        )
    key = str(rs.simple_type)
    entry = _layer_cache.get(key)
    if entry is None or len(entry[0]) <= depth:
        mat = np.array([r.weight.coords for r in rs.positive_roots], dtype=np.int64)
        entry = _layers(-mat, depth)
        _cache_layers(key, entry)
    layers, fields = entry
    keys, counts = layers[depth]
    if depth == p:
        return keys, counts, fields
    masks = [(1 << width) - 1 for _, _, width in fields]
    top = sum(m << shift for m, (_, shift, _) in zip(masks, fields))
    reflected = tuple((-2 - low - m, shift, width)
                      for m, (low, shift, width) in zip(masks, fields))
    return top - keys[::-1], counts[::-1], reflected


def rows_below(
    rs: RootSystem, p: int, floor: Sequence[int]
) -> tuple[np.ndarray, int]:
    """The rows mu of :func:`phi_sums` with some ``mu_k < floor_k``.

    Returns them as int64 rows in :func:`phi_sums` order, and the number of
    rows of the whole support.  Each coordinate is tested on its packed
    field of :func:`sum_keys`, ``mu_k = field + low_k``, so only the rows
    found are decoded.  The thresholds are clamped to the field's range in
    Python ints, so ``floor`` may hold any integers.
    """
    if len(floor) != rs.rank:
        raise ExteriorError(f"floor has {len(floor)} coordinates, expected {rs.rank}")
    keys, _, fields = sum_keys(rs, p)
    below = np.zeros(keys.size, dtype=bool)
    for (low, shift, width), f in zip(fields, floor):
        # field + low < f  <=>  field < f - low, compared in place against
        # an edge shifted to the field's bits
        mask = (1 << width) - 1
        edge = f - low
        if edge > 0:
            below |= (keys & (mask << shift)) < (min(edge, mask + 1) << shift)
    return decode_vectors(keys[below], fields), keys.size


def phi_sums(rs: RootSystem, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, multiplicities) of all sums of p distinct negative roots,
    as int64 arrays in lexicographic order: :func:`sum_keys` decoded."""
    keys, counts, fields = sum_keys(rs, p)
    return decode_vectors(keys, fields), counts


def translate(rows: np.ndarray, shift: Sequence[int]) -> np.ndarray:
    """``rows + shift``, exact for any ints: int64 while ``max|rows| +
    max|shift| < 2**63``, checked before the add, and past that bound an
    object array of Python ints.  ``rows`` may be empty."""
    top = max(map(abs, shift))
    if rows.size:
        top += max(int(rows.max()), -int(rows.min()))
    # an int64 array plus an object array adds in Python ints
    return rows + np.array(shift, dtype=np.int64 if top < 2**63 else object)


def lambda_p_weights(
    rs: RootSystem, p: int, lam: Weight
) -> tuple[list[tuple[int, ...]], list[int]]:
    """(weights, multiplicities) of Lambda^p n- tensored by the character lam.

    The weights are the rows of :func:`phi_sums` moved by :func:`translate`,
    as coordinate tuples of Python ints in lexicographic order, exact for any
    lam; the multiplicities are Python ints.
    """
    shift = lam.coords
    if len(shift) != rs.rank:
        raise ExteriorError(f"weight has {len(shift)} coordinates")
    vecs, counts = phi_sums(rs, p)
    return list(map(tuple, translate(vecs, shift).tolist())), counts.tolist()
