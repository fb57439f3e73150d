"""Dot action, dominance regularization, and the exact dimension formula.

The central routine is :func:`bwb`, which takes lam as any integer
sequence, a :class:`~rootcoh.rootsys.Weight` included.
Starting from ``x = lam + rho`` it either finds a zero coordinate (the
weight is singular and all cohomology of the line bundle vanishes) or
applies simple reflections at negative coordinates until ``x`` is strictly
dominant.  The number of reflections applied is the unique cohomology
degree in which the line bundle has sections, and ``x - rho`` is the
highest weight of that representation; its dimension, :func:`weyl_dims` of
that weight, is left to the caller.  A simple reflection negates one
coordinate and moves only its Dynkin neighbours
(:attr:`~rootcoh.rootsys.RootSystem.reflection_table`), so each step is a
sparse update in Python ints and only the moved coordinates are checked for
a new zero.

One table, :attr:`~rootcoh.rootsys.RootSystem.coroot_chain`, feeds
:func:`pairings`, the one pairing primitive: each positive coroot is an
earlier one plus a simple coroot, so many weights pair with every positive
coroot in one vector add per positive root, in int64 while ``max|x|`` times
the largest coroot height is below ``2**63`` and in Python ints past it
(every partial sum is itself a pairing, so that one bound picks the dtype of
every intermediate).  A row of one pairing matrix is singular iff it holds a
0, and its degree is its number of negative entries; at ``x = nu + rho``
with ``nu`` dominant, :func:`weyl_dims` divides its exact product by
``rho_denominator``.  As ``(x, alpha_k^v) = x_k``, a weight with a zero
coordinate is singular before any pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .rootsys import Root, RootSystem, Weight


class WeylError(ValueError):
    """Raised on malformed inputs to the dot-action routines."""


@dataclass(frozen=True)
class BwbOutcome:
    """Result of regularizing lam + rho.

    Singular when ``degree is None``: some pairing with a positive coroot
    vanishes and all cohomology is zero.  Otherwise cohomology is
    concentrated in the single degree ``degree`` and equals the
    representation with highest weight ``dominant``, whose dimension is
    :func:`weyl_dim` of ``dominant``.
    """

    degree: int | None = None
    dominant: Weight | None = None

    @property
    def is_singular(self) -> bool:
        return self.degree is None


#: The one singular outcome; :class:`BwbOutcome` is frozen, so it is shared.
_SINGULAR = BwbOutcome()


def pairing(rs: RootSystem, mu: Weight | Sequence[int], gamma: Root) -> int:
    """Exact pairing (mu, gamma^v) via gamma's coroot coordinates: the scalar
    reference for tests, with no library caller."""
    coords = tuple(mu)
    if len(coords) != rs.rank:
        raise WeylError(f"weight has {len(coords)} coordinates, expected {rs.rank}")
    return sum(c * x for c, x in zip(gamma.coroot_coords, coords))


def pairings(rs: RootSystem, X) -> np.ndarray:
    """All pairings (x, gamma^v), the values of ``X @ C.T``, exact for any ints.

    Row i pairs row i of ``X`` with every positive coroot, in canonical root
    order: column ``k`` is column ``j`` plus column ``i`` of ``X`` for each
    step ``(k, j, i)`` of :attr:`~rootcoh.rootsys.RootSystem.coroot_chain`,
    so each partial sum is a final entry.  While ``max|X|`` times
    :attr:`~rootcoh.rootsys.RootSystem.max_coroot_height` is below ``2**63``
    (checked before any add) no entry passes that bound and the result is
    int64; past it the same adds run on an object array of Python ints.
    Raises :class:`WeylError` only on a wrong shape.
    """
    A = np.asarray(X)
    # lists of ints mixing [2**63, 2**64) with others load as float64: keep them exact
    X = np.array(X, dtype=object) if A.dtype.kind == "f" else A
    if X.ndim != 2 or X.shape[1] != rs.rank:
        raise WeylError(f"pairings need rows of {rs.rank} coordinates, got shape {X.shape}")
    exact = X.size and max(int(X.max()), -int(X.min())) * rs.max_coroot_height >= 2**63
    dtype = object if exact else np.int64
    cols = list(np.ascontiguousarray(X.T, dtype=dtype))
    # one spare zero row: a simple coroot's step reads its j = -1 there
    out = np.empty((rs.num_positive_roots + 1, X.shape[0]), dtype=dtype)
    out[-1] = 0
    rows = list(out)  # row views made once, not once per step
    for k, j, i in rs.coroot_chain:
        np.add(rows[j], cols[i], out=rows[k])
    return out[:-1].T


def weyl_dims(rs: RootSystem, weights: Sequence[Weight | Sequence[int]]) -> list[int]:
    """Dimensions of the irreducible representations with highest weights
    ``weights``, each a :class:`~rootcoh.rootsys.Weight` or any integer
    sequence.

    One :func:`pairings` matrix of the ``nu + rho`` gives each row's
    ``(nu + rho, gamma^v)``; its exact Python-int product is divided by
    ``prod (rho, gamma^v)`` (:attr:`~rootcoh.rootsys.RootSystem.rho_denominator`).
    An empty list gives ``[]`` with no pairing.  Raises :class:`WeylError` on
    a wrong length, on a weight that is not dominant, and if a quotient is
    not integral (the normalisation of each coroot cancels factor by factor,
    so it always is).
    """
    lams = [Weight(tuple(lam)) for lam in weights]
    for lam in lams:
        if len(lam) != rs.rank:
            raise WeylError(f"weight has {len(lam)} coordinates, expected {rs.rank}")
        if not lam.is_dominant:
            raise WeylError(f"weyl_dim needs a dominant weight, got {lam}")
    if not lams:
        return []
    den = rs.rho_denominator
    dims = []
    for lam, row in zip(lams, pairings(rs, [[c + 1 for c in lam] for lam in lams]).tolist()):
        q, rem = divmod(prod(row), den)
        if rem:
            raise WeylError(f"dimension product for {lam} is not divisible by {den}")
        dims.append(q)
    return dims


def weyl_dim(rs: RootSystem, lam: Weight | Sequence[int]) -> int:
    """Dimension of the irreducible representation with highest weight lam:
    ``weyl_dims(rs, [lam])[0]``, with its checks."""
    return weyl_dims(rs, [lam])[0]


def bwb(rs: RootSystem, lam: Weight | Sequence[int]) -> BwbOutcome:
    """Regularize lam + rho under the dot action.

    ``lam`` is any integer sequence, a :class:`~rootcoh.rootsys.Weight`
    included, as for :func:`pairing`.  Repeatedly applies the simple
    reflection at the negative coordinate of smallest index.  A zero
    coordinate at any stage means the weight is singular.  Otherwise the
    number of reflections, at most ``N = |Phi+|``, is the length of the Weyl
    element that makes lam + rho strictly dominant; the outcome holds it and
    the dominant part, and no dimension.

    A reflection at ``i`` negates ``x[i]`` and moves only the Dynkin
    neighbours of ``i`` (:attr:`~rootcoh.rootsys.RootSystem.reflection_table`),
    so ``x`` is scanned for a zero once, and afterwards only the neighbours
    are.  Raises :class:`WeylError` on a wrong length, and if ``x`` is
    neither singular nor dominant after ``N`` reflections (which a table of
    a finite Weyl group never allows).
    """
    n, bound, neighbours = rs.reflection_table
    x = [c + 1 for c in lam]
    if len(x) != n:
        raise WeylError(f"weight has {len(x)} coordinates, expected {n}")
    if 0 in x:
        return _SINGULAR
    for steps in range(bound + 1):
        for i, c in enumerate(x):
            if c < 0:
                break
        else:
            return BwbOutcome(steps, Weight(tuple([c - 1 for c in x])))
        if steps == bound:
            break
        x[i] = -c
        for j, a in neighbours[i]:
            y = x[j] - c * a
            if not y:
                return _SINGULAR
            x[j] = y
    raise WeylError(
        f"regularization of {Weight(tuple(lam))} did not terminate in {bound} reflections"
    )


def degree_by_inversions(rs: RootSystem, lam: Weight) -> int | None:
    """Cohomology degree as the inversion count of lam + rho.

    Returns None when lam + rho is singular.  This is an independent route
    to the degree: it never applies a reflection.
    """
    x = tuple(c + 1 for c in lam.coords)
    count = 0
    for r in rs.positive_roots:
        v = sum(cv * xc for cv, xc in zip(r.coroot_coords, x))
        if v == 0:
            return None
        if v < 0:
            count += 1
    return count
