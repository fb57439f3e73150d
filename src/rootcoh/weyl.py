"""Dot action, dominance regularization, and the exact dimension formula.

The central routine is :func:`bwb`: starting from ``x = lam + rho`` it either
finds a zero coordinate (the weight is singular and all cohomology of the
line bundle vanishes) or applies simple reflections at negative coordinates
until ``x`` is strictly dominant.  The number of reflections applied is the
unique cohomology degree in which the line bundle has sections.

:func:`pairings` is the one batched primitive: it pairs many weights with
every positive coroot in a single int64 matrix product, refusing inputs
whose products could leave int64.  From one pairing matrix a row is
singular iff it holds a 0, and its degree is the number of negative entries
(the inversion count).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from .rootsys import Root, RootSystem, Weight


class WeylError(ValueError):
    """Raised on malformed inputs to the dot-action routines."""


@dataclass(frozen=True)
class BwbOutcome:
    """Result of regularizing lam + rho.

    Either ``singular`` (some pairing with a positive coroot vanishes, all
    cohomology is zero) or ``concentrated``: cohomology lives in the single
    degree ``degree`` and equals the representation with highest weight
    ``dominant``, whose dimension is ``dim``.
    """

    kind: str
    degree: int | None = None
    dominant: Weight | None = None
    dim: int | None = None

    SINGULAR = "singular"
    CONCENTRATED = "concentrated"

    @classmethod
    def singular(cls) -> "BwbOutcome":
        return cls(kind=cls.SINGULAR)

    @classmethod
    def concentrated(cls, degree: int, dominant: Weight, dim: int) -> "BwbOutcome":
        return cls(kind=cls.CONCENTRATED, degree=degree, dominant=dominant, dim=dim)

    @property
    def is_singular(self) -> bool:
        return self.kind == self.SINGULAR

    def to_json_dict(self) -> dict:
        if self.is_singular:
            return {"kind": "singular"}
        return {
            "kind": "concentrated",
            "degree": self.degree,
            "dominant": list(self.dominant.coords),
            "dim": str(self.dim),
        }


#: The one singular outcome; :class:`BwbOutcome` is frozen, so it is shared.
_SINGULAR = BwbOutcome.singular()


def pairing(rs: RootSystem, mu: Weight | Sequence[int], gamma: Root) -> int:
    """Exact pairing (mu, gamma^v) via gamma's coroot coordinates."""
    coords = mu.coords if isinstance(mu, Weight) else tuple(mu)
    if len(coords) != rs.rank:
        raise WeylError(f"weight has {len(coords)} coordinates, expected {rs.rank}")
    return sum(c * x for c, x in zip(gamma.coroot_coords, coords))


def pairings(rs: RootSystem, X) -> np.ndarray:
    """All pairings (x, gamma^v): the int64 matrix ``X @ C.T``.

    Row i of the result pairs row i of ``X`` with every positive coroot, in
    canonical root order.  Raises :class:`WeylError` before the product when
    ``max|X|`` times the largest absolute row sum of ``C`` could leave int64.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != rs.rank:
        raise WeylError(f"pairings need rows of {rs.rank} coordinates, got shape {X.shape}")
    mat = rs.coroot_matrix
    if X.size:
        top = max(int(X.max()), -int(X.min()))
        if top * int(np.abs(mat).sum(axis=1).max()) >= 2**63:
            raise WeylError(f"pairings of entries up to {top} could overflow int64")
    return X.astype(np.int64, copy=False) @ mat.T


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    Computed as the exact product over positive roots of
    (lam + rho, gamma^v) / (rho, gamma^v); the normalisation of each coroot
    cancels factor by factor, and the quotient of the two big-integer
    products is always integral.
    """
    if len(lam.coords) != rs.rank:
        raise WeylError(f"weight has {len(lam.coords)} coordinates, expected {rs.rank}")
    if not lam.is_dominant:
        raise WeylError(f"weyl_dim needs a dominant weight, got {lam}")
    xp = [c + 1 for c in lam.coords]
    num = prod([sum(map(mul, row, xp)) for row in rs.coroot_rows])
    den = rs.rho_denominator
    q, rem = divmod(num, den)
    if rem:
        raise WeylError(f"dimension product for {lam} is not divisible by {den}")
    return q


def bwb(rs: RootSystem, lam: Weight) -> BwbOutcome:
    """Regularize lam + rho under the dot action.

    Repeatedly applies the simple reflection at the negative coordinate of
    smallest index.  A zero coordinate at any stage means the weight is
    singular.  Otherwise the number of reflections, at most ``|Phi+|``, is the
    length of the Weyl element that makes lam + rho strictly dominant.
    """
    if len(lam.coords) != rs.rank:
        raise WeylError(f"weight has {len(lam.coords)} coordinates, expected {rs.rank}")
    rows = rs.simple_weight_rows
    x = [c + 1 for c in lam.coords]
    limit = rs.num_positive_roots + 1
    for steps in range(limit + 1):
        if 0 in x:
            return _SINGULAR
        for i, c in enumerate(x):
            if c < 0:
                break
        else:
            dominant = Weight(tuple(c - 1 for c in x))
            return BwbOutcome.concentrated(steps, dominant, weyl_dim(rs, dominant))
        x = [a - c * r for a, r in zip(x, rows[i])]
    raise WeylError(f"regularization of {lam} did not terminate in {limit} steps")


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
