"""Dominance-or-singularity checks for the weights of Lambda^p n- (x) k_lam.

``check_theorem1`` classifies every weight mu in the support of the degree-p
sums of distinct negative roots: either lam + mu is dominant, or
lam + mu + rho pairs to zero with some positive coroot (singular), or neither
(a violation).  A report with no violations certifies the vanishing of the
twisted (p, q) cohomology for all q >= 1.  Only the non-dominant rows are
decoded, and they are classified in two stages: the pairing with the simple
coroot ``alpha_k^v`` is coordinate k of ``x = lam + mu + rho``, so a row with
a zero coordinate is singular at once, and only the rest are paired with
every positive coroot.  :func:`~rootcoh.exterior.translate` builds ``x`` and
:func:`~rootcoh.weyl.pairings` pairs it, both exact for any ints.

``prop2_threshold`` gives closed-form per-coordinate lower bounds on lam that
guarantee a pass on every type, read off the column profile of the
positive-root weight rows; ``corollary_bound`` gives the p-free bounds
h_alpha - 1 and h - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .exterior import MAX_LIVE_KEYS, phi_sums, rows_below, translate
from .rootsys import Root, RootSystem, Weight
from .weyl import pairings


class VanishingError(ValueError):
    """Raised on out-of-contract inputs to the vanishing checks."""


@dataclass(frozen=True)
class Witness:
    """Classification of one weight mu from the degree-p support."""

    mu: Weight
    kind: str
    singular_root: Root | None = None


@dataclass
class VanishingReport:
    """Outcome of the hypothesis check for one (type, p, lam).

    Only the non-dominant rows are held: their indices in ``phi_sums``
    order, and which of them are violations.  :meth:`witnesses` decodes the
    whole support on demand and finds each singular row's witness root then.
    """

    type: str
    p: int
    lam: Weight
    verdict: str
    num_dominant: int
    num_singular: int
    num_violations: int
    first_violation: Weight | None
    _rs: RootSystem = field(repr=False)
    _idx: np.ndarray = field(repr=False)
    _violation: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def witnesses(self) -> Iterator[Witness]:
        """Per-mu records, in lexicographic order of mu.

        A singular row's witness is the first positive root in canonical
        order whose coroot pairs ``lam + mu + rho`` to zero: the ``argmax``
        of its zero pairings, with every singular row paired in blocks as in
        :func:`check_theorem1`.  Roots come by ascending height, so a row
        with a zero coordinate takes the first simple root at a zero
        coordinate.
        """
        rs = self._rs
        roots = rs.positive_roots
        mu, _ = phi_sums(rs, self.p)
        x = translate(mu[self._idx], (self.lam + rs.rho).coords)
        witness = np.full(self._idx.size, -1)
        for block in _blocks(rs, np.flatnonzero(~self._violation)):
            witness[block] = (pairings(rs, x[block]) == 0).argmax(axis=1)
        root_of = dict(zip(self._idx.tolist(), witness.tolist()))
        for i, row in enumerate(mu.tolist()):
            r = root_of.get(i)
            kind = "dominant" if r is None else "violation" if r < 0 else "singular"
            root = roots[r] if kind == "singular" else None
            yield Witness(mu=Weight(tuple(row)), kind=kind, singular_root=root)


def _blocks(rs: RootSystem, rows: np.ndarray) -> Iterator[np.ndarray]:
    """``rows`` in slices of at most ``MAX_LIVE_KEYS // N``, so no pairing
    block holds more entries than the exterior engine may hold keys."""
    step = max(1, MAX_LIVE_KEYS // rs.num_positive_roots)
    for start in range(0, rows.size, step):
        yield rows[start : start + step]


def check_theorem1(rs: RootSystem, p: int, lam: Weight) -> VanishingReport:
    """Classify every mu in the degree-p support against lam.

    Requires lam dominant, and is exact for lam of any size, as
    :func:`~rootcoh.nonvanishing.e1_page` is.  The first violation is the
    lexicographically smallest violating mu.

    Only the rows below ``-lam`` in some coordinate, the non-dominant ones,
    are decoded (:func:`~rootcoh.exterior.rows_below`), and they are
    classified in two stages on ``x = mu + lam + rho``.  Stage 1: the pairing
    with the simple coroot ``alpha_k^v`` is ``x_k``, so a row with a zero
    coordinate is singular.  Stage 2: each other row is paired with every
    positive coroot, in blocks of at most ``MAX_LIVE_KEYS // N`` rows, and is
    a violation iff none of its pairings is 0.  Witness roots are found only
    by :meth:`VanishingReport.witnesses`.
    """
    if len(lam.coords) != rs.rank:
        raise VanishingError(f"lambda has {len(lam.coords)} coordinates")
    if not lam.is_dominant:
        raise VanishingError(f"lambda must be dominant, got {lam}")
    idx, mu, size = rows_below(rs, p, [-c for c in lam.coords])
    x = translate(mu, (lam + rs.rho).coords)
    rest = np.flatnonzero(x.all(axis=1))
    violation = np.zeros(idx.size, dtype=bool)
    for block in _blocks(rs, rest):
        violation[block] = ~(pairings(rs, x[block]) == 0).any(axis=1)
    violations = np.flatnonzero(violation)
    first = None
    if violations.size:
        first = Weight(tuple(mu[violations[0]].tolist()))
    return VanishingReport(
        type=str(rs.simple_type),
        p=p,
        lam=lam,
        verdict="fail" if violations.size else "pass",
        num_dominant=size - idx.size,
        num_singular=idx.size - violations.size,
        num_violations=violations.size,
        first_violation=first,
        _rs=rs,
        _idx=idx,
        _violation=violation,
    )


def prop2_threshold(rs: RootSystem, p: int) -> tuple[int, ...]:
    """Closed-form coordinate lower bounds sufficient for a degree-p pass.

    Coordinate i is ``max(0, M_i(p) - 1)``, ``M_i(p) = rs.column_profile[p][i]``.
    It suffices on every type, at every p and for every lam above it: a sum mu
    of p distinct negative roots has ``mu_i >= -M_i(p)``, so ``lam_i >= M_i(p) - 1``
    gives ``(lam + mu)_i >= -1``.  Then either lam + mu is dominant, or some
    coordinate is -1 and lam + mu + rho pairs to zero with that simple coroot.
    """
    if not 0 <= p <= rs.num_positive_roots:
        raise VanishingError(f"p must lie in [0, {rs.num_positive_roots}], got {p}")
    return tuple(max(0, m - 1) for m in rs.column_profile[p])


def corollary_bound(rs: RootSystem, kind: str = "per_root") -> tuple[int, ...]:
    """p-independent lower bounds: h_alpha - 1 per coordinate, or h - 1 flat.

    Corollary 5 read off :func:`prop2_threshold`: ``h_alpha = max_p M_i(p)``.
    The largest sum of entries of column i takes all its positive entries, and
    those sum to h_alpha: the positive roots sum to 2 rho (column sum 2), and
    the absolute column sum is ``2 h_alpha - 2``.
    """
    if kind == "per_root":
        return tuple(h - 1 for h in rs.coxeter_per_root)
    if kind == "global":
        return (rs.coxeter_number - 1,) * rs.rank
    raise VanishingError(f"kind must be 'per_root' or 'global', got {kind!r}")
