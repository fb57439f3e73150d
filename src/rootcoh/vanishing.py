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
h_alpha - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .exterior import MAX_LIVE_KEYS, phi_sums, rows_below, translate
from .rootsys import Root, RootSystem, Weight, root_system
from .weyl import pairings


class VanishingError(ValueError):
    """Raised on out-of-contract inputs to the vanishing checks."""


@dataclass(frozen=True)
class Witness:
    """Classification of one weight mu from the degree-p support."""

    mu: Weight
    kind: str
    singular_root: Root | None = None


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of the hypothesis check for one (type, p, lam): the verdict
    and the counts that ``check-t1`` prints, and nothing else.

    :meth:`witnesses` lists the rows again from ``type``, ``p`` and ``lam``.
    """

    type: str
    p: int
    lam: Weight
    verdict: str
    num_dominant: int
    num_singular: int
    num_violations: int
    first_violation: Weight | None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def witnesses(self) -> Iterator[Witness]:
        """Per-mu records, in lexicographic order of mu.

        The catalogue is ``root_system(self.type)``, the cached one that
        :func:`check_theorem1` was given.  Every row of :func:`phi_sums
        <rootcoh.exterior.phi_sums>` is moved to ``x = lam + mu + rho``; a
        row is dominant iff every ``x_k > 0``, and each other row is paired
        with every positive coroot in blocks, as in :func:`check_theorem1`.
        A singular row's witness is the first positive root in canonical
        order whose coroot pairs ``x`` to zero, the ``argmax`` of its zero
        pairings; a row with no zero pairing is a violation.  Roots come by
        ascending height, so a row with a zero coordinate takes a simple
        root; the simple roots come last node first, so it is the simple
        root of the row's last zero coordinate.  Every row is classified
        before the first record is yielded.
        """
        rs = root_system(self.type)
        mu, _ = phi_sums(rs, self.p)
        x = translate(mu, (self.lam + rs.rho).coords)
        dominant = (x > 0).all(axis=1)
        # the witness root of each singular row, -1 on every other row
        witness = np.full(len(mu), -1)
        for block in _blocks(rs, np.flatnonzero(~dominant)):
            zero = pairings(rs, x[block]) == 0
            witness[block] = np.where(zero.any(axis=1), zero.argmax(axis=1), -1)
        roots = rs.positive_roots
        for row, d, r in zip(mu.tolist(), dominant.tolist(), witness.tolist()):
            kind = "dominant" if d else "violation" if r < 0 else "singular"
            root = roots[r] if r >= 0 else None
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
    a violation iff none of its pairings is 0.  The report holds the counts
    and the first violation only; :meth:`VanishingReport.witnesses` lists
    the rows, with their witness roots, from the whole support again.
    """
    if len(lam.coords) != rs.rank:
        raise VanishingError(f"lambda has {len(lam.coords)} coordinates")
    if not lam.is_dominant:
        raise VanishingError(f"lambda must be dominant, got {lam}")
    mu, size = rows_below(rs, p, [-c for c in lam.coords])
    x = translate(mu, (lam + rs.rho).coords)
    rest = np.flatnonzero(x.all(axis=1))
    violation = np.zeros(len(mu), dtype=bool)
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
        num_dominant=size - len(mu),
        num_singular=len(mu) - violations.size,
        num_violations=violations.size,
        first_violation=first,
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


def corollary_bound(rs: RootSystem) -> tuple[int, ...]:
    """p-independent lower bounds: h_alpha - 1 per coordinate.

    Corollary 5 read off :func:`prop2_threshold`: ``h_alpha = max_p M_i(p)``.
    The largest sum of entries of column i takes all its positive entries, and
    those sum to h_alpha: the positive roots sum to 2 rho (column sum 2), and
    the absolute column sum is ``2 h_alpha - 2``.
    """
    return tuple(h - 1 for h in rs.coxeter_per_root)
