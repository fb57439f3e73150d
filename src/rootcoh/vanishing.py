"""Dominance-or-singularity checks for the weights of Lambda^p n- (x) k_lam.

``check_theorem1`` classifies every weight mu in the support of the degree-p
sums of distinct negative roots: either lam + mu is dominant, or
lam + mu + rho pairs to zero with some positive coroot (singular), or neither
(a violation).  A report with no violations certifies the vanishing of the
twisted (p, q) cohomology for all q >= 1.

``prop2_threshold`` gives closed-form per-coordinate lower bounds on lam that
guarantee a pass, family by family; ``corollary_bound`` gives the p-free
bounds h_alpha - 1 and h - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .exterior import MAX_LIVE_KEYS, decode_vectors, sum_keys
from .rootsys import Root, RootSystem, Weight, SCHEMA
from .weyl import pairings


class VanishingError(ValueError):
    """Raised on out-of-contract inputs to the vanishing checks."""


STATUS_DOMINANT = 0
STATUS_SINGULAR = 1
STATUS_VIOLATION = 2

_STATUS_NAMES = {
    STATUS_DOMINANT: "dominant",
    STATUS_SINGULAR: "singular",
    STATUS_VIOLATION: "violation",
}


@dataclass(frozen=True)
class Witness:
    """Classification of one weight mu from the degree-p support."""

    mu: Weight
    kind: str
    singular_root: Root | None = None


@dataclass
class VanishingReport:
    """Outcome of the hypothesis check for one (type, p, lam)."""

    type: str
    p: int
    lam: Weight
    verdict: str
    num_dominant: int
    num_singular: int
    num_violations: int
    first_violation: Weight | None
    _rs: RootSystem = field(repr=False)
    _mu: np.ndarray = field(repr=False)
    _status: np.ndarray = field(repr=False)
    _witness_idx: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def witnesses(self) -> Iterator[Witness]:
        """Per-mu records, in lexicographic order of mu."""
        roots = self._rs.positive_roots
        for i in range(self._mu.shape[0]):
            status = int(self._status[i])
            mu = Weight(tuple(int(c) for c in self._mu[i]))
            root = (
                roots[int(self._witness_idx[i])]
                if status == STATUS_SINGULAR
                else None
            )
            yield Witness(mu=mu, kind=_STATUS_NAMES[status], singular_root=root)

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        doc = {
            "schema": SCHEMA,
            "kind": "vanishing_report",
            "type": self.type,
            "p": self.p,
            "lambda": list(self.lam.coords),
            "verdict": self.verdict,
            "counts": {
                "dominant": self.num_dominant,
                "singular": self.num_singular,
                "violation": self.num_violations,
            },
            "first_violation": (
                list(self.first_violation.coords) if self.first_violation else None
            ),
            "conclusion": (
                "H^{p,q} = 0 for all q >= 1 at this (p, lambda)"
                if self.passed
                else "hypothesis not satisfied; no vanishing conclusion"
            ),
        }
        if include_witnesses:
            doc["witnesses"] = [
                {
                    "mu": list(w.mu.coords),
                    "kind": w.kind,
                    "singular_root": (
                        list(w.singular_root.root_coords) if w.singular_root else None
                    ),
                }
                for w in self.witnesses()
            ]
        return doc


def check_theorem1(rs: RootSystem, p: int, lam: Weight) -> VanishingReport:
    """Classify every mu in the degree-p support against lam.

    Requires lam dominant, with every coordinate of ``lam + rho`` below
    ``2**63`` so that it fits in int64.  Witness roots are the first
    positive root in canonical order with vanishing pairing; the first
    violation is the lexicographically smallest violating mu.
    Only the non-dominant rows are paired with the coroots, in blocks of at
    most ``MAX_LIVE_KEYS // N`` rows, so no pairing block holds more entries
    than the exterior engine may hold keys.
    """
    if len(lam.coords) != rs.rank:
        raise VanishingError(f"lambda has {len(lam.coords)} coordinates")
    if not lam.is_dominant:
        raise VanishingError(f"lambda must be dominant, got {lam}")
    if max(lam.coords) + 1 >= 2**63:
        raise VanishingError(
            f"lambda + rho coordinates must be below 2**63, got lambda = {lam}"
        )
    keys, _ = sum_keys(rs, p, "-")
    mu = decode_vectors(keys, rs.rank)
    lam_arr = np.array(lam.coords, dtype=np.int64)
    status = np.full(mu.shape[0], STATUS_DOMINANT, dtype=np.int8)
    witness_idx = np.zeros(mu.shape[0], dtype=np.intp)
    rest = np.flatnonzero(~(mu >= -lam_arr).all(axis=1))
    block = max(1, MAX_LIVE_KEYS // rs.num_positive_roots)
    for start in range(0, rest.size, block):
        rows = rest[start : start + block]
        zero = pairings(rs, mu[rows] + (lam_arr + 1)) == 0
        status[rows] = np.where(zero.any(axis=1), STATUS_SINGULAR, STATUS_VIOLATION)
        witness_idx[rows] = np.argmax(zero, axis=1)
    violations = status == STATUS_VIOLATION
    nviol = int(violations.sum())
    first = None
    if nviol:
        first_row = mu[np.argmax(violations)]
        first = Weight(tuple(int(c) for c in first_row))
    return VanishingReport(
        type=str(rs.simple_type),
        p=p,
        lam=lam,
        verdict="pass" if nviol == 0 else "fail",
        num_dominant=int((status == STATUS_DOMINANT).sum()),
        num_singular=int((status == STATUS_SINGULAR).sum()),
        num_violations=nviol,
        first_violation=first,
        _rs=rs,
        _mu=mu,
        _status=status,
        _witness_idx=witness_idx,
    )


def _clamped(values: list[int]) -> tuple[int, ...]:
    return tuple(max(0, v) for v in values)


def _thresholds_a(n: int, p: int) -> tuple[int, ...]:
    if p <= n - 1:
        v = p
    elif p <= (n * n - n + 2) // 2:
        v = n
    else:
        v = (n * n + n + 2 - 2 * p) // 2
    return _clamped([v] * n)


def _thresholds_b(n: int, p: int) -> tuple[int, ...]:
    # a: the n-1 long coordinates, b: the short last coordinate
    if p <= n - 1:
        a, b = p, 2 * p - 1
    elif p <= 2 * n - 3:
        a, b = p, 2 * n - 1
    elif p <= n * n - 2 * n + 3:
        a, b = 2 * n - 2, 2 * n - 1
    elif p <= n * n - n + 1:
        a, b = n * n + 1 - p, 2 * n - 1
    else:
        a, b = n * n + 1 - p, 2 * n * n + 1 - 2 * p
    return _clamped([a] * (n - 1) + [b])


def _thresholds_c(n: int, p: int) -> tuple[int, ...]:
    # a: the n-1 short coordinates, b: the long last coordinate
    if p == 0:
        a = b = 0
    elif p <= 2:
        a, b = 2 * p - 1, p
    elif p <= n - 1:
        a, b = p + 1, p
    elif p <= 2 * n - 3:
        a, b = p + 1, n
    elif p <= n * n - 2 * n + 3:
        a, b = 2 * n - 1, n
    elif p <= n * n - 1:
        # short columns hold 2n-4 entries of -1 and a single -2, so their
        # maximum drops by one per extra root until the very last degree
        a = n * n + 2 - p
        b = n if p <= n * n - n + 1 else n * n + 1 - p
    else:
        a, b = 1, 1
    return _clamped([a] * (n - 1) + [b])


def _thresholds_d(n: int, p: int) -> tuple[int, ...]:
    if p <= 2 * n - 4:
        v = p
    elif p <= n * n - 3 * n + 4:
        v = 2 * n - 3
    else:
        v = n * n - n + 1 - p
    return _clamped([v] * n)


def _thresholds_e(n: int, p: int) -> tuple[int, ...]:
    cap = {6: 11, 7: 17, 8: 29}[n]
    top = {6: 36, 7: 63, 8: 120}[n]
    if p <= cap - 1:
        v = p
    elif p <= top - cap + 1:
        v = cap
    else:
        v = top + 1 - p
    return _clamped([v] * n)


def _thresholds_f(p: int) -> tuple[int, ...]:
    # a: the two long coordinates, b: the two short coordinates
    if p <= 4:
        a, b = p, 2 * p - 1
    elif p <= 7:
        a, b = p, p + 3
    elif p <= 17:
        a, b = 8, 11
    elif p <= 21:
        # short columns lose their four -1 entries one root at a time
        a, b = 25 - p, 28 - p
    else:
        # then the three -2 entries take over, two units per extra root
        a, b = 25 - p, 49 - 2 * p
    return _clamped([a, a, b, b])


def _thresholds_g(p: int) -> tuple[int, ...]:
    # first coordinate long, second short; at p = 1 the negated root of
    # height 4 stays regular against every coroot unless m >= 2
    table = {
        0: (0, 0),
        1: (1, 2),
        2: (2, 4),
        3: (3, 5),
        4: (3, 5),
        5: (2, 4),
        6: (1, 1),
    }
    return table[p]


def prop2_threshold(rs: RootSystem, p: int) -> tuple[int, ...]:
    """Closed-form coordinate lower bounds sufficient for a degree-p pass.

    Pure table lookup plus arithmetic; no enumeration.  The bands follow the
    per-family piecewise case tables, with the handful of entries that fail
    the exhaustive sufficiency check tightened to the per-column maxima.
    The acceptance suite checks every degree of A1-A4, B2-B4, C3, C4, D4,
    D5, F4 and G2 (``verify.BRUTE_TYPES``) against the full weight multiset;
    the bands of the other types are not checked.
    """
    n = rs.rank
    fam = rs.simple_type.family
    if not 0 <= p <= rs.num_positive_roots:
        raise VanishingError(f"p must lie in [0, {rs.num_positive_roots}], got {p}")
    if fam == "A":
        return _thresholds_a(n, p)
    if fam == "B":
        return _thresholds_b(n, p)
    if fam == "C":
        if n == 2:
            # C2 is B2 with the two nodes swapped
            a, b = _thresholds_b(2, p)
            return (b, a)
        return _thresholds_c(n, p)
    if fam == "D":
        return _thresholds_d(n, p)
    if fam == "E":
        return _thresholds_e(n, p)
    if fam == "F":
        return _thresholds_f(p)
    if fam == "G":
        return _thresholds_g(p)
    raise VanishingError(f"no threshold table for family {fam}")


def corollary_bound(rs: RootSystem, kind: str = "per_root") -> tuple[int, ...]:
    """p-independent lower bounds: h_alpha - 1 per coordinate, or h - 1 flat."""
    if kind == "per_root":
        return tuple(h - 1 for h in rs.coxeter_per_root)
    if kind == "global":
        return (rs.coxeter_number - 1,) * rs.rank
    raise VanishingError(f"kind must be 'per_root' or 'global', got {kind!r}")
