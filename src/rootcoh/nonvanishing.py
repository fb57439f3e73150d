"""Certificates that H^{d-1,1} of the flag variety is nonzero.

For every simple type of rank >= 2 there is a strictly dominant weight
``lam = 2*rho - beta1 - beta2`` (two adjacent simple roots, chosen per
family) such that the weights of ``Lambda^{d-1} n- (x) k_lam`` are, with a
short list of exceptions, all singular.  Arranged so that no later weight
precedes an earlier one in the root order, the filtration by these weights
pins enough of the cohomology to force ``H^{d-1,1} != 0``: the degree-1
contributions strictly outweigh the degree-0 ones while no other degree
occurs, so the alternating sum leaves the first cohomology nonzero.

The certificate built here validates exactly those structural facts
(classification of every weight, regularization outcomes, ordering); the
splice of long exact sequences that turns them into the cohomological
conclusion is standard bookkeeping and is not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .exterior import lambda_p_weights
from .rootsys import Root, RootSystem, Weight, SCHEMA
from .weyl import BwbOutcome, bwb, pairing


class CertificateError(ValueError):
    """Raised when the witness-weight classification breaks down."""


KIND_EXCEPTIONAL = "exceptional"
KIND_SINGULAR = "singular"
KIND_EXTRA = "extra"


def _beta_indices(rs: RootSystem) -> tuple[int, int]:
    """The two adjacent simple roots subtracted from 2*rho (0-based)."""
    n = rs.rank
    if n < 2:
        raise CertificateError("certificates need rank >= 2")
    fam = rs.simple_type.family
    if fam == "D":
        return (n - 4, n - 3)
    if fam == "F" or n in (2, 3):
        return (0, 1)
    return (n - 3, n - 2)


def theorem12_lambda(rs: RootSystem) -> Weight:
    """The strictly dominant witness weight 2*rho minus two adjacent simple roots."""
    i, j = _beta_indices(rs)
    two_rho = Weight((2,) * rs.rank)
    lam = two_rho - rs.simple_root(i).weight - rs.simple_root(j).weight
    if not lam.is_strictly_dominant:
        raise CertificateError(f"witness weight {lam} is not strictly dominant")
    return lam


@dataclass(frozen=True)
class ClassifiedWeight:
    """One weight alpha - beta of the top-but-one exterior power."""

    source: Root
    mu: Weight
    kind: str
    nu: Root | None
    outcome: BwbOutcome


def classify_lemma11(rs: RootSystem) -> list[ClassifiedWeight]:
    """Classify the weights alpha - beta, alpha running over the positive roots.

    ``beta = beta1 + beta2`` is the pair of simple roots that
    :func:`theorem12_lambda` subtracts from 2*rho.  Each weight is
    exceptional (one of -beta2, -beta1, 0), or singular with an explicit
    witness from the triple {beta1, beta2, beta1 + beta2}, or, for G2 only,
    one of the two extra regular weights.  Any other outcome falsifies the
    classification and raises, naming the offending root.
    """
    i, j = _beta_indices(rs)
    b1 = rs.simple_root(i)
    b2 = rs.simple_root(j)
    beta_sum_rc = tuple(
        a + b for a, b in zip(b1.root_coords, b2.root_coords)
    )
    triple = (b1, b2, rs.root_by_coords(beta_sum_rc))
    beta_w = b1.weight + b2.weight
    zero = Weight.zero(rs.rank)
    exceptional_values = {(-b2.weight).coords, (-b1.weight).coords, zero.coords}
    is_g2 = rs.simple_type.family == "G"

    out: list[ClassifiedWeight] = []
    for alpha in rs.positive_roots:
        mu = alpha.weight - beta_w
        outcome = bwb(rs, mu)
        if mu.coords in exceptional_values:
            out.append(ClassifiedWeight(alpha, mu, KIND_EXCEPTIONAL, None, outcome))
            continue
        nu = next(
            (t for t in triple if pairing(rs, mu + rs.rho, t) == 0),
            None,
        )
        if nu is not None:
            if not outcome.is_singular:
                raise CertificateError(
                    f"{rs.simple_type}: weight {mu} from root {alpha.root_coords} "
                    f"pairs to zero with {nu.root_coords} but regularizes"
                )
            out.append(ClassifiedWeight(alpha, mu, KIND_SINGULAR, nu, outcome))
            continue
        if is_g2 and not outcome.is_singular:
            out.append(ClassifiedWeight(alpha, mu, KIND_EXTRA, None, outcome))
            continue
        raise CertificateError(
            f"{rs.simple_type}: weight {mu} from root {alpha.root_coords} is "
            "neither exceptional nor singular via the designated triple"
        )
    return out


@dataclass(frozen=True)
class NonvanishingCertificate:
    """Ordered filtration data forcing H^{d-1,1} != 0 for L(lam)."""

    type: str
    d: int
    lam: Weight
    beta_indices: tuple[int, int]
    records: tuple[ClassifiedWeight, ...]
    degree_totals: Mapping[int, int]
    valid: bool
    failure: str | None

    @property
    def exceptional(self) -> tuple[ClassifiedWeight, ...]:
        """The sublist with non-singular regularization outcome."""
        return tuple(r for r in self.records if not r.outcome.is_singular)

    @property
    def num_singular(self) -> int:
        return sum(1 for r in self.records if r.outcome.is_singular)

    @property
    def conclusion(self) -> str:
        if not self.valid:
            return f"invalid certificate: {self.failure}"
        return (
            f"H^{{{self.d - 1},1}}(G/B, L({self.lam})) != 0; "
            "Bott vanishing fails"
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "nonvanishing_certificate",
            "type": self.type,
            "d": self.d,
            "lambda": list(self.lam.coords),
            "beta_indices": list(self.beta_indices),
            "valid": self.valid,
            "failure": self.failure,
            "degree_totals": {str(k): str(v) for k, v in self.degree_totals.items()},
            "conclusion": self.conclusion,
            "weights": [
                {
                    "source_root": list(r.source.root_coords),
                    "mu": list(r.mu.coords),
                    "kind": r.kind,
                    "nu": list(r.nu.root_coords) if r.nu else None,
                    "outcome": r.outcome.to_json_dict(),
                }
                for r in self.records
            ],
        }


def _check_filtration_order(records: tuple[ClassifiedWeight, ...]) -> None:
    """No later weight may sit below an earlier one in the root order.

    Raises on the first pair ``s < t`` (by ``s``, then ``t``) whose source
    root coordinates satisfy ``rc_s >= rc_t`` entrywise.
    """
    rc = np.array([r.source.root_coords for r in records], dtype=np.int64)
    below = (rc[:, None, :] >= rc[None, :, :]).all(axis=2)
    bad = np.argwhere(np.triu(below, k=1))
    if bad.size:
        s, t = bad[0]
        raise CertificateError(f"ordering violated between positions {s} and {t}")


def build_certificate(rs: RootSystem) -> NonvanishingCertificate:
    """Construct and validate the full nonvanishing certificate for one type.

    Weights are ordered by ascending height of the source root with a
    lexicographic tiebreak (the canonical order of the catalogue).  The
    validated pattern: the two weights sourced at the designated simple roots
    regularize to degree 1 with trivial dominant part, they precede the zero
    weight (degree 0, dimension 1), every other weight is singular except the
    tracked extras, and the total degree-1 dimension strictly exceeds the
    degree-0 total with no other degree present.
    """
    t = str(rs.simple_type)
    d = rs.num_positive_roots
    lam = theorem12_lambda(rs)
    i, j = _beta_indices(rs)
    try:
        records = tuple(classify_lemma11(rs))
        _check_filtration_order(records)
        b1 = rs.simple_root(i)
        b2 = rs.simple_root(j)
        pos = {r.source.root_coords: k for k, r in enumerate(records)}
        unit_sources = (b1.root_coords, b2.root_coords)
        beta_rc = tuple(a + b for a, b in zip(*unit_sources))
        for rc in unit_sources:
            r = records[pos[rc]]
            ok = (
                r.kind == KIND_EXCEPTIONAL
                and not r.outcome.is_singular
                and r.outcome.degree == 1
                and r.outcome.dominant == Weight.zero(rs.rank)
                and r.outcome.dim == 1
            )
            if not ok:
                raise CertificateError(
                    f"weight from simple root {rc} does not contribute one "
                    "unit in degree 1"
                )
        zero_rec = records[pos[beta_rc]]
        if not (
            zero_rec.kind == KIND_EXCEPTIONAL
            and zero_rec.outcome.degree == 0
            and zero_rec.outcome.dim == 1
        ):
            raise CertificateError("zero weight does not contribute in degree 0")
        if not (pos[unit_sources[0]] < pos[beta_rc] and pos[unit_sources[1]] < pos[beta_rc]):
            raise CertificateError("degree-1 units do not precede the zero weight")

        totals: dict[int, int] = {}
        for r in records:
            if not r.outcome.is_singular:
                totals[r.outcome.degree] = (
                    totals.get(r.outcome.degree, 0) + r.outcome.dim
                )
        if any(q not in (0, 1) for q in totals):
            raise CertificateError("a weight regularizes outside degrees 0 and 1")
        if totals.get(1, 0) <= totals.get(0, 0):
            raise CertificateError(
                "degree-1 total does not dominate the degree-0 total"
            )
        return NonvanishingCertificate(
            type=t,
            d=d,
            lam=lam,
            beta_indices=(i, j),
            records=records,
            degree_totals=dict(sorted(totals.items())),
            valid=True,
            failure=None,
        )
    except CertificateError as exc:
        return NonvanishingCertificate(
            type=t,
            d=d,
            lam=lam,
            beta_indices=(i, j),
            records=(),
            degree_totals={},
            valid=False,
            failure=str(exc),
        )


@dataclass(frozen=True)
class E1Page:
    """Per-degree dimension totals of the regularized weight multiset."""

    type: str
    p: int
    lam: Weight
    buckets: Mapping[int, int]
    euler: int
    concentrated: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "e1_page",
            "type": self.type,
            "p": self.p,
            "lambda": list(self.lam.coords),
            "buckets": {str(k): str(v) for k, v in self.buckets.items()},
            "euler": str(self.euler),
            "concentrated": self.concentrated,
        }


def e1_page(rs: RootSystem, p: int, lam: Weight) -> E1Page:
    """Regularize every weight of Lambda^p n- (x) k_lam and total by degree.

    Buckets sum dimension times multiplicity per cohomology degree.  When at
    most one bucket is nonzero the filtration leaves no room for
    cancellation, so the buckets are the exact cohomology dimensions.
    """
    ms = lambda_p_weights(rs, p, lam)
    buckets: dict[int, int] = {}
    for w, mult in ms.entries:
        outcome = bwb(rs, w)
        if outcome.is_singular:
            continue
        buckets[outcome.degree] = buckets.get(outcome.degree, 0) + outcome.dim * mult
    euler = sum((-1) ** q * v for q, v in buckets.items())
    nonzero = sum(1 for v in buckets.values() if v)
    return E1Page(
        type=str(rs.simple_type),
        p=p,
        lam=lam,
        buckets=dict(sorted(buckets.items())),
        euler=euler,
        concentrated=nonzero <= 1,
    )
