"""Certificates that H^{d-1,1} of the flag variety is nonzero.

For every simple type of rank >= 2 there is a strictly dominant weight
``lam = 2*rho - beta1 - beta2`` (two adjacent simple roots, chosen per
family) such that the weights of ``Lambda^{d-1} n- (x) k_lam`` are, with a
short list of exceptions, all singular.  Arranged so that no later weight
precedes an earlier one in the root order, the filtration by these weights
pins enough of the cohomology to force ``H^{d-1,1} != 0``: the degree-1
contributions strictly outweigh the degree-0 ones while no other degree
occurs, so the alternating sum leaves the first cohomology nonzero.

The certificate built here validates exactly those structural facts (every
weight classified, one pattern check on the exceptional weights' outcomes,
the degree totals); the filtration order is the catalogue's own order and
needs no check.  The splice of long exact sequences that turns them into the
cohomological conclusion is standard bookkeeping and is not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .exterior import lambda_p_weights
from .rootsys import Root, RootSystem, Weight
from .weyl import BwbOutcome, bwb, weyl_dims


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
    exceptional (sourced at the triple {beta1, beta2, beta1 + beta2} itself:
    -beta2, -beta1, 0), or singular with an explicit witness ``nu`` from that
    triple, or, for G2 only, one of the two extra regular weights.  ``nu``
    is the first of the triple that ``x = mu + rho`` pairs to zero, read off
    the coordinates ``x_i`` and ``x_j`` of the two simple roots, and each
    weight goes through :func:`bwb` once.  Any other outcome falsifies the
    classification and raises, naming the offending root.
    """
    i, j = _beta_indices(rs)
    b1, b2 = rs.simple_root(i), rs.simple_root(j)
    sum_rc = tuple(a + b for a, b in zip(b1.root_coords, b2.root_coords))
    triple = (b1, b2, rs.root_by_coords(sum_rc))
    beta_w = b1.weight + b2.weight
    # b1^v and b2^v are the simple coroots i and j, and (b1 + b2)^v is zero
    # off i and j, so x pairs with the triple to x_i, x_j and c_i x_i + c_j x_j
    c_i, c_j = triple[2].coroot_coords[i], triple[2].coroot_coords[j]

    out: list[ClassifiedWeight] = []
    for alpha in rs.positive_roots:
        mu = alpha.weight - beta_w
        x_i, x_j = mu.coords[i] + 1, mu.coords[j] + 1
        hit = [x_i == 0, x_j == 0, c_i * x_i + c_j * x_j == 0]
        outcome = bwb(rs, mu)
        nu = None
        if alpha in triple:
            kind = KIND_EXCEPTIONAL
        elif True in hit:
            nu = triple[hit.index(True)]
            if not outcome.is_singular:
                raise CertificateError(
                    f"{rs.simple_type}: weight {mu} from root {alpha.root_coords} "
                    f"pairs to zero with {nu.root_coords} but regularizes"
                )
            kind = KIND_SINGULAR
        elif rs.simple_type.family == "G" and not outcome.is_singular:
            kind = KIND_EXTRA
        else:
            raise CertificateError(
                f"{rs.simple_type}: weight {mu} from root {alpha.root_coords} is "
                "neither exceptional nor singular via the designated triple"
            )
        out.append(ClassifiedWeight(alpha, mu, kind, nu, outcome))
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
        """Every record with a regular outcome, G2's two extras included."""
        return tuple(r for r in self.records if not r.outcome.is_singular)

    @property
    def num_singular(self) -> int:
        return sum(1 for r in self.records if r.outcome.is_singular)


def _degree_totals(rs: RootSystem, pairs: Iterable[tuple[BwbOutcome, int]]) -> dict[int, int]:
    """Dimension totals by degree of ``(outcome, multiplicity)`` pairs, sorted
    by degree, with a key only for a degree that occurs.

    The regular outcomes make an isotypic page, ``(degree, dominant
    coordinates) -> multiplicity``; one :func:`weyl_dims` call sizes every
    key of it once, and each key adds its dimension times its multiplicity
    to its degree's total: one dimension per key, not one per weight.
    """
    page: dict[tuple[int, tuple[int, ...]], int] = {}
    for outcome, mult in pairs:
        if not outcome.is_singular:
            key = (outcome.degree, outcome.dominant.coords)
            page[key] = page.get(key, 0) + mult
    totals: dict[int, int] = {}
    for ((q, _), mult), dim in zip(page.items(), weyl_dims(rs, [nu for _, nu in page])):
        totals[q] = totals.get(q, 0) + dim * mult
    return dict(sorted(totals.items()))


def build_certificate(rs: RootSystem) -> NonvanishingCertificate:
    """Construct and validate the full nonvanishing certificate for one type.

    Weights are ordered by ascending height of the source root with a
    lexicographic tiebreak (the canonical order of the catalogue), which is
    a filtration order with no check: ``s < t`` with ``rc_s >= rc_t``
    entrywise gives ``height_s >= height_t``, so equal heights and ``rc_s ==
    rc_t``, which distinct roots are not.  One pattern check: in that order
    the exceptional weights regularize to
    ``(degree, dominant) == [(1, 0), (1, 0), (0, 0)]``, so the units sourced
    at beta1 and beta2 precede the zero weight.  Every other weight is
    singular except G2's extras, and the total degree-1 dimension strictly
    exceeds the degree-0 total with no other degree present.
    """
    lam = theorem12_lambda(rs)
    try:
        records = tuple(classify_lemma11(rs))
        zero = Weight.zero(rs.rank)
        got = [(r.outcome.degree, r.outcome.dominant)
               for r in records if r.kind == KIND_EXCEPTIONAL]
        if got != [(1, zero), (1, zero), (0, zero)]:
            raise CertificateError(
                "exceptional weights give (degree, dominant) "
                f"[{', '.join(f'({q}, {dom})' for q, dom in got)}], "
                f"not [(1, {zero}), (1, {zero}), (0, {zero})]"
            )
        totals = _degree_totals(rs, ((r.outcome, 1) for r in records))
        if any(q not in (0, 1) for q in totals):
            raise CertificateError("a weight regularizes outside degrees 0 and 1")
        if totals.get(1, 0) <= totals.get(0, 0):
            raise CertificateError(
                "degree-1 total does not dominate the degree-0 total"
            )
        failure = None
    except CertificateError as exc:
        records, totals, failure = (), {}, str(exc)
    return NonvanishingCertificate(
        type=str(rs.simple_type),
        d=rs.num_positive_roots,
        lam=lam,
        beta_indices=_beta_indices(rs),
        records=records,
        degree_totals=totals,
        valid=failure is None,
        failure=failure,
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


def e1_page(rs: RootSystem, p: int, lam: Weight) -> E1Page:
    """Regularize every weight of Lambda^p n- (x) k_lam and total by degree.

    The weights and their multiplicities come from :func:`lambda_p_weights
    <rootcoh.exterior.lambda_p_weights>` as coordinate tuples and ints,
    exact for any size of lam; each distinct weight goes through :func:`bwb`
    once, as its tuple, and :func:`_degree_totals` sizes the regular ones by
    degree.  When at most one degree occurs the filtration leaves no room for
    cancellation, so the buckets are the exact cohomology dimensions.  A lam
    of the wrong length, or ``p`` outside ``[0, N]``, raises
    :class:`ExteriorError <rootcoh.exterior.ExteriorError>`.
    """
    weights, mults = lambda_p_weights(rs, p, lam)
    buckets = _degree_totals(rs, ((bwb(rs, w), m) for w, m in zip(weights, mults)))
    euler = sum((-1) ** q * v for q, v in buckets.items())
    return E1Page(
        type=str(rs.simple_type),
        p=p,
        lam=lam,
        buckets=buckets,
        euler=euler,
        concentrated=len(buckets) <= 1,
    )
