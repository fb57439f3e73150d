"""Witness weights, weight classification, certificates, and degree pages."""

import random
import re
from collections import Counter
from math import prod

import numpy as np
import pytest
from conftest import WEYL_DEGREES, poincare
from hypothesis import given, settings, strategies as st

from rootcoh import (
    build_certificate,
    check_theorem1,
    classify_lemma11,
    e1_page,
    nonvanishing,
    root_system,
    theorem12_lambda,
    weyl,
    weyl_dim,
)
from rootcoh.exterior import ExteriorError, lambda_p_weights, phi_sums
from rootcoh.nonvanishing import (
    CertificateError,
    _beta_indices,
)
from rootcoh.rootsys import Weight, all_simple_types
from rootcoh.weyl import BwbOutcome, WeylError, bwb, pairings


def test_witness_weight_examples():
    assert theorem12_lambda(root_system("A2")) == Weight.of(1, 1)
    assert theorem12_lambda(root_system("G2")) == Weight.of(1, 3)
    assert theorem12_lambda(root_system("B4")) == Weight.of(3, 1, 1, 4)
    assert theorem12_lambda(root_system("D4")) == Weight.of(1, 1, 3, 3)
    assert theorem12_lambda(root_system("F4")) == Weight.of(1, 1, 4, 2)


def test_witness_weight_strictly_dominant_everywhere():
    for t in all_simple_types(8):
        if t.rank < 2:
            continue
        assert theorem12_lambda(root_system(t)).is_strictly_dominant


def test_witness_weight_rejects_rank_one():
    with pytest.raises(CertificateError):
        theorem12_lambda(root_system("A1"))


def test_beta_indices_by_family():
    assert _beta_indices(root_system("A5")) == (2, 3)
    assert _beta_indices(root_system("B3")) == (0, 1)
    assert _beta_indices(root_system("D5")) == (1, 2)
    assert _beta_indices(root_system("F4")) == (0, 1)
    assert _beta_indices(root_system("E7")) == (4, 5)


def test_classify_a2_all_exceptional():
    a2 = root_system("A2")
    rows = classify_lemma11(a2)
    assert [r.kind for r in rows] == ["exceptional"] * 3
    assert {r.mu.coords for r in rows} == {(1, -2), (-2, 1), (0, 0)}


def test_classify_b2_singular_witness():
    b2 = root_system("B2")
    assert theorem12_lambda(b2) == Weight.of(1, 2)
    rows = classify_lemma11(b2)
    by_mu = {r.mu.coords: r for r in rows}
    assert set(by_mu) == {(1, -2), (-2, 2), (0, 0), (-1, 2)}
    sing = by_mu[(-1, 2)]
    assert sing.kind == "singular"
    assert sing.nu.root_coords == (1, 0)


def test_classify_g2_extras():
    g2 = root_system("G2")
    rows = classify_lemma11(g2)
    kinds = {r.mu.coords: r.kind for r in rows}
    assert kinds[(-2, 4)] == "extra"
    assert kinds[(0, 1)] == "extra"
    assert kinds[(-1, 2)] == "singular"
    extras = [r for r in rows if r.kind == "extra"]
    assert {(r.outcome.degree, weyl_dim(g2, r.outcome.dominant)) for r in extras} == {
        (1, 7), (0, 7)
    }
    # the dominant extra comes from the highest root
    top = [r for r in rows if r.mu.coords == (0, 1)]
    assert top[0].source.root_coords == (2, 3)


def test_certificate_a2(cli_json):
    cert = build_certificate(root_system("A2"))
    assert cert.valid
    assert cert.lam == Weight.of(1, 1)
    assert cert.degree_totals == {0: 1, 1: 2}
    conclusion = cli_json("certify", "A2")["conclusion"]
    assert "H^{2,1}" in conclusion
    assert "Bott vanishing fails" in conclusion


def test_certificate_b2(cli_json):
    cert = build_certificate(root_system("B2"))
    assert cert.valid
    assert cert.d == 4
    assert "H^{3,1}" in cli_json("certify", "B2")["conclusion"]


def test_certificate_e8():
    cert = build_certificate(root_system("E8"))
    assert cert.valid
    assert cert.d == 120
    assert cert.num_singular == 117
    assert len(cert.exceptional) == 3


def test_certificate_c2_accepted():
    cert = build_certificate(root_system("C2"))
    assert cert.valid
    assert cert.d == 4


def test_certificate_orderings_sound():
    for name in ("A4", "B3", "D5", "G2", "E6"):
        rs = root_system(name)
        cert = build_certificate(rs)
        assert cert.valid
        heights = [r.source.height for r in cert.records]
        assert heights == sorted(heights)
        # two degree-1 units appear strictly before the zero weight
        unit_positions = [
            k
            for k, r in enumerate(cert.records)
            if not r.outcome.is_singular and r.outcome.degree == 1
            and weyl_dim(rs, r.outcome.dominant) == 1
        ]
        zero_pos = next(
            k for k, r in enumerate(cert.records) if r.mu == Weight.zero(len(r.mu))
        )
        assert len([k for k in unit_positions if k < zero_pos]) >= 2


def _corrupted_certificate(monkeypatch, rs, target: Weight, outcome: BwbOutcome):
    """build_certificate(rs) with nonvanishing.bwb answering ``outcome`` at ``target``."""
    honest = nonvanishing.bwb

    def corrupted(rs_, lam):
        return outcome if tuple(lam) == target.coords else honest(rs_, lam)

    monkeypatch.setattr(nonvanishing, "bwb", corrupted)
    cert = build_certificate(rs)
    assert not cert.valid
    assert cert.records == () and cert.degree_totals == {}
    return cert


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "E6"])
@pytest.mark.parametrize("moved", ["unit", "zero"])
def test_certificate_catches_an_exceptional_weight_in_the_wrong_degree(
    monkeypatch, name, moved
):
    # the unit sourced at beta1 (mu = -beta2) moved to degree 2, or the zero
    # weight moved to degree 1: the one pattern check names what it read
    rs = root_system(name)
    z = Weight.zero(rs.rank)
    records = classify_lemma11(rs)
    got = [(r.outcome.degree, r.outcome.dominant) for r in records if r.kind == "exceptional"]
    if moved == "unit":
        target, outcome = z - rs.simple_root(_beta_indices(rs)[1]).weight, BwbOutcome(2, z)
    else:
        target, outcome = z, BwbOutcome(1, z)
    k = [r.mu for r in records if r.kind == "exceptional"].index(target)
    got[k] = (outcome.degree, outcome.dominant)
    cert = _corrupted_certificate(monkeypatch, rs, target, outcome)
    assert cert.failure == (
        "exceptional weights give (degree, dominant) "
        f"[{', '.join(f'({q}, {dom})' for q, dom in got)}], "
        f"not [(1, {z}), (1, {z}), (0, {z})]"
    )


@pytest.mark.parametrize("name", ["B3", "G2", "E6"])
def test_certificate_catches_a_triple_singular_weight_that_regularizes(monkeypatch, name):
    # A2 has no singular weight (test_classify_a2_all_exceptional)
    rs = root_system(name)
    rec = next(r for r in classify_lemma11(rs) if r.kind == "singular")
    cert = _corrupted_certificate(monkeypatch, rs, rec.mu, BwbOutcome(1, Weight.zero(rs.rank)))
    assert cert.failure == (
        f"{name}: weight {rec.mu} from root {rec.source.root_coords} "
        f"pairs to zero with {rec.nu.root_coords} but regularizes"
    )


def test_certificate_totals_are_the_e1_page_one_below_the_top():
    # the weights alpha - beta of the certificate are those of
    # Lambda^{d-1} n- (x) k_lam, so e1 reaches the same totals by its own route
    types = [t for t in all_simple_types(8) if t.rank >= 2]
    assert len(types) == 31
    for t in types:
        rs = root_system(t)
        cert = build_certificate(rs)
        page = e1_page(rs, rs.num_positive_roots - 1, cert.lam)
        assert cert.degree_totals == page.buckets, t


def test_certificate_json_round_trip(cli_json):
    doc = cli_json("certify", "B3")
    weights = doc.pop("weights")
    assert doc == {
        "schema": "rootcoh/1",
        "kind": "nonvanishing_certificate",
        "type": "B3",
        "d": 9,
        "lambda": [1, 1, 4],
        "beta_indices": [0, 1],
        "valid": True,
        "failure": None,
        "degree_totals": {"0": "1", "1": "2"},
        "conclusion": "H^{8,1}(G/B, L((1,1,4))) != 0; Bott vanishing fails",
    }
    assert len(weights) == 9
    assert weights[:2] == [
        {"source_root": [0, 0, 1], "mu": [-1, -2, 4], "kind": "singular",
         "nu": [1, 0, 0], "outcome": {"kind": "singular"}},
        {"source_root": [0, 1, 0], "mu": [-2, 1, 0], "kind": "exceptional", "nu": None,
         "outcome": {"kind": "concentrated", "degree": 1, "dominant": [0, 0, 0], "dim": "1"}},
    ]


def test_e1_page_a2_examples():
    a2 = root_system("A2")
    page = e1_page(a2, 2, a2.rho)
    assert page.buckets == {0: 1, 1: 2}
    assert page.euler == -1
    assert not page.concentrated

    top = e1_page(a2, 3, a2.rho)
    assert top.buckets == {}
    assert top.euler == 0

    for name in ("A2", "B3", "G2"):
        rs = root_system(name)
        lam = Weight((2,) * rs.rank)
        zero_page = e1_page(rs, 0, lam)
        assert zero_page.buckets == {0: weyl_dim(rs, lam)}
        assert zero_page.concentrated


def test_e1_page_dominant_only_families():
    # one-sided dominant weights on A2 keep a degree-1 survivor at p = 2
    a2 = root_system("A2")
    for lam in (Weight.of(2, 0), Weight.of(0, 2)):
        page = e1_page(a2, 2, lam)
        assert page.buckets == {1: 3}
    # larger one-sided weights pick up a degree-0 term as well, but the
    # negative alternating sum still forces first cohomology
    for lam in (Weight.of(5, 0), Weight.of(0, 3)):
        page = e1_page(a2, 2, lam)
        assert page.buckets.get(1, 0) > 0
        assert page.euler < 0


def test_e1_page_euler_is_multiset_invariant():
    g2 = root_system("G2")
    lam = theorem12_lambda(g2)
    page = e1_page(g2, 5, lam)
    # recompute from individually regularized weights in shuffled order
    entries = list(zip(*lambda_p_weights(g2, 5, lam)))
    random.Random(3).shuffle(entries)
    chi = 0
    for coords, m in entries:
        out = bwb(g2, Weight(coords))
        if not out.is_singular:
            chi += (-1) ** out.degree * weyl_dim(g2, out.dominant) * m
    assert chi == page.euler == -1


@pytest.mark.parametrize("name", sorted(WEYL_DEGREES))
def test_e1_page_euler_at_zero_gives_the_hodge_numbers(name):
    # chi_p(0) = (-1)^p h^{p,p}(G/B), and the Hodge numbers h^{p,p} are the
    # coefficients of the Poincare polynomial prod_i (1 + ... + t^(d_i - 1))
    # (Bott 1957): identities of the Weyl group alone, not of the engine
    rs = root_system(name)
    hodge = poincare(WEYL_DEGREES[name])
    zero = Weight.zero(rs.rank)
    assert [e1_page(rs, p, zero).euler for p in range(rs.num_positive_roots + 1)] == [
        (-1) ** p * h for p, h in enumerate(hodge)
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_e1_page_satisfies_serre_duality(data):
    # b_q(p, lam) = b_{N-q}(N-p, -lam) at every lam, dominant or not: it
    # pairs a direct layer with a reflected one
    rs = root_system(data.draw(st.sampled_from(("A1", "A2", "A3", "B2", "B3", "C3", "G2"))))
    n = rs.num_positive_roots
    p = data.draw(st.integers(0, n))
    coords = data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank))
    page = e1_page(rs, p, Weight(tuple(coords)))
    dual = e1_page(rs, n - p, Weight(tuple(-c for c in coords)))
    assert dual.buckets == {n - q: v for q, v in page.buckets.items()}


def test_e1_page_refuses_out_of_contract_input():
    for name in ("A1", "A2", "G2", "B3"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for k in (rs.rank - 1, rs.rank + 1):
            with pytest.raises(ExteriorError, match=f"weight has {k} coordinates"):
                e1_page(rs, 1, Weight((1,) * k))
        for p in (-1, n + 1):
            msg = re.escape(f"p must lie in [0, {n}], got {p}")
            with pytest.raises(ExteriorError, match=msg):
                e1_page(rs, p, rs.rho)


def _buckets_by_pairings(rs, p: int, lam: Weight) -> dict[int, int]:
    """Degree totals from one pairing matrix, without any reflection."""
    vecs, counts = phi_sums(rs, p)
    rows = pairings(rs, vecs + np.array(lam.coords) + 1).tolist()
    buckets: dict[int, int] = {}
    for row, mult in zip(rows, counts.tolist()):
        if 0 in row:
            continue
        q = sum(1 for v in row if v < 0)
        dim, rem = divmod(abs(prod(row)), rs.rho_denominator)
        assert rem == 0
        buckets[q] = buckets.get(q, 0) + dim * mult
    return buckets


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_e1_page_agrees_with_one_pairing_matrix(data):
    # singular iff a pairing of x = mu + lam + rho is 0, degree = the
    # negative pairings, dimension = |prod of the pairings| / prod (rho, gamma^v)
    rs = root_system(data.draw(st.sampled_from(all_simple_types(4))))
    p = data.draw(st.integers(0, rs.num_positive_roots))
    lam = Weight(data.draw(st.tuples(*[st.integers(-3, 3) for _ in range(rs.rank)])))
    page = e1_page(rs, p, lam)
    expected = _buckets_by_pairings(rs, p, lam)
    assert list(page.buckets.items()) == sorted(expected.items())
    assert page.euler == sum((-1) ** q * v for q, v in expected.items())
    assert page.concentrated == (len(expected) <= 1)


#: (type, p, lam) pages with repeated dominant parts, a non-dominant lam and
#: a lam past int64.
COUNTED_PAGES = [
    ("A2", 1, (1, 1)),
    ("G2", 5, (2, 1)),
    ("B3", 4, (-1, 2, 0)),
    ("C3", 3, (2**70, 0, -1)),
    ("D4", 6, (1, 1, 1, 1)),
    ("F4", 12, (0, 1, 0, 2)),
]


def test_e1_page_regularizes_each_weight_once_and_sizes_each_key_once(monkeypatch):
    regularized, sized, inside_bwb = [], [], []
    real_bwb, real_dims = weyl.bwb, weyl.weyl_dims

    def counting_bwb(rs, lam):
        out = real_bwb(rs, lam)
        regularized.append((tuple(lam), out))
        return out

    def counting_dims(rs, weights):
        sized.append([tuple(nu) for nu in weights])
        return real_dims(rs, weights)

    def dims_from_weyl(rs, weights):
        inside_bwb.append(weights)
        return real_dims(rs, weights)

    monkeypatch.setattr(nonvanishing, "bwb", counting_bwb)
    monkeypatch.setattr(nonvanishing, "weyl_dims", counting_dims)
    # bwb reaches weyl_dim or weyl_dims, if at all, through its own module
    monkeypatch.setattr(weyl, "weyl_dims", dims_from_weyl)
    repeats = 0
    for name, p, coords in COUNTED_PAGES:
        rs = root_system(name)
        regularized.clear()
        sized.clear()
        e1_page(rs, p, Weight(coords))
        weights, _ = lambda_p_weights(rs, p, Weight(coords))
        # one bwb call per support weight, the count the benchmark pins
        assert sorted(w for w, _ in regularized) == sorted(weights)
        keys = {(out.degree, out.dominant.coords) for _, out in regularized
                if not out.is_singular}
        # one weyl_dims call per page, holding each distinct (degree,
        # dominant) key once
        assert len(sized) == 1
        assert Counter(sized[0]) == Counter(nu for _, nu in keys)
        regular = sum(not out.is_singular for _, out in regularized)
        repeats += regular - len(keys)
    assert inside_bwb == []
    assert repeats > 0
    # the certificate sizes its regular records with one call too
    sized.clear()
    cert = build_certificate(root_system("G2"))
    keys = {(r.outcome.degree, r.outcome.dominant.coords) for r in cert.exceptional}
    assert len(sized) == 1
    assert Counter(sized[0]) == Counter(nu for _, nu in keys)
    assert len(keys) < len(cert.exceptional)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_e1_page_equals_the_per_weight_sum(data):
    # the isotypic page against the per-weight definition: sum over the
    # regular weights of mult * weyl_dim(bwb(w).dominant), by degree; and
    # bwb and weyl_dim take a Weight, a tuple or a list alike
    rs = root_system(data.draw(st.sampled_from(all_simple_types(3))))
    p = data.draw(st.integers(0, rs.num_positive_roots))
    coords = data.draw(st.tuples(*[st.integers(-4, 6) for _ in range(rs.rank)]))
    expected: dict[int, int] = {}
    for w, mult in zip(*lambda_p_weights(rs, p, Weight(coords))):
        out = bwb(rs, Weight(w))
        assert bwb(rs, w) == bwb(rs, list(w)) == out
        if not out.is_singular:
            dim = weyl_dim(rs, out.dominant)
            nu = out.dominant.coords
            assert weyl_dim(rs, nu) == weyl_dim(rs, list(nu)) == dim
            expected[out.degree] = expected.get(out.degree, 0) + dim * mult
    page = e1_page(rs, p, Weight(coords))
    assert list(page.buckets.items()) == sorted(expected.items())
    wrong = coords + (0,) if data.draw(st.booleans()) else coords[:-1]
    messages = set()
    for lam in (Weight(wrong), wrong, list(wrong)):
        for routine in (bwb, weyl_dim):
            with pytest.raises(WeylError) as err:
                routine(rs, lam)
            messages.add(str(err.value))
    assert messages == {f"weight has {len(wrong)} coordinates, expected {rs.rank}"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_theorem1_passes_iff_the_e1_page_sits_in_degree_0(data):
    # for dominant lam every regular weight of the page is in degree 0 iff
    # each weight of the support is dominant or singular
    name = data.draw(st.sampled_from(
        ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2"]
    ))
    rs = root_system(name)
    p = data.draw(st.integers(0, rs.num_positive_roots))
    lam = Weight(data.draw(st.tuples(*[st.integers(0, 5) for _ in range(rs.rank)])))
    page = e1_page(rs, p, lam)
    assert check_theorem1(rs, p, lam).passed == all(q == 0 for q, v in page.buckets.items() if v)


def test_g2_page_at_witness_weight():
    g2 = root_system("G2")
    page = e1_page(g2, 5, theorem12_lambda(g2))
    assert page.buckets == {0: 8, 1: 9}
    assert page.euler == -1
