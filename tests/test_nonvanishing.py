"""Witness weights, weight classification, certificates, and degree pages."""

import random

import pytest

from rootcoh import (
    build_certificate,
    classify_lemma11,
    e1_page,
    root_system,
    theorem12_lambda,
    weyl_dim,
)
from rootcoh.nonvanishing import (
    CertificateError,
    _beta_indices,
    _check_filtration_order,
)
from rootcoh.rootsys import Weight, all_simple_types
from rootcoh.weyl import bwb


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
    assert {(r.outcome.degree, r.outcome.dim) for r in extras} == {(1, 7), (0, 7)}
    # the dominant extra comes from the highest root
    top = [r for r in rows if r.mu.coords == (0, 1)]
    assert top[0].source.root_coords == (2, 3)


def test_certificate_a2():
    cert = build_certificate(root_system("A2"))
    assert cert.valid
    assert cert.lam == Weight.of(1, 1)
    assert cert.degree_totals == {0: 1, 1: 2}
    assert "H^{2,1}" in cert.conclusion
    assert "Bott vanishing fails" in cert.conclusion


def test_certificate_b2():
    cert = build_certificate(root_system("B2"))
    assert cert.valid
    assert cert.d == 4
    assert "H^{3,1}" in cert.conclusion


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
        cert = build_certificate(root_system(name))
        assert cert.valid
        heights = [r.source.height for r in cert.records]
        assert heights == sorted(heights)
        # two degree-1 units appear strictly before the zero weight
        unit_positions = [
            k
            for k, r in enumerate(cert.records)
            if not r.outcome.is_singular and r.outcome.degree == 1 and r.outcome.dim == 1
        ]
        zero_pos = next(
            k for k, r in enumerate(cert.records) if r.mu == Weight.zero(len(r.mu))
        )
        assert len([k for k in unit_positions if k < zero_pos]) >= 2


def test_certificate_json_round_trip():
    doc = build_certificate(root_system("B3")).to_json_dict()
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
    from rootcoh.exterior import lambda_p_weights

    entries = list(lambda_p_weights(g2, 5, lam).entries)
    random.Random(3).shuffle(entries)
    chi = 0
    for w, m in entries:
        out = bwb(g2, w)
        if not out.is_singular:
            chi += (-1) ** out.degree * out.dim * m
    assert chi == page.euler == -1


def test_g2_page_at_witness_weight():
    g2 = root_system("G2")
    page = e1_page(g2, 5, theorem12_lambda(g2))
    assert page.buckets == {0: 8, 1: 9}
    assert page.euler == -1


def test_filtration_order_rejects_reversed_records():
    for name in ("A2", "B3", "G2", "E6"):
        rs = root_system(name)
        records = tuple(classify_lemma11(rs))
        _check_filtration_order(records)
        with pytest.raises(CertificateError, match="between positions 0 and 1"):
            _check_filtration_order(tuple(reversed(records)))
