"""Regularization, the pairing primitive, and the dimension formula."""

import itertools
import json
import random
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootcoh import bwb, pairing, pairings, root_system, weyl_dim
from rootcoh.rootsys import Weight, all_simple_types, rs_from_json_dict, rs_to_json_dict
from rootcoh.weyl import BwbOutcome, WeylError, degree_by_inversions


def test_pairing_rho_against_simple_coroots():
    for name in ("A4", "B3", "F4", "G2", "E6"):
        rs = root_system(name)
        for i in range(rs.rank):
            assert pairing(rs, rs.rho, rs.simple_root(i)) == 1


def test_pairing_examples():
    g2 = root_system("G2")
    highest_short = g2.root_by_coords((1, 2))
    assert pairing(g2, g2.rho, highest_short) == g2.coxeter_number - 1 == 5
    a2 = root_system("A2")
    assert pairing(a2, Weight.of(-1, 2), a2.root_by_coords((1, 1))) == 1


def test_pairing_dimension_mismatch():
    a2 = root_system("A2")
    with pytest.raises(WeylError):
        pairing(a2, Weight.of(1, 2, 3), a2.simple_root(0))


def test_bwb_zero_weight():
    for name in ("A1", "B3", "E7", "G2"):
        rs = root_system(name)
        out = bwb(rs, Weight.zero(rs.rank))
        assert out == BwbOutcome.concentrated(0, Weight.zero(rs.rank), 1)


def test_bwb_minus_rho_is_singular():
    for name in ("A2", "C3", "F4"):
        rs = root_system(name)
        assert bwb(rs, -rs.rho).is_singular


def test_bwb_minus_simple_root():
    for name in ("A2", "B2", "D4", "F4", "G2", "E6"):
        rs = root_system(name)
        for i in range(rs.rank):
            out = bwb(rs, -rs.simple_root(i).weight)
            assert not out.is_singular
            assert out.degree == 1
            assert out.dominant == Weight.zero(rs.rank)
            assert out.dim == 1


def test_bwb_singular_iff_coroot_scan():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        box = list(itertools.product(range(-6, 7), repeat=rs.rank))
        scan = (pairings(rs, np.array(box) + 1) == 0).any(axis=1)
        for coords, singular in zip(box, scan):
            assert bwb(rs, Weight(coords)).is_singular == singular


def test_pairings_match_pairing():
    rng = random.Random(11)
    for name in ("A1", "A3", "B4", "C3", "D5", "E6", "F4", "G2"):
        rs = root_system(name)
        X = [[rng.randint(-50, 50) for _ in range(rs.rank)] for _ in range(20)]
        got = pairings(rs, X)
        assert got.dtype == np.int64
        assert got.tolist() == [
            [pairing(rs, x, r) for r in rs.positive_roots] for x in X
        ]


def test_pairings_refuse_overflow():
    g2 = root_system("G2")  # largest absolute coroot row sum: 3 + 2 = 5
    assert pairings(g2, [[2**60, 0]]).max() == 3 * 2**60
    with pytest.raises(WeylError, match="overflow"):
        pairings(g2, np.array([[2**61, 0]], dtype=np.int64))
    with pytest.raises(WeylError, match="overflow"):
        pairings(g2, np.array([[0, -(2**63)]], dtype=np.int64))
    with pytest.raises(WeylError, match="overflow"):
        pairings(g2, [[2**70, 1]])
    with pytest.raises(WeylError):
        pairings(g2, [[1, 2, 3]])


def test_cached_tables_survive_a_json_round_trip():
    for name in ("A3", "B3", "G2", "E6"):
        rs = root_system(name)
        rebuilt = rs_from_json_dict(json.loads(json.dumps(rs_to_json_dict(rs))))
        assert rebuilt is not rs
        assert rebuilt.simple_weight_rows == rs.simple_weight_rows
        assert rebuilt.simple_weight_rows is rebuilt.simple_weight_rows
        n = rs.rank
        assert rs.simple_weight_rows == tuple(
            tuple(rs.cartan[a][i] for a in range(n)) for i in range(n)
        )
        assert rebuilt.rho_denominator == rs.rho_denominator
        rho_pairings = [pairing(rs, rs.rho, r) for r in rs.positive_roots]
        assert rs.rho_denominator == prod(rho_pairings)
        assert rebuilt.coroot_matrix is rebuilt.coroot_matrix
        coroots = [list(r.coroot_coords) for r in rs.positive_roots]
        assert rebuilt.coroot_matrix.tolist() == coroots
        assert [list(row) for row in rebuilt.coroot_rows] == coroots
        simple = [rs.simple_root(i) for i in range(n)]
        assert [rebuilt.simple_root(i) for i in range(n)] == simple
        assert weyl_dim(rebuilt, rs.rho) == weyl_dim(rs, rs.rho) == 2**rs.num_positive_roots


def test_bwb_degree_matches_inversion_count():
    for name in ("A3", "C3", "G2"):
        rs = root_system(name)
        rng = random.Random(7)
        for _ in range(300):
            lam = Weight(tuple(rng.randint(-8, 8) for _ in range(rs.rank)))
            out = bwb(rs, lam)
            inv = degree_by_inversions(rs, lam)
            if out.is_singular:
                assert inv is None
            else:
                assert out.degree == inv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bwb_agrees_with_one_pairing_row_on_every_type(data):
    # criterion 9 searches W only up to rank 3; one row x @ C.T decides the
    # rest: singular iff a pairing is 0, degree = the negative pairings, and
    # the dimension is |prod of the pairings| / prod (rho, gamma^v)
    rs = root_system(data.draw(st.sampled_from(all_simple_types(8))))
    coords = data.draw(st.tuples(*[st.integers(-8, 8) for _ in range(rs.rank)]))
    row = pairings(rs, [[c + 1 for c in coords]])[0].tolist()
    out = bwb(rs, Weight(coords))
    assert out.is_singular == (0 in row)
    if out.is_singular:
        return
    assert out.degree == sum(v < 0 for v in row)
    dim, rem = divmod(abs(prod(row)), rs.rho_denominator)
    assert rem == 0 and out.dim == dim
    # w permutes the coroots up to sign, so |pairings| are those of w(x)
    image = pairings(rs, [[c + 1 for c in out.dominant.coords]])[0].tolist()
    assert sorted(abs(v) for v in row) == sorted(image)


def test_weyl_dim_trivial_and_a1():
    for name in ("A1", "B4", "E6"):
        rs = root_system(name)
        assert weyl_dim(rs, Weight.zero(rs.rank)) == 1
    a1 = root_system("A1")
    for n in range(11):
        assert weyl_dim(a1, Weight.of(n)) == n + 1


def test_weyl_dim_adjoint_of_a2():
    a2 = root_system("A2")
    assert weyl_dim(a2, Weight.of(1, 1)) == 2 * a2.num_positive_roots + a2.rank == 8


def test_weyl_dim_known_values():
    g2 = root_system("G2")
    assert weyl_dim(g2, Weight.of(0, 1)) == 7
    assert weyl_dim(g2, Weight.of(1, 0)) == 14
    b3 = root_system("B3")
    assert weyl_dim(b3, Weight.of(1, 0, 0)) == 7
    assert weyl_dim(b3, Weight.of(0, 0, 1)) == 8
    e8 = root_system("E8")
    assert weyl_dim(e8, e8.rho) == 2**120


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(WeylError):
        weyl_dim(root_system("A2"), Weight.of(-1, 0))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_weyl_dim_diagram_automorphisms(data):
    a3 = root_system("A3")
    c = data.draw(st.tuples(*[st.integers(0, 6) for _ in range(3)]))
    assert weyl_dim(a3, Weight(c)) == weyl_dim(a3, Weight(c[::-1]))
    d4 = root_system("D4")
    c4 = data.draw(st.tuples(*[st.integers(0, 4) for _ in range(4)]))
    swapped = (c4[0], c4[1], c4[3], c4[2])
    assert weyl_dim(d4, Weight(c4)) == weyl_dim(d4, Weight(swapped))


def test_weyl_dim_e6_reversal():
    e6 = root_system("E6")
    lam = Weight.of(1, 2, 0, 3, 1, 2)
    flipped = Weight.of(2, 2, 1, 3, 0, 1)
    assert weyl_dim(e6, lam) == weyl_dim(e6, flipped)


def test_outcome_json_round_trip():
    rs = root_system("B2")
    lams = (Weight.of(2, 3), Weight.of(-4, 1), -rs.rho)
    docs = [bwb(rs, lam).to_json_dict() for lam in lams]
    assert docs == [
        {"kind": "concentrated", "degree": 0, "dominant": [2, 3], "dim": "140"},
        {"kind": "concentrated", "degree": 3, "dominant": [0, 1], "dim": "4"},
        {"kind": "singular"},
    ]
