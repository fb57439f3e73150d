"""Regularization, the pairing primitive, and the dimension formula."""

import dataclasses
import itertools
import random
from math import prod
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootcoh import bwb, pairing, pairings, root_system, weyl, weyl_dim
from rootcoh.rootsys import (
    SimpleType,
    Weight,
    all_simple_types,
    build_root_system,
)
from rootcoh.weyl import BwbOutcome, WeylError, degree_by_inversions, weyl_dims


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
        assert out == BwbOutcome(0, Weight.zero(rs.rank))
        assert weyl_dim(rs, out.dominant) == 1


def test_bwb_minus_rho_is_singular():
    for name in ("A2", "C3", "F4"):
        rs = root_system(name)
        assert bwb(rs, [-c for c in rs.rho]).is_singular


def test_bwb_minus_simple_root():
    for name in ("A2", "B2", "D4", "F4", "G2", "E6"):
        rs = root_system(name)
        for i in range(rs.rank):
            out = bwb(rs, [-c for c in rs.simple_root(i).weight])
            assert not out.is_singular
            assert out.degree == 1
            assert out.dominant == Weight.zero(rs.rank)
            assert weyl_dim(rs, out.dominant) == 1


def test_bwb_singular_iff_coroot_scan():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        box = list(itertools.product(range(-6, 7), repeat=rs.rank))
        scan = (pairings(rs, np.array(box) + 1) == 0).any(axis=1)
        for coords, singular in zip(box, scan):
            assert bwb(rs, Weight(coords)).is_singular == singular


def test_pairings_match_pairing():
    rng = random.Random(11)
    for name in ("A1", "A3", "B4", "C3", "D5", "E6", "E8", "F4", "G2", "A20"):
        rs = root_system(name)
        n = rs.rank
        # every other column of a wider array: a non-contiguous X
        wide = np.array(
            [[rng.randint(-50, 50) for _ in range(2 * n)] for _ in range(20)]
            + [[-1] * (2 * n), [-(2**40)] * (2 * n)],
            dtype=np.int64,
        )
        for X in (wide[:, ::2], wide[:, :n].tolist()):
            got = pairings(rs, X)
            assert got.dtype == np.int64
            assert got.shape == (len(X), rs.num_positive_roots)
            assert got.tolist() == [
                [pairing(rs, list(x), r) for r in rs.positive_roots] for x in X
            ]
        empty = pairings(rs, wide[:0, ::2])
        assert empty.dtype == np.int64
        assert empty.shape == (0, rs.num_positive_roots)


def test_pairings_are_exact_past_the_guard():
    g2 = root_system("G2")  # largest absolute coroot row sum: 3 + 2 = 5
    assert pairings(g2, [[2**60, 0]]).max() == 3 * 2**60
    for X in (
        np.array([[2**61, 0]], dtype=np.int64),
        np.array([[0, -(2**63)]], dtype=np.int64),
        [[2**70, 1], [0, 0]],
    ):
        got = pairings(g2, X)
        assert got.dtype == object
        rows = np.asarray(X).tolist()
        assert got.tolist() == [[pairing(g2, x, r) for r in g2.positive_roots] for x in rows]
    with pytest.raises(WeylError):
        pairings(g2, [[1, 2, 3]])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pairings_are_exact_for_any_ints(data):
    # rows at the int64 bound 2**63 // max_coroot_height and either side of
    # it, far past it, and at the least int64; int64 below the bound, Python
    # ints above it, and equal to the Python-int pairing either way
    rs = root_system(data.draw(st.sampled_from(all_simple_types(8))))
    edge = 2**63 // rs.max_coroot_height
    near = [s * (edge + d) for s in (1, -1) for d in (-1, 0, 1)]
    coord = st.one_of(
        st.integers(-8, 8), st.sampled_from(near + [2**70, -(2**70), -(2**63)])
    )
    rows = data.draw(
        st.lists(st.lists(coord, min_size=rs.rank, max_size=rs.rank), min_size=1, max_size=3)
    )
    top = max(abs(c) for row in rows for c in row)
    X = rows
    if top < 2**63 and data.draw(st.booleans()):
        X = np.array(rows, dtype=np.int64)
    got = pairings(rs, X)
    assert got.dtype == (np.int64 if top * rs.max_coroot_height < 2**63 else object)
    assert got.tolist() == [[pairing(rs, x, r) for r in rs.positive_roots] for x in rows]


def test_cached_tables_are_built_once_per_instance():
    for name in ("A3", "B3", "G2", "E6"):
        rs = root_system(name)
        # a copy of a catalogue starts with no cached table and builds each
        # one on first use, equal to the original's
        rebuilt = dataclasses.replace(rs)
        assert rebuilt is not rs and rebuilt == rs
        assert "reflection_table" not in vars(rebuilt)
        n = rs.rank
        assert rebuilt.rho_denominator == rs.rho_denominator
        rho_pairings = [pairing(rs, rs.rho, r) for r in rs.positive_roots]
        assert rs.rho_denominator == prod(rho_pairings)
        assert rebuilt.coroot_chain is rebuilt.coroot_chain
        assert rebuilt.coroot_chain == rs.coroot_chain
        assert rebuilt.max_coroot_height == rs.max_coroot_height
        assert rebuilt.column_profile is rebuilt.column_profile
        assert rebuilt.column_profile == rs.column_profile
        coroots = [list(r.coroot_coords) for r in rs.positive_roots]
        assert [list(row) for row in rebuilt.coroot_rows] == coroots
        simple = [rs.simple_root(i) for i in range(n)]
        assert [rebuilt.simple_root(i) for i in range(n)] == simple
        assert weyl_dim(rebuilt, rs.rho) == weyl_dim(rs, rs.rho) == 2**rs.num_positive_roots
        assert rebuilt.reflection_table is rebuilt.reflection_table
        assert rebuilt.reflection_table == rs.reflection_table
        fresh = build_root_system.__wrapped__(rs.simple_type)
        assert "reflection_table" not in vars(fresh)


#: Every type the exactness tests sweep: all of rank <= 8, and one long A chain.
SWEPT = all_simple_types(8) + [SimpleType("A", 20)]


def test_bwb_minus_two_rho_takes_exactly_n_reflections():
    # lam + rho = -rho: the longest element w0 sends it to rho, in N steps,
    # so the reflection bound is met and not passed
    for t in SWEPT:
        rs = root_system(t)
        out = bwb(rs, Weight((-2,) * rs.rank))
        assert out == BwbOutcome(rs.num_positive_roots, Weight.zero(rs.rank))
        assert weyl_dim(rs, out.dominant) == 1


def test_bwb_refuses_a_table_of_an_infinite_group():
    a2 = root_system("A2")
    rebuilt = dataclasses.replace(a2)
    assert bwb(rebuilt, Weight.of(-2, 0)) == bwb(a2, Weight.of(-2, 0))
    # cartan entries -3 on both sides of the edge: an infinite Coxeter group,
    # where (-1, 1) reflects to (1, -2), (-5, 2), (5, -13), ... and never
    # becomes dominant or singular
    vars(rebuilt)["reflection_table"] = (2, 3, (((1, -3),), ((0, -3),)))
    with pytest.raises(WeylError, match="did not terminate in 3 reflections"):
        bwb(rebuilt, Weight.of(-2, 0))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bwb_is_exact_past_int64(data):
    # long reflection paths on coordinates where an int64 update would wrap;
    # the oracle is the Python-int pairing
    rs = root_system(data.draw(st.sampled_from(all_simple_types(8))))
    coord = st.one_of(st.integers(-8, 8), st.integers(-(2**70), 2**70))
    lam = Weight(data.draw(st.tuples(*[coord for _ in range(rs.rank)])))
    x = [c + 1 for c in lam.coords]
    row = [pairing(rs, x, r) for r in rs.positive_roots]
    out = bwb(rs, lam)
    assert out.degree == degree_by_inversions(rs, lam)
    assert out.is_singular == (0 in row)
    if out.is_singular:
        return
    dim, rem = divmod(abs(prod(row)), rs.rho_denominator)
    assert rem == 0 and weyl_dim(rs, out.dominant) == dim
    image = [pairing(rs, [c + 1 for c in out.dominant.coords], r) for r in rs.positive_roots]
    assert sorted(abs(v) for v in row) == sorted(image)


def test_weyl_dim_matches_the_dense_product():
    rng = random.Random(12)
    ranges = ((0, 6), (0, 2**64), (2**63, 2**63 + 9))
    for t in SWEPT:
        rs = root_system(t)
        lams = [Weight(tuple(rng.randint(lo, hi) for _ in range(rs.rank)))
                for lo, hi in ranges * 4]
        lams.append(Weight((2**70,) + (0,) * (rs.rank - 1)))
        want = []
        for lam in lams:
            xp = [c + 1 for c in lam.coords]
            num = prod(sum(map(mul, row, xp)) for row in rs.coroot_rows)
            assert num % rs.rho_denominator == 0
            want.append(num // rs.rho_denominator)
        # one batch past int64, and each weight alone: small ones pair in int64
        assert weyl_dims(rs, lams) == want
        assert [weyl_dim(rs, lam) for lam in lams] == want
        assert weyl_dims(rs, []) == []


def test_weyl_dims_check_every_weight(monkeypatch):
    a2 = root_system("A2")
    with pytest.raises(WeylError, match=r"^weight has 3 coordinates, expected 2$"):
        weyl_dims(a2, [(1, 1), (1, 1, 1)])
    with pytest.raises(WeylError, match=r"^weyl_dim needs a dominant weight, got \(0,-1\)$"):
        weyl_dims(a2, [[2, 0], [0, -1]])
    # the quotient by prod (rho, gamma^v) is checked, not truncated
    skewed = dataclasses.replace(a2)
    vars(skewed)["rho_denominator"] = a2.rho_denominator + 1
    with pytest.raises(WeylError, match=r"^dimension product for \(0,0\) is not divisible by 3$"):
        weyl_dims(skewed, [(0, 0)])
    # an empty batch pairs nothing
    monkeypatch.setattr(weyl, "pairings", None)
    assert weyl_dims(a2, []) == []


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
    assert rem == 0 and weyl_dim(rs, out.dominant) == dim
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


def test_outcome_json_round_trip(cli_json):
    lams = ([2, 3], [-4, 1], [-1, -1])
    docs = [cli_json("bwb", "B2", "--lambda", f"{a},{b}") for a, b in lams]
    for doc, lam in zip(docs, lams):
        assert [doc.pop(k) for k in ("schema", "type", "lambda")] == ["rootcoh/1", "B2", lam]
    assert docs == [
        {"kind": "concentrated", "degree": 0, "dominant": [2, 3], "dim": "140"},
        {"kind": "concentrated", "degree": 3, "dominant": [0, 1], "dim": "4"},
        {"kind": "singular"},
    ]
