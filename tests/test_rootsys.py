"""Construction, dual coordinates, and Coxeter data of the root catalogues."""

import json

import pytest

from rootcoh import (
    RootSystemError,
    SimpleType,
    all_simple_types,
    column_classes,
    column_stats,
    root_system,
    to_weight_coords,
)
from rootcoh.rootsys import Weight, rs_from_json_dict, rs_to_json_dict

G2_TABLE = {
    ((1, 0), (2, -3)),
    ((0, 1), (-1, 2)),
    ((1, 1), (1, -1)),
    ((1, 2), (0, 1)),
    ((1, 3), (-1, 3)),
    ((2, 3), (1, 0)),
}


def test_g2_catalogue_matches_table():
    rs = root_system("G2")
    assert {(r.root_coords, r.weight.coords) for r in rs.positive_roots} == G2_TABLE


def test_e8_count_and_highest_root():
    rs = root_system("E8")
    assert rs.num_positive_roots == 120
    top = rs.highest_root
    assert top.root_coords == (2, 3, 4, 6, 5, 4, 3, 2)
    assert top.weight.coords == (0, 0, 0, 0, 0, 0, 0, 1)


def test_a1_single_root():
    rs = root_system("A1")
    (only,) = rs.positive_roots
    assert only.root_coords == (1,)
    assert only.weight.coords == (2,)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3)],
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(RootSystemError) as err:
        SimpleType(family, rank)
    assert "rank" in str(err.value)


def test_parse_rejects_garbage():
    with pytest.raises(RootSystemError):
        SimpleType.parse("H4")
    with pytest.raises(RootSystemError):
        SimpleType.parse("B")


def test_to_weight_coords_examples():
    f4 = root_system("F4")
    assert to_weight_coords(f4, (1, 2, 3, 2)).coords == (0, 0, 0, 1)
    e6 = root_system("E6")
    assert to_weight_coords(e6, (1, 2, 2, 3, 2, 1)).coords == (0, 1, 0, 0, 0, 0)
    for name in ("A2", "B3", "G2"):
        rs = root_system(name)
        assert to_weight_coords(rs, (0,) * rs.rank).coords == (0,) * rs.rank


def test_to_weight_coords_length_mismatch():
    with pytest.raises(RootSystemError):
        to_weight_coords(root_system("A2"), (1, 2, 3))


def test_coroot_coords_simple_roots_are_units():
    for name in ("A3", "B3", "C3", "F4", "G2"):
        rs = root_system(name)
        for i in range(rs.rank):
            expected = tuple(1 if k == i else 0 for k in range(rs.rank))
            assert rs.simple_root(i).coroot_coords == expected


def test_coroot_coords_long_roots():
    b2 = root_system("B2")
    assert b2.root_by_coords((1, 2)).coroot_coords == (1, 1)
    g2 = root_system("G2")
    long_top = g2.root_by_coords((2, 3))
    assert long_top.half_norm == 3
    assert long_top.coroot_coords == (2, 1)


def test_coxeter_examples():
    a3 = root_system("A3")
    assert (a3.coxeter_number, a3.coxeter_per_root) == (4, (4, 4, 4))
    g2 = root_system("G2")
    assert (g2.coxeter_number, g2.coxeter_per_root) == (6, (4, 6))
    b4 = root_system("B4")
    assert b4.coxeter_number == 8 and b4.coxeter_per_root[3] == 8


def test_column_stats_examples():
    assert column_stats(root_system("A3")) == ((1, 2, 1, 0, 2, 0, 0),) * 3
    g2 = root_system("G2")
    assert column_classes(g2) == ("long", "short")
    assert column_stats(g2)[1] == (1, 1, 1, 1, 1, 0, 1)
    f4 = root_system("F4")
    assert column_classes(f4) == ("long", "long", "short", "short")
    for i in (0, 1):
        assert column_stats(f4)[i] == (9, 7, 1, 0, 7, 0, 0)


def test_column_stats_totals():
    for t in all_simple_types(8):
        rs = root_system(t)
        for stats in column_stats(rs):
            assert sum(stats) == rs.num_positive_roots


def test_weight_coords_linear_in_root_coords():
    for t in all_simple_types(8):
        rs = root_system(t)
        for r in rs.positive_roots:
            assert to_weight_coords(rs, r.root_coords) == r.weight


def test_positive_roots_sum_to_two_rho():
    for t in all_simple_types(8):
        rs = root_system(t)
        total = [0] * rs.rank
        for r in rs.positive_roots:
            for i, c in enumerate(r.weight.coords):
                total[i] += c
        assert total == [2] * rs.rank


def test_expected_positive_root_counts():
    expected = {"A5": 15, "B6": 36, "C7": 49, "D8": 56, "E6": 36, "E7": 63, "F4": 24}
    for name, count in expected.items():
        assert root_system(name).num_positive_roots == count


def test_reflection_closure_is_stable():
    for name in ("A3", "B3", "C4", "D4", "F4", "G2"):
        rs = root_system(name)
        coords = {r.root_coords for r in rs.positive_roots}
        for r in rs.positive_roots:
            for i in range(rs.rank):
                refl = list(r.root_coords)
                refl[i] -= r.weight.coords[i]
                image = tuple(refl)
                neg = tuple(-c for c in image)
                assert image in coords or neg in coords


def test_roots_sorted_by_height_then_lex():
    for name in ("B4", "E6"):
        rs = root_system(name)
        keys = [(r.height, r.root_coords) for r in rs.positive_roots]
        assert keys == sorted(keys)


def test_half_norms_and_coroots_consistent():
    for t in all_simple_types(8):
        rs = root_system(t)
        for r in rs.positive_roots:
            # (gamma, gamma^v) = 2 in every normalisation
            assert sum(c * w for c, w in zip(r.coroot_coords, r.weight.coords)) == 2


def test_json_round_trip():
    rs = root_system("F4")
    doc = json.dumps(rs_to_json_dict(rs))
    parsed = json.loads(doc)
    assert parsed["schema"] == "rootcoh/1"
    assert parsed["h"] == 12
    assert rs_from_json_dict(parsed) == rs


def test_json_rejects_tampered_document():
    doc = rs_to_json_dict(root_system("B2"))
    doc["roots"][0]["weight"] = [9, 9]
    with pytest.raises(RootSystemError):
        rs_from_json_dict(doc)


def test_json_missing_field_is_a_root_system_error():
    for field in ("type", "cartan", "h", "h_per_root"):
        doc = rs_to_json_dict(root_system("B2"))
        del doc[field]
        with pytest.raises(RootSystemError, match=field):
            rs_from_json_dict(doc)
    doc = rs_to_json_dict(root_system("B2"))
    del doc["roots"][0]["coroot"]
    with pytest.raises(RootSystemError, match="coroot"):
        rs_from_json_dict(doc)


def test_weight_helpers():
    w = Weight.of(1, -2)
    assert (-w).coords == (-1, 2)
    assert (w + Weight.of(1, 2)).coords == (2, 0)
    assert not w.is_dominant
    assert Weight.of(0, 0).is_dominant
    assert not Weight.of(0, 1).is_strictly_dominant
    assert Weight.of(2, 1).is_strictly_dominant
