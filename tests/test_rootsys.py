"""Construction, dual coordinates, and Coxeter data of the root catalogues."""

import dataclasses

import numpy as np
import pytest

from rootcoh import (
    RootSystemError,
    SimpleType,
    all_simple_types,
    column_classes,
    column_stats,
    root_system,
)
from rootcoh import rootsys
from rootcoh.rootsys import Weight, build_root_system

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


class _Generated(Exception):
    pass


@pytest.mark.parametrize(
    "name, refused",
    [("A202", False), ("A203", True), ("B161", False), ("B162", True), ("C161", False),
     ("C162", True), ("D161", False), ("D162", True), (f"A{10**6}", True)],
)
def test_the_catalogue_bound_is_checked_before_generation(monkeypatch, name, refused):
    # |Phi+| * rank against 2**22, before any root is generated: an admitted
    # type reaches the generator, which raises here instead of building
    def generate(cartan, n):
        raise _Generated

    monkeypatch.setattr(rootsys, "_generate_positive_roots", generate)
    with pytest.raises(RootSystemError if refused else _Generated) as err:
        build_root_system(SimpleType.parse(name))
    if refused:
        assert str(err.value).startswith(f"{name}: |Phi+| * rank = ")
        assert str(err.value).endswith(" passes the catalogue bound 4194304")


def test_parse_rejects_garbage():
    with pytest.raises(RootSystemError):
        SimpleType.parse("H4")
    with pytest.raises(RootSystemError):
        SimpleType.parse("B")
    # the family check runs on every construction, dataclasses.replace too,
    # so the per-family tables need no case for an unknown family
    with pytest.raises(RootSystemError, match="^unknown family 'Q'$"):
        SimpleType("Q", 5)
    with pytest.raises(RootSystemError, match="^unknown family 'Q'$"):
        dataclasses.replace(SimpleType("G", 2), family="Q")


def test_highest_root_weight_examples():
    f4 = root_system("F4")
    assert f4.root_by_coords((1, 2, 3, 2)).weight.coords == (0, 0, 0, 1)
    e6 = root_system("E6")
    assert e6.root_by_coords((1, 2, 2, 3, 2, 1)).weight.coords == (0, 1, 0, 0, 0, 0)


def test_coroot_coords_simple_roots_are_units():
    # simple_root reads the i-th simple root off the canonical order by
    # position, so its root and coroot coordinates must both be e_i
    for t in all_simple_types(8):
        rs = root_system(t)
        for i in range(rs.rank):
            expected = tuple(1 if k == i else 0 for k in range(rs.rank))
            assert rs.simple_root(i).root_coords == expected, (str(t), i)
            assert rs.simple_root(i).coroot_coords == expected, (str(t), i)
        assert rs.simple_root(-1) == rs.simple_root(rs.rank - 1)
        with pytest.raises(IndexError):
            rs.simple_root(rs.rank)


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
        n = rs.rank
        for r in rs.positive_roots:
            w = tuple(sum(rs.cartan[a][b] * r.root_coords[b] for b in range(n))
                      for a in range(n))
            assert r.weight.coords == w


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
    # the certificate's filtration order rests on this: no root lies below
    # an earlier root, entrywise in root coordinates
    for t in all_simple_types(8):
        rs = root_system(t)
        keys = [(r.height, r.root_coords) for r in rs.positive_roots]
        assert keys == sorted(keys), str(t)
        rc = np.array([r.root_coords for r in rs.positive_roots])
        above = (rc[:, None, :] >= rc[None, :, :]).all(axis=2)
        assert not np.triu(above, k=1).any(), str(t)


def test_half_norms_and_coroots_consistent():
    for t in all_simple_types(8):
        rs = root_system(t)
        for r in rs.positive_roots:
            # (gamma, gamma^v) = 2 in every normalisation
            assert sum(c * w for c, w in zip(r.coroot_coords, r.weight.coords)) == 2


def test_weight_helpers():
    w = Weight.of(1, -2)
    assert (w + Weight.of(1, 2)).coords == (2, 0)
    assert not w.is_dominant
    assert Weight.of(0, 0).is_dominant
    assert not Weight.of(0, 1).is_strictly_dominant
    assert Weight.of(2, 1).is_strictly_dominant


def test_coroot_chain_builds_each_coroot_from_an_earlier_one():
    for t in all_simple_types(8) + [SimpleType("A", 20)]:
        rs = build_root_system(t)
        n = rs.rank
        built = {-1: (0,) * n}
        for k, j, i in rs.coroot_chain:
            assert k not in built
            assert j in built  # j is computed before k
            unit = tuple(int(a == i) for a in range(n))
            assert rs.coroot_rows[k] == tuple(map(sum, zip(built[j], unit)))
            built[k] = rs.coroot_rows[k]
        assert sorted(built) == [-1, *range(rs.num_positive_roots)]
        assert rs.max_coroot_height == max(sum(row) for row in rs.coroot_rows)
    # built on first use, not with the catalogue
    assert "coroot_chain" not in vars(build_root_system.__wrapped__(SimpleType("E", 8)))


def test_coroot_chain_refuses_a_coroot_with_no_predecessor():
    a2 = build_root_system(SimpleType("A", 2))
    top_only = dataclasses.replace(a2, positive_roots=a2.positive_roots[2:])
    with pytest.raises(RootSystemError, match="no earlier coroot"):
        top_only.coroot_chain


def test_reflection_table_lists_the_dynkin_neighbours():
    for t in all_simple_types(8) + [SimpleType("A", 20)]:
        rs = build_root_system(t)
        n, bound, neighbours = rs.reflection_table
        assert (n, bound, len(neighbours)) == (rs.rank, rs.num_positive_roots, rs.rank)
        for i, row in enumerate(zip(*rs.cartan)):
            # column i of the Cartan matrix is the weight of the simple root alpha_i
            assert row == rs.simple_root(i).weight.coords
            assert row[i] == 2
            assert dict(neighbours[i]) == {j: a for j, a in enumerate(row) if j != i and a}
            # a reflection moves node i and its neighbours only
            x = list(range(3, 3 + n))
            moved = [a - x[i] * r for a, r in zip(x, row)]
            assert {j for j in range(n) if moved[j] != x[j]} == {i, *dict(neighbours[i])}


def test_reflection_table_refuses_a_diagonal_other_than_two():
    a2 = build_root_system(SimpleType("A", 2))
    bent = dataclasses.replace(a2, cartan=((1, -1), (-1, 2)))
    with pytest.raises(RootSystemError, match="diagonal"):
        bent.reflection_table
