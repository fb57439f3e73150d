"""The exterior-power engine, its working-set cap, multisets and profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootcoh import (
    BudgetExceededError,
    exterior,
    lambda_p_weights,
    phi_sums,
    root_system,
)
from rootcoh.exterior import (
    ExteriorError,
    WeightMultiset,
    _layers,
    decode_vectors,
    encode_vectors,
    greedy_column_profile,
    subset_sums_reference,
    sum_keys,
)
from rootcoh.rootsys import Weight


def as_dict(ms: WeightMultiset) -> dict:
    return {w.coords: m for w, m in ms.entries}


def test_phi_sums_degree_zero():
    for name in ("A1", "B3", "G2"):
        rs = root_system(name)
        ms = phi_sums(rs, 0, "-")
        assert as_dict(ms) == {(0,) * rs.rank: 1}


def test_phi_sums_full_degree_is_minus_two_rho():
    for name in ("A2", "C3", "F4"):
        rs = root_system(name)
        ms = phi_sums(rs, rs.num_positive_roots, "-")
        assert as_dict(ms) == {(-2,) * rs.rank: 1}


def test_phi_sums_g2_single_roots():
    g2 = root_system("G2")
    ms = phi_sums(g2, 1, "-")
    expected = {tuple(-c for c in r.weight.coords): 1 for r in g2.positive_roots}
    assert as_dict(ms) == expected


def test_phi_sums_out_of_range():
    g2 = root_system("G2")
    with pytest.raises(Exception):
        phi_sums(g2, 7, "-")
    with pytest.raises(Exception):
        phi_sums(g2, -1, "-")


def test_lambda_p_weights_examples():
    a2 = root_system("A2")
    rho = a2.rho
    assert as_dict(lambda_p_weights(a2, 1, rho)) == {
        (-1, 2): 1,
        (2, -1): 1,
        (0, 0): 1,
    }
    assert as_dict(lambda_p_weights(a2, 0, Weight.of(4, 5))) == {(4, 5): 1}
    assert as_dict(lambda_p_weights(a2, 3, rho)) == {(-1, -1): 1}


def test_totals_are_binomials():
    for name in ("A3", "B3", "G2", "D4"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for p in range(n + 1):
            assert phi_sums(rs, p, "-").total == math.comb(n, p)


def test_sign_symmetry():
    for name in ("A2", "B3", "G2"):
        rs = root_system(name)
        for p in range(rs.num_positive_roots + 1):
            plus = phi_sums(rs, p, "+")
            minus = phi_sums(rs, p, "-")
            assert as_dict(minus) == {
                tuple(-c for c in w.coords): m for w, m in plus.entries
            }


def test_complement_symmetry():
    # multiplicity of 0 at degree p equals multiplicity of -2*rho at degree N-p
    for name in ("A3", "B3", "G2"):
        rs = root_system(name)
        n = rs.num_positive_roots
        zero = (0,) * rs.rank
        bottom = (-2,) * rs.rank
        for p in range(n + 1):
            m0 = as_dict(phi_sums(rs, p, "-")).get(zero, 0)
            m1 = as_dict(phi_sums(rs, n - p, "-")).get(bottom, 0)
            assert m0 == m1


def test_reference_enumeration_agrees():
    for name in ("A2", "B2", "A3", "G2"):
        rs = root_system(name)
        rows = [r.weight.coords for r in rs.positive_roots]
        for p in range(rs.num_positive_roots + 1):
            ref = subset_sums_reference(rows, p)
            got = {w.coords: m for w, m in phi_sums(rs, p, "+").entries}
            assert got == ref


def test_engines_agree_on_all_degrees():
    # every p, so both the direct layers (p <= N/2) and the complement
    # identity (p > N/2) are compared bit for bit with the oracle
    for name in ("B3", "G2", "D4"):
        rs = root_system(name)
        rows = [tuple(-c for c in r.weight.coords) for r in rs.positive_roots]
        for p in range(rs.num_positive_roots + 1):
            ref = sorted(subset_sums_reference(rows, p).items())
            want_keys = encode_vectors(np.array([w for w, _ in ref]), rs.rank)
            want_counts = np.array([m for _, m in ref], dtype=np.int64)
            keys, counts = sum_keys(rs, p, "-")
            assert keys.dtype == counts.dtype == np.int64
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(counts, want_counts)


def test_layers_refuse_sums_past_the_packing_range():
    # rank 2 packs 16-bit fields with bias 2**15: one row fits, two overflow
    mat = np.array([[20000, -1], [20000, -1]], dtype=np.int64)
    keys, _ = _layers(mat, 1)[1]
    np.testing.assert_array_equal(decode_vectors(keys, 2), [[20000, -1]])
    with pytest.raises(ExteriorError):
        _layers(mat, 2)
    with pytest.raises(ExteriorError):
        _layers(-mat, 2)


def test_multiplicity_overflow_refused_before_allocation():
    # C(120, 60) ~ 9.7e34 does not fit int64
    e8 = root_system("E8")
    with pytest.raises(BudgetExceededError, match="int64"):
        sum_keys(e8, 60)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip(data):
    rank = data.draw(st.integers(1, 8))
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(-60, 60) for _ in range(rank)]),
            min_size=1,
            max_size=20,
        )
    )
    arr = np.array(rows, dtype=np.int64)
    keys = encode_vectors(arr, rank)
    back = decode_vectors(keys, rank)
    np.testing.assert_array_equal(arr, back)
    # encoded order is lexicographic order
    order = np.argsort(keys, kind="stable")
    assert [tuple(arr[i]) for i in order] == sorted(map(tuple, rows))


def test_max_column_profile_examples():
    for name in ("A3", "D4", "E6"):
        rs = root_system(name)
        assert greedy_column_profile(rs, 1) == (2,) * rs.rank
    g2 = root_system("G2")
    assert greedy_column_profile(g2, 3)[1] == 6
    for name in ("A2", "B3", "F4"):
        rs = root_system(name)
        assert greedy_column_profile(rs, rs.num_positive_roots) == (2,) * rs.rank


def test_profile_unimodal_shape():
    # rises while positive entries last, flat across the zeros, then falls
    for name in ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for i in range(rs.rank):
            col = [r.weight.coords[i] for r in rs.positive_roots]
            m1 = sum(1 for v in col if v > 0)
            m3 = sum(1 for v in col if v == 0)
            series = [greedy_column_profile(rs, p)[i] for p in range(n + 1)]
            for p in range(1, n + 1):
                step = series[p] - series[p - 1]
                if p <= m1:
                    assert step > 0
                elif p <= m1 + m3:
                    assert step == 0
                else:
                    assert step < 0


def test_budget_refusal(monkeypatch):
    # a cap of 10 keys admits G2 at p = 1 (7 keys) and refuses p = 3; the
    # cache is emptied first because cached layers skip the check
    monkeypatch.setattr(exterior, "_layer_cache", {})
    monkeypatch.setattr(exterior, "MAX_LIVE_KEYS", 10)
    g2 = root_system("G2")
    with pytest.raises(BudgetExceededError, match="MAX_LIVE_KEYS"):
        phi_sums(g2, 3, "-")
    assert phi_sums(g2, 1, "-").total == 6


def test_layer_cache_evicts_oldest_entries_past_the_cap(monkeypatch):
    monkeypatch.setattr(exterior, "_layer_cache", {})
    monkeypatch.setattr(exterior, "MAX_LIVE_KEYS", 40)

    def cached():
        return {k: sum(ks.size for ks, _ in v) for k, v in exterior._layer_cache.items()}

    a2, b2, g2 = root_system("A2"), root_system("B2"), root_system("G2")
    sum_keys(a2, 1, "-")
    sum_keys(b2, 2, "-")
    assert cached() == {("A2", -1): 4, ("B2", -1): 11}
    keys, counts = sum_keys(g2, 3, "-")  # 35 keys: both older entries go
    assert cached() == {("G2", -1): 35}
    sum_keys(a2, 1, "-")
    assert cached() == {("G2", -1): 35, ("A2", -1): 4}
    sum_keys(g2, 1, "+")  # 7 more keys: the oldest entry, G2 '-', goes
    assert cached() == {("A2", -1): 4, ("G2", 1): 7}
    again = sum_keys(g2, 3, "-")  # rebuilt after eviction, bit for bit
    assert np.array_equal(again[0], keys) and np.array_equal(again[1], counts)
    assert list(cached()) == [("G2", -1)]


def test_largest_job_of_the_old_subset_budget_runs(monkeypatch):
    # A8 at p = 9 held the most keys among all jobs with C(N, p) <= 10**8
    monkeypatch.setattr(exterior, "_layer_cache", {})
    keys, counts = sum_keys(root_system("A8"), 9, "-")
    assert int(counts.sum()) == math.comb(36, 9)


def test_jobs_past_the_old_subset_budget_run(monkeypatch):
    # C(36, 10) ~ 2.5e8 subsets, but the expansion holds about 562k keys
    monkeypatch.setattr(exterior, "_layer_cache", {})
    keys, counts = sum_keys(root_system("E6"), 10, "-")
    assert int(counts.sum()) == math.comb(36, 10)


def test_large_rank_small_degree_runs():
    e8 = root_system("E8")
    ms = phi_sums(e8, 2, "-")
    assert ms.total == math.comb(120, 2)


def test_multiset_json_round_trip():
    doc = phi_sums(root_system("B2"), 2, "-").to_json_dict()
    weights = [[-3, 2], [-2, 0], [-1, -2], [-1, 0], [0, -2], [1, -4]]
    assert doc == {
        "schema": "rootcoh/1",
        "kind": "weight_multiset",
        "p": 2,
        "total": "6",
        "entries": [{"weight": w, "mult": "1"} for w in weights],
    }


def test_entries_sorted_lexicographically():
    for name, lam in (("B3", Weight.of(3, -2, 1)), ("G2", Weight.of(-4, 5))):
        rs = root_system(name)
        for ms in (phi_sums(rs, 2, "-"), lambda_p_weights(rs, 2, lam)):
            coords = [w.coords for w, _ in ms.entries]
            assert coords == sorted(coords)
