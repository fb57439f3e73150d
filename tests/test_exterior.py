"""The exterior-power engine, its working-set cap, weight sums and profiles."""

import math
from collections import Counter

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
    _fields,
    _layers,
    decode_vectors,
    encode_vectors,
    subset_sums_reference,
    sum_keys,
)
from rootcoh.rootsys import Weight
from rootcoh.verify import BRUTE_TYPES, weyl_group


def as_dict(pair) -> dict:
    weights, mults = pair
    return {tuple(int(c) for c in w): int(m) for w, m in zip(weights, mults)}


def total(pair) -> int:
    return sum(int(m) for m in pair[1])


def test_phi_sums_degree_zero():
    for name in ("A1", "B3", "G2"):
        rs = root_system(name)
        ms = phi_sums(rs, 0)
        assert as_dict(ms) == {(0,) * rs.rank: 1}


def test_phi_sums_full_degree_is_minus_two_rho():
    for name in ("A2", "C3", "F4"):
        rs = root_system(name)
        ms = phi_sums(rs, rs.num_positive_roots)
        assert as_dict(ms) == {(-2,) * rs.rank: 1}


def test_phi_sums_g2_single_roots():
    g2 = root_system("G2")
    ms = phi_sums(g2, 1)
    expected = {tuple(-c for c in r.weight.coords): 1 for r in g2.positive_roots}
    assert as_dict(ms) == expected


def test_phi_sums_out_of_range():
    g2 = root_system("G2")
    with pytest.raises(Exception):
        phi_sums(g2, 7)
    with pytest.raises(Exception):
        phi_sums(g2, -1)


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


def test_readers_return_the_pair():
    # phi_sums hands out the engine's int64 arrays; lambda_p_weights hands
    # out Python ints, so a translation past int64 stays exact
    b3 = root_system("B3")
    vecs, counts = phi_sums(b3, 2)
    assert vecs.dtype == counts.dtype == np.int64
    assert vecs.shape == (counts.size, 3)
    big = 2**70
    weights, mults = lambda_p_weights(b3, 2, Weight.of(big, 0, -big))
    rows, want = phi_sums(b3, 2)
    assert mults == want.tolist()
    assert all(type(m) is int for m in mults)
    assert weights == [(a + big, b, c - big) for a, b, c in rows.tolist()]
    # int64 translation while max|lam| + max|row| < 2**63: the rows reach
    # +-4 in their last column, so the first lam past the bound would wrap
    top = int(np.abs(rows).max())
    assert rows[:, 2].max() == top == -rows[:, 2].min()
    last = 2**63 - 1 - top
    for c in (last, last + 1, -last, -last - 1):
        weights, _ = lambda_p_weights(b3, 2, Weight.of(0, 0, c))
        assert weights == [(a, b, d + c) for a, b, d in rows.tolist()]
        assert all(type(x) is int for w in weights for x in w)


def test_totals_are_binomials():
    for name in ("A3", "B3", "G2", "D4"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for p in range(n + 1):
            assert total(phi_sums(rs, p)) == math.comb(n, p)


def test_complement_symmetry():
    # multiplicity of 0 at degree p equals multiplicity of -2*rho at degree N-p
    for name in ("A3", "B3", "G2"):
        rs = root_system(name)
        n = rs.num_positive_roots
        zero = (0,) * rs.rank
        bottom = (-2,) * rs.rank
        for p in range(n + 1):
            m0 = as_dict(phi_sums(rs, p)).get(zero, 0)
            m1 = as_dict(phi_sums(rs, n - p)).get(bottom, 0)
            assert m0 == m1


@pytest.mark.parametrize("name", BRUTE_TYPES)
def test_kostant_extreme_weights_and_the_denominator_identity(name):
    # Kostant (Ann. of Math. 74, 1961): each weight w rho - rho has
    # multiplicity 1 in layer l(w) and in no other layer, and with signs
    # over p the layers sum to sum_w (-1)^l(w) e^(w rho - rho), the Weyl
    # denominator identity.  The orbit comes from the Weyl group alone, so
    # every layer, the reflected ones p > N/2 included, is checked against
    # data that shares no code with the engine.
    rs = root_system(name)
    rho = np.array(rs.rho.coords)
    orbit = {tuple((m @ rho - rho).tolist()): length for m, length in weyl_group(rs)}
    found, signed = {}, Counter()
    for p in range(rs.num_positive_roots + 1):
        rows, mults = phi_sums(rs, p)
        for mu, m in zip(map(tuple, rows.tolist()), mults.tolist()):
            signed[mu] += (-1) ** p * m
            if mu in orbit:
                found.setdefault(mu, []).append((p, m))
    assert found == {mu: [(length, 1)] for mu, length in orbit.items()}
    assert {mu: s for mu, s in signed.items() if s} == {
        mu: (-1) ** length for mu, length in orbit.items()
    }


def test_reference_enumeration_agrees():
    for name in ("A2", "B2", "A3", "G2"):
        rs = root_system(name)
        rows = [r.weight.coords for r in rs.positive_roots]
        for p in range(rs.num_positive_roots + 1):
            ref = subset_sums_reference(rows, p)
            vecs, counts = phi_sums(rs, p)
            got = as_dict((-vecs[::-1], counts[::-1]))
            assert got == ref


def test_engines_agree_on_all_degrees():
    # every p, so both the direct layers (p <= N/2) and the reflected
    # complements (p > N/2) are compared bit for bit with the oracle
    for name in ("B3", "G2", "D4", "A4"):
        rs = root_system(name)
        rows = [tuple(-c for c in r.weight.coords) for r in rs.positive_roots]
        for p in range(rs.num_positive_roots + 1):
            ref = sorted(subset_sums_reference(rows, p).items())
            want = np.array([w for w, _ in ref], dtype=np.int64)
            want_counts = np.array([m for _, m in ref], dtype=np.int64)
            vecs, counts = phi_sums(rs, p)
            assert vecs.dtype == counts.dtype == np.int64
            np.testing.assert_array_equal(vecs, want)
            np.testing.assert_array_equal(counts, want_counts)
            # at every p, sum_keys' keys are the oracle's weights, packed
            keys, _, fields = sum_keys(rs, p)
            np.testing.assert_array_equal(keys, encode_vectors(want, fields))


def test_complement_is_not_held_to_the_packing_range():
    # layer 208 of A20 is layer 2 reflected, -2 - layer 2, in layer 2's
    # field widths; it is never packed from its own sums, which reach -4
    a20 = root_system("A20")
    low, low_counts = phi_sums(a20, 2)
    high, high_counts = phi_sums(a20, 208)
    np.testing.assert_array_equal(high, -2 - low[::-1])
    np.testing.assert_array_equal(high_counts, low_counts[::-1])
    assert int(high_counts.sum()) == math.comb(210, 2)
    assert high.min() == -4


def test_layers_refuse_sums_past_the_packing_range():
    # two rows (20000, -1): column 0 sums lie in [0, 40000] (16 bits), column
    # 1 in [-2, 0] (2 bits); either sign packs, and decodes exactly
    mat = np.array([[20000, -1], [20000, -1]], dtype=np.int64)
    for m in (mat, -mat):
        layers, fields = _layers(m, 2)
        assert [width for _, _, width in fields] == [16, 2]
        keys, counts = layers[2]
        np.testing.assert_array_equal(decode_vectors(keys, fields), [2 * m[0]])
        assert counts.tolist() == [1]
    # (2**40, -2**20): one row takes 41 + 21 = 62 bits, two rows 42 + 22
    big = np.array([[2**40, -(2**20)]] * 2, dtype=np.int64)
    layers, fields = _layers(big, 1)
    np.testing.assert_array_equal(decode_vectors(layers[1][0], fields), big[:1])
    with pytest.raises(ExteriorError, match="^sums of 2 rows need 64 bits per key"):
        _layers(big, 2)
    # A40's negated roots: 40 columns in [-2, 1] take 2 bits each
    a40 = root_system("A40")
    rows = -np.array([r.weight.coords for r in a40.positive_roots], dtype=np.int64)
    with pytest.raises(ExteriorError) as info:
        _layers(rows, 1)
    assert str(info.value) == (
        "sums of 1 rows need 80 bits per key, past the 62 an int64 key holds"
    )
    # a zero column takes no bits, whatever the rank
    layers, fields = _layers(np.zeros((1, 63), dtype=np.int64), 1)
    np.testing.assert_array_equal(decode_vectors(layers[1][0], fields), [[0] * 63])


def test_multiplicity_overflow_refused_before_allocation():
    # C(120, 60) ~ 9.7e34 does not fit int64
    e8 = root_system("E8")
    with pytest.raises(BudgetExceededError, match="int64"):
        sum_keys(e8, 60)


#: Columns of 31, 31 and 0 bits: a key of exactly 62 bits.
EXACT_62 = [[-(2**30), 2**31 - 1, 0], [2**30 - 1, 0, 0]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip(data):
    # the fields come from the drawn rows' own column ranges, 0 included; a
    # column of zeros takes a width-0 field
    rank = data.draw(st.integers(1, 8))
    spans = data.draw(st.lists(st.sampled_from([0, 1, 60, 2**20]),
                               min_size=rank, max_size=rank))
    drawn = st.lists(st.tuples(*[st.integers(-s, s) for s in spans]),
                     min_size=1, max_size=20)
    rows = data.draw(drawn | st.just(EXACT_62))
    arr = np.array(rows, dtype=np.int64)
    widths = [(max(0, max(col)) - min(0, min(col))).bit_length() for col in zip(*rows)]
    if sum(widths) > 62:
        with pytest.raises(ExteriorError):
            _fields(arr, 1)
        return
    fields = _fields(arr, 1)
    assert [width for _, _, width in fields] == widths
    keys = encode_vectors(arr, fields)
    assert 0 <= keys.min() and keys.max() < 2 ** sum(widths)
    np.testing.assert_array_equal(decode_vectors(keys, fields), arr)
    # encoded order is lexicographic order
    order = np.argsort(keys, kind="stable")
    assert [tuple(arr[i]) for i in order] == sorted(map(tuple, rows))


def test_max_column_profile_examples():
    for name in ("A3", "D4", "E6"):
        rs = root_system(name)
        assert rs.column_profile[1] == (2,) * rs.rank
    g2 = root_system("G2")
    assert g2.column_profile[3][1] == 6
    for name in ("A2", "B3", "F4"):
        rs = root_system(name)
        assert rs.column_profile[rs.num_positive_roots] == (2,) * rs.rank


def test_column_profile_matches_enumeration():
    # M_i(p) is the largest coordinate i over every sum of p distinct
    # positive roots, read off the plain enumerator; and M_i(N - p) - 2 is
    # the largest coordinate i over the sums of p negative roots, which
    # check_theorem1's int64 guard relies on
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"):
        rs = root_system(name)
        n = rs.num_positive_roots
        rows = [r.weight.coords for r in rs.positive_roots]
        assert len(rs.column_profile) == n + 1
        for p, profile in enumerate(rs.column_profile):
            sums = subset_sums_reference(rows, p)
            assert profile == tuple(map(max, zip(*sums))), (name, p)
            top = phi_sums(rs, n - p)[0].max(axis=0).tolist()
            assert top == [m - 2 for m in profile], (name, p)


def test_profile_unimodal_shape():
    # rises while positive entries last, flat across the zeros, then falls
    for name in ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for i in range(rs.rank):
            col = [r.weight.coords[i] for r in rs.positive_roots]
            m1 = sum(1 for v in col if v > 0)
            m3 = sum(1 for v in col if v == 0)
            series = [row[i] for row in rs.column_profile]
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
        phi_sums(g2, 3)
    assert total(phi_sums(g2, 1)) == 6


def test_layer_cache_evicts_oldest_entries_past_the_cap(monkeypatch):
    monkeypatch.setattr(exterior, "_layer_cache", {})
    monkeypatch.setattr(exterior, "MAX_LIVE_KEYS", 40)

    def cached():
        return {k: sum(ks.size for ks, _ in v[0]) for k, v in exterior._layer_cache.items()}

    a2, b2, g2 = root_system("A2"), root_system("B2"), root_system("G2")
    sum_keys(a2, 1)
    sum_keys(b2, 2)
    assert cached() == {"A2": 4, "B2": 11}
    keys, counts, fields = sum_keys(g2, 3)  # 35 keys: both older entries go
    assert cached() == {"G2": 35}
    sum_keys(a2, 1)
    assert cached() == {"G2": 35, "A2": 4}
    phi_sums(g2, 3)  # read off the cached G2 layers: no new entry
    assert cached() == {"G2": 35, "A2": 4}
    sum_keys(b2, 2)  # 11 more keys: the oldest entry, G2, goes
    assert cached() == {"A2": 4, "B2": 11}
    again = sum_keys(g2, 3)  # rebuilt after eviction, bit for bit
    assert np.array_equal(again[0], keys) and np.array_equal(again[1], counts)
    assert again[2] == fields
    assert list(cached()) == ["G2"]


def test_largest_job_of_the_old_subset_budget_runs(monkeypatch):
    # A8 at p = 9 held the most keys among all jobs with C(N, p) <= 10**8
    monkeypatch.setattr(exterior, "_layer_cache", {})
    keys, counts, _ = sum_keys(root_system("A8"), 9)
    assert int(counts.sum()) == math.comb(36, 9)


def test_jobs_past_the_old_subset_budget_run(monkeypatch):
    # C(36, 10) ~ 2.5e8 subsets, but the expansion holds about 562k keys
    monkeypatch.setattr(exterior, "_layer_cache", {})
    keys, counts, _ = sum_keys(root_system("E6"), 10)
    assert int(counts.sum()) == math.comb(36, 10)


def test_large_rank_small_degree_runs():
    e8 = root_system("E8")
    assert total(phi_sums(e8, 2)) == math.comb(120, 2)


def test_entries_sorted_lexicographically():
    for name, lam in (("B3", Weight.of(3, -2, 1)), ("G2", Weight.of(-4, 5))):
        rs = root_system(name)
        for weights, _ in (phi_sums(rs, 2), lambda_p_weights(rs, 2, lam)):
            coords = [tuple(int(c) for c in w) for w in weights]
            assert coords == sorted(coords)
