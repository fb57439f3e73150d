"""Hypothesis checks, the Prop-2 thresholds, and the p-free corollary bounds."""

import functools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rootcoh import (
    check_theorem1,
    corollary_bound,
    prop2_threshold,
    root_system,
    vanishing,
)
from rootcoh.exterior import (
    phi_sums, rows_below, subset_sums_reference, sum_keys,
)
from rootcoh.rootsys import Weight, all_simple_types
from rootcoh.vanishing import VanishingError
from rootcoh.verify import BRUTE_TYPES
from rootcoh.weyl import pairing, pairings


def witness_map(report):
    return {w.mu.coords: w for w in report.witnesses()}


def test_a2_degree_one_at_rho_passes():
    a2 = root_system("A2")
    rep = check_theorem1(a2, 1, a2.rho)
    assert rep.passed
    wit = witness_map(rep)
    assert wit[(-2, 1)].kind == "singular"
    assert wit[(-2, 1)].singular_root.root_coords == (1, 0)
    assert wit[(1, -2)].kind == "singular"
    assert wit[(1, -2)].singular_root.root_coords == (0, 1)
    assert wit[(-1, -1)].kind == "dominant"
    assert check_theorem1(a2, 1, Weight.of(2**61, 2**61)).passed


def test_a2_degree_one_at_zero_fails():
    a2 = root_system("A2")
    rep = check_theorem1(a2, 1, Weight.of(0, 0))
    assert not rep.passed
    assert rep.first_violation == Weight.of(-2, 1)
    assert rep.num_violations == 2
    assert rep.num_singular == 1


def test_g2_degree_three_example_passes():
    g2 = root_system("G2")
    assert check_theorem1(g2, 3, Weight.of(3, 5)).passed


def test_blocked_pairing_matches_one_block(monkeypatch, cli_json):
    # pass and fail cases, paired in 7-row blocks and in the default blocks;
    # the last six have p > N/2, read off the complement of layer N - p
    cases = [("A2", 1, (0, 0)), ("G2", 3, (3, 5)), ("B3", 4, (1, 0, 2)),
             ("D4", 6, (0, 1, 0, 2)), ("F4", 12, (1, 1, 1, 1)),
             ("B3", 7, (2, 2, 2)), ("B3", 7, (3, 3, 5)), ("G2", 5, (1, 2)),
             ("G2", 5, (2, 4)), ("A3", 5, (0, 0, 0)), ("A3", 5, (2, 2, 2))]

    # the --witnesses document lists every row in order with its kind and
    # witness root, so it encodes which rows are non-dominant and which fail
    def report(name, p, lam):
        return cli_json("check-t1", name, "-p", str(p),
                        "--lambda", ",".join(map(str, lam)), "--witnesses")

    default = [report(*case) for case in cases]
    assert {doc["verdict"] for doc in default} == {"pass", "fail"}
    for case, want in zip(cases, default):
        n = root_system(case[0]).num_positive_roots
        monkeypatch.setattr(vanishing, "MAX_LIVE_KEYS", 7 * n)
        assert report(*case) == want


def test_stage_two_finds_the_highest_coroot():
    # (-3, 0) and (0, -3) lift to x = (-2, 2) and (1, -1): no zero coordinate,
    # so only the full pairing finds their one zero, at the highest coroot
    rep = check_theorem1(root_system("A2"), 2, Weight.of(0, 1))
    assert rep.verdict == "pass"
    assert (rep.num_dominant, rep.num_singular, rep.num_violations) == (0, 3, 0)
    assert [(w.mu.coords, w.kind, w.singular_root.root_coords)
            for w in rep.witnesses()] == [
        ((-3, 0), "singular", (1, 1)),
        ((-1, -1), "singular", (1, 0)),
        ((0, -3), "singular", (1, 1)),
    ]


def _count_paired_rows(monkeypatch):
    paired = []

    def counting(rs, X):
        paired.append(len(X))
        return pairings(rs, X)

    monkeypatch.setattr(vanishing, "pairings", counting)
    return paired


def test_stage_one_settles_rows_with_a_zero_coordinate(monkeypatch):
    paired = _count_paired_rows(monkeypatch)
    rep = check_theorem1(root_system("E6"), 5, Weight.of(3, 3, 4, 3, 4, 6))
    assert (rep.num_dominant, rep.num_singular, rep.num_violations) == (10021, 3413, 1853)
    assert rep.num_singular + rep.num_violations == 5266
    assert sum(paired) == 1853


def test_threshold_rows_all_have_a_coordinate_at_minus_one(monkeypatch):
    # prop2_threshold's proof: at the band every non-dominant lam + mu has a
    # coordinate equal to -1, so stage 1 settles every row and none is paired
    paired = _count_paired_rows(monkeypatch)
    for name in BRUTE_TYPES:
        rs = root_system(name)
        for p in range(rs.num_positive_roots + 1):
            assert check_theorem1(rs, p, Weight(prop2_threshold(rs, p))).passed
    assert paired == []


#: Every (type, p) of rank <= 4 whose plain enumeration takes at most
#: C(24, 6) subsets (about 0.3 s): all but F4 at 6 < p < 18.
REFERENCE_CASES = [
    (str(t), p)
    for t in all_simple_types(4)
    for p in range(root_system(t).num_positive_roots + 1)
    if math.comb(root_system(t).num_positive_roots, p) <= math.comb(24, 6)
]

def _field_edges(rs, p):
    """Floors one either side of each packed field's ends, per column: the
    field of column k holds ``low_k .. top_k = low_k + 2**width_k - 1`` of
    layer p itself, reflected from layer N - p when p > N/2; the images
    ``-2 - e`` are the ends of layer N - p's field read through the
    complement."""
    edges = []
    for low, _, width in sum_keys(rs, p)[2]:
        ends = [low + d for d in (-1, 0, 1)] + [low + 2**width - 1 + d for d in (0, 1, 2)]
        edges.append(ends + [-2 - e for e in ends])
    return edges


@functools.cache
def _reference_support(name, p):
    rows = [[-c for c in r.weight.coords] for r in root_system(name).positive_roots]
    return sorted(subset_sums_reference(rows, p))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_theorem1_matches_the_plain_enumeration(data):
    # the plain enumerator and Python-int pairings share no code with the
    # packed-field test of rows_below or with the blocked pairing matrix
    name, p = data.draw(st.sampled_from(REFERENCE_CASES))
    rs = root_system(name)
    coords = data.draw(st.lists(st.integers(0, 5), min_size=rs.rank, max_size=rs.rank))
    if data.draw(st.booleans()):
        # 2**62, where lam + mu + rho crosses the pairing matrix's int64
        # guard, past which blocks pair in Python ints, and where it passes
        # int64 itself, past which translate hands out Python ints
        guard = 2**63 // rs.max_coroot_height
        edges = (2**62, guard - 2, guard - 1, guard, 2**63 - 2, 2**63 - 1, 2**63, 2**64)
        k = data.draw(st.integers(0, rs.rank - 1))
        coords[k] = data.draw(st.sampled_from(edges))
    support = _reference_support(name, p)
    vecs, _ = phi_sums(rs, p)
    assert [tuple(row) for row in vecs.tolist()] == support
    # rows_below takes any floor: -lam, small ones, and one either side of
    # each end of a column's packed field and of their complement images
    free = [data.draw(st.integers(-8, 8) | st.sampled_from(ends + [2**62, -(2**62)]))
            for ends in _field_edges(rs, p)]
    for floor in (free, [-c for c in coords]):
        below = [i for i, mu in enumerate(support) if any(map(int.__lt__, mu, floor))]
        rows, size = rows_below(rs, p, floor)
        assert [tuple(row) for row in rows.tolist()] == [support[i] for i in below]
        assert size == len(support)

    want = []
    for mu in support:
        shifted = [m + c for m, c in zip(mu, coords)]
        if min(shifted) >= 0:
            want.append((mu, "dominant", None))
            continue
        x = [s + 1 for s in shifted]
        zero = [r.root_coords for r in rs.positive_roots if pairing(rs, x, r) == 0]
        want.append((mu, "singular", zero[0]) if zero else (mu, "violation", None))
    rep = check_theorem1(rs, p, Weight(tuple(coords)))
    got = [
        (w.mu.coords, w.kind, w.singular_root.root_coords if w.singular_root else None)
        for w in rep.witnesses()
    ]
    assert got == want
    kinds = Counter(kind for _, kind, _ in want)
    assert (rep.num_dominant, rep.num_singular, rep.num_violations) == (
        kinds["dominant"], kinds["singular"], kinds["violation"]
    )
    violations = [mu for mu, kind, _ in want if kind == "violation"]
    assert rep.first_violation == (Weight(violations[0]) if violations else None)
    assert rep.verdict == ("fail" if violations else "pass")


def test_check_requires_dominant_lambda():
    a2 = root_system("A2")
    with pytest.raises(VanishingError):
        check_theorem1(a2, 1, Weight.of(-1, 0))
    with pytest.raises(VanishingError, match="^lambda has 3 coordinates$"):
        check_theorem1(a2, 1, Weight((1, 1, 1)))


def test_singular_witnesses_reverify():
    # a singular row's witness is the first root in canonical order that
    # pairs x = lam + mu + rho to zero; with a zero coordinate it is the
    # simple root of the last one, the simple roots coming last node first
    several_zeros = 0
    for name in ("A3", "B2", "G2"):
        rs = root_system(name)
        for p in (1, 2, rs.num_positive_roots - 1):
            for lam in (Weight.zero(rs.rank), rs.rho, Weight(prop2_threshold(rs, p))):
                rep = check_theorem1(rs, p, lam)
                for w in rep.witnesses():
                    shifted = lam + w.mu
                    x = shifted + rs.rho
                    if w.kind == "singular":
                        k = rs.positive_roots.index(w.singular_root)
                        assert pairing(rs, x, w.singular_root) == 0
                        assert all(pairing(rs, x, r) != 0 for r in rs.positive_roots[:k])
                        zeros = [i for i, c in enumerate(x) if c == 0]
                        if zeros:
                            assert w.singular_root == rs.simple_root(max(zeros))
                            several_zeros += len(zeros) > 1
                    elif w.kind == "dominant":
                        assert shifted.is_dominant
                    else:
                        assert not shifted.is_dominant
                        assert all(
                            pairing(rs, x, r) != 0 for r in rs.positive_roots
                        )
    assert several_zeros


def test_threshold_examples():
    assert prop2_threshold(root_system("A3"), 2) == (2, 2, 2)
    assert prop2_threshold(root_system("F4"), 10) == (8, 8, 11, 11)
    assert prop2_threshold(root_system("G2"), 5) == (2, 4)
    assert prop2_threshold(root_system("B5"), 12) == (8, 8, 8, 8, 9)
    assert prop2_threshold(root_system("D6"), 15) == (9,) * 6
    assert prop2_threshold(root_system("E6"), 18) == (11,) * 6
    assert prop2_threshold(root_system("E7"), 31) == (17,) * 7
    e8 = root_system("E8")
    assert prop2_threshold(e8, 60) == (29,) * 8
    assert prop2_threshold(e8, 119) == (2,) * 8


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_threshold_suffices_above_the_band(data):
    # the proof covers every lam at or above the bound, not only the bound
    name = data.draw(
        st.sampled_from(("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"))
    )
    rs = root_system(name)
    p = data.draw(st.integers(0, rs.num_positive_roots))
    offsets = data.draw(st.tuples(*[st.integers(0, 3) for _ in range(rs.rank)]))
    lam = Weight(tuple(b + k for b, k in zip(prop2_threshold(rs, p), offsets)))
    assert check_theorem1(rs, p, lam).passed


def test_threshold_corrected_bands():
    # entries that break the family's regular band pattern: each is a column
    # maximum less 1, and lowering any one coordinate by 1 fails brute force
    assert prop2_threshold(root_system("G2"), 1) == (1, 2)
    assert prop2_threshold(root_system("C3"), 7) == (4, 4, 3)
    assert prop2_threshold(root_system("C4"), 12) == (6, 6, 6, 4)
    assert prop2_threshold(root_system("F4"), 18) == (7, 7, 10, 10)
    assert prop2_threshold(root_system("F4"), 22) == (3, 3, 5, 5)


def test_threshold_out_of_range():
    with pytest.raises(VanishingError):
        prop2_threshold(root_system("A2"), 4)
    with pytest.raises(VanishingError):
        prop2_threshold(root_system("A2"), -1)


def test_c2_matches_relabeled_b2():
    b2 = root_system("B2")
    c2 = root_system("C2")
    for p in range(5):
        a = prop2_threshold(b2, p)
        assert prop2_threshold(c2, p) == (a[1], a[0])


def test_corollary_bounds(cli_json):
    g2 = root_system("G2")
    assert corollary_bound(g2) == (3, 5)
    assert cli_json("thresholds", "G2")["all_degrees_global"] == [5, 5]
    for n in range(1, 6):
        an = root_system(f"A{n}")
        assert corollary_bound(an) == (n,) * n
        assert cli_json("thresholds", f"A{n}")["all_degrees_global"] == [n] * n
    for t in all_simple_types(8):
        rs = root_system(t)
        per = corollary_bound(rs)
        doc = cli_json("thresholds", str(t))
        glob = doc["all_degrees_global"]
        assert doc["all_degrees_per_root"] == list(per)
        assert glob == [rs.coxeter_number - 1] * rs.rank
        assert all(a <= b for a, b in zip(per, glob))
        # Corollary 5 read off Prop 2: h_alpha - 1 is the largest bound over p
        bounds = [prop2_threshold(rs, p) for p in range(rs.num_positive_roots + 1)]
        assert per == tuple(map(max, zip(*bounds))), str(t)


def test_report_json_round_trip(cli_json):
    doc = cli_json("check-t1", "A2", "-p", "1", "--lambda", "1,1", "--witnesses")
    assert doc == {
        "schema": "rootcoh/1",
        "kind": "vanishing_report",
        "type": "A2",
        "p": 1,
        "lambda": [1, 1],
        "verdict": "pass",
        "counts": {"dominant": 1, "singular": 2, "violation": 0},
        "first_violation": None,
        "conclusion": "H^{p,q} = 0 for all q >= 1 at this (p, lambda)",
        "witnesses": [
            {"mu": [-2, 1], "kind": "singular", "singular_root": [1, 0]},
            {"mu": [-1, -1], "kind": "dominant", "singular_root": None},
            {"mu": [1, -2], "kind": "singular", "singular_root": [0, 1]},
        ],
    }


def test_e6_top_but_one_degree_at_rho():
    # cheap at p = d-1: only |Phi+| weights, all singular even though the
    # thresholds are violated there
    e6 = root_system("E6")
    d = e6.num_positive_roots
    assert prop2_threshold(e6, d - 1) > tuple(e6.rho)
    rep = check_theorem1(e6, d - 1, e6.rho)
    assert rep.passed
    assert rep.num_singular == d


#: Every (type, p, passing lam, failing lam + e_i) of the scan below: the pass
#: region is not upward closed.
UPWARD_COUNTEREXAMPLES = [
    ("A2", 2, (0, 1), (1, 1)),
    ("A2", 2, (0, 1), (0, 2)),
    ("A2", 2, (1, 0), (2, 0)),
    ("A2", 2, (1, 0), (1, 1)),
    ("A2", 3, (0, 2), (0, 3)),
    ("A2", 3, (2, 0), (3, 0)),
    ("B2", 2, (0, 1), (1, 1)),
    ("B2", 2, (0, 1), (0, 2)),
    ("B2", 3, (0, 1), (0, 2)),
    ("B2", 3, (1, 1), (2, 1)),
    ("B2", 3, (1, 1), (1, 2)),
    ("B2", 4, (0, 3), (0, 4)),
    ("B2", 4, (2, 0), (3, 0)),
    ("G2", 5, (0, 2), (1, 2)),
    ("G2", 5, (0, 2), (0, 3)),
    ("G2", 5, (1, 0), (2, 0)),
    ("G2", 5, (1, 1), (2, 1)),
    ("G2", 5, (1, 1), (1, 2)),
    ("G2", 6, (2, 0), (3, 0)),
]


def test_upward_closure_soft_property():
    # raising one coordinate of a passing lam can make it fail; the scan of
    # small weights must find exactly the recorded counterexamples
    counterexamples = []
    for name in ("A1", "A2", "B2", "G2"):
        rs = root_system(name)
        for p in range(rs.num_positive_roots + 1):
            for coords in _small_grid(rs.rank, 3):
                lam = Weight(coords)
                if not check_theorem1(rs, p, lam).passed:
                    continue
                for i in range(rs.rank):
                    up = Weight(
                        tuple(c + (1 if k == i else 0) for k, c in enumerate(coords))
                    )
                    if not check_theorem1(rs, p, up).passed:
                        counterexamples.append((name, p, coords, up.coords))
    assert counterexamples == UPWARD_COUNTEREXAMPLES


def _small_grid(rank, top):
    import itertools

    return itertools.product(range(top + 1), repeat=rank)
