"""Hypothesis checks, threshold tables, and the p-free corollary bounds."""

import pytest

from rootcoh import (
    check_theorem1,
    corollary_bound,
    prop2_threshold,
    root_system,
    vanishing,
)
from rootcoh.exterior import greedy_column_profile
from rootcoh.rootsys import Weight, all_simple_types
from rootcoh.vanishing import VanishingError
from rootcoh.weyl import pairing


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


def test_blocked_pairing_matches_one_block(monkeypatch):
    # pass and fail cases, paired in 7-row blocks and in the default blocks
    cases = [("A2", 1, (0, 0)), ("G2", 3, (3, 5)), ("B3", 4, (1, 0, 2)),
             ("D4", 6, (0, 1, 0, 2)), ("F4", 12, (1, 1, 1, 1))]

    def report(name, p, lam):
        rep = check_theorem1(root_system(name), p, Weight(lam))
        return (rep.to_json_dict(include_witnesses=True),
                rep._status.tolist(), rep._witness_idx.tolist())

    default = [report(*case) for case in cases]
    assert {doc["verdict"] for doc, _, _ in default} == {"pass", "fail"}
    for case, want in zip(cases, default):
        n = root_system(case[0]).num_positive_roots
        monkeypatch.setattr(vanishing, "MAX_LIVE_KEYS", 7 * n)
        assert report(*case) == want


def test_check_requires_dominant_lambda():
    a2 = root_system("A2")
    with pytest.raises(VanishingError):
        check_theorem1(a2, 1, Weight.of(-1, 0))


def test_check_refuses_lambda_plus_rho_past_int64():
    a2 = root_system("A2")
    for top in (2**63 - 1, 2**63):
        with pytest.raises(VanishingError, match=r"lambda \+ rho .* below 2\*\*63"):
            check_theorem1(a2, 1, Weight.of(top, 0))
    assert check_theorem1(a2, 1, Weight.of(2**61, 2**61)).passed


def test_singular_witnesses_reverify():
    for name in ("A3", "B2", "G2"):
        rs = root_system(name)
        for p in (1, 2, rs.num_positive_roots - 1):
            lam = Weight(prop2_threshold(rs, p))
            rep = check_theorem1(rs, p, lam)
            for w in rep.witnesses():
                shifted = lam + w.mu
                if w.kind == "singular":
                    assert pairing(rs, shifted + rs.rho, w.singular_root) == 0
                elif w.kind == "dominant":
                    assert shifted.is_dominant
                else:
                    assert not shifted.is_dominant
                    assert all(
                        pairing(rs, shifted + rs.rho, r) != 0
                        for r in rs.positive_roots
                    )


def test_threshold_examples():
    assert prop2_threshold(root_system("A3"), 2) == (2, 2, 2)
    assert prop2_threshold(root_system("F4"), 10) == (8, 8, 11, 11)
    assert prop2_threshold(root_system("G2"), 5) == (2, 4)


def test_threshold_corrected_bands():
    # entries where the naive piecewise table undershoots and brute force
    # demands the per-column maxima instead
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


def test_thresholds_equal_column_maxima_route():
    # the closed forms agree with the column maxima less 1 (clamped) everywhere
    for t in all_simple_types(8):
        rs = root_system(t)
        for p in range(rs.num_positive_roots + 1):
            greedy = tuple(
                max(0, g - 1) for g in greedy_column_profile(rs, p)
            )
            assert prop2_threshold(rs, p) == greedy, (str(t), p)


def test_c2_matches_relabeled_b2():
    b2 = root_system("B2")
    c2 = root_system("C2")
    for p in range(5):
        a = prop2_threshold(b2, p)
        assert prop2_threshold(c2, p) == (a[1], a[0])


def test_corollary_bounds():
    g2 = root_system("G2")
    assert corollary_bound(g2, "per_root") == (3, 5)
    assert corollary_bound(g2, "global") == (5, 5)
    for n in range(1, 6):
        an = root_system(f"A{n}")
        assert corollary_bound(an, "per_root") == (n,) * n
        assert corollary_bound(an, "global") == (n,) * n
    for t in all_simple_types(8):
        rs = root_system(t)
        per = corollary_bound(rs, "per_root")
        glob = corollary_bound(rs, "global")
        assert all(a <= b for a, b in zip(per, glob))
    with pytest.raises(VanishingError):
        corollary_bound(g2, "both")


def test_report_json_round_trip():
    a2 = root_system("A2")
    doc = check_theorem1(a2, 1, a2.rho).to_json_dict(include_witnesses=True)
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
