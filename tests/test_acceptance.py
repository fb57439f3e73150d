"""The nine acceptance checks, one test each, and mutations criterion 9 must catch."""

import dataclasses
import re

import pytest

from rootcoh import exterior, verify
from rootcoh.rootsys import Weight, root_system
from rootcoh.weyl import BwbOutcome
from rootcoh.verify import (
    check_appendix_tables,
    check_bwb_oracle,
    check_certificates,
    check_column_statistics,
    check_corollary5,
    check_coxeter_numbers,
    check_pairing_bound,
    check_prop2_sufficiency,
    check_rho_top_degree,
)

CHECKS = [
    check_appendix_tables,
    check_coxeter_numbers,
    check_column_statistics,
    check_prop2_sufficiency,
    check_corollary5,
    check_pairing_bound,
    check_certificates,
    check_rho_top_degree,
    check_bwb_oracle,
]


@pytest.fixture(scope="module")
def results():
    out = {}
    for fn in CHECKS:
        res = fn()
        print(res.line)
        out[res.number] = res
    return out


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(results, number):
    res = results[number]
    print(res.line)
    assert res.ok, res.line


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda out: dataclasses.replace(out, degree=out.degree + 1),
            "degree 10 != l(w) 9",
        ),
        (lambda out: BwbOutcome.singular(), "oracle regular, bwb singular"),
        (
            lambda out: dataclasses.replace(out, dominant=Weight.of(4, 4, 5)),
            "dominant part mismatch",
        ),
    ],
)
def test_criterion9_catches_a_corrupted_outcome(monkeypatch, corrupt, message):
    # bwb(B3, (-6,-6,-6)) is degree 9 with dominant part (4,4,4)
    target = Weight.of(-6, -6, -6)
    honest = verify.bwb

    def corrupted(rs, lam, *args):
        out = honest(rs, lam, *args)
        return corrupt(out) if str(rs.simple_type) == "B3" and lam == target else out

    monkeypatch.setattr(verify, "bwb", corrupted)
    res = check_bwb_oracle()
    assert not res.ok
    assert res.detail.startswith(f"B3 {target}: {message}")


def test_sweeps_build_each_type_once_and_ignore_cache_state(monkeypatch):
    # criteria 4-6 sweep every degree of each type; each sweep asks for the
    # deepest layer first, so the three make one layer build per type, and
    # what the cache held before changes no outcome
    sweeps = (check_prop2_sufficiency, check_corollary5, check_pairing_bound)
    builds = []
    real = exterior._layers

    def counting(mat, depth):
        builds.append(depth)
        return real(mat, depth)

    def outcomes():
        results = [check() for check in sweeps]
        return [(r.ok, re.sub(r"\d+\.\d+s", "<t>", r.detail)) for r in results]

    monkeypatch.setattr(exterior, "_layers", counting)
    monkeypatch.setattr(exterior, "_layer_cache", {})
    cold = outcomes()
    assert set(verify.BOUND_TYPES) <= set(verify.BRUTE_TYPES)
    assert len(builds) == len(verify.BRUTE_TYPES) == 13
    assert all(ok for ok, _ in cold)
    monkeypatch.setattr(exterior, "_layer_cache", {})
    exterior.sum_keys(root_system("F4"), 3, "-")
    exterior.sum_keys(root_system("B4"), 2, "-")
    assert outcomes() == cold
