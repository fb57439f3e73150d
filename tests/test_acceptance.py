"""The nine acceptance checks, one test each, and mutations criteria 2-9 must catch."""

import dataclasses
import itertools
import re
import shutil
import time
from collections import Counter
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import WEYL_DEGREES, poincare

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
        print(res.detail)
        out[res.number] = res
    return out


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(results, number):
    res = results[number]
    print(res.detail)
    assert res.ok, res.detail


#: (target, corruption of bwb's outcome there, detail criterion 9 must give).
#: bwb(B3, (-6,-6,-6)) is degree 9 with dominant part (4,4,4), and
#: (-1,0,0) + rho = (0,1,1) is singular.
CRITERION9_CORRUPTIONS = [
    (
        Weight.of(-6, -6, -6),
        lambda out: dataclasses.replace(out, degree=out.degree + 1),
        "degree 10 != l(w) 9",
    ),
    (Weight.of(-6, -6, -6), lambda out: BwbOutcome(), "oracle regular, bwb singular"),
    (
        Weight.of(-6, -6, -6),
        lambda out: dataclasses.replace(out, dominant=Weight.of(4, 4, 5)),
        "dominant part mismatch",
    ),
    (
        Weight.of(-1, 0, 0),
        lambda out: BwbOutcome(0, Weight.of(0, 0, 0)),
        "oracle singular, bwb concentrated",
    ),
]


@pytest.mark.parametrize(
    "target, corrupt, message",
    CRITERION9_CORRUPTIONS,
    ids=[f"<lambda>-{message}" for _, _, message in CRITERION9_CORRUPTIONS],
)
def test_criterion9_catches_a_corrupted_outcome(monkeypatch, target, corrupt, message):
    honest = verify.bwb

    def corrupted(rs, lam, *args):
        out = honest(rs, lam, *args)
        return corrupt(out) if str(rs.simple_type) == "B3" and lam == target else out

    monkeypatch.setattr(verify, "bwb", corrupted)
    res = check_bwb_oracle()
    assert not res.ok
    assert res.detail.startswith(f"B3 {target}: {message}")


@pytest.mark.parametrize("name", [*verify.ORACLE_TYPES, "D4", "B4", "F4"])
def test_weyl_group_lengths_give_the_poincare_polynomial(name):
    rs = root_system(name)
    group = verify.weyl_group(rs)
    assert len({m.tobytes() for m, _ in group}) == len(group) == prod(WEYL_DEGREES[name])
    by_length = Counter(length for _, length in group)
    assert [by_length[k] for k in range(max(by_length) + 1)] == poincare(WEYL_DEGREES[name])
    rho = np.array(rs.rho.coords)
    longest = [m for m, length in group if length == rs.num_positive_roots]
    assert len(longest) == 1
    assert (longest[0] @ rho).tolist() == (-rho).tolist()


def _shift_first_row(rows, counts):
    rows = rows.copy()
    rows[0, 0] += 1
    return rows, counts


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows, counts: (rows[:-1], counts[:-1]),
        _shift_first_row,
        lambda rows, counts: (rows, counts * 2),
    ],
    ids=["row-dropped", "row-changed", "multiplicity-doubled"],
)
def test_criterion8_catches_a_wrong_complement_row(monkeypatch, corrupt):
    # criterion 8 reads degree d - 1, the complement of layer 1, through
    # verify.phi_sums; the e1 page reads through exterior and stays right
    real = verify.phi_sums
    monkeypatch.setattr(verify, "phi_sums", lambda rs, p: corrupt(*real(rs, p)))
    res = check_rho_top_degree()
    assert not res.ok
    assert res.detail.startswith("A3: degree 5 rows are not gamma - 2 rho")


def _for_type(name, real, wrong):
    """``real`` with ``wrong``'s answer for the type ``name``."""
    return lambda rs: wrong(rs) if str(rs.simple_type) == name else real(rs)


#: (check, name it reads from rootcoh.verify, corruption of that function,
#: start of the detail the check must give): each reaches a problem that the
#: honest run never records.
MUTATIONS = [
    (check_coxeter_numbers, "_spot_coxeter", lambda real: lambda t: real(t) + (str(t) == "B3"),
     "B3: h=6"),
    (check_column_statistics, "column_stats",
     lambda real: _for_type("C3", real, lambda rs: ((9,) * 7, *real(rs)[1:])),
     "C3 column 0: (9, 9, 9, 9, 9, 9, 9) != (2, 2, 2, 0, 2, 1, 0)"),
    (check_prop2_sufficiency, "prop2_threshold", lambda real: lambda rs, p: (0,) * rs.rank,
     "A1 p=1 lam=(0): (-2)"),
    (check_corollary5, "corollary_bound", lambda real: lambda rs: (0,) * rs.rank,
     "A1 p=1: (-2)"),
    (check_pairing_bound, "pairings", lambda real: lambda rs, x: real(rs, x) * 2,
     "A1 j=1: bound 2 > 1"),
    (check_pairing_bound, "pairings", lambda real: lambda rs, x: real(rs, x) // 2,
     "A2: bound h-1 never attained"),
    (check_certificates, "build_certificate",
     lambda real: _for_type(
         "E7", real, lambda rs: dataclasses.replace(real(rs), valid=False, failure="broken")
     ),
     "E7: broken"),
]


@pytest.mark.parametrize(
    "check, name, corrupt, start",
    MUTATIONS,
    ids=["2", "3", "4", "5", "6-doubled", "6-halved", "7"],
)
def test_criteria_2_to_7_catch_a_mutation(monkeypatch, check, name, corrupt, start):
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    res = check()
    assert not res.ok
    assert res.detail.startswith(start)


def _with_page(name, buckets):
    """``e1_page`` with ``buckets`` in the page of the type ``name``."""
    real = verify.e1_page

    def page(rs, p, lam):
        got = real(rs, p, lam)
        return dataclasses.replace(got, buckets=buckets) if str(rs.simple_type) == name else got

    return page


def _stepping_clock(step):
    """A ``time`` whose ``perf_counter`` advances by ``step`` on every read."""
    return SimpleNamespace(perf_counter=itertools.count(0, step).__next__)


#: The failure branches of criteria 4, 7 and 8 that the mutations above do
#: not reach, in the same form: the certificate check's A2 pattern and
#: totals, the rho check's pages, and each per-item time limit.
BRANCHES = [
    (check_certificates, "build_certificate",
     lambda real: _for_type(
         "A2", real, lambda rs: dataclasses.replace(real(rs), lam=Weight.of(2, 1))
     ),
     "A2 witness weight is not rho"),
    (check_certificates, "build_certificate",
     lambda real: _for_type(
         "A2", real, lambda rs: dataclasses.replace(real(rs), records=real(rs).records[1:])
     ),
     "A2 exceptional set {(1, -2), (0, 0)} != {(-2, 1), (1, -2), (0, 0)}"),
    # the degrees stay [1, 1, 0], so the totals are the first problem named
    (check_certificates, "build_certificate",
     lambda real: _for_type(
         "A2", real, lambda rs: dataclasses.replace(real(rs), degree_totals={0: 1, 1: 3})
     ),
     "A2 degree totals {0: 1, 1: 3} != {0: 1, 1: 2}"),
    (check_rho_top_degree, "e1_page", lambda real: _with_page("B2", {1: 1}),
     "B2: buckets {1: 1} not empty"),
    (check_rho_top_degree, "e1_page", lambda real: _with_page("A2", {}),
     "A2: expected a nonzero page at rho"),
    (check_prop2_sufficiency, "time", lambda real: _stepping_clock(61),
     "slowest type took 61.0s (limit 60s)"),
    (check_certificates, "time", lambda real: _stepping_clock(1.5),
     "slowest certificate took 1.50s (limit 1s)"),
]


@pytest.mark.parametrize(
    "check, name, corrupt, start",
    BRANCHES,
    ids=["7-lambda", "7-exceptional", "7-totals", "8-buckets", "8-a2-page", "4-time", "7-time"],
)
def test_criteria_4_7_and_8_reach_each_failure_branch(monkeypatch, check, name, corrupt, start):
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    res = check()
    assert not res.ok
    assert res.detail.startswith(start)


def test_a_check_past_its_time_limit_fails():
    res = verify._result(1, "x", [], "fine", time.perf_counter() - 2, 1.0)
    assert (res.ok, res.detail) == (False, "fine; exceeded time limit 1.0s")


def test_criterion1_reports_a_missing_or_changed_golden_table(tmp_path):
    res = check_appendix_tables(tmp_path / "missing")
    assert not res.ok and res.detail.endswith("not found")
    golden = tmp_path / "golden"
    shutil.copytree(verify.default_golden_dir(), golden)
    table = golden / "G2.txt"
    text = table.read_text()
    assert "2 3 -> 1 0\n" in text
    table.write_text(text.replace("2 3 -> 1 0\n", "2 3 -> 1 1\n"))
    res = check_appendix_tables(golden)
    assert not res.ok and res.detail == "mismatch in ['G2']"
    # a line without "->", then no G2.txt at all: a failed criterion, not a raise
    table.write_text("2 3 1 0\n" + text)
    res = check_appendix_tables(golden)
    assert not res.ok and res.detail == "G2.txt line 1 malformed"
    table.unlink()
    res = check_appendix_tables(golden)
    assert not res.ok and res.detail == "G2.txt not found"


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
    exterior.sum_keys(root_system("F4"), 3)
    exterior.sum_keys(root_system("B4"), 2)
    assert outcomes() == cold
