"""The nine acceptance checks, one test each, and mutations criterion 9 must catch."""

import dataclasses
import re
import shutil
from collections import Counter
from math import prod

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
