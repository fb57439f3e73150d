"""Self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench

They check the seeded op stream, the answer checker, the tracer's handling of
a missing function, the metric names against ``BENCHMARK.json``, and a sample
of the recorded answers by routes that share no code with the engines the
benchmark times.
"""

from __future__ import annotations

import json
import random
import sys
from math import prod
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

import rootcoh.cli  # noqa: E402
from rootcoh import Weight, root_system  # noqa: E402
from rootcoh.exterior import subset_sums_reference  # noqa: E402
from rootcoh.weyl import degree_by_inversions  # noqa: E402

POOL = opsmod.load_pool()


def _ids(workload: str, seed: int, rounds: int = 3) -> list[str]:
    stream = opsmod.op_stream(POOL[workload], seed)
    return [e["id"] for _, ops in (next(stream) for _ in range(rounds)) for e in ops]


@pytest.mark.parametrize("workload", ["t1-cold", "e1-pages"])
def test_seed_fixes_the_op_list(workload):
    assert _ids(workload, 7) == _ids(workload, 7)
    assert _ids(workload, 7) != _ids(workload, 8)


@pytest.mark.parametrize("workload", opsmod.WORKLOADS)
def test_every_round_holds_each_slot_once(workload):
    groups = opsmod.slots(POOL[workload])
    for _, (_, ops) in zip(range(4), opsmod.op_stream(POOL[workload], 3)):
        assert sorted(e["slot"] for e in ops) == sorted(g[0]["slot"] for g in groups)


def test_t1_out_of_contract_share_is_about_one_in_twenty():
    n_slots = len(opsmod.slots(POOL["t1-cold"]))
    assert 1 / 25 <= 1 / n_slots <= 1 / 15


def _cheapest(workload: str) -> dict:
    return min(
        (e for e in POOL[workload] if e["kind"] != "ooc"),
        key=lambda e: e["props"]["subsets"],
    )


def test_checker_accepts_the_recorded_answer_and_rejects_a_corrupted_one(monkeypatch):
    entry = _cheapest("e1-pages")
    rec = worker.time_op(rootcoh.cli, entry["argv"])
    assert opsmod.check(entry, rec) == (True, False, "")

    corrupted = json.loads(json.dumps(entry))
    corrupted["expect"]["answer"]["euler"] = str(int(entry["expect"]["answer"]["euler"]) + 1)
    ok, wrong, _ = opsmod.check(corrupted, rec)
    assert not ok and wrong

    monkeypatch.setattr(opsmod, "load_pool", lambda: {"e1-pages": [corrupted]})
    verdict = run.judge("e1-pages", [dict(rec, id=corrupted["id"])])
    assert verdict["ok"] == [False]
    assert not verdict["correct"]


def test_checker_separates_raised_ops_from_wrong_answers():
    ooc = next(e for e in POOL["t1-cold"] if e["kind"] == "ooc")
    raised = {"exc": "VanishingError: x", "exit": None, "stdout": "", "stderr": ""}
    assert opsmod.check(ooc, raised)[:2] == (False, False)
    contract = {"exc": None, "exit": 2, "stdout": "", "stderr": "usage error: x\n"}
    assert opsmod.check(ooc, contract) == (True, False, "")
    traceback = dict(contract, stderr="Traceback\n  line\nError\n")
    assert opsmod.check(ooc, traceback)[:2] == (False, True)
    assert opsmod.check(ooc, dict(contract, exit=1))[:2] == (False, True)


def test_tracer_finishes_when_a_wrapped_function_is_missing(monkeypatch):
    import rootcoh.verify

    monkeypatch.delattr(rootcoh.verify, "check_bwb_oracle")
    entry = _cheapest("e1-pages")
    monkeypatch.setattr(opsmod, "load_pool", lambda: {"e1-pages": [entry]})
    job = {
        "mode": "ops", "workload": "e1-pages", "seed": 1, "trace": True,
        "start": 0, "max_rounds": 1, "seconds": None,
    }
    result = worker._ops(job)
    assert "verify.check_bwb_oracle" in result["trace"]["unmeasured"]
    assert not hasattr(rootcoh.cli.main, "__wrapped__")  # wrappers removed again

    verdict = run.judge("e1-pages", result["records"])
    metrics = run.end_to_end([result], [verdict], 0.1, 1.0)
    assert metrics["ok_ratio"][0] == 1.0 and metrics["ops_per_s"][0] > 0
    layers, unmeasured = run.per_layer(run._merge_traces([result["trace"]]), 1)
    assert unmeasured == ["verify.check_bwb_oracle.self_s"]
    assert layers["weyl.bwb.calls"][0] == entry["props"]["weights"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(
        [{"records": [{"latency": 1.0}], "peak_rss_mb": 1.0}], [{"ok": [True]}], 0.1, 1.0
    )
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])

    trace = {"self_s": {}, "calls": {}, "counts": {}, "unmeasured": []}
    layers, _ = run.per_layer(trace, 1)
    extra = ["ops.out_of_contract_share", "trace.ops_per_s_untraced",
             "trace.ops_per_s_traced", "trace.overhead_ops_per_s", "trace.unmeasured"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers) + extra
    assert {m["name"] for m in spec["workloads"]} == set(opsmod.WORKLOADS)


# ---------------------------------------------------------------------------
# recorded answers, by independent routes


def _negative_sums(rs, p: int) -> dict[tuple[int, ...], int]:
    rows = [tuple(-c for c in r.weight.coords) for r in rs.positive_roots]
    return subset_sums_reference(rows, p)


def _lam(entry: dict) -> tuple[int, ...]:
    argv = entry["argv"]
    return tuple(int(c) for c in argv[argv.index("--lambda") + 1].split(","))


def _t1_by_reference(entry: dict) -> dict:
    rs = root_system(entry["argv"][1])
    p = int(entry["argv"][3])
    lam = _lam(entry)
    counts = {"dominant": 0, "singular": 0, "violation": 0}
    violations = []
    for mu in _negative_sums(rs, p):
        shifted = [m + l for m, l in zip(mu, lam)]
        if all(c >= 0 for c in shifted):
            counts["dominant"] += 1
        elif degree_by_inversions(rs, Weight(tuple(shifted))) is None:
            counts["singular"] += 1
        else:
            counts["violation"] += 1
            violations.append(mu)
    return {
        "verdict": "fail" if violations else "pass",
        "counts": counts,
        "first_violation": list(min(violations)) if violations else None,
    }


def _e1_by_reference(entry: dict) -> dict:
    rs = root_system(entry["argv"][1])
    p = int(entry["argv"][3])
    lam = _lam(entry)
    rho_den = prod(sum(r.coroot_coords) for r in rs.positive_roots)
    buckets: dict[int, int] = {}
    for mu, mult in _negative_sums(rs, p).items():
        w = Weight(tuple(m + l for m, l in zip(mu, lam)))
        degree = degree_by_inversions(rs, w)
        if degree is None:
            continue
        x = [c + 1 for c in w.coords]
        num = prod(sum(c * v for c, v in zip(r.coroot_coords, x)) for r in rs.positive_roots)
        dim, rem = divmod(abs(num), rho_den)
        assert rem == 0
        buckets[degree] = buckets.get(degree, 0) + dim * mult
    euler = sum((-1) ** q * v for q, v in buckets.items())
    return {
        "buckets": {str(q): str(v) for q, v in sorted(buckets.items())},
        "euler": str(euler),
        "concentrated": sum(1 for v in buckets.values() if v) <= 1,
    }


def _sample(workload: str, limit: int, k: int) -> list[dict]:
    """Entries of low degree and few subsets, which plain enumeration affords."""
    cheap = [
        e for e in POOL[workload]
        if e["kind"] != "ooc"
        and e["props"]["subsets"] <= limit
        and 2 * int(e["argv"][3]) <= root_system(e["argv"][1]).num_positive_roots
    ]
    return random.Random(0).sample(cheap, k)


@pytest.mark.parametrize("entry", _sample("t1-cold", 4 * 10**5, 2), ids=lambda e: e["id"])
def test_t1_answer_matches_reference_enumeration(entry):
    assert _t1_by_reference(entry) == entry["expect"]["answer"]
    assert entry["expect"]["exit"] == (0 if entry["expect"]["answer"]["verdict"] == "pass" else 1)


@pytest.mark.parametrize("entry", _sample("e1-pages", 10**5, 4), ids=lambda e: e["id"])
def test_e1_answer_matches_inversions_and_weyl_product(entry):
    assert _e1_by_reference(entry) == entry["expect"]["answer"]


def test_verify_all_expects_nine_passing_criteria():
    answer = POOL["verify-all"][0]["expect"]["answer"]
    assert answer["ok"] is True
    assert [c[0] for c in answer["criteria"]] == list(range(1, 10))
    assert all(c[2] for c in answer["criteria"])


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "e1-pages", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr()
    assert code != 0 and out.out == ""
    assert "no rootcoh package" in out.err

