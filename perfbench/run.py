"""Benchmark of the ``rootcoh`` command line, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload t1-cold --seed 1 --seconds 6 --trace 0

The program under test is the ``rootcoh`` package in ``src/`` of the current
directory.  Every op is one ``rootcoh.cli.main([... "--format", "json"])``
call in a child interpreter, one op at a time from one client (a closed
loop), and every answer is checked against the answer recorded in
``pool.json``.  The first pass runs whole rounds until ``--seconds`` have
passed; further passes rerun the same op list (see ``PASSES``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
same untraced loop, then replays the same rounds with every layer function
wrapped, and prints the per-layer metrics and the tracing overhead; the spans
are written under ``.perfbench/spans/``.  Each metric is printed as
``name value unit``; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402
from tracer import CALL_COUNTED, TARGETS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` before each pass; the median of
#: all of them is reported.
SETUP_RUNS = 3
#: Times every op list is run, each pass in fresh workers and every other
#: pass in reverse order, so an op's runs fall at different moments.  An op's
#: latency is its fastest run, which discards most of the slowdowns that other
#: tenants of a shared machine cause.
PASSES = 3
#: A worker that runs longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 150
OUT_DIR = Path(".perfbench")


class BenchError(RuntimeError):
    pass


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    # one thread: the load is a single client
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(job: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _merge_traces(traces: list[dict]) -> dict:
    out = {"self_s": {}, "calls": {}, "counts": {}, "unmeasured": set()}
    for tr in traces:
        for key in ("self_s", "calls", "counts"):
            for name, value in tr[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["unmeasured"].update(tr["unmeasured"])
    out["unmeasured"] = sorted(out["unmeasured"])
    return out


def run_phase(
    workload: str,
    seed: int,
    env: dict,
    seconds: float | None,
    max_rounds: int | None,
    trace: bool = False,
    reverse: bool = False,
) -> dict:
    """Run whole rounds; returns records in forward order, rounds, peak RSS
    and, when tracing, the trace summary."""
    spans_dir = OUT_DIR / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    job = {"mode": "ops", "workload": workload, "seed": seed, "trace": trace,
           "reverse": reverse}
    if workload != "verify-all":
        job.update(start=0, max_rounds=max_rounds, seconds=seconds)
        if trace:
            job["spans_path"] = str(spans_dir / f"{workload}-seed{seed}.json")
        parts = [_worker(job, env)]
    else:
        # each op in a fresh interpreter, started one at a time
        parts = []
        order = reversed(range(max_rounds)) if reverse else itertools.count()
        t0 = time.perf_counter()
        for r in order:
            if not reverse and max_rounds is not None and r >= max_rounds:
                break
            if seconds is not None and r and time.perf_counter() - t0 >= seconds:
                break
            job.update(start=r, max_rounds=1, seconds=None, reverse=False)
            if trace:
                job["spans_path"] = str(spans_dir / f"{workload}-seed{seed}-op{r}.json")
            parts.append(_worker(job, env))
    records = sorted(
        (rec for part in parts for rec in part["records"]),
        key=lambda rec: (rec["round"], rec["seq"]),
    )
    result = {
        "records": records,
        "rounds": sum(part["rounds"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    if trace:
        result["trace"] = _merge_traces([part["trace"] for part in parts])
    return result


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float, cap: float) -> float:
    """Linear-interpolated quantile; a rank among failed ops (inf) reads ``cap``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    a, b = xs[lo], xs[hi]
    if math.isinf(a) or (math.isinf(b) and pos > lo):
        return cap
    return a + (b - a) * (pos - lo)


def judge(workload: str, records: list[dict]) -> dict:
    """Check every answer; summarise failures and workload properties."""
    pool = {e["id"]: e for e in opsmod.load_pool()[workload]}
    ok_flags, reasons = [], []
    wrong = in_contract_failed = ooc = 0
    subsets = weights = calls = repeats = 0
    seen_types: set[str] = set()
    for rec in records:
        entry = pool[rec["id"]]
        ok, is_wrong, why = opsmod.check(entry, rec)
        ok_flags.append(ok)
        if not ok:
            reasons.append(f"{rec['id']} {' '.join(entry['argv'])}: {why}")
            wrong += is_wrong
            in_contract_failed += entry["kind"] != "ooc"
        ooc += entry["kind"] == "ooc"
        props = entry["props"]
        subsets += props["subsets"]
        weights += props["weights"]
        calls += props["sum_keys_calls"]
        repeats += props["internal_repeats"]
        if props["type"] is not None:
            # t1-cold and e1-pages run every op in one process
            repeats += props["type"] in seen_types
            seen_types.add(props["type"])
    n = len(records)
    return {
        "ok": ok_flags,
        "reasons": reasons,
        "correct": wrong == 0 and in_contract_failed == 0,
        "properties": {
            "ops.subsets_per_op": (subsets / n, "subsets/op"),
            "ops.weights_per_op": (weights / n, "weights/op"),
            "ops.repeat_share": (repeats / calls if calls else 0.0, "ratio"),
            "ops.out_of_contract_share": (ooc / n, "ratio"),
        },
    }


def passed_every_pass(verdicts: list[dict]) -> list[bool]:
    return [all(flags) for flags in zip(*(v["ok"] for v in verdicts))]


def end_to_end(
    passes: list[dict], verdicts: list[dict], setup_s: float, window_s: float
) -> dict:
    """End-to-end metrics over passes that ran the same op list.

    An op's latency is its fastest timing over the passes; an op that failed
    in any pass counts as failed and ranks slower than every successful op.
    Peak memory is the median over the passes of each pass's peak, since
    the allocator's history makes single peaks wander by several percent.
    """
    ok = passed_every_pass(verdicts)
    fastest = [
        min(recs) for recs in zip(*([r["latency"] for r in p["records"]] for p in passes))
    ]
    n_ok = sum(ok)
    lat_ms = [x * 1000.0 if good else math.inf for x, good in zip(fastest, ok)]
    cap_ms = window_s * 1000.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n_ok / sum(fastest), "1/s"),
        "latency_p50_ms": (quantile(lat_ms, 0.5, cap_ms), "ms"),
        "latency_p90_ms": (quantile(lat_ms, 0.9, cap_ms), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": (n_ok / len(ok), "ratio"),
    }


def per_layer(trace: dict, n_ops: int) -> tuple[dict, list[str]]:
    """Per-op layer metrics from a merged trace summary, and the unmeasured."""
    gaps = set(trace["unmeasured"])
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    out: dict = {}
    unmeasured: list[str] = []

    def put(name: str, unit: str, value: float, source: str) -> None:
        if source in gaps:
            unmeasured.append(name)
            value = 0.0
        out[name] = (value, unit)

    for module, func in TARGETS:
        label = f"{module}.{func}"
        put(f"{label}.self_s", "s/op", self_s.get(label, 0.0) / n_ops, label)
    for label in CALL_COUNTED:
        put(f"{label}.calls", "calls/op", calls.get(label, 0) / n_ops, label)
    sk_calls = calls.get("exterior.sum_keys", 0)
    bwb_calls = calls.get("weyl.bwb", 0)
    put("exterior.subsets", "subsets/op",
        counts.get("exterior.subsets", 0) / n_ops, "exterior.subsets")
    put("exterior.support_weights", "weights/op",
        counts.get("exterior.support_weights", 0) / n_ops, "exterior.support_weights")
    put("exterior.repeat_share", "ratio",
        counts.get("exterior.repeats", 0) / sk_calls if sk_calls else 0.0,
        "exterior.repeats")
    put("vanishing.weights_classified", "weights/op",
        counts.get("vanishing.weights_classified", 0) / n_ops,
        "vanishing.weights_classified")
    put("weyl.singular_ratio", "ratio",
        counts.get("weyl.singular", 0) / bwb_calls if bwb_calls else 0.0,
        "weyl.singular")
    put("weyl.reflections", "refl/op",
        counts.get("weyl.reflections", 0) / n_ops, "weyl.reflections")
    return out, unmeasured


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = Path.cwd() / "src"
    if not (src / "rootcoh" / "__init__.py").is_file():
        raise BenchError(f"no rootcoh package under {src}; run from a checkout root")
    if workload not in opsmod.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    env = _child_env(src)

    _worker({"mode": "setup"}, env)  # warm-up: compiles bytecode, fills file caches
    setup_samples: list[float] = []
    passes: list[dict] = []
    for k in range(PASSES):
        # set-up samples are spread over the run, like the passes
        setup_samples += [_worker({"mode": "setup"}, env)["setup_s"] for _ in range(SETUP_RUNS)]
        if k == 0:
            t0 = time.perf_counter()
            passes.append(run_phase(workload, seed, env, seconds, None))
            window_s = time.perf_counter() - t0
            rounds = passes[0]["rounds"]
        else:
            passes.append(run_phase(workload, seed, env, None, rounds, reverse=k % 2 == 1))
    setup_s = statistics.median(setup_samples)
    ids = [rec["id"] for rec in passes[0]["records"]]
    if any([rec["id"] for rec in p["records"]] != ids for p in passes):
        raise BenchError("passes ran different op lists")
    verdicts = [judge(workload, p["records"]) for p in passes]
    metrics = end_to_end(passes, verdicts, setup_s, window_s)
    attempted = len(ids)
    failed = passed_every_pass(verdicts).count(False)
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": all(v["correct"] for v in verdicts),
        "reasons": list(dict.fromkeys(r for v in verdicts for r in v["reasons"])),
        "properties": verdicts[0]["properties"],
        "end_to_end": metrics,
        "failed_ratio": failed / attempted,
    }
    if trace:
        traced = run_phase(workload, seed, env, None, rounds, trace=True)
        tverdict = judge(workload, traced["records"])
        layers, unmeasured = per_layer(traced["trace"], len(traced["records"]))
        one = end_to_end(passes[:1], verdicts[:1], setup_s, window_s)["ops_per_s"][0]
        traced_rate = end_to_end([traced], [tverdict], setup_s, window_s)["ops_per_s"][0]
        layers["ops.out_of_contract_share"] = verdicts[0]["properties"][
            "ops.out_of_contract_share"
        ]
        layers["trace.ops_per_s_untraced"] = (one, "1/s")
        layers["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        layers["trace.overhead_ops_per_s"] = (traced_rate - one, "1/s")
        layers["trace.unmeasured"] = (len(unmeasured), "count")
        report["per_layer"] = layers
        report["unmeasured"] = unmeasured
        report["correct"] = report["correct"] and tverdict["correct"]
    return report


def _show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=opsmod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(
        f"# {report['workload']} seed {report['seed']}: {report['attempted']} ops "
        f"in {report['rounds']} rounds, {report['failed']} failed"
    )
    for reason in report["reasons"][:5]:
        print(f"# failed: {reason}")
    _show(report["end_to_end"])
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio")
    _show(report["properties"])
    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    if args.trace:
        _show(chosen)
        if report["unmeasured"]:
            print(f"# unmeasured: {', '.join(report['unmeasured'])}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
