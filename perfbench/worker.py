"""Child process that runs ops through ``rootcoh.cli.main``.

Reads one JSON job on standard input and writes one JSON result line on
standard output.  Jobs:

* ``{"mode": "setup"}``: time ``import rootcoh`` plus building every
  catalogue of rank <= 8, from a fresh interpreter.
* ``{"mode": "ops", "workload", "seed", "start", "max_rounds", "seconds",
  "trace", "reverse", "spans_path"}``: run whole rounds of the op stream from
  round ``start``; stop after ``max_rounds`` rounds, or at the first round
  boundary once ``seconds`` have passed.  With ``reverse`` the ops of
  ``max_rounds`` rounds run last first.  Each op is timed around
  ``cli.main`` only; its record carries its forward position ``seq``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import time


def _setup() -> dict:
    t0 = time.perf_counter()
    import rootcoh

    for t in rootcoh.all_simple_types(8):
        rootcoh.root_system(t)
    return {"setup_s": time.perf_counter() - t0}


def _one_line(exc: BaseException) -> str:
    text = str(exc).splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}"


def time_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as e:  # an op that raises is recorded as failed
        exc = _one_line(e)
    latency = time.perf_counter() - t0
    return {
        "latency": latency,
        "exit": code,
        "exc": exc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def _ops(job: dict) -> dict:
    import ops as opsmod
    import rootcoh.cli

    entries = opsmod.load_pool()[job["workload"]]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cli = rootcoh.cli
    records = []

    def run(seq: int, index: int, entry: dict) -> None:
        if tracer is None:
            rec = time_op(cli, entry["argv"])
        else:
            rec = tracer.run_op(seq, time_op, cli, entry["argv"])
        rec.update(id=entry["id"], round=index, seq=seq)
        records.append(rec)

    stream = opsmod.op_stream(entries, job["seed"], job["start"])
    if job.get("reverse"):
        # the ops of a forward run of max_rounds rounds, last op first
        plan = [
            (index, entry)
            for index, round_ops in itertools.islice(stream, job["max_rounds"])
            for entry in round_ops
        ]
        for seq in reversed(range(len(plan))):
            run(seq, *plan[seq])
        rounds = job["max_rounds"]
    else:
        rounds = 0
        t_start = time.perf_counter()
        for index, round_ops in stream:
            if job["max_rounds"] is not None and rounds >= job["max_rounds"]:
                break
            if job["seconds"] is not None and rounds and (
                time.perf_counter() - t_start >= job["seconds"]
            ):
                break
            for entry in round_ops:
                run(len(records), index, entry)
            rounds += 1

    result = {
        "records": records,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())
    result = _setup() if job["mode"] == "setup" else _ops(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
