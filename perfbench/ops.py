"""The committed op pool, the seeded op stream and the answer checker.

Every pool entry belongs to a *slot*.  A round of a workload holds exactly
one entry of each of its slots, picked and ordered by the seed, so every
round asks for the same mix of shapes and a run of whole rounds measures the
same mix whatever the seed.  The seed picks the entry that fills each slot
and the order of each round.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

WORKLOADS = ("verify-all", "t1-cold", "e1-pages")


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def slots(entries: list[dict]) -> list[list[dict]]:
    """Entries grouped by slot, slots in first-appearance order."""
    order: dict[str, list[dict]] = {}
    for e in entries:
        order.setdefault(e["slot"], []).append(e)
    return list(order.values())


def round_ops(entries: list[dict], seed: int, index: int) -> list[dict]:
    """Round ``index`` of the stream for ``seed``: one entry per slot."""
    rng = random.Random(f"{seed}:{index}")
    picked = [rng.choice(group) for group in slots(entries)]
    rng.shuffle(picked)
    return picked


def op_stream(entries: list[dict], seed: int, start: int = 0):
    """Rounds ``start, start + 1, ...`` as (round index, ops) pairs."""
    index = start
    while True:
        yield index, round_ops(entries, seed, index)
        index += 1


# ---------------------------------------------------------------------------
# answers


def answer_fields(kind: str, stdout: str) -> dict:
    """The fields of a JSON answer that the benchmark compares.

    Wall-clock fields (``seconds`` and the ``detail`` strings of
    ``verify-all``) are left out because they differ from run to run.
    """
    doc = json.loads(stdout)
    if kind == "t1":
        return {
            "verdict": doc["verdict"],
            "counts": doc["counts"],
            "first_violation": doc["first_violation"],
        }
    if kind == "e1":
        return {
            "buckets": doc["buckets"],
            "euler": doc["euler"],
            "concentrated": doc["concentrated"],
        }
    if kind == "verify":
        return {
            "ok": doc["ok"],
            "criteria": [[c["number"], c["name"], c["ok"]] for c in doc["criteria"]],
        }
    raise ValueError(f"unknown answer kind {kind!r}")


def check(entry: dict, record: dict) -> tuple[bool, bool, str]:
    """Judge one executed op against its expected answer.

    Returns ``(ok, wrong, reason)``.  ``ok`` is false for any failure: the op
    raised, returned an unexpected exit code, or answered differently.
    ``wrong`` is true when the program returned and its exit code or answer
    differs from the expected one, as opposed to raising.
    """
    expect = entry["expect"]
    if record.get("exc") is not None:
        return False, False, f"raised {record['exc']}"
    if record["exit"] != expect["exit"]:
        return False, True, f"exit {record['exit']}, expected {expect['exit']}"
    if entry["kind"] == "ooc":
        lines = record["stderr"].strip().splitlines()
        if len(lines) != 1:
            return False, True, f"stderr has {len(lines)} lines, expected one"
        return True, False, ""
    try:
        got = answer_fields(entry["kind"], record["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return False, True, f"unreadable answer: {exc}"
    if got != expect["answer"]:
        return False, True, "answer differs from the recorded one"
    return True, False, ""
