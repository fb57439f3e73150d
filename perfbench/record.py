"""Rebuild ``pool.json``: the op pool of every workload and its expected answers.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py

The pool is drawn from a fixed generator seed, so re-running this script at
the same commit reproduces the committed file.  Expected answers are the
program's own answers at the commit that records them; out-of-contract ops
get the contract answer instead (exit code 2 and a one-line message),
whatever the program does today.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import time_op  # noqa: E402

POOL_SEED = 20040630

#: check-t1 types: every one has |Phi+| >= 28, past the all-subset sweep.
T1_TYPES = ("A7", "D6", "E6", "B6", "C6", "D7", "E7", "E8")
#: Degrees are those up to |Phi+|/2 with C(|Phi+|, p) inside this range.
T1_SUBSETS = (2 * 10**5, 15 * 10**5)
#: Weights are prop2_threshold plus per-coordinate offsets, clamped at 0.
#: Each (type, degree) has one slot per offset range, so every round holds
#: weights that only raise the threshold (mostly passes) and weights that
#: may lower it (mostly fails).
T1_OFFSETS = {"raised": (0, 1), "mixed": (-2, 1)}
T1_VARIANTS = 3
OOC_VARIANTS = 6

#: e1 types: every one is served by the cached all-subset sweep.
E1_TYPES = ("A5", "A6", "B4", "B5", "C4", "C5", "D5", "F4")
#: Weights per (type, degree): rho and random ones.  Each (type, degree,
#: weight) is a slot of its own, so every round runs the whole e1 pool and
#: the seed only orders it: the cost of an e1 op depends on the weight.
E1_WEIGHTS = 2


def _lam_text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _record(entry: dict, cli) -> dict:
    rec = time_op(cli, entry["argv"])
    if rec["exc"] is not None:
        raise RuntimeError(f"{entry['id']} raised {rec['exc']}")
    entry["expect"] = {
        "exit": rec["exit"],
        "answer": opsmod.answer_fields(entry["kind"], rec["stdout"]),
    }
    return entry


def _props(subsets: int, weights: int, type_name: str | None) -> dict:
    return {
        "type": type_name,
        "subsets": subsets,
        "weights": weights,
        "sum_keys_calls": 1 if type_name else 0,
        "internal_repeats": 0,
    }


def t1_pool(rng: random.Random, cli, root_system, prop2_threshold) -> list[dict]:
    out = []
    for name in T1_TYPES:
        rs = root_system(name)
        n = rs.num_positive_roots
        degrees = [
            p for p in range(n // 2 + 1)
            if T1_SUBSETS[0] <= math.comb(n, p) <= T1_SUBSETS[1]
        ]
        for p in degrees:
            thr = prop2_threshold(rs, p)
            for label, (low, high) in T1_OFFSETS.items():
                for _ in range(T1_VARIANTS):
                    lam = [max(0, c + rng.randint(low, high)) for c in thr]
                    entry = {
                        "id": f"t1-cold/{len(out):03d}",
                        "slot": f"{name} p={p} {label}",
                        "kind": "t1",
                        "argv": ["check-t1", name, "-p", str(p), "--lambda",
                                 _lam_text(lam), "--format", "json"],
                    }
                    _record(entry, cli)
                    counts = entry["expect"]["answer"]["counts"]
                    entry["props"] = _props(math.comb(n, p), sum(counts.values()), name)
                    out.append(entry)
    for k in range(OOC_VARIANTS):
        name = T1_TYPES[k % len(T1_TYPES)]
        rs = root_system(name)
        n = rs.num_positive_roots
        if k % 2 == 0:
            # a dominant weight but a degree past |Phi+|
            p = n + 1 + rng.randint(0, 2)
            lam = list(prop2_threshold(rs, n))
        else:
            # a legal degree but a weight that is not dominant
            p = rng.randint(1, 3)
            lam = list(prop2_threshold(rs, p))
            lam[rng.randrange(rs.rank)] = -rng.randint(1, 2)
        out.append(
            {
                "id": f"t1-cold/{len(out):03d}",
                "slot": "out-of-contract",
                "kind": "ooc",
                "argv": ["check-t1", name, "-p", str(p), "--lambda",
                         _lam_text(lam), "--format", "json"],
                "expect": {"exit": 2},
                "props": _props(0, 0, None),
            }
        )
    return out


def e1_pool(rng: random.Random, cli, root_system, sum_keys) -> list[dict]:
    out = []
    for name in E1_TYPES:
        rs = root_system(name)
        n = rs.num_positive_roots
        support = [len(sum_keys(rs, p)[0]) for p in range(n + 1)]
        top = max(support)
        p_top = support.index(top)
        p_half = next(p for p in range(n + 1) if 2 * support[p] >= top)
        for p in (p_half, p_top):
            lams = [[1] * rs.rank]
            while len(lams) < E1_WEIGHTS:
                lam = [rng.randint(0, 3) for _ in range(rs.rank)]
                if lam not in lams:
                    lams.append(lam)
            for lam in lams:
                entry = {
                    "id": f"e1-pages/{len(out):03d}",
                    "slot": f"{name} p={p} lambda={_lam_text(lam)}",
                    "kind": "e1",
                    "argv": ["e1", name, "-p", str(p), "--lambda", _lam_text(lam),
                             "--format", "json"],
                }
                _record(entry, cli)
                entry["props"] = _props(math.comb(n, p), support[p], name)
                out.append(entry)
    return out


def verify_pool(cli) -> list[dict]:
    entry = {
        "id": "verify-all/000",
        "slot": "verify-all",
        "kind": "verify",
        "argv": ["verify-all", "--format", "json"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, _record, entry, cli)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    counts = summary["counts"]
    entry["props"] = {
        "type": None,
        "subsets": int(counts["exterior.subsets"]),
        "weights": int(counts["exterior.support_weights"]),
        "sum_keys_calls": summary["calls"]["exterior.sum_keys"],
        "internal_repeats": int(counts["exterior.repeats"]),
    }
    return [entry]


def main() -> int:
    import rootcoh.cli
    from rootcoh import prop2_threshold, root_system
    from rootcoh.exterior import sum_keys

    rng = random.Random(POOL_SEED)
    pool = {
        "t1-cold": t1_pool(rng, rootcoh.cli, root_system, prop2_threshold),
        "e1-pages": e1_pool(rng, rootcoh.cli, root_system, sum_keys),
        "verify-all": verify_pool(rootcoh.cli),
    }
    with open(opsmod.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    for name, entries in pool.items():
        print(f"{name}: {len(entries)} ops in {len(opsmod.slots(entries))} slots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
