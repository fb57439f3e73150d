"""Hash the command line's outputs over a fixed argv set, one hash per family.

Usage, from the root of a checkout::

    python3 tools/compare_outputs.py SRC_DIR

``SRC_DIR`` is the ``src`` directory of the tree under test; run the script
once per tree and compare the lines.  Every argv is run in this process
through ``rootcoh.cli.main``, and each family's SHA-256 covers, per run, the
argv, the exit code, standard output and standard error.  Decimals in
``verify-all`` output are masked, since they are wall-clock timings.

The families: the ops of ``perfbench/pool.json`` (read from this checkout,
never written), ``check-t1`` on eleven types with ``p`` on both sides of
``N/2``, ``e1``, ``phi``, ``roots``, ``certify``, ``verify-all``, ``bwb``,
and ``parse``, the integer-parsing edge cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POOL = ROOT / "perfbench" / "pool.json"
FORMATS = ("table", "json")
EDGE = 2**63 - 3


def _csv(coords) -> str:
    return ",".join(str(c) for c in coords)


def _lambdas(rs, extra=()) -> list[str]:
    """rho, 0, a non-dominant weight, coordinates at the int64 edge, one
    coordinate past it, and a wrong length."""
    r = rs.rank
    return [
        _csv(rs.rho),
        _csv([0] * r),
        _csv([-1] + [1] * (r - 1)),
        _csv([2**63 - 1] * r),
        _csv([92233720368547758070] + [0] * (r - 1)),
        _csv([0] * (r + 1)),
        *extra,
    ]


def _pool() -> list[list[str]]:
    pool = json.loads(POOL.read_text(encoding="utf-8"))
    return [e["argv"] for entries in pool.values() for e in entries]


def _check_t1(root_system, prop2_threshold) -> list[list[str]]:
    out = []
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "B4", "D4", "F4", "G2"):
        rs = root_system(name)
        n, r = rs.num_positive_roots, rs.rank
        degrees = {0, 1, 2, n // 2, n // 2 + 1, n - 2, n - 1, n}
        for p in sorted(degrees & set(range(n + 1))):
            band = list(prop2_threshold(rs, p))
            low = [max(0, band[0] - 1)] + band[1:]
            extra = (_csv(band), _csv(low), _csv([EDGE] + [0] * (r - 1)),
                     _csv([EDGE] * r), _csv([2**15] * r), _csv([2**62] + [1] * (r - 1)))
            for lam, fmt, wit in itertools.product(
                _lambdas(rs, extra), FORMATS, ((), ("--witnesses",))
            ):
                out.append(["check-t1", name, "-p", str(p), "--lambda", lam,
                            "--format", fmt, *wit])
    return out


def _e1(root_system) -> list[list[str]]:
    out = []
    for name in ("A1", "A2", "B3", "C3", "G2", "F4", "D4", "E6"):
        rs = root_system(name)
        n = rs.num_positive_roots
        for p, lam, fmt in itertools.product(
            (-1, 0, 1, 2, n // 2, n - 1, n, n + 1), _lambdas(rs), FORMATS
        ):
            out.append(["e1", name, "-p", str(p), "--lambda", lam, "--format", fmt])
    return out


def _phi(root_system) -> list[list[str]]:
    out = []
    for name in ("A1", "A2", "B3", "C3", "G2", "D4"):
        n = root_system(name).num_positive_roots
        for p, sign, fmt in itertools.product(
            (-1, 0, 1, n // 2, n, n + 1), "+-", FORMATS
        ):
            out.append(["phi", name, "-p", str(p), "--sign", sign, "--format", fmt])
    return out


def _bwb(types) -> list[list[str]]:
    out = []
    for t in types:
        r = t.rank
        if r <= 4:
            weights = itertools.product(range(-4, 5), repeat=r)
        else:
            rng = random.Random(str(t))
            weights = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(200)]
        for w, fmt in itertools.product(weights, FORMATS):
            out.append(["bwb", str(t), "--lambda", _csv(w), "--format", fmt])
    return out


#: Integer input that ``int()`` alone would take: underscores, non-ASCII
#: digits; and the forms that stay valid: a sign, surrounding spaces.
PARSE = [
    ["check-t1", "A2", "-p", "1", "--lambda", "1_0,2"],
    ["check-t1", "A2", "-p", "1", "--lambda", "١٢,2"],
    ["check-t1", "A2", "-p", "١", "--lambda", "1,1"],
    ["check-t1", "A2", "-p", "1_0", "--lambda", "1,1"],
    ["check-t1", "A2", "-p", "x", "--lambda", "1,1"],
    ["check-t1", "A2", "-p", "+1", "--lambda", " +1 , 2 "],
    ["check-t1", "A2", "-p", " 1 ", "--lambda", "-0,2"],
    ["e1", "A2", "-p", "1", "--lambda", "1,２"],
    ["phi", "A2", "-p", "²"],
    ["thresholds", "A2", "-p", "1 1"],
]


def families(src: Path) -> dict[str, list[list[str]]]:
    sys.path.insert(0, str(src))
    from rootcoh import prop2_threshold, root_system
    from rootcoh.rootsys import all_simple_types

    types = all_simple_types(8)
    per_type = [[cmd, str(t), "--format", fmt]
                for cmd in ("roots", "certify") for t in types for fmt in FORMATS]
    return {
        "pool": _pool(),
        "check-t1": _check_t1(root_system, prop2_threshold),
        "e1": _e1(root_system),
        "phi": _phi(root_system),
        "roots+certify": per_type,
        "verify-all": [["verify-all", "--format", fmt] for fmt in FORMATS],
        "bwb": _bwb(types),
        "parse": PARSE,
    }


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout, stderr = out.getvalue(), err.getvalue()
    if argv[0] == "verify-all":
        stdout = re.sub(r"\d+\.\d+", "#", stdout)
    return code, stdout, stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    fams = families(src)
    from rootcoh.cli import main as cli_main

    for name, runs in fams.items():
        digest = hashlib.sha256()
        for args in runs:
            code, stdout, stderr = run(cli_main, args)
            digest.update(json.dumps([args, code, stdout, stderr]).encode())
        print(f"{name:14s} {len(runs):6d} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
