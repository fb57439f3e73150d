"""Hash the command line's outputs over a fixed argv set, one hash per family.

Usage, from the root of a checkout::

    python3 tools/compare_outputs.py SRC_DIR
    python3 tools/compare_outputs.py SRC_A SRC_B
    python3 tools/compare_outputs.py --family check-t1 SRC_A SRC_B

``SRC_DIR`` is the ``src`` directory of the tree under test.  With one tree,
every argv is run in this process through ``rootcoh.cli.main``, and each
family's SHA-256 covers, per run, the argv, the exit code, standard output
and standard error; it prints one line per family: name, runs, hash.
Decimals in ``verify-all`` output are masked, since they are wall-clock
timings.  Every run sees ``COLUMNS=80``, so the ``-h`` text that argparse
wraps to the terminal width is the same on any terminal.
``tools/family_hashes.txt`` holds this output for the checked-in tree, and a
tier-1 test recomputes its fast families; a change that alters an output on
purpose rewrites it with ``python3 tools/compare_outputs.py src >
tools/family_hashes.txt``.

With two trees, each tree runs in a child process (``--runs``, which writes
one JSON line per run and one per family hash), and the script prints, per
family, the runs and both hashes, then each argv whose exit code, standard
output or standard error differ between the trees, with what differs.  It
exits 1 when some run differs, 0 otherwise.  ``--family`` (repeatable)
limits either form to the named families.

The families: the ops of ``perfbench/pool.json`` (read from this checkout,
never written), ``check-t1`` on eleven types with ``p`` on both sides of
``N/2`` and lambdas at the pairing guard and past int64, ``e1``, ``phi`` on six types with
``p`` just outside, at and next to each end of ``0..N`` and on both sides
of ``N/2``, ``roots``, ``certify``, ``verify-all``, ``bwb``, ``parse``, the
integer-parsing edge cases, ``cli``: ``coxeter``, ``thresholds`` and
``certify --explain`` on every type of rank <= 8, each subcommand with
every shared input (type, ``-p``, ``--lambda``) missing or out of range in
turn, a failing ``verify-all``, ``--version``, ``-h`` and no arguments; and
``packing``: ``check-t1`` and ``e1`` on twelve types of rank 11 to 40 at
the deepest layers one int64 key holds, and one past them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
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
            # where max|lambda + rho + mu| times the largest coroot height
            # reaches 2**63, past which pairings are taken in Python ints
            guard = 2**63 // rs.max_coroot_height
            extra = (_csv(band), _csv(low), _csv([EDGE] + [0] * (r - 1)),
                     _csv([EDGE] * r), _csv([2**15] * r), _csv([2**62] + [1] * (r - 1)),
                     *(_csv([guard + d] + [0] * (r - 1)) for d in (-1, 0, 1)))
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
            (-1, 0, 1, n // 2, n // 2 + 1, n - 1, n, n + 1), "+-", FORMATS
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
    ["coxeter", "A٣"],
]

#: Per type, the deepest layer that one int64 key held with ``62 // rank``
#: bits per coordinate, and the deepest it holds with each field sized to
#: its column's range.
PACKED_DEPTHS = {
    "A13": (6, 7), "A16": (2, 3), "A20": (2, 3), "A30": (0, 1), "A40": (0, 0),
    "B11": (7, 15), "B16": (1, 3), "C11": (13, 14), "C16": (1, 2),
    "D12": (14, 15), "D16": (2, 3), "D30": (0, 1),
}


def _packing(root_system) -> list[list[str]]:
    """``check-t1`` at lambda = rho, at each type's old and new deepest packed
    depth and one past each; ``e1`` too where ``C(N, p) <= 10**6``, since an
    ``e1`` page takes ``bwb`` of every weight and a bigger one takes seconds."""
    out = []
    for name, depths in PACKED_DEPTHS.items():
        rs = root_system(name)
        for p in sorted({d + step for d in depths for step in (0, 1)}):
            small = math.comb(rs.num_positive_roots, p) <= 10**6
            out += [[cmd, name, "-p", str(p), "--lambda", _csv(rs.rho), "--format", fmt]
                    for cmd in ("check-t1", "e1")[:2 if small else 1] for fmt in FORMATS]
    return out


#: Per subcommand, a valid argv tail after the type; ``_cli`` breaks each
#: input in turn on A2.
CLI_TAILS = {
    "roots": [],
    "coxeter": [],
    "bwb": ["--lambda", "1,1"],
    "phi": ["-p", "1"],
    "e1": ["-p", "1", "--lambda", "1,1"],
    "check-t1": ["-p", "1", "--lambda", "1,1"],
    "thresholds": ["-p", "1"],
    "certify": [],
}
#: Out-of-contract values: ``-p`` below 0 and past |Phi+(A2)| = 3, and
#: lambdas of the wrong length.
BAD = {"-p": ["-1", "4"], "--lambda": ["1,1,1", "1"]}


def _cli(types) -> list[list[str]]:
    out = [[*cmd, str(t), "--format", fmt]
           for cmd in (["coxeter"], ["thresholds"], ["thresholds", "-p", "2"],
                       ["certify", "--explain"])
           for t in types for fmt in FORMATS]
    for cmd, tail in CLI_TAILS.items():
        flags = dict(zip(tail[::2], tail[1::2]))
        argvs = [[cmd, name, *tail] for name in ("A2", "Q5", "D3")]
        for flag in flags:
            rest = [x for f, v in flags.items() if f != flag for x in (f, v)]
            rest_bad = [x for f in flags if f != flag for x in (f, BAD[f][0])]
            # missing, missing with a bad type or bad other inputs (the order
            # of the checks shows), then out of range
            argvs += [[cmd, "A2", *rest], [cmd, "Q5", *rest], [cmd, "A2", *rest_bad]]
            argvs += [[cmd, "A2", *rest, flag, v] for v in BAD[flag]]
        out += [[*argv, "--format", fmt] for argv in argvs for fmt in FORMATS]
    out += [["verify-all", "--golden-dir", "no-such-golden-dir", "--format", fmt]
            for fmt in FORMATS]
    out += [["--version"], [], ["-h"], *([cmd, "-h"] for cmd in [*CLI_TAILS, "verify-all"])]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def families(src: Path) -> dict:
    """Family name -> a function that lists its argv, for the tree ``src``."""
    sys.path.insert(0, str(src))
    from rootcoh import prop2_threshold, root_system
    from rootcoh.rootsys import all_simple_types

    types = all_simple_types(8)
    return {
        "pool": _pool,
        "check-t1": lambda: _check_t1(root_system, prop2_threshold),
        "e1": lambda: _e1(root_system),
        "phi": lambda: _phi(root_system),
        "roots+certify": lambda: [[cmd, str(t), "--format", fmt] for cmd in ("roots", "certify")
                                  for t in types for fmt in FORMATS],
        "verify-all": lambda: [["verify-all", "--format", fmt] for fmt in FORMATS],
        "bwb": lambda: _bwb(types),
        "parse": lambda: PARSE,
        "cli": lambda: _cli(types),
        "packing": lambda: _packing(root_system),
    }


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout, stderr = out.getvalue(), err.getvalue()
    if argv[:1] == ["verify-all"]:
        stdout = re.sub(r"\d+\.\d+", "#", stdout)
    return code, stdout, stderr


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _family_hashes(src: Path, only: list[str], per_run: bool) -> None:
    """Print one line per family: name, runs and hash; or, with ``per_run``,
    the JSON lines of the two-tree form: ``[family, argv, code, stdout hash,
    stderr hash]`` per run, then ``[family, runs, family hash]``."""
    # argparse wraps -h to the terminal width; pin it, in this process and
    # in a child of the two-tree form alike
    os.environ["COLUMNS"] = "80"
    fams = families(src)
    unknown = [name for name in only if name not in fams]
    if unknown:
        raise SystemExit(f"unknown family {unknown[0]!r}; known: {', '.join(fams)}")
    from rootcoh.cli import main as cli_main

    for name in only or fams:
        runs = fams[name]()
        digest = hashlib.sha256()
        for args in runs:
            code, stdout, stderr = run(cli_main, args)
            digest.update(json.dumps([args, code, stdout, stderr]).encode())
            if per_run:
                print(json.dumps([name, args, code, _digest(stdout), _digest(stderr)]))
        if per_run:
            print(json.dumps([name, len(runs), digest.hexdigest()]))
        else:
            print(f"{name:14s} {len(runs):6d} {digest.hexdigest()}")


def _read_runs(text: str) -> tuple[dict, dict]:
    """(family -> (runs, hash), (family, argv) -> (code, stdout, stderr))."""
    totals, runs = {}, {}
    for line in text.splitlines():
        rec = json.loads(line)
        if len(rec) == 3:
            totals[rec[0]] = (rec[1], rec[2])
        else:
            runs[rec[0], tuple(rec[1])] = tuple(rec[2:])
    return totals, runs


def _what_differs(a, b) -> str:
    if a is None or b is None:
        return "only in " + ("B" if a is None else "A")
    parts = [f"exit {a[0]} -> {b[0]}"] if a[0] != b[0] else []
    parts += [name for name, x, y in zip(("stdout", "stderr"), a[1:], b[1:]) if x != y]
    return ", ".join(parts)


def compare(src_a: Path, src_b: Path, only: list[str]) -> int:
    """Print, per family, both hashes and the argv whose outputs differ."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--runs"]
    cmd += [arg for name in only for arg in ("--family", name)]
    children = [
        subprocess.Popen(cmd + [str(src)], stdout=subprocess.PIPE, text=True)
        for src in (src_a, src_b)
    ]
    outputs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("a child run failed", file=sys.stderr)
        return 2
    (totals_a, runs_a), (totals_b, runs_b) = map(_read_runs, outputs)
    # both children run the same families; a tree may still list other argv
    keys = dict.fromkeys([*runs_a, *runs_b])
    differ = 0
    for name in totals_a:
        changed = [(k[1], _what_differs(runs_a.get(k), runs_b.get(k)))
                   for k in keys if k[0] == name and runs_a.get(k) != runs_b.get(k)]
        (n_a, hash_a), (n_b, hash_b) = totals_a[name], totals_b[name]
        print(f"{name:14s} {n_a:6d} {hash_a} {n_b:6d} {hash_b} {len(changed)} differ")
        for args, what in changed:
            print(f"  {what}: {shlex.join(args)}")
        differ += len(changed)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="compare_outputs.py")
    parser.add_argument("src", nargs="+", type=Path, help="one or two src directories")
    parser.add_argument("--family", action="append", default=[],
                        help="limit the run to this family (repeatable)")
    parser.add_argument("--runs", action="store_true",
                        help="one JSON line per run, for the two-tree form")
    args = parser.parse_args(argv)
    if len(args.src) > 2 or (args.runs and len(args.src) != 1):
        parser.error("give one SRC_DIR, or two to compare")
    srcs = [src.resolve() for src in args.src]
    if len(srcs) == 2:
        return compare(*srcs, args.family)
    _family_hashes(srcs[0], args.family, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
