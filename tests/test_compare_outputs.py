"""tools/compare_outputs.py: the two-tree form lists the argv whose outputs
differ, the fast families still hash to the committed values, and every
family has one committed hash."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
HASHES = ROOT / "tools" / "family_hashes.txt"
#: The families that run in seconds; ``check-t1``, ``e1``, ``bwb`` and
#: ``packing`` take longer and are left to the two-tree form.
FAST = ("pool", "phi", "roots+certify", "verify-all", "parse", "cli")
MESSAGE = "--lambda must be comma-separated integers"


def test_two_trees_list_the_argv_that_differ(tmp_path):
    # tree B words one usage error differently: exactly the three `parse`
    # runs that print it must be listed, by what differs, in family order
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "rootcoh", tree / "rootcoh",
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = trees[1] / "rootcoh" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(MESSAGE) == 1
    cli.write_text(text.replace(MESSAGE, "--lambda must be integers"), encoding="utf-8")

    out = subprocess.run(
        [sys.executable, str(TOOL), "--family", "parse", *map(str, trees)],
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stderr) == (1, "")
    head, *listed = out.stdout.splitlines()
    name, runs_a, hash_a, runs_b, hash_b, *tail = head.split()
    assert (name, runs_a, runs_b, tail) == ("parse", "11", "11", ["3", "differ"])
    assert hash_a != hash_b
    assert listed == [
        "  stderr: check-t1 A2 -p 1 --lambda 1_0,2",
        "  stderr: check-t1 A2 -p 1 --lambda '١٢,2'",
        "  stderr: e1 A2 -p 1 --lambda '1,２'",
    ]


def test_fast_families_match_the_committed_hashes():
    # every output of these families is byte-identical to the tree that
    # wrote tools/family_hashes.txt; an intended change rewrites that file
    committed = {line.split()[0]: line for line in HASHES.read_text().splitlines()}
    family_args = [arg for name in FAST for arg in ("--family", name)]
    out = subprocess.run(
        [sys.executable, str(TOOL), *family_args, str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == [committed[name] for name in FAST]


def test_every_family_has_a_committed_hash(monkeypatch):
    # the fast-family test recomputes only FAST, so a family added to the
    # tool without a committed hash, or a stale line for a removed one,
    # would pass it unseen
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # families() prepends src
    committed = [line.split()[0] for line in HASHES.read_text().splitlines()]
    assert committed == list(tool.families(ROOT / "src"))
