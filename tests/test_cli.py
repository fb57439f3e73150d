"""End-to-end command line behaviour, exit codes, and JSON round trips."""

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from math import prod
from pathlib import Path

import pytest

from rootcoh import cli, exterior, root_system
from rootcoh.cli import build_parser, main
from rootcoh.nonvanishing import build_certificate
from rootcoh.exterior import phi_sums, subset_sums_reference
from rootcoh.weyl import pairing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_table_g2(capsys):
    code, out, _ = run(capsys, "roots", "G2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6
    assert any("2  -3" in l for l in lines)


def test_roots_json_round_trips(capsys):
    code, out, _ = run(capsys, "roots", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "rootcoh/1"
    assert len(doc["roots"]) == 6
    g2 = root_system("G2")
    assert doc["cartan"] == [list(row) for row in g2.cartan]
    assert doc["h"] == g2.coxeter_number
    assert [(r["root"], r["weight"], r["coroot"]) for r in doc["roots"]] == [
        (list(r.root_coords), list(r.weight.coords), list(r.coroot_coords))
        for r in g2.positive_roots
    ]
    pairs = {(tuple(r["root"]), tuple(r["weight"])) for r in doc["roots"]}
    assert ((1, 3), (-1, 3)) in pairs


B2_P2 = {
    "-": [[-3, 2], [-2, 0], [-1, -2], [-1, 0], [0, -2], [1, -4]],
    "+": [[-1, 4], [0, 2], [1, 0], [1, 2], [2, 0], [3, -2]],
}


@pytest.mark.parametrize("sign", ["-", "+"])
def test_phi_json(capsys, sign):
    code, out, err = run(capsys, "phi", "B2", "-p", "2", "--sign", sign, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert list(doc) == ["schema", "kind", "p", "total", "entries", "type", "sign"]
    assert doc == {
        "schema": "rootcoh/1",
        "kind": "weight_multiset",
        "p": 2,
        "total": "6",
        "entries": [{"weight": w, "mult": "1"} for w in B2_P2[sign]],
        "type": "B2",
        "sign": sign,
    }


def test_sign_symmetry(cli_json):
    # the sums of p positive roots are the sums of p negative roots negated,
    # so `--sign +` lists the `--sign -` entries negated, in reverse order
    for name in ("A2", "B3", "G2"):
        for p in range(root_system(name).num_positive_roots + 1):
            minus = cli_json("phi", name, "-p", str(p), "--sign", "-")
            plus = cli_json("phi", name, "-p", str(p), "--sign", "+")
            assert plus["total"] == minus["total"]
            assert plus["entries"] == [
                {"weight": [-c for c in e["weight"]], "mult": e["mult"]}
                for e in reversed(minus["entries"])
            ]


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("phi", "B2", "-p", "2"),
            "B2 sums of 2 distinct negative roots: 6 distinct weights, total 6\n"
            "  (-3,2)  x1\n  (-2,0)  x1\n  (-1,-2)  x1\n"
            "  (-1,0)  x1\n  (0,-2)  x1\n  (1,-4)  x1\n",
        ),
        (
            ("phi", "B2", "-p", "2", "--sign", "+"),
            "B2 sums of 2 distinct positive roots: 6 distinct weights, total 6\n"
            "  (-1,4)  x1\n  (0,2)  x1\n  (1,0)  x1\n"
            "  (1,2)  x1\n  (2,0)  x1\n  (3,-2)  x1\n",
        ),
        (
            ("phi", "G2", "-p", "2", "--sign", "+", "--format", "table"),
            "G2 sums of 2 distinct positive roots: 13 distinct weights, total 15\n"
            "  (-2,5)  x1\n  (-1,3)  x1\n  (-1,4)  x1\n  (0,1)  x1\n"
            "  (0,2)  x2\n  (0,3)  x1\n  (1,-1)  x1\n  (1,0)  x2\n"
            "  (1,1)  x1\n  (2,-2)  x1\n  (2,-1)  x1\n  (3,-4)  x1\n"
            "  (3,-3)  x1\n",
        ),
    ],
    ids=["B2-", "B2+", "G2+"],
)
def test_phi_table(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


def test_certify_b2(capsys):
    code, out, _ = run(capsys, "certify", "B2")
    assert code == 0
    assert "H^{3,1}" in out
    assert "Bott vanishing fails" in out


def test_certify_explain(capsys):
    code, out, _ = run(capsys, "certify", "G2", "--explain")
    assert code == 0
    assert out.count("H^1(V_s)") >= 4
    assert "degree-1 total 9 > degree-0 total 8" in out


def test_check_t1_failure_record(capsys):
    code, out, _ = run(capsys, "check-t1", "A2", "-p", "1", "--lambda", "0,0")
    assert code == 1
    record = json.loads(out.splitlines()[-1])
    assert record["kind"] == "failure"
    assert record["first_violation"] == [-2, 1]


def test_check_t1_json_failure_is_the_one_document(capsys):
    code, out, _ = run(capsys, "check-t1", "A2", "-p", "1", "--lambda", "0,0",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc.get("kind") != "failure"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_all_failure_with_a_missing_golden_dir(capsys, tmp_path, fmt):
    code, out, _ = run(capsys, "verify-all", "--golden-dir", str(tmp_path / "missing"),
                       "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["ok"] is False
    else:
        assert json.loads(out.splitlines()[-1]) == {
            "schema": "rootcoh/1", "kind": "failure", "command": "verify-all",
            "failed": ["appendix-tables"],
        }


def test_certify_failure_record(capsys, monkeypatch):
    def invalid(rs):
        return dataclasses.replace(build_certificate(rs), valid=False, failure="broken")

    monkeypatch.setattr(cli, "build_certificate", invalid)
    code, out, _ = run(capsys, "certify", "G2")
    assert code == 1
    assert "invalid certificate: broken" in out
    assert json.loads(out.splitlines()[-1]) == {
        "schema": "rootcoh/1", "kind": "failure", "command": "certify",
        "type": "G2", "failure": "broken",
    }


def test_check_t1_pass(capsys):
    code, out, _ = run(capsys, "check-t1", "A2", "-p", "1", "--lambda", "1,1",
                       "--witnesses")
    assert code == 0
    assert "pass" in out
    assert "dominant" in out


def test_check_t1_json(capsys):
    code, out, _ = run(
        capsys, "check-t1", "G2", "-p", "3", "--lambda", "3,5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert json.loads(json.dumps(doc)) == doc


def test_lambda_length_usage_error(capsys):
    code, _, err = run(capsys, "check-t1", "A2", "-p", "1", "--lambda", "0,0,0")
    assert code == 2
    assert "coordinates" in err


def test_unknown_type_usage_error(capsys):
    code, _, err = run(capsys, "roots", "Q5")
    assert code == 2


def test_invalid_rank_usage_error(capsys):
    code, _, err = run(capsys, "roots", "D3")
    assert code == 2
    assert "rank" in err


def test_budget_refusal_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(exterior, "_layer_cache", {})
    monkeypatch.setattr(exterior, "MAX_LIVE_KEYS", 10)
    code, out, err = run(capsys, "check-t1", "G2", "-p", "3", "--lambda", "3,5")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("refused: ")


def test_check_t1_past_half_the_roots_is_not_held_to_the_packing_range(capsys):
    # degree 208 of A20 is read off degree 2, and its weights (entries down
    # to -4) are never packed
    lam = ",".join(["30"] * 20)
    code, out, _ = run(capsys, "check-t1", "A20", "-p", "208", "--lambda", lam,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["counts"] == {"dominant": 14820, "singular": 0, "violation": 0}


def test_bwb_command(capsys):
    code, out, _ = run(capsys, "bwb", "A2", "--lambda", "-2,1")
    assert code == 0
    assert "degree 1" in out
    code, out, _ = run(capsys, "bwb", "A2", "--lambda", "-1,-1")
    assert code == 0
    assert "singular" in out


@pytest.mark.parametrize("flag, lam", [("--lam", "-1,1"), ("--l", "-2,1")])
@pytest.mark.parametrize(
    "command", [("bwb", "A2"), ("e1", "A2", "-p", "1"), ("check-t1", "A2", "-p", "1")]
)
def test_abbreviated_lambda_takes_a_negative_value(capsys, command, flag, lam):
    # argparse takes any prefix of --lambda, so each one must be folded with its
    # value, or a leading '-' reads as an option
    full = run(capsys, *command, "--lambda", lam)
    assert "expected one argument" not in full[2]
    assert run(capsys, *command, flag, lam) == full


def test_coxeter_command(capsys):
    code, out, _ = run(capsys, "coxeter", "G2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 6
    assert doc["h_per_root"] == [4, 6]
    assert doc["column_classes"] == ["long", "short"]


def test_thresholds_command(capsys):
    code, out, _ = run(capsys, "thresholds", "A3", "-p", "2")
    assert code == 0
    assert "(2, 2, 2)" in out
    code, out, _ = run(capsys, "thresholds", "G2", "--format", "json")
    doc = json.loads(out)
    assert doc["per_degree"][1] == {"p": 1, "bounds": [1, 2]}
    assert doc["all_degrees_global"] == [5, 5]


def test_e1_command(capsys):
    code, out, _ = run(capsys, "e1", "A2", "-p", "2", "--lambda", "1,1")
    assert code == 0
    assert "degree 0: 1" in out
    assert "degree 1: 2" in out
    assert "euler characteristic: -1" in out


@pytest.mark.parametrize(
    "lam, lines",
    [
        (
            "9223372036854775807,0",
            ["degree 0: 85070591730234615847396907784232501248",
             "degree 1: 42535295865117307937533511947398414336"],
        ),
        (
            "92233720368547758070,5",
            ["degree 0: 68056473384187692682160277364339197870423"],
        ),
    ],
)
def test_e1_is_exact_past_int64(capsys, lam, lines):
    # lambda is added to the weights in Python ints, never in int64
    code, out, err = run(capsys, "e1", "A2", "-p", "1", "--lambda", lam)
    assert code == 0 and err == ""
    for line in lines:
        assert f"  {line}\n" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv",
    [("e1", "A2", "-p", "0", "--lambda", f"{'9' * 2200},{'9' * 2200}"),
     ("bwb", "A2", "--lambda", f"{'9' * 4000},0")],
    ids=["e1", "bwb"],
)
def test_answers_past_the_digit_limit_are_printed_exactly(capsys, argv, fmt):
    # the parser refuses inputs past the interpreter's limit on digits, but a
    # dimension of admitted inputs may be longer, and is printed in full
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    rs = root_system("A2")
    x = [int(c) + 1 for c in argv[-1].split(",")]
    dim = prod(pairing(rs, x, r) for r in rs.positive_roots) // rs.rho_denominator
    sys.set_int_max_str_digits(0)
    try:
        want = str(dim)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit
    if fmt == "table":
        assert (f"  degree 0: {want}\n" if argv[0] == "e1" else f", dim {want}\n") in out
    elif argv[0] == "e1":
        assert json.loads(out)["buckets"] == {"0": want}
    else:
        assert json.loads(out)["dim"] == want


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["criteria"]) == 9
    limits = {c["number"]: c["limit_seconds"] for c in doc["criteria"]}
    assert limits == {1: 1.0, 2: 1.0, 3: 1.0, 4: None, 5: None, 6: 120.0,
                      7: None, 8: 1.0, 9: 60.0}


@pytest.mark.parametrize(
    "argv",
    [
        ("check-t1", "A2", "-p", "1", "--lambda", "-1,0"),
        ("phi", "A2", "-p", "9"),
        ("thresholds", "A2", "-p", "9"),
        ("certify", "A1"),
        ("check-t1", "A2", "-p", "1", "--lambda", "-9223372036854775808,0"),
        ("check-t1", "A2", "-p", "1", "--lambda", "9223372036854775808"),
        ("phi", "A63", "-p", "1"),
        ("check-t1", "A2", "-p", "x", "--lambda", "1,1"),
        ("check-t1", "A2", "-p", "1", "--lambda", "1,1", "--bogus"),
        ("e1",),
        ("e1", "A2", "-p", "1", "--lambda"),
        ("check-t1", "A2", "-p", "1", "--lambda", "1_0,2"),
        ("check-t1", "A2", "-p", "1", "--lambda", "\u0661\u0662,2"),
        ("check-t1", "A2", "-p", "\u0661", "--lambda", "1,1"),
        ("phi", "A2", "-p", "1_0"),
        ("roots", "A203"),
        ("coxeter", "A\u0663"),
        ("roots", "B\uff13"),
        # past the interpreter's limit on digits, which parsing keeps
        ("check-t1", "A1", "-p", "1" * 4301, "--lambda", "0"),
    ],
)
def test_out_of_contract_input_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: ")


def test_integers_are_ascii_digits_with_a_sign(capsys):
    # int() alone takes "1_0" as 10 and Arabic-Indic digits as decimals
    code, out, err = run(capsys, "check-t1", "A2", "-p", "\u0661", "--lambda", "1,1")
    assert (code, out) == (2, "")
    assert err == "usage error: argument -p: invalid int value: '\u0661'\n"
    code, out, err = run(capsys, "check-t1", "A2", "-p", "1", "--lambda", "1_0,2")
    assert (code, out) == (2, "")
    assert err == (
        "usage error: --lambda must be comma-separated integers, got '1_0,2'\n"
    )
    code, out, _ = run(capsys, "check-t1", "A2", "-p", " +1 ", "--lambda", " +1 ,1")
    assert code == 0
    assert out.startswith("A2 p=1 lambda=(1,1): pass")


def _counts_by_python_ints(rs, p, lam):
    """Theorem 1's counts and first violation, from ``weyl.pairing`` alone."""
    counts = {"dominant": 0, "singular": 0, "violation": 0}
    first = None
    for mu in phi_sums(rs, p)[0].tolist():
        shifted = [m + c for m, c in zip(mu, lam)]
        if min(shifted) >= 0:
            counts["dominant"] += 1
        elif any(pairing(rs, [s + 1 for s in shifted], r) == 0 for r in rs.positive_roots):
            counts["singular"] += 1
        else:
            counts["violation"] += 1
            first = first or mu
    return counts, first


@pytest.mark.parametrize(
    "name, p, coord, counts",
    [("A30", 1, 1, {"dominant": 435, "singular": 30, "violation": 0}),
     ("A16", 3, 2, {"dominant": 124405, "singular": 20545, "violation": 1680})],
)
def test_check_t1_packs_each_field_to_its_column(capsys, name, p, coord, counts):
    # one key field per column, sized to its range: A30 at p = 1 needs 60
    # bits and A16 at p = 3 needs 48; 62 // rank bits per field refused both
    rs = root_system(name)
    lam = (coord,) * rs.rank
    code, out, err = run(capsys, "check-t1", name, "-p", str(p), "--lambda",
                         ",".join(map(str, lam)), "--format", "json")
    assert (code, err) == (0 if p == 1 else 1, "")
    rows = [[-c for c in r.weight.coords] for r in rs.positive_roots]
    support = sorted(subset_sums_reference(rows, p))
    assert [tuple(mu) for mu in phi_sums(rs, p)[0].tolist()] == support
    doc = json.loads(out)
    assert (doc["counts"], doc["first_violation"]) == _counts_by_python_ints(rs, p, lam)
    assert doc["counts"] == counts


def test_check_t1_refuses_keys_past_62_bits(capsys):
    code, out, err = run(capsys, "check-t1", "A40", "-p", "1", "--lambda",
                         ",".join(["1"] * 40))
    assert (code, out) == (2, "")
    assert err == ("usage error: sums of 1 rows need 80 bits per key, "
                   "past the 62 an int64 key holds\n")


def test_check_t1_answers_past_the_pairing_guard(capsys):
    # max|x| times the largest coroot height passes 2**63, and from
    # 9223372036854775806 on so does lambda + rho + mu itself, as mu = (1, -2)
    # lifts coordinate 0: those rows are translated and paired in Python
    # ints, not refused
    a2 = root_system("A2")
    code, out, err = run(
        capsys, "check-t1", "A2", "-p", "1", "--lambda", "4611686018427387904,0"
    )
    assert (code, err) == (1, "")
    counts, first = _counts_by_python_ints(a2, 1, (2**62, 0))
    assert (counts, first) == ({"dominant": 1, "singular": 1, "violation": 1}, [1, -2])
    head, record = out.splitlines()
    assert head == ("A2 p=1 lambda=(4611686018427387904,0): fail "
                    "(dominant 1, singular 1, violations 1)")
    assert json.loads(record)["first_violation"] == first
    for top in ("9223372036854775806", "9223372036854775807",
                "9223372036854775808", "92233720368547758070"):
        code, out, err = run(capsys, "check-t1", "A2", "-p", "1", "--lambda",
                             f"{top},0", "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert (doc["counts"], doc["first_violation"]) == (
            _counts_by_python_ints(a2, 1, (int(top), 0))
        )

    e8 = root_system("E8")
    lam = (2**63 // e8.max_coroot_height + 1,) + (0,) * 7
    code, out, err = run(capsys, "check-t1", "E8", "-p", "3", "--lambda",
                         ",".join(map(str, lam)), "--format", "json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    counts, first = _counts_by_python_ints(e8, 3, lam)
    assert (doc["counts"], doc["first_violation"]) == (counts, first)
    assert counts == {"dominant": 19, "singular": 35316, "violation": 522}


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "G2", "--budget", "5"),
        ("bwb", "A2", "--lambda", "0,0", "--cache-dir", "x"),
        ("e1", "A2", "-p", "1", "--lambda", "1,1", "--cache-dir", "x"),
        ("check-t1", "A2", "-p", "1", "--lambda", "1,1", "--threads", "2"),
        ("check-t1", "A2", "-p", "1", "--lambda", "1,1", "--budget", "5"),
        ("phi", "A2", "-p", "1", "--cache-dir", "x"),
    ],
)
def test_flags_only_where_they_act(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


def test_the_shared_parser_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    calls = [
        ("check-t1", "A3", "-p", "2", "--lambda", "2,2,2", "--witnesses"),
        ("check-t1", "A2", "-p", "x", "--lambda", "1,1"),
        ("--version",),
        ("check-t1", "A2", "-p", "1", "--lambda", "-1,0"),
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()  # each call on a parser of its own
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 2, 0, 2]
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls + calls[:1]]
    assert shared == alone + alone[:1]


def test_emit_writes_the_bytes_of_one_dumps(capsys):
    doc = {"a": [], "b": {}, "c": [1, [2, {"d": "\u00e9\n"}]], "e": None, "f": 1.5}
    cli._emit(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


class _CountingSink:
    """A standard output that counts the characters written and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_a_json_document_is_never_held_as_one_string(monkeypatch):
    # roots A40 --format json writes about 1.2 MB; one joined string of it
    # would peak at several times that, chunk by chunk it stays below 2x
    root_system("A40")  # cached, so the catalogue is built outside the trace
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["roots", "A40", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * sink.chars


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_pipe_ends_the_script_quietly():
    # phi E8 -p 2 prints about 88 KB, more than a pipe buffer holds, so the
    # script is still writing when its reader closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "rootcoh.cli", "phi", "E8", "-p", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


def test_declared_python_floor_has_the_digit_limit_calls():
    # main calls sys.get_int_max_str_digits and sys.set_int_max_str_digits,
    # which Python 3.11 added and 3.10.7 backported; below that floor every
    # command would end in an AttributeError
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'^requires-python = ">=([0-9.]+)"$',
                      pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert floor is not None
    assert tuple(map(int, floor.group(1).split("."))) >= (3, 10, 7)
