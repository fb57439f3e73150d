"""End-to-end command line behaviour, exit codes, and JSON round trips."""

import json

import pytest

from rootcoh import exterior, root_system
from rootcoh.cli import main
from rootcoh.rootsys import rs_from_json_dict


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
    assert rs_from_json_dict(doc) == root_system("G2")
    pairs = {(tuple(r["root"]), tuple(r["weight"])) for r in doc["roots"]}
    assert ((1, 3), (-1, 3)) in pairs


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


def test_bwb_command(capsys):
    code, out, _ = run(capsys, "bwb", "A2", "--lambda", "-2,1")
    assert code == 0
    assert "degree 1" in out
    code, out, _ = run(capsys, "bwb", "A2", "--lambda", "-1,-1")
    assert code == 0
    assert "singular" in out


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
        ("check-t1", "A2", "-p", "1", "--lambda", "9223372036854775808,0"),
        ("check-t1", "A2", "-p", "1", "--lambda", "9223372036854775807,0"),
    ],
)
def test_out_of_contract_input_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: ")


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
