import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarcount
from planarcount.cli import main
from planarcount.verify import METHODS

WORKED_GRAPH_TEXT = "0,1,1;2,0,0;0,1,1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_brute(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--r", "1", "--d", "2")
    assert code == 0
    assert out.strip() == "5"


def test_count_walks_dp_json(capsys):
    code, out, _ = run(
        capsys,
        "count", "--n", "2", "--r", "2", "--d", "2",
        "--method", "walks-dp", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["n", "r", "d", "method", "subgraph", "count", "elapsed_ms"]
    assert payload["count"] == "3"
    assert payload["subgraph"] is False


def test_count_tableaux_subgraph(capsys):
    code, out, _ = run(
        capsys,
        "count", "--n", "2", "--r", "2", "--d", "2",
        "--method", "tableaux", "--subgraph",
    )
    assert code == 0
    assert out.strip() == "1"  # subgraph sizes are 4, 3, 2: one graph fits
    code, out, _ = run(
        capsys,
        "count", "--n", "2", "--r", "2", "--d", "3",
        "--method", "tableaux", "--subgraph",
    )
    assert code == 0
    assert out.strip() == "2"


def test_count_methods_agree(capsys):
    values = set()
    for method in ("brute", "tableaux", "walks-enum", "walks-dp"):
        code, out, _ = run(
            capsys, "count", "--n", "2", "--r", "2", "--d", "1", "--method", method
        )
        assert code == 0
        values.add(out.strip())
    assert values == {"1"}


def test_count_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--n", "1", "--r", "2", "--d", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,d,method,subgraph,count"
    assert lines[1] == "1,2,2,brute,false,1"


def test_count_walks_dp_default_budget(capsys):
    # the shape DP charges its own work, so this fits the default budget
    code, out, _ = run(
        capsys, "count", "--n", "12", "--r", "2", "--d", "3", "--method", "walks-dp"
    )
    assert code == 0
    assert out.strip() == "13046831372394"


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(planarcount.__file__).parents[1]))
    probe = (
        "import sys, planarcount.cli; "
        "print([m for m in ('numpy', 'concurrent.futures') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_usage_errors_exit_2(capsys):
    code, _, _ = run(capsys, "count", "--n", "2", "--r", "2")
    assert code == 2
    code, _, _ = run(capsys, "count", "--n", "2", "--r", "2", "--d", "x")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "demo", "rsk", "--perm", "4,4,1")
    assert code == 2 and "error" in err


def test_budget_refusal_exit_3(capsys):
    code, _, err = run(
        capsys,
        "count", "--n", "8", "--r", "1", "--d", "8",
        "--method", "walks-enum", "--budget", "10",
    )
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--r", "1", "--d", "2"),
        ("verify", "theorem1", "--n", "2", "--r", "2", "--d", "1"),
        ("audit", "bijections", "--n", "1", "--r", "1", "--d", "1"),
        ("table", "--r", "1", "--n-max", "2"),
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: budget must be >= 0"
    # budget 0 is a budget, and refuses any work
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == 3 and err.startswith("refused: ")


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem1", "--n", "2", "--r", "2", "--d", "1"
    )
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run(
        capsys, "verify", "gessel", "--d", "2", "--M", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["identity"] == "gessel"
    code, _, _ = run(capsys, "verify", "mot", "--m", "3", "--d", "2")
    assert code == 0


def test_verify_mot_value(capsys):
    code, out, _ = run(
        capsys, "verify", "mot", "--m", "3", "--d", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"]["all_walks_dp"] == "100"


def test_verify_guard_exit_3(capsys):
    code, _, err = run(
        capsys,
        "verify", "theorem1", "--n", "4", "--r", "2", "--d", "8", "--budget", "5",
    )
    assert code == 3 and "refused" in err


def test_demo_rsk(capsys):
    code, out, _ = run(capsys, "demo", "rsk", "--perm", "4,2,3,1")
    assert code == 0
    assert "P = [[1,3],[2],[4]]" in out
    assert "Q = [[1,3],[2],[4]]" in out
    assert "round_trip = True" in out


def test_demo_phi_worked_graph(capsys):
    code, out, _ = run(capsys, "demo", "phi", "--graph", WORKED_GRAPH_TEXT)
    assert code == 0
    assert "walk = 111122|112121" in out
    assert "round_trip = True" in out


def test_demo_walk_quasi_configuration(capsys):
    code, out, _ = run(
        capsys, "demo", "walk", "--walk", "112122|122122", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [[1, 4], [2, 1], [3, 6], [5, 5], [6, 3]]
    assert payload["unmatched_left"] == [4]
    assert payload["unmatched_right"] == [2]
    assert payload["complete"] is False


def test_demo_phi_from_permutation(capsys):
    code, out, _ = run(capsys, "demo", "phi", "--perm", "2,1")
    assert code == 0
    assert "walk = 11|11" in out
    code, _, err = run(capsys, "demo", "phi")
    assert code == 2 and "needs" in err


def test_demo_parse_failure(capsys):
    code, _, err = run(capsys, "demo", "walk", "--walk", "11|2|1")
    assert code == 2
    code, _, err = run(capsys, "demo", "walk", "--walk", "x|1")
    assert code == 2
    assert err.strip() == "error: malformed walk 'x|1'"
    code, _, err = run(capsys, "demo", "phi", "--graph", "1,x;0,1")
    assert code == 2
    assert err.strip() == "error: malformed multigraph '1,x;0,1'"
    # empty text is given, so it reaches the parser instead of reading as
    # a missing option
    for argv, message in (
        (("phi", "--graph", ""), "malformed multigraph ''"),
        (("phi", "--perm", ""), "malformed permutation ''"),
        (("rsk", "--perm", ""), "malformed permutation ''"),
        (("walk", "--walk", ""), "walk text needs exactly one '|'"),
    ):
        code, _, err = run(capsys, "demo", *argv)
        assert code == 2
        assert err.strip() == f"error: {message}"


def test_verify_plk_cli_and_threads(capsys):
    code, out, _ = run(
        capsys,
        "verify", "plk", "--n", "2", "--r", "2", "--d", "3", "--threads", "2",
    )
    assert code == 0 and out.startswith("PASS")


def test_failing_report_exits_1(capsys):
    import argparse

    from planarcount.cli import _print_report
    from planarcount.verify import VerificationReport

    report = VerificationReport(
        identity="demo",
        params={"n": 1},
        methods={"a": 1, "b": 2},
        passed=False,
        witness="method disagreement: a=1, b=2",
        elapsed_ms=0.0,
    )
    args = argparse.Namespace(format="table")
    assert _print_report(args, report) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and "witness" in out


def test_table_csv_contract(capsys):
    code, out, _ = run(
        capsys, "table", "--n-max", "2", "--r", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,d,count"
    table = {}
    for line in lines[1:]:
        n, r, d, c = line.split(",")
        table[(int(n), int(d))] = int(c)
    # n = 2 row: g = 0, 1, 3, 3, 3 for d = 0..4
    assert [table[(2, d)] for d in range(5)] == [0, 1, 3, 3, 3]


def test_table_one_regular_row(capsys):
    code, out, _ = run(
        capsys, "table", "--n-max", "4", "--r", "1", "--format", "csv"
    )
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        n, r, d, c = (int(x) for x in line.split(","))
        rows[(n, d)] = c
    assert [rows[(3, d)] for d in range(5)] == [0, 1, 5, 6, 6]


def test_table_with_samples(capsys):
    code, out, _ = run(
        capsys,
        "table", "--n-max", "1", "--r", "2", "--sample", "50",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    # uniform over the two configurations of [2], with L = 1 and L = 2
    dist = payload["empirical"]["1"]
    assert set(dist) <= {"1", "2"}
    assert sum(dist.values()) == 50
    code, out, _ = run(
        capsys,
        "table", "--n-max", "1", "--r", "1", "--sample", "10",
        "--seed", "3", "--format", "csv",
    )
    blocks = out.strip().split("\n\n")
    assert blocks[1].splitlines()[0] == "n,r,L,samples"


def test_audit_subcommands(capsys):
    code, out, _ = run(
        capsys,
        "audit", "involution", "--n", "2", "--r", "1", "--d", "2",
        "--which", "second",
    )
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(
        capsys, "audit", "bijections", "--n", "2", "--r", "2", "--d", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["methods"]["configurations"] == "3"


def test_sample_determinism(capsys):
    code1, out1, _ = run(
        capsys, "sample", "--n", "2", "--r", "2", "--seed", "42", "--count", "3"
    )
    code2, out2, _ = run(
        capsys, "sample", "--n", "2", "--r", "2", "--seed", "42", "--count", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3
    code, out, _ = run(
        capsys, "sample", "--n", "1", "--r", "1", "--seed", "9", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["samples"][0]["configuration"] == "1"


def test_count_zero_vertices_every_method(capsys):
    # the empty multigraph is the one graph with n = 0
    for method in ("brute", "tableaux", "walks-enum", "walks-dp"):
        code, out, _ = run(
            capsys, "count", "--n", "0", "--r", "2", "--d", "1", "--method", method
        )
        assert (code, out.strip()) == (0, "1"), method


def test_count_zero_regularity_every_method(capsys):
    for method in ("brute", "tableaux", "walks-enum", "walks-dp"):
        code, out, err = run(
            capsys, "count", "--n", "2", "--r", "0", "--d", "1", "--method", method
        )
        assert (code, out) == (2, ""), method
        assert "error" in err, method


def test_verify_rejects_threads_below_one(capsys):
    for identity, params in (
        ("theorem1", ("--n", "2", "--r", "1", "--d", "1")),
        ("plk", ("--n", "2", "--r", "1", "--d", "1")),
        ("mot", ("--m", "1", "--d", "1")),
    ):
        for threads in ("0", "-3"):
            code, out, err = run(
                capsys, "verify", identity, *params, "--threads", threads
            )
            assert (code, out) == (2, ""), (identity, threads)
            assert "need threads >= 1" in err


def test_verify_mot_rejects_negative_parameters(capsys):
    for m, d in (("-1", "2"), ("2", "-1")):
        code, _, err = run(capsys, "verify", "mot", "--m", m, "--d", d)
        assert code == 2
        assert "need m >= 0 and d >= 0" in err


def test_sample_rejects_negative_count(capsys):
    code, out, err = run(
        capsys, "sample", "--n", "2", "--r", "2", "--count", "-5", "--seed", "1"
    )
    assert code == 2 and out == "" and "error" in err


def test_verify_gessel_d10_at_default_budget(capsys):
    code, out, _ = run(capsys, "verify", "gessel", "--d", "10", "--M", "14")
    assert code == 0
    assert out.startswith("PASS")


def test_json_output_is_stable(capsys):
    _, out1, _ = run(
        capsys, "verify", "theorem1", "--n", "2", "--r", "2", "--d", "2",
        "--format", "json",
    )
    _, out2, _ = run(
        capsys, "verify", "theorem1", "--n", "2", "--r", "2", "--d", "2",
        "--format", "json",
    )
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b
    assert list(a) == ["identity", "params", "methods", "pass"]


BAD_DOMAIN = ((-1, 2, 1), (2, 0, 1), (2, 2, -1))
DOMAIN_ERROR = "error: need n >= 0, r >= 1, d >= 0"


def test_every_method_rejects_the_same_domain(capsys):
    cases = []
    for n, r, d in BAD_DOMAIN:
        params = ("--n", str(n), "--r", str(r), "--d", str(d))
        for method in METHODS:
            for kind in ((), ("--subgraph",)):
                cases.append(("count", *params, "--method", method, *kind))
        for identity in ("theorem1", "plk"):
            cases.append(("verify", identity, *params))
        for which in ("first", "second"):
            cases.append(("audit", "involution", *params, "--which", which))
        cases.append(("audit", "bijections", *params))
    cases.append(("table", "--n-max", "-1", "--r", "2"))
    cases.append(("table", "--n-max", "2", "--r", "0"))
    cases.append(("sample", "--n", "-1", "--r", "2", "--seed", "1"))
    cases.append(("sample", "--n", "2", "--r", "0", "--seed", "1"))
    cases.append(("sample", "--n", "2", "--r", "0", "--seed", "1", "--count", "0"))
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err.strip()) == (2, "", DOMAIN_ERROR), argv


def test_table_rejects_negative_sample(capsys):
    code, out, err = run(
        capsys, "table", "--n-max", "2", "--r", "1", "--sample", "-3",
        "--format", "json",
    )
    assert (code, out) == (2, "")
    assert err.strip() == "error: sample must be >= 0"
