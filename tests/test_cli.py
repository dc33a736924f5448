import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planarcount
from planarcount.cli import build_parser, main
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
    code, out, _ = run(capsys, "verify", "plk", "--n", "2", "--r", "2", "--d", "3")
    assert code == 0 and out.startswith("PASS")


def test_failing_report_exits_1(capsys, monkeypatch):
    from planarcount import cli
    from planarcount.verify import VerificationReport

    report = VerificationReport(
        identity="theorem1",
        params={"n": 1},
        methods={"a": 1, "b": 2},
        passed=False,
        witness="method disagreement: a=1, b=2",
        elapsed_ms=0.0,
    )
    monkeypatch.setattr(cli, "verify_matching_identity", lambda *a, **k: report)
    argv = ("verify", "theorem1", "--n", "1", "--r", "1", "--d", "1")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("FAIL")
    assert lines[1] == "witness: method disagreement: a=1, b=2"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["pass"] is False


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
    # the methods run one after another, so no verify subcommand takes --threads
    for identity, params in (
        ("theorem1", ("--n", "2", "--r", "1", "--d", "1")),
        ("plk", ("--n", "2", "--r", "1", "--d", "1")),
        ("mot", ("--m", "1", "--d", "1")),
    ):
        for threads in ("0", "-3", "1", "2"):
            code, out, err = run(
                capsys, "verify", identity, *params, "--threads", threads
            )
            assert (code, out) == (2, ""), (identity, threads)
            assert "unrecognized arguments: --threads" in err


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


def test_main_reuses_one_parser(capsys, monkeypatch):
    dp = ("count", "--n", "2", "--r", "2", "--d", "2", "--method", "walks-dp")
    # subgraph sizes are 4, 3, 2 and matching sizes 2, 2, 1 at (2, 2)
    assert run(capsys, *dp, "--subgraph") == (0, "1\n", "")
    # a flag of the last call does not stick to the shared parser
    assert run(capsys, *dp) == (0, "3\n", "")
    code, out, err = run(capsys, "count", "--n", "x", "--r", "1", "--d", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: planarcount count") and "--n: invalid int" in err
    code, out, err = run(capsys, "count", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: planarcount count") and "--subgraph" in out
    assert run(capsys, "count", "--n", "3", "--r", "1", "--d", "2") == (0, "5\n", "")

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, *dp, "--subgraph") == (0, "1\n", "")
    assert built == []
    # the public builder still hands out a parser of its own
    assert build_parser() is not build_parser()
    assert built


# Every subcommand in every format it offers: exit code, stdout and stderr,
# one list item per line, with `elapsed_ms` masked.
GOLDEN = [
    ("count --n 3 --r 1 --d 2 --format table", 0, ["5"], []),
    (
        "count --n 3 --r 1 --d 2 --format json", 0,
        [
            '{"n": 3, "r": 1, "d": 2, "method": "brute", "subgraph": false, "count": '
            '"5", "elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "count --n 3 --r 1 --d 2 --format csv", 0,
        ["n,r,d,method,subgraph,count", "3,1,2,brute,false,5"],
        [],
    ),
    (
        "count --n 2 --r 2 --d 3 --method tableaux --subgraph --format csv", 0,
        ["n,r,d,method,subgraph,count", "2,2,3,tableaux,true,2"],
        [],
    ),
    (
        "verify theorem1 --n 2 --r 2 --d 1 --format table", 0,
        [
            "PASS theorem1 {'n': 2, 'r': 2, 'd': 1}: graph_enumeration=1, "
            "tableau_pairs=1, walks_enumerated=1, walks_dp=1",
        ],
        [],
    ),
    (
        "verify theorem1 --n 2 --r 2 --d 1 --format json", 0,
        [
            '{"identity": "theorem1", "params": {"d": 1, "n": 2, "r": 2}, "methods": '
            '{"graph_enumeration": "1", "tableau_pairs": "1", "walks_enumerated": '
            '"1", "walks_dp": "1"}, "pass": true, "elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "verify plk --n 2 --r 2 --d 3 --format table", 0,
        [
            "PASS plk {'n': 2, 'r': 2, 'd': 3}: graph_enumeration=2, tableau_pairs=2, "
            "walks_enumerated=2, walks_dp=2",
        ],
        [],
    ),
    (
        "verify plk --n 2 --r 2 --d 3 --format json", 0,
        [
            '{"identity": "plk", "params": {"d": 3, "n": 2, "r": 2}, "methods": '
            '{"graph_enumeration": "2", "tableau_pairs": "2", "walks_enumerated": '
            '"2", "walks_dp": "2"}, "pass": true, "elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "verify mot --m 3 --d 2 --format table", 0,
        [
            "PASS mot {'m': 3, 'd': 2}: all_walks_dp=100, representatives_scaled=100, "
            "lis_scaled=100",
        ],
        [],
    ),
    (
        "verify mot --m 3 --d 2 --format json", 0,
        [
            '{"identity": "mot", "params": {"d": 2, "m": 3}, "methods": '
            '{"all_walks_dp": "100", "representatives_scaled": "100", "lis_scaled": '
            '"100"}, "pass": true, "elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "verify gessel --d 2 --M 6 --format table", 0,
        [
            "PASS gessel {'d': 2, 'M': 6}: determinant_coefficients=[1,1,1/2,5/36], "
            "scaled_lis_counts=[1,1,1/2,5/36]",
        ],
        [],
    ),
    (
        "verify gessel --d 2 --M 6 --format json", 0,
        [
            '{"identity": "gessel", "params": {"M": 6, "d": 2}, "methods": '
            '{"determinant_coefficients": ["1", "1", "1/2", "5/36"], '
            '"scaled_lis_counts": ["1", "1", "1/2", "5/36"]}, "pass": true, '
            '"elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "demo rsk --perm 4,2,3,1 --format table", 0,
        ["P = [[1,3],[2],[4]]", "Q = [[1,3],[2],[4]]", "round_trip = True"],
        [],
    ),
    (
        "demo rsk --perm 4,2,3,1 --format json", 0,
        [
            '{"what": "rsk", "perm": "4,2,3,1", "P": "[[1,3],[2],[4]]", "Q": '
            '"[[1,3],[2],[4]]", "round_trip": true}',
        ],
        [],
    ),
    (
        "demo phi --graph 0,1,1;2,0,0;0,1,1 --format table", 0,
        ["configuration = 6,4,2,1,5,3", "walk = 111122|112121", "round_trip = True"],
        [],
    ),
    (
        "demo phi --graph 0,1,1;2,0,0;0,1,1 --format json", 0,
        [
            '{"what": "phi", "configuration": "6,4,2,1,5,3", "walk": "111122|112121", '
            '"largest_matching": 2, "round_trip": true}',
        ],
        [],
    ),
    (
        "demo phi --perm 2,1 --format table", 0,
        ["configuration = 2,1", "walk = 11|11", "round_trip = True"],
        [],
    ),
    (
        "demo walk --walk 112122|122122 --format table", 0,
        [
            "pairs = (u1,v4) (u2,v1) (u3,v6) (u5,v5) (u6,v3)",
            "unmatched left = u4",
            "unmatched right = v2",
            "complete = False",
            "round_trip = False",
        ],
        [],
    ),
    (
        "demo walk --walk 112122|122122 --format json", 0,
        [
            '{"what": "walk", "walk": "112122|122122", "pairs": [[1, 4], [2, 1], [3, '
            '6], [5, 5], [6, 3]], "unmatched_left": [4], "unmatched_right": [2], '
            '"complete": false, "round_trip": false}',
        ],
        [],
    ),
    (
        "demo walk --walk 111122|112121 --format table", 0,
        [
            "pairs = (u1,v6) (u2,v4) (u3,v2) (u4,v1) (u5,v5) (u6,v3)",
            "complete = True",
            "round_trip = True",
        ],
        [],
    ),
    (
        "demo walk --walk 111122|112121 --format json", 0,
        [
            '{"what": "walk", "walk": "111122|112121", "pairs": [[1, 6], [2, 4], [3, '
            '2], [4, 1], [5, 5], [6, 3]], "unmatched_left": [], "unmatched_right": '
            '[], "complete": true, "round_trip": true}',
        ],
        [],
    ),
    ("table --n-max 0 --r 1 --format table", 0, [], []),
    ("table --n-max 0 --r 1 --format json", 0, ['{"r": 1, "rows": []}'], []),
    ("table --n-max 0 --r 1 --format csv", 0, ["n,r,d,count"], []),
    (
        "table --n-max 2 --r 1 --sample 7 --seed 3 --format table", 0,
        [
            "n=1 r=1 d=0 count=0",
            "n=1 r=1 d=1 count=1",
            "n=1 r=1 d=2 count=1",
            "n=2 r=1 d=0 count=0",
            "n=2 r=1 d=1 count=1",
            "n=2 r=1 d=2 count=2",
            "empirical n=1 samples=7 seed=3 L=1:7",
            "empirical n=2 samples=7 seed=3 L=1:4 L=2:3",
        ],
        [],
    ),
    (
        "table --n-max 2 --r 1 --sample 7 --seed 3 --format json", 0,
        [
            '{"r": 1, "rows": [{"n": 1, "r": 1, "d": 0, "count": "0"}, {"n": 1, "r": '
            '1, "d": 1, "count": "1"}, {"n": 1, "r": 1, "d": 2, "count": "1"}, {"n": '
            '2, "r": 1, "d": 0, "count": "0"}, {"n": 2, "r": 1, "d": 1, "count": '
            '"1"}, {"n": 2, "r": 1, "d": 2, "count": "2"}], "samples": 7, "seed": 3, '
            '"empirical": {"1": {"1": 7}, "2": {"1": 4, "2": 3}}}',
        ],
        [],
    ),
    (
        "table --n-max 2 --r 1 --sample 7 --seed 3 --format csv", 0,
        [
            "n,r,d,count",
            "1,1,0,0",
            "1,1,1,1",
            "1,1,2,1",
            "2,1,0,0",
            "2,1,1,1",
            "2,1,2,2",
            "",
            "n,r,L,samples",
            "1,1,1,7",
            "2,1,1,4",
            "2,1,2,3",
        ],
        [],
    ),
    (
        "audit involution --n 2 --r 1 --d 2 --which second --format table", 0,
        [
            "PASS involution-second {'n': 2, 'r': 1, 'd': 2}: domain_size=8, "
            "signed_total=0, closure_failures=0, sign_flip_failures=0, "
            "self_inverse_failures=0, fixed_points=0",
        ],
        [],
    ),
    (
        "audit involution --n 2 --r 1 --d 2 --which second --format json", 0,
        [
            '{"identity": "involution-second", "params": {"d": 2, "n": 2, "r": 1}, '
            '"methods": {"domain_size": "8", "signed_total": "0", "closure_failures": '
            '"0", "sign_flip_failures": "0", "self_inverse_failures": "0", '
            '"fixed_points": "0"}, "pass": true, "elapsed_ms": 0}',
        ],
        [],
    ),
    (
        "audit bijections --n 2 --r 2 --d 2 --format table", 0,
        [
            "PASS bijections {'n': 2, 'r': 2, 'd': 2}: configurations=3, "
            "tableau_pairs=3, region_walks=3, profile_walks=3, failures=0",
        ],
        [],
    ),
    (
        "audit bijections --n 2 --r 2 --d 2 --format json", 0,
        [
            '{"identity": "bijections", "params": {"d": 2, "n": 2, "r": 2}, '
            '"methods": {"configurations": "3", "tableau_pairs": "3", "region_walks": '
            '"3", "profile_walks": "3", "failures": "0"}, "pass": true, "elapsed_ms": '
            "0}",
        ],
        [],
    ),
    (
        "sample --n 3 --r 2 --seed 5 --count 2 --format table", 0,
        ["2,1,4,6,3,5 L=3", "3,6,2,4,1,5 L=3"],
        [],
    ),
    (
        "sample --n 3 --r 2 --seed 5 --count 2 --format json", 0,
        [
            '{"n": 3, "r": 2, "seed": 5, "samples": [{"configuration": "2,1,4,6,3,5", '
            '"largest_matching": 3}, {"configuration": "3,6,2,4,1,5", '
            '"largest_matching": 3}]}',
        ],
        [],
    ),
    (
        "sample --n 3 --r 2 --seed 5 --count 2 --format csv", 0,
        [
            "seed,configuration,largest_matching",
            '5,"2,1,4,6,3,5",3',
            '6,"3,6,2,4,1,5",3',
        ],
        [],
    ),
    ("sample --n 2 --r 1 --seed 1 --count 0 --format table", 0, [], []),
    (
        "sample --n 2 --r 1 --seed 1 --count 0 --format json", 0,
        ['{"n": 2, "r": 1, "seed": 1, "samples": []}'],
        [],
    ),
    (
        "sample --n 2 --r 1 --seed 1 --count 0 --format csv", 0,
        ["seed,configuration,largest_matching"],
        [],
    ),
    (
        "count --help", 0,
        [
            "usage: planarcount count [-h] --n N --r R --d D",
            "                         [--method {brute,tableaux,walks-enum,walks-dp}]",
            "                         [--subgraph] [--format {table,json,csv}]",
            "                         [--budget BUDGET]",
            "",
            "options:",
            "  -h, --help            show this help message and exit",
            "  --n N",
            "  --r R",
            "  --d D",
            "  --method {brute,tableaux,walks-enum,walks-dp}",
            "  --subgraph            bound the largest planar subgraph instead of the",
            "                        largest matching",
            "  --format {table,json,csv}",
            "                        output format",
            "  --budget BUDGET       node budget; computations refuse (exit 3) when it",
            "                        would be exceeded",
        ],
        [],
    ),
    (
        "count --n 2 --r 2", 2,
        [],
        [
            "usage: planarcount count [-h] --n N --r R --d D",
            "                         [--method {brute,tableaux,walks-enum,walks-dp}]",
            "                         [--subgraph] [--format {table,json,csv}]",
            "                         [--budget BUDGET]",
            "planarcount count: error: the following arguments are required: --d",
        ],
    ),
    ("count --n 2 --r 0 --d 1", 2, [], ["error: need n >= 0, r >= 1, d >= 0"]),
    (
        "count --n 8 --r 1 --d 8 --method walks-enum --budget 10", 3,
        [],
        ["refused: walks-enum count: estimated 823680 nodes exceeds budget 10"],
    ),
    (
        "verify theorem1 --n 4 --r 2 --d 8 --budget 5", 3,
        [],
        ["refused: matching identity: estimated 3786880 nodes exceeds budget 5"],
    ),
    ("demo rsk", 2, [], ["error: demo rsk needs --perm"]),
    (
        "demo rsk --perm 2,1 --graph 1", 2,
        [],
        ["error: demo rsk reads --perm alone, not --graph and --perm"],
    ),
    (
        "demo phi --graph 2 --perm 1,2", 2,
        [],
        ["error: demo phi reads --graph or --perm alone, not --graph and --perm"],
    ),
]


ELAPSED = re.compile(r'"elapsed_ms": [-0-9.e]+')


@pytest.mark.parametrize(
    "argv, code, out, err", GOLDEN, ids=[case[0] for case in GOLDEN]
)
def test_golden_output(capsys, monkeypatch, argv, code, out, err):
    # a fixed width, so argparse wraps usage and help the same on any terminal
    monkeypatch.setenv("COLUMNS", "80")
    got_code, got_out, got_err = run(capsys, *argv.split())
    got_out = ELAPSED.sub('"elapsed_ms": 0', got_out)
    assert (got_code, got_out, got_err) == (code, _text(out), _text(err))


def _text(lines):
    return "".join(f"{line}\n" for line in lines)
