"""Command-line interface.

Subcommands: count, verify, demo, table, audit, sample.  Exit codes:
0 success / verification passed, 1 verification failed, 2 usage or parse
error, 3 resource-budget refusal (never a partial count).

Input grammars (the only accepted forms):
  permutation  one-line notation, comma separated:  4,2,3,1
  multigraph   semicolon-separated rows of comma-separated multiplicities:
               0,1,1;2,0,0;0,1,1
  walk         positive steps | negative steps, compact digits when all
               directions are single digits (111122|112121), otherwise
               comma separated (1,2,11|3,1)

`demo rsk` prints its tableaux as row lists, [[1,3],[2],[4]]; no subcommand
reads a tableau.

Output formats (--format): every subcommand prints `table`, the default
human-readable text, or `json`, one object per run; count, table and sample
also print `csv`.  JSON output has a fixed key order and renders every count
as a decimal string so arbitrarily large values survive 53-bit consumers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from functools import cache

from .graphs import (
    Multigraph,
    canonical_lift,
    check_count_params,
    largest_planar_matching_size,
    planar_matching_profile,
    sample_configuration,
)
from .perms import check_permutation
from .tableaux import rsk, rsk_inverse
from .verify import (
    DEFAULT_BUDGET,
    METHODS,
    audit_bijections,
    audit_involution,
    count_graphs,
    verify_gessel_identity,
    verify_matching_identity,
    verify_subgraph_identity,
    verify_walk_scaling,
)
from .walks import BudgetExceeded, Walk, crossing_pairing, profile_walk, require_budget


def parse_permutation(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed permutation {text!r}") from exc
    return check_permutation(values)


def permutation_text(perm) -> str:
    return ",".join(str(v) for v in perm)


# What a handler returns: its exit code and its stdout lines in each format
# it offers.
Output = tuple[int, dict[str, list[str]]]


# ------------------------------------------------------------------- count


def cmd_count(args) -> Output:
    started = time.perf_counter()
    kind = "subgraph" if args.subgraph else "matching"
    value = count_graphs(args.n, args.r, args.d, kind, args.method, args.budget)
    elapsed = (time.perf_counter() - started) * 1000
    payload = {
        "n": args.n,
        "r": args.r,
        "d": args.d,
        "method": args.method,
        "subgraph": args.subgraph,
        "count": str(value),
        "elapsed_ms": round(elapsed, 3),
    }
    subgraph = str(args.subgraph).lower()
    return 0, {
        "table": [str(value)],
        "json": [json.dumps(payload)],
        "csv": [
            "n,r,d,method,subgraph,count",
            f"{args.n},{args.r},{args.d},{args.method},{subgraph},{value}",
        ],
    }


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> Output:
    if args.identity == "theorem1":
        report = verify_matching_identity(args.n, args.r, args.d, budget=args.budget)
    elif args.identity == "plk":
        report = verify_subgraph_identity(args.n, args.r, args.d, budget=args.budget)
    elif args.identity == "mot":
        report = verify_walk_scaling(args.m, args.d, budget=args.budget)
    else:
        report = verify_gessel_identity(args.d, args.M, budget=args.budget)
    return _report_output(report)


def _report_output(report) -> Output:
    """The output of a verification or audit report: exit 0 when it passes
    and 1 when it fails, with the witness of a failure."""
    verdict = "PASS" if report.passed else "FAIL"
    methods = ", ".join(f"{k}={_short(v)}" for k, v in report.methods.items())
    human = [f"{verdict} {report.identity} {report.params}: {methods}"]
    if report.witness:
        human.append(f"witness: {report.witness}")
    return (0 if report.passed else 1), {"table": human, "json": [report.to_json()]}


def _short(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(x) for x in value) + "]"
    return value


# -------------------------------------------------------------------- demo

# the input options of each demo mode; a mode reads exactly one of them
_DEMO_INPUTS = {"rsk": ("--perm",), "phi": ("--graph", "--perm"), "walk": ("--walk",)}


def cmd_demo(args) -> Output:
    wanted = _DEMO_INPUTS[args.what]
    given = [f"--{x}" for x in ("graph", "perm", "walk") if vars(args)[x] is not None]
    if not set(given) & set(wanted):
        raise ValueError(f"demo {args.what} needs {' or '.join(wanted)}")
    if len(given) > 1:
        raise ValueError(
            f"demo {args.what} reads {' or '.join(wanted)} alone, "
            f"not {' and '.join(given)}"
        )
    if args.what == "rsk":
        perm = parse_permutation(args.perm)
        p, q = rsk(perm)
        ok = rsk_inverse(p, q) == perm
        payload = {
            "what": "rsk",
            "perm": permutation_text(perm),
            "P": p.to_text(),
            "Q": q.to_text(),
            "round_trip": ok,
        }
        human = [f"{key} = {payload[key]}" for key in ("P", "Q", "round_trip")]
    elif args.what == "phi":
        if args.graph is not None:
            lift = canonical_lift(Multigraph.from_text(args.graph))
        else:
            lift = parse_permutation(args.perm)
        walk = profile_walk(lift)
        ok = crossing_pairing(walk).as_permutation() == lift
        payload = {
            "what": "phi",
            "configuration": permutation_text(lift),
            "walk": walk.to_text(),
            "largest_matching": planar_matching_profile(lift).largest,
            "round_trip": ok,
        }
        shown = ("configuration", "walk", "round_trip")
        human = [f"{key} = {payload[key]}" for key in shown]
    else:
        walk = Walk.from_text(args.walk)
        pairing = crossing_pairing(walk)
        left, right = pairing.unmatched_left(), pairing.unmatched_right()
        round_trip = pairing.is_complete and profile_walk(
            pairing.as_permutation(), d=walk.d
        ) == walk
        payload = {
            "what": "walk",
            "walk": walk.to_text(),
            "pairs": [[a, b] for a, b in pairing.pairs],
            "unmatched_left": list(left),
            "unmatched_right": list(right),
            "complete": pairing.is_complete,
            "round_trip": round_trip,
        }
        human = ["pairs = " + " ".join(f"(u{a},v{b})" for a, b in pairing.pairs)]
        for side, label, nodes in (("left", "u", left), ("right", "v", right)):
            if nodes:
                shown = " ".join(f"{label}{x}" for x in nodes)
                human.append(f"unmatched {side} = {shown}")
        human += [f"complete = {pairing.is_complete}", f"round_trip = {round_trip}"]
    return 0, {"table": human, "json": [json.dumps(payload)]}


# ------------------------------------------------------------------- table


def cmd_table(args) -> Output:
    check_count_params(args.n_max, args.r, 0)
    if args.sample < 0:
        raise ValueError("sample must be >= 0")
    r = args.r
    brute = METHODS["brute"]
    ns = range(1, args.n_max + 1)
    estimate = sum(brute.cost(n, r, 0, "matching") for n in ns)
    require_budget(estimate + args.sample * args.n_max, args.budget, "table")
    rows = [
        (n, d, brute.count(n, r, d, "matching"))
        for n in ns
        for d in range(r * args.n_max + 1)
    ]
    payload = {
        "r": r,
        "rows": [{"n": n, "r": r, "d": d, "count": str(c)} for n, d, c in rows],
    }
    human = [f"n={n} r={r} d={d} count={c}" for n, d, c in rows]
    csv = ["n,r,d,count", *(f"{n},{r},{d},{c}" for n, d, c in rows)]
    if args.sample:
        payload.update(samples=args.sample, seed=args.seed, empirical={})
        csv += ["", "n,r,L,samples"]
        for n in ns:
            sizes = Counter(
                largest_planar_matching_size(sample_configuration(n, r, seed))
                for seed in range(args.seed, args.seed + args.sample)
            )
            dist = sorted(sizes.items())
            payload["empirical"][str(n)] = {str(k): v for k, v in dist}
            shown = " ".join(f"L={k}:{v}" for k, v in dist)
            human.append(
                f"empirical n={n} samples={args.sample} seed={args.seed} {shown}"
            )
            csv += [f"{n},{r},{k},{v}" for k, v in dist]
    return 0, {"table": human, "json": [json.dumps(payload)], "csv": csv}


# ------------------------------------------------------------------- audit


def cmd_audit(args) -> Output:
    if args.target == "involution":
        report = audit_involution(
            args.n, args.r, args.d, args.which, budget=args.budget
        )
    else:
        report = audit_bijections(args.n, args.r, args.d, budget=args.budget)
    return _report_output(report)


# ------------------------------------------------------------------ sample


def cmd_sample(args) -> Output:
    check_count_params(args.n, args.r, 0)
    if args.count < 0:
        raise ValueError("count must be >= 0")
    samples = []
    for seed in range(args.seed, args.seed + args.count):
        perm = sample_configuration(args.n, args.r, seed)
        size = largest_planar_matching_size(perm)
        samples.append((seed, permutation_text(perm), size))
    payload = {
        "n": args.n,
        "r": args.r,
        "seed": args.seed,
        "samples": [
            {"configuration": text, "largest_matching": size}
            for _, text, size in samples
        ],
    }
    return 0, {
        "table": [f"{text} L={size}" for _, text, size in samples],
        "json": [json.dumps(payload)],
        "csv": [
            "seed,configuration,largest_matching",
            *(f'{seed},"{text}",{size}' for seed, text, size in samples),
        ],
    }


# ------------------------------------------------------------------ parser


def _add_nrd(parser):
    for option in ("--n", "--r", "--d"):
        parser.add_argument(option, type=int, required=True)


def _add_common(parser, *, formats=("table", "json"), budget=True):
    parser.add_argument(
        "--format", choices=formats, default="table", help="output format"
    )
    if budget:
        parser.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="node budget; computations refuse (exit 3) when it would be exceeded",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarcount",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", help="count graphs with bounded planar matching or subgraph"
    )
    _add_nrd(p_count)
    p_count.add_argument("--method", choices=list(METHODS), default="brute")
    p_count.add_argument(
        "--subgraph",
        action="store_true",
        help="bound the largest planar subgraph instead of the largest matching",
    )
    _add_common(p_count, formats=("table", "json", "csv"))
    p_count.set_defaults(handler=cmd_count)

    p_verify = sub.add_parser("verify", help="cross-method identity verification")
    p_verify.set_defaults(handler=cmd_verify)
    verify_sub = p_verify.add_subparsers(dest="identity", required=True)
    for name, help_text in (
        ("theorem1", "matching-count identity (graphs = tableau pairs = signed walks)"),
        ("plk", "subgraph-count identity"),
    ):
        vp = verify_sub.add_parser(name, help=help_text)
        _add_nrd(vp)
        _add_common(vp)
    vp = verify_sub.add_parser(
        "mot", help="all-walks signed count = C(2m,m) * bounded-LIS count"
    )
    vp.add_argument("--m", type=int, required=True)
    vp.add_argument("--d", type=int, required=True)
    _add_common(vp)
    vp = verify_sub.add_parser(
        "gessel", help="Bessel determinant generating function, exact rationals"
    )
    vp.add_argument("--d", type=int, required=True)
    vp.add_argument("--M", type=int, required=True, help="even truncation degree")
    _add_common(vp)

    p_demo = sub.add_parser("demo", help="run one mapping on one object")
    p_demo.add_argument("what", choices=["rsk", "phi", "walk"])
    p_demo.add_argument("--perm", help="permutation, e.g. 4,2,3,1")
    p_demo.add_argument("--graph", help="multigraph rows, e.g. 1,1;1,1")
    p_demo.add_argument("--walk", help="walk, e.g. 111122|112121")
    _add_common(p_demo, budget=False)
    p_demo.set_defaults(handler=cmd_demo)

    p_table = sub.add_parser(
        "table", help="distribution table of bounded-matching counts"
    )
    p_table.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument(
        "--sample", type=int, default=0, help="also sample this many configurations"
    )
    p_table.add_argument("--seed", type=int, default=0)
    _add_common(p_table, formats=("table", "json", "csv"))
    p_table.set_defaults(handler=cmd_table)

    p_audit = sub.add_parser("audit", help="exhaustive involution/bijection audits")
    p_audit.set_defaults(handler=cmd_audit)
    audit_sub = p_audit.add_subparsers(dest="target", required=True)
    ap = audit_sub.add_parser("involution", help="sign-reversing involution audit")
    _add_nrd(ap)
    ap.add_argument("--which", choices=["first", "second"], required=True)
    _add_common(ap)
    ap = audit_sub.add_parser("bijections", help="two-sided bijection audit")
    _add_nrd(ap)
    _add_common(ap)

    p_sample = sub.add_parser("sample", help="seeded uniform random configurations")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--r", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument(
        "--count", type=int, default=1, help="samples use seeds seed, seed+1, ..."
    )
    _add_common(p_sample, formats=("table", "json", "csv"), budget=False)
    p_sample.set_defaults(handler=cmd_sample)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built on its first call; parsing leaves a
    parser unchanged, so one serves every call in the process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.  The one writer to stdout:
    it prints the lines of the format asked for from the handler's Output."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, outputs = args.handler(args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(f"{line}\n" for line in outputs[args.format]))
    return code


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
