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

JSON output has a fixed key order and renders every count as a decimal
string so arbitrarily large values survive 53-bit consumers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(human)


# ------------------------------------------------------------------- count


def cmd_count(args) -> int:
    started = time.perf_counter()
    kind = "subgraph" if args.subgraph else "matching"
    value = count_graphs(args.n, args.r, args.d, kind, args.method, args.budget)
    elapsed = (time.perf_counter() - started) * 1000
    payload = {
        "n": args.n,
        "r": args.r,
        "d": args.d,
        "method": args.method,
        "subgraph": bool(args.subgraph),
        "count": str(value),
        "elapsed_ms": round(elapsed, 3),
    }
    if args.format == "csv":
        print("n,r,d,method,subgraph,count")
        print(
            f"{args.n},{args.r},{args.d},{args.method},"
            f"{str(bool(args.subgraph)).lower()},{value}"
        )
    else:
        _emit(args, payload, str(value))
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    if args.identity == "theorem1":
        report = verify_matching_identity(
            args.n, args.r, args.d, budget=args.budget, threads=args.threads
        )
    elif args.identity == "plk":
        report = verify_subgraph_identity(
            args.n, args.r, args.d, budget=args.budget, threads=args.threads
        )
    elif args.identity == "mot":
        report = verify_walk_scaling(
            args.m, args.d, budget=args.budget, threads=args.threads
        )
    else:
        report = verify_gessel_identity(args.d, args.M, budget=args.budget)
    return _print_report(args, report)


def _print_report(args, report) -> int:
    if args.format == "json":
        print(report.to_json())
    else:
        verdict = "PASS" if report.passed else "FAIL"
        methods = ", ".join(
            f"{k}={_short(v)}" for k, v in report.methods.items()
        )
        print(f"{verdict} {report.identity} {report.params}: {methods}")
        if report.witness:
            print(f"witness: {report.witness}")
    return 0 if report.passed else 1


def _short(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(x) for x in value) + "]"
    return value


# -------------------------------------------------------------------- demo


def cmd_demo(args) -> int:
    if args.what == "rsk":
        if args.perm is None:
            raise ValueError("demo rsk needs --perm")
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
        _emit(args, payload, f"P = {p.to_text()}\nQ = {q.to_text()}\nround_trip = {ok}")
        return 0
    if args.what == "phi":
        if args.graph is not None:
            g = Multigraph.from_text(args.graph)
            lift = canonical_lift(g)
        elif args.perm is not None:
            lift = parse_permutation(args.perm)
        else:
            raise ValueError("demo phi needs --graph or --perm")
        walk = profile_walk(lift)
        ok = crossing_pairing(walk).as_permutation() == lift
        payload = {
            "what": "phi",
            "configuration": permutation_text(lift),
            "walk": walk.to_text(),
            "largest_matching": planar_matching_profile(lift).largest,
            "round_trip": ok,
        }
        human = (
            f"configuration = {permutation_text(lift)}\n"
            f"walk = {walk.to_text()}\nround_trip = {ok}"
        )
        _emit(args, payload, human)
        return 0
    if args.walk is None:
        raise ValueError("demo walk needs --walk")
    walk = Walk.from_text(args.walk)
    pairing = crossing_pairing(walk)
    pair_text = " ".join(f"(u{a},v{b})" for a, b in pairing.pairs)
    unmatched_left = pairing.unmatched_left()
    unmatched_right = pairing.unmatched_right()
    round_trip = pairing.is_complete and profile_walk(
        pairing.as_permutation(), d=walk.d
    ) == walk
    payload = {
        "what": "walk",
        "walk": walk.to_text(),
        "pairs": [[a, b] for a, b in pairing.pairs],
        "unmatched_left": list(unmatched_left),
        "unmatched_right": list(unmatched_right),
        "complete": pairing.is_complete,
        "round_trip": round_trip,
    }
    human_lines = [f"pairs = {pair_text}"]
    if unmatched_left:
        human_lines.append(
            "unmatched left = " + " ".join(f"u{x}" for x in unmatched_left)
        )
    if unmatched_right:
        human_lines.append(
            "unmatched right = " + " ".join(f"v{x}" for x in unmatched_right)
        )
    human_lines.append(f"complete = {pairing.is_complete}")
    human_lines.append(f"round_trip = {round_trip}")
    _emit(args, payload, "\n".join(human_lines))
    return 0


# ------------------------------------------------------------------- table


def cmd_table(args) -> int:
    check_count_params(args.n_max, args.r, 0)
    if args.sample < 0:
        raise ValueError("sample must be >= 0")
    brute = METHODS["brute"]
    ns = range(1, args.n_max + 1)
    estimate = sum(brute.cost(n, args.r, 0, "matching") for n in ns)
    require_budget(estimate + args.sample * args.n_max, args.budget, "table")
    d_max = args.r * args.n_max
    rows = [
        (n, args.r, d, brute.count(n, args.r, d, "matching"))
        for n in ns
        for d in range(0, d_max + 1)
    ]
    empirical = {}
    if args.sample:
        for n in ns:
            dist: dict[int, int] = {}
            for i in range(args.sample):
                perm = sample_configuration(n, args.r, args.seed + i)
                size = largest_planar_matching_size(perm)
                dist[size] = dist.get(size, 0) + 1
            empirical[n] = dict(sorted(dist.items()))

    if args.format == "json":
        payload = {
            "r": args.r,
            "rows": [
                {"n": n, "r": r, "d": d, "count": str(c)} for n, r, d, c in rows
            ],
        }
        if args.sample:
            payload["samples"] = args.sample
            payload["seed"] = args.seed
            payload["empirical"] = {
                str(n): {str(k): v for k, v in dist.items()}
                for n, dist in empirical.items()
            }
        print(json.dumps(payload))
        return 0
    if args.format == "csv":
        print("n,r,d,count")
        for n, r, d, c in rows:
            print(f"{n},{r},{d},{c}")
        if args.sample:
            print()
            print("n,r,L,samples")
            for n, dist in empirical.items():
                for size, hits in dist.items():
                    print(f"{n},{args.r},{size},{hits}")
        return 0
    for n, r, d, c in rows:
        print(f"n={n} r={r} d={d} count={c}")
    for n, dist in empirical.items():
        shown = " ".join(f"L={k}:{v}" for k, v in dist.items())
        print(f"empirical n={n} samples={args.sample} seed={args.seed} {shown}")
    return 0


# ------------------------------------------------------------------- audit


def cmd_audit(args) -> int:
    if args.target == "involution":
        report = audit_involution(
            args.n, args.r, args.d, args.which, budget=args.budget
        )
    else:
        report = audit_bijections(args.n, args.r, args.d, budget=args.budget)
    return _print_report(args, report)


# ------------------------------------------------------------------ sample


def cmd_sample(args) -> int:
    check_count_params(args.n, args.r, 0)
    if args.count < 0:
        raise ValueError("count must be >= 0")
    samples = []
    for i in range(args.count):
        perm = sample_configuration(args.n, args.r, args.seed + i)
        samples.append((perm, largest_planar_matching_size(perm)))
    if args.format == "json":
        payload = {
            "n": args.n,
            "r": args.r,
            "seed": args.seed,
            "samples": [
                {"configuration": permutation_text(p), "largest_matching": size}
                for p, size in samples
            ],
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("seed,configuration,largest_matching")
        for i, (p, size) in enumerate(samples):
            print(f"{args.seed + i},\"{permutation_text(p)}\",{size}")
    else:
        for p, size in samples:
            print(f"{permutation_text(p)} L={size}")
    return 0


# ------------------------------------------------------------------ parser


def _add_common(parser, *, formats=("table", "json"), budget=True, threads=False):
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
    if threads:
        parser.add_argument(
            "--threads", type=int, default=1, help="must be >= 1; methods run serially"
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
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument(
        "--method",
        choices=list(METHODS),
        default="brute",
    )
    p_count.add_argument(
        "--subgraph",
        action="store_true",
        help="bound the largest planar subgraph instead of the largest matching",
    )
    _add_common(p_count, formats=("table", "json", "csv"))
    p_count.set_defaults(handler=cmd_count)

    p_verify = sub.add_parser("verify", help="cross-method identity verification")
    verify_sub = p_verify.add_subparsers(dest="identity", required=True)
    for name in ("theorem1", "plk"):
        vp = verify_sub.add_parser(
            name,
            help=(
                "matching-count identity (graphs = tableau pairs = signed walks)"
                if name == "theorem1"
                else "subgraph-count identity"
            ),
        )
        vp.add_argument("--n", type=int, required=True)
        vp.add_argument("--r", type=int, required=True)
        vp.add_argument("--d", type=int, required=True)
        _add_common(vp, threads=True)
        vp.set_defaults(handler=cmd_verify)
    vp = verify_sub.add_parser(
        "mot", help="all-walks signed count = C(2m,m) * bounded-LIS count"
    )
    vp.add_argument("--m", type=int, required=True)
    vp.add_argument("--d", type=int, required=True)
    _add_common(vp, threads=True)
    vp.set_defaults(handler=cmd_verify)
    vp = verify_sub.add_parser(
        "gessel", help="Bessel determinant generating function, exact rationals"
    )
    vp.add_argument("--d", type=int, required=True)
    vp.add_argument("--M", type=int, required=True, help="even truncation degree")
    _add_common(vp)
    vp.set_defaults(handler=cmd_verify)

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
    audit_sub = p_audit.add_subparsers(dest="target", required=True)
    ap = audit_sub.add_parser("involution", help="sign-reversing involution audit")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--d", type=int, required=True)
    ap.add_argument("--which", choices=["first", "second"], required=True)
    _add_common(ap)
    ap.set_defaults(handler=cmd_audit)
    ap = audit_sub.add_parser("bijections", help="two-sided bijection audit")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--d", type=int, required=True)
    _add_common(ap)
    ap.set_defaults(handler=cmd_audit)

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
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
