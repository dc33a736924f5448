"""The benchmark's workloads: fixed job lists over planarcount's public API.

Importing this module does not import planarcount; a job names its entry
point as "<module>.<function>" and is resolved when it runs, so that a
tracer can wrap the function first.  The seed only shuffles the order of a
workload's jobs; see README.md for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

# Explicit budget for count-large: above the seed's walks-dp estimate
# (blocks**n + d!) of every job, the largest being 6**30 at (30, 2, 3).
COUNT_BUDGET = 10**24

# Pinned exact counts for count-large, (n, r, d, kind) -> (count, provenance).
PINNED = {
    # wide: d >= 6, the signed Toeplitz join dominates
    (8, 1, 8, "matching"): (factorial(8), "n! (r = 1 and d >= n)"),
    (4, 2, 8, "matching"): (282, "walks-dp; walks-enum and tableaux agree"),
    (5, 3, 6, "matching"): (153040, "walks-dp; tableaux agrees"),
    (9, 1, 7, "matching"): (362815, "walks-dp; tableaux agrees; 9! - 65"),
    (6, 2, 6, "subgraph"): (147168, "walks-dp; walks-enum and tableaux agree"),
    # long: d <= 4, the half-walk profile DP does most of the work
    (20, 2, 4, "matching"): (459546848972770902853115363292, "walks-dp only"),
    (12, 3, 4, "matching"): (515122130640069851424, "walks-dp only"),
    (24, 2, 4, "subgraph"): (18916437670848472111903330956, "walks-dp only"),
    (8, 4, 4, "matching"): (131412032096731, "walks-dp only"),
    (30, 2, 3, "matching"): (
        3932865977000307256438328837465662392981,
        "walks-dp only",
    ),
    (20, 3, 3, "matching"): (385596508403630628015473409641524, "walks-dp only"),
}


@dataclass(frozen=True)
class Job:
    """One call into the library and what a correct answer looks like.

    `entry` is "<module>.<function>".  A verify or audit job passes when its
    report passes; a cli job passes when it exits 0 and prints `expected`."""

    entry: str
    args: tuple
    n: int
    r: int
    d: int
    kind: str
    group: str | None = None
    expected: int | None = None
    kwargs: tuple = ()

    @property
    def tag(self) -> dict:
        """Job description attached to every span the job opens."""
        return {
            "entry": self.entry,
            "n": self.n,
            "r": self.r,
            "d": self.d,
            "kind": self.kind,
            "group": self.group,
        }


def _grid(max_rn: int, rs) -> list[tuple[int, int]]:
    return [(n, r) for r in rs for n in range(1, max_rn // r + 1)]


def identity_grid() -> list[Job]:
    """The acceptance-criterion identities: four counting methods per
    (n, r, d) for both kinds, and the walk-scaling identity."""
    jobs = []
    for n, r in _grid(7, (1, 2, 3)):
        for d in range(n * r + 1):
            for kind, entry in (
                ("matching", "verify.verify_matching_identity"),
                ("subgraph", "verify.verify_subgraph_identity"),
            ):
                jobs.append(
                    Job(entry, (n, r, d), n, r, d, kind, kwargs=(("threads", 1),))
                )
    for m in range(1, 6):
        for d in range(1, 5):
            jobs.append(
                Job(
                    "verify.verify_walk_scaling",
                    (m, d),
                    m,
                    1,
                    d,
                    "mot",
                    kwargs=(("threads", 1),),
                )
            )
    return jobs


def count_argv(n: int, r: int, d: int, kind: str, budget: int = COUNT_BUDGET) -> tuple:
    argv = (
        "count",
        "--n", str(n),
        "--r", str(r),
        "--d", str(d),
        "--method", "walks-dp",
        "--format", "json",
        "--budget", str(budget),
    )
    return argv + ("--subgraph",) if kind == "subgraph" else argv


def count_job(n: int, r: int, d: int, kind: str, group: str) -> Job:
    expected, _ = PINNED[(n, r, d, kind)]
    return Job("cli.main", count_argv(n, r, d, kind), n, r, d, kind, group, expected)


def count_large() -> list[Job]:
    """`planarcount count --method walks-dp` past the brute-force grid."""
    wide = [(8, 1, 8, "matching"), (4, 2, 8, "matching"), (5, 3, 6, "matching"),
            (9, 1, 7, "matching"), (6, 2, 6, "subgraph")]
    long = [(20, 2, 4, "matching"), (12, 3, 4, "matching"), (24, 2, 4, "subgraph"),
            (8, 4, 4, "matching"), (30, 2, 3, "matching"), (20, 3, 3, "matching")]
    return [count_job(*p, "wide") for p in wide] + [count_job(*p, "long") for p in long]


def audit_grid() -> list[Job]:
    """Bijection audits on rn <= 7 (every r), involution audits on rn <= 5."""
    jobs = []
    for n, r in _grid(7, range(1, 8)):
        for d in range(n * r + 1):
            jobs.append(Job("verify.audit_bijections", (n, r, d), n, r, d, "bijections"))
    for n, r in _grid(5, range(1, 6)):
        for d in range(4):
            for which in ("first", "second"):
                jobs.append(
                    Job(
                        "verify.audit_involution",
                        (n, r, d, which),
                        n,
                        r,
                        d,
                        f"involution-{which}",
                    )
                )
    return jobs


def gessel() -> list[Job]:
    """Gessel's Bessel-determinant identity, truncated at x^14."""
    return [
        Job("verify.verify_gessel_identity", (d, 14), 0, 0, d, "gessel")
        for d in range(1, 9)
    ]


WORKLOADS = {
    "identity-grid": identity_grid,
    "count-large": count_large,
    "audit-grid": audit_grid,
    "gessel": gessel,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list, shuffled by the seed.  At the seed commit the
    total work does not depend on the order, because every cache in the
    library is keyed by job parameters."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs
