"""Regular bipartite multigraphs, configurations and exact brute-force counts.

An r-regular bipartite multigraph on ordered color classes u_1..u_n and
v_1..v_n is stored as its n x n multiplicity matrix.  Splitting every vertex
into r copies (ordered lexicographically and identified with [rn]) turns the
graph into a configuration: a perfect matching of [rn] with [rn], i.e. a
permutation in one-line notation.

`lifted_multigraphs` is the one pipeline over multigraphs: it enumerates
them, lifts each and measures its largest planar matching and subgraph.
Brute-force counting keeps only a histogram of those size pairs per (n, r),
and the bijection audit caches the lifts with their sizes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Iterator, NamedTuple

from .perms import check_permutation, perm_inverse


@dataclass(frozen=True)
class Multigraph:
    """n x n matrix of edge multiplicities with all row and column sums r."""

    n: int
    r: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, r, rows = self.n, self.r, self.rows
        if n < 0 or r < 1:
            raise ValueError("need n >= 0 and r >= 1")
        if len(rows) != n or not set(map(len, rows)) <= {n}:
            raise ValueError("multiplicity matrix must be n x n")
        if n and min(map(min, rows)) < 0:
            raise ValueError("multiplicities must be nonnegative")
        if not set(map(sum, rows)) <= {r}:
            raise ValueError("every row sum must equal r")
        if not set(map(sum, zip(*rows))) <= {r}:
            raise ValueError("every column sum must equal r")

    def to_text(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str, r: int | None = None) -> "Multigraph":
        rows = tuple(
            tuple(int(x) for x in part.split(",")) for part in text.strip().split(";")
        )
        if r is None:
            r = sum(rows[0]) if rows and rows[0] else 0
        return cls(n=len(rows), r=r, rows=rows)


def check_count_params(n: int, r: int, d: int) -> None:
    """The parameter domain shared by every counting method."""
    if n < 0 or r < 1 or d < 0:
        raise ValueError("need n >= 0, r >= 1, d >= 0")


def check_kind(kind: str) -> None:
    """The two statistics counted: largest planar matching or subgraph."""
    if kind not in ("matching", "subgraph"):
        raise ValueError(f"unknown kind {kind!r}")


def check_length_params(m: int, d: int) -> None:
    """The parameter domain of the counts over permutations of [m] and
    walks of length 2m in Z^d."""
    if m < 0 or d < 0:
        raise ValueError("need m >= 0 and d >= 0")


class MatchingProfile(NamedTuple):
    """Per-node largest planar matching sizes and their maximum."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    largest: int


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of `parts` nonnegative ints summing to `total`, in
    descending lexicographic order."""
    if parts == 1:
        return [(total,)]
    return [
        (x,) + rest
        for x in range(total, -1, -1)
        for rest in _compositions(total - x, parts - 1)
    ]


def enumerate_multigraphs(n: int, r: int) -> Iterator[Multigraph]:
    """Every n x n nonnegative matrix with all row/column sums r, exactly once.

    Rows are taken from the compositions of r into n parts, largest first,
    one generator frame per row.  A row must fit under the remaining column
    sums; any remainder with the right total is reachable, so there are no
    dead branches, and the last row is forced to be the remainder.  The
    stream is therefore ordered by descending flattened matrix.  For n = 0
    the one multigraph is the empty one.
    """
    check_count_params(n, r, 0)
    if n == 0:
        yield Multigraph(n=0, r=r, rows=())
        return
    rows = _compositions(r, n)

    def fill(i: int, done: tuple, col_rem: tuple[int, ...]) -> Iterator[Multigraph]:
        if i == n - 1:
            yield Multigraph(n=n, r=r, rows=done + (col_rem,))
            return
        for row in rows:
            if all(x <= c for x, c in zip(row, col_rem)):
                yield from fill(
                    i + 1, done + (row,), tuple(c - x for x, c in zip(row, col_rem))
                )

    yield from fill(0, (), (r,) * n)


def canonical_lift(g: Multigraph) -> tuple[int, ...]:
    """Lift a multigraph to the configuration in which parallel edges cross.

    An edge (u_i, v_j) of multiplicity t, preceded (in the crossing order) by
    a = number of edges from u_i to later columns and b = number of edges into
    v_j from later rows, contributes the pairings
    (copy a+s of u_i, copy b+t-s+1 of v_j) for s = 1..t.  The cells are read
    row by row, so a and b are the running row and column remainders.
    """
    n, r = g.n, g.r
    values = [0] * (r * n)
    col_rem = [r] * n
    for i, row in enumerate(g.rows):
        a = r
        for j, t in enumerate(row):
            if t == 0:
                continue
            a -= t
            col_rem[j] -= t
            b = col_rem[j]
            for s in range(1, t + 1):
                values[i * r + a + s - 1] = j * r + b + t - s + 1
    return check_permutation(values)


def project_configuration(perm, n: int, r: int) -> Multigraph:
    """Collapse the r copies of every vertex back to a multiplicity matrix."""
    perm = check_permutation(perm)
    if len(perm) != n * r:
        raise ValueError(f"configuration must have length {n * r}")
    rows = [[0] * n for _ in range(n)]
    for left0, right in enumerate(perm):
        rows[left0 // r][(right - 1) // r] += 1
    return Multigraph(n=n, r=r, rows=tuple(tuple(row) for row in rows))


def planar_matching_profile(perm) -> MatchingProfile:
    """Largest planar matching ending at each left / right node, plus the max.

    A planar matching of a configuration is an increasing subsequence of its
    permutation, so the left profile is the longest-increasing-subsequence
    length ending at each position (patience sorting, O(m log m)); the right
    profile is the same computation on the inverse permutation.
    """
    perm = check_permutation(perm)

    def ending_lengths(seq):
        piles: list[int] = []
        out = []
        for v in seq:
            p = bisect_left(piles, v)
            if p == len(piles):
                piles.append(v)
            else:
                piles[p] = v
            out.append(p + 1)
        return tuple(out)

    left = ending_lengths(perm)
    right = ending_lengths(perm_inverse(perm))
    return MatchingProfile(left, right, max(left, default=0))


def largest_planar_matching_size(perm) -> int:
    """`planar_matching_profile(perm).largest` from the left patience pass
    alone: the length of a longest increasing subsequence.  The permutation
    is not validated."""
    piles: list[int] = []
    for v in perm:
        p = bisect_left(piles, v)
        if p == len(piles):
            piles.append(v)
        else:
            piles[p] = v
    return len(piles)


def largest_planar_subgraph_size(g: Multigraph) -> int:
    """Maximum total multiplicity over chains of cells weakly increasing in
    both coordinates (noncrossing edges that may share endpoints).

    After row i, best[j] is the best chain over the cells <= (i, j); with
    nonnegative multiplicities that is t + max(best above, best to the left).
    """
    best = [0] * (g.n + 1)
    for row in g.rows:
        for j, t in enumerate(row, start=1):
            best[j] = t + max(best[j], best[j - 1])
    return best[-1]


def lifted_multigraphs(n: int, r: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The one pipeline over multigraphs: for each graph of
    `enumerate_multigraphs(n, r)`, in its order, its canonical lift, largest
    planar matching and largest planar subgraph."""
    for g in enumerate_multigraphs(n, r):
        lift = canonical_lift(g)
        yield lift, largest_planar_matching_size(lift), largest_planar_subgraph_size(g)


@lru_cache(maxsize=None)
def _size_histogram(n: int, r: int) -> Counter:
    """How many multigraphs have each (largest matching, largest subgraph)."""
    return Counter(
        (matching, subgraph) for _, matching, subgraph in lifted_multigraphs(n, r)
    )


def enumeration_cost(n: int, r: int) -> int:
    """Upper bound on the nodes `enumerate_multigraphs` explores: the
    row-by-row fill without column pruning; n = 0 has the one empty graph."""
    return comb(n + r - 1, n - 1) ** n * n if n > 0 else 1


def count_bounded_matching(n: int, r: int, d: int) -> int:
    """Number of r-regular multigraphs whose largest planar matching is <= d."""
    check_count_params(n, r, d)
    return sum(c for (size, _), c in _size_histogram(n, r).items() if size <= d)


def count_bounded_subgraph(n: int, r: int, d: int) -> int:
    """Number of r-regular multigraphs whose largest planar subgraph is <= d."""
    check_count_params(n, r, d)
    return sum(c for (_, size), c in _size_histogram(n, r).items() if size <= d)


@lru_cache(maxsize=None)
def _lis_histogram(m: int) -> tuple[int, ...]:
    """Number of permutations of [m] by longest increasing subsequence
    length 0..m, by exhaustive enumeration."""
    counts = [0] * (m + 1)
    for perm in permutations(range(1, m + 1)):
        counts[largest_planar_matching_size(perm)] += 1
    return tuple(counts)


def lis_cost(m: int) -> int:
    """Upper bound on the work of `count_bounded_lis`: m! permutations, each
    read once by the patience pass."""
    return factorial(m) * m


def count_bounded_lis(m: int, d: int) -> int:
    """Number of permutations of [m] with no increasing subsequence longer
    than d, by exhaustive enumeration.  Oracle for everything else."""
    check_length_params(m, d)
    return sum(_lis_histogram(m)[: d + 1])


def sample_configuration(n: int, r: int, seed: int) -> tuple[int, ...]:
    """Uniform random configuration (permutation of [rn]) under a fixed seed.

    Fisher-Yates driven by CPython's Mersenne Twister (`random.Random(seed)`,
    MT19937 with the documented integer seeding), so identical seeds give
    identical configurations on every platform.  Note that projecting does
    not sample multigraphs uniformly: a multigraph is hit with probability
    proportional to the product of 1/t! over its edge multiplicities t.
    """
    check_count_params(n, r, 0)
    rng = random.Random(seed)
    values = list(range(1, n * r + 1))
    for i in range(len(values) - 1, 0, -1):
        j = rng.randrange(i + 1)
        values[i], values[j] = values[j], values[i]
    return tuple(values)
