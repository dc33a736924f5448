"""Regular bipartite multigraphs, configurations and exact brute-force counts.

An r-regular bipartite multigraph on ordered color classes u_1..u_n and
v_1..v_n is stored as its n x n multiplicity matrix.  Splitting every vertex
into r copies (ordered lexicographically and identified with [rn]) turns the
graph into a configuration: a perfect matching of [rn] with [rn], i.e. a
permutation in one-line notation.

`lifted_multigraphs` is the one pipeline over multigraphs: it enumerates
them, lifts each and measures its largest planar matching and subgraph.  It
is one depth-first fill of the matrix row by row (`_fill`), which carries
the lift prefix, the patience piles and the planar-subgraph DP row from each
node to its children, so a row is lifted and measured once per node, not
once per graph.  A table that lives for one call holds, per vector of column
remainders, the rows that fit with their lift segments.  The single-graph
functions (`canonical_lift`, `largest_planar_matching_size`,
`largest_planar_subgraph_size`) read the same row steps, and
`enumerate_multigraphs` the same fill.  Brute-force counting keeps only a
histogram of the size pairs per (n, r), and the bijection audit caches the
lifts with their sizes.
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


@dataclass(frozen=True, slots=True)
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
        try:
            rows = tuple(tuple(map(int, p.split(","))) for p in text.strip().split(";"))
        except ValueError as exc:
            raise ValueError(f"malformed multigraph {text!r}") from exc
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
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (x,) + rest
        for x in range(total, -1, -1)
        for rest in _compositions(total - x, parts - 1)
    ]


def _lift_row(
    row: tuple[int, ...], col_rem: tuple[int, ...], r: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One row of the canonical lift: the values of the row's r copies, and
    the column remainders after the row.

    An edge (u_i, v_j) of multiplicity t, preceded (in the crossing order) by
    a = number of edges from u_i to later columns and b = number of edges into
    v_j from later rows, contributes the pairings
    (copy a+s of u_i, copy b+t-s+1 of v_j) for s = 1..t.  The cells are read
    left to right, so a is the running row remainder and b the column
    remainder once this row is taken off.
    """
    segment = [0] * r
    rem = list(col_rem)
    a = r
    for j, t in enumerate(row):
        if t:
            a -= t
            rem[j] -= t
            top = j * r + rem[j] + t
            for s in range(t):
                segment[a + s] = top - s
    return tuple(segment), tuple(rem)


def _extend_piles(piles: list[int], values) -> None:
    """Patience sorting: deal `values` onto the piles, kept as their top
    cards in increasing order.  The number of piles is then the length of a
    longest increasing subsequence of everything dealt so far."""
    for v in values:
        p = bisect_left(piles, v)
        if p == len(piles):
            piles.append(v)
        else:
            piles[p] = v


def _subgraph_row(best: tuple[int, ...], row: tuple[int, ...]) -> tuple[int, ...]:
    """One row of the planar-subgraph DP.  best[j] is the heaviest chain of
    cells weakly increasing in both coordinates among the rows so far and
    columns <= j (best[0] = 0); with nonnegative multiplicities, adding a row
    makes it t + max(best above, best to the left)."""
    out = [0]
    left = 0
    for t, above in zip(row, best[1:]):
        left = t + (above if above > left else left)
        out.append(left)
    return tuple(out)


def _fill(n: int, r: int) -> Iterator[tuple[tuple, tuple[int, ...], int, int]]:
    """The one row-by-row search over multigraphs: each graph's rows, with
    its checked canonical lift, largest planar matching and largest planar
    subgraph.  Only `enumerate_multigraphs` checks the rows as a `Multigraph`.

    Rows are taken from the compositions of r into n parts, largest first.
    A row must fit under the remaining column sums; any remainder with the
    right total is reachable, so there are no dead branches, and the last
    row is forced to be the remainder.  The stream is therefore ordered by
    descending flattened matrix.  For n = 0 the one multigraph is the empty
    one.

    A node carries its lift prefix, its patience piles and its DP row down
    to its children, so every row is lifted and measured once per node.  The
    lift of a row depends only on the row and the column remainders before
    it, so a table kept for this call maps each remainder vector to the rows
    that fit, each with its lift segment and the remainders after it.
    """
    check_count_params(n, r, 0)
    rows = _compositions(r, n)
    table: dict[tuple[int, ...], list] = {}
    # depth-first on an explicit stack; a node's children are pushed last
    # first, so they come off in order
    stack = [((), (), [], (0,) * (n + 1), (r,) * n)]
    while stack:
        done, lift, piles, best, col_rem = stack.pop()
        if len(done) == n:
            yield done, check_permutation(lift), len(piles), best[-1]
            continue
        moves = table.get(col_rem)
        if moves is None:
            moves = table[col_rem] = [
                (row, *_lift_row(row, col_rem, r))
                for row in reversed(rows)
                if all(x <= c for x, c in zip(row, col_rem))
            ]
        for row, segment, rem in moves:
            grown = piles.copy()
            _extend_piles(grown, segment)
            stack.append(
                (done + (row,), lift + segment, grown, _subgraph_row(best, row), rem)
            )


def enumerate_multigraphs(n: int, r: int) -> Iterator[Multigraph]:
    """Every n x n nonnegative matrix with all row/column sums r, exactly
    once, in descending order of the flattened matrix (see `_fill`)."""
    for rows, _, _, _ in _fill(n, r):
        yield Multigraph(n=n, r=r, rows=rows)


def canonical_lift(g: Multigraph) -> tuple[int, ...]:
    """Lift a multigraph to the configuration in which parallel edges cross:
    its rows' lifts (`_lift_row`) one after another."""
    values: list[int] = []
    col_rem = (g.r,) * g.n
    for row in g.rows:
        segment, col_rem = _lift_row(row, col_rem, g.r)
        values += segment
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
    _extend_piles(piles, perm)
    return len(piles)


def largest_planar_subgraph_size(g: Multigraph) -> int:
    """Maximum total multiplicity over chains of cells weakly increasing in
    both coordinates (noncrossing edges that may share endpoints): the DP of
    `_subgraph_row` over every row."""
    best = (0,) * (g.n + 1)
    for row in g.rows:
        best = _subgraph_row(best, row)
    return best[-1]


def lifted_multigraphs(n: int, r: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The one pipeline over multigraphs: for each graph of
    `enumerate_multigraphs(n, r)`, in its order, its canonical lift, largest
    planar matching and largest planar subgraph, lifted and measured a row
    at a time as the search descends (see `_fill`)."""
    for _, lift, matching, subgraph in _fill(n, r):
        yield lift, matching, subgraph


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
