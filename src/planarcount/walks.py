"""Signed lattice-walk enumeration and the walk side of the counting identities.

Walks live in Z^d; a step is +e_j or -e_j for a direction j in [d].  Walks
are handled in representative form, all positive steps before all negative
ones, stored as two sequences of direction values: `111122|112121` means six
positive steps (directions 1,1,1,1,2,2) followed by six negative steps.

For walks of length 2rn the positive positions are grouped into n blocks of
r consecutive positions (and likewise the negative positions); a "matching"
walk has weakly decreasing values inside every block, a "subgraph" walk
strictly increasing ones.

The signed walk sum over Toeplitz endpoints is evaluated as a sum of
squares, with no loop over the d! endpoints.  With delta = (0, 1, ..., d-1),
a half-walk with direction histogram h has shape sort(h + delta) when
h + delta has distinct entries, and sign the sign of the permutation that
sorts it.  If c(y) is the signed number of half-walks of shape y, then

    sum over pi of sgn(pi) * #{(h, h'): h - h' = T(pi)} = sum over y of c(y)^2,

the same sum-of-squares form as the tableau side's count of equal-shape
tableau pairs.  This is Gessel and Zeilberger's reflection argument
("Random walk in a Weyl chamber", Proc. AMS 1992).  It needs the number of
half-walks with histogram h to be symmetric in the d directions, which holds
because the block count-vectors of both kinds are closed under permuting
directions.

Two counters compute the c(y), independently.  "enumerate" tallies the
half-walks by direction histogram, the n-fold convolution of the block
count-vectors on histograms packed into integers (a block move is one
integer addition), and decodes the tally and folds it into shapes once, at
the end, with signs.  "dp" adds one Pieri strip per block to shape counts:
the terms in which a block would reorder a shape or make a tie cancel, so
it keeps only the moves that leave the shape sorted, and no count is
signed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import (
    accumulate,
    combinations,
    combinations_with_replacement,
    pairwise,
    permutations,
)
from math import comb
from operator import lt, mul, sub
from typing import Iterator, NamedTuple

from .graphs import (
    check_count_params,
    check_kind,
    check_length_params,
    planar_matching_profile,
)
from .perms import check_permutation, perm_sign


@dataclass(frozen=True, slots=True)
class Walk:
    """A walk in representative form: positive steps, then negative steps."""

    d: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("dimension must be >= 0")
        for v in self.pos + self.neg:
            if not 1 <= v <= self.d:
                raise ValueError(f"step direction {v} outside [1, {self.d}]")

    def to_text(self) -> str:
        if all(v <= 9 for v in self.pos + self.neg):
            return "".join(map(str, self.pos)) + "|" + "".join(map(str, self.neg))
        return ",".join(map(str, self.pos)) + "|" + ",".join(map(str, self.neg))

    @classmethod
    def from_text(cls, text: str, d: int | None = None) -> "Walk":
        """Parse `111122|112121` (single digits) or `1,2,11|3,1` (comma form)."""
        if text.count("|") != 1:
            raise ValueError("walk text needs exactly one '|'")
        left, right = text.split("|")

        def half(s):
            s = s.strip()
            if not s:
                return ()
            if "," in s:
                return tuple(int(x) for x in s.split(","))
            return tuple(int(ch) for ch in s)

        try:
            pos, neg = half(left), half(right)
        except ValueError as exc:
            raise ValueError(f"malformed walk {text!r}") from exc
        if d is None:
            d = max(pos + neg, default=0)
        return cls(d=d, pos=pos, neg=neg)


class OccurrenceProfile(NamedTuple):
    """For each positive step: occurrences so far of its own value (`same`)
    and of the next smaller value (`lower`), both counted up to and
    including the step's position."""

    same: tuple[int, ...]
    lower: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class QuasiConfiguration:
    """A partial injective pairing of left nodes [m] with right nodes [m]."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m, k = self.m, len(self.pairs)
        lefts = {a for a, _ in self.pairs}
        rights = {b for _, b in self.pairs}
        if len(lefts) != k or len(rights) != k:
            raise ValueError("pairing must be injective")
        if k and not (
            1 <= min(lefts) and max(lefts) <= m and 1 <= min(rights) and max(rights) <= m
        ):
            raise ValueError("nodes must lie in [m]")

    @property
    def is_complete(self) -> bool:
        return len(self.pairs) == self.m

    def unmatched_left(self) -> tuple[int, ...]:
        used = {a for a, _ in self.pairs}
        return tuple(x for x in range(1, self.m + 1) if x not in used)

    def unmatched_right(self) -> tuple[int, ...]:
        used = {b for _, b in self.pairs}
        return tuple(x for x in range(1, self.m + 1) if x not in used)

    def as_permutation(self) -> tuple[int, ...]:
        if not self.is_complete:
            raise ValueError("pairing is not complete")
        values = [0] * self.m
        for a, b in self.pairs:
            values[a - 1] = b
        return check_permutation(values)


# ------------------------------------------------------------------ basics


def walk_steps(w: Walk) -> tuple[int, ...]:
    return w.pos + tuple(-v for v in w.neg)


def endpoint(w: Walk) -> tuple[int, ...]:
    point = [0] * w.d
    for v in w.pos:
        point[v - 1] += 1
    for v in w.neg:
        point[v - 1] -= 1
    return tuple(point)


def toeplitz_point(pi) -> tuple[int, ...]:
    """(1 - pi(1), 2 - pi(2), ..., d - pi(d))."""
    pi = check_permutation(pi)
    return tuple(j - pi[j - 1] for j in range(1, len(pi) + 1))


def iter_toeplitz(d: int, max_l1: int | None = None):
    """(pi, T(pi), sign) over all permutations of [d]; endpoints whose l1 norm
    exceeds max_l1 are skipped since no walk of that length can reach them."""
    for pi in permutations(range(1, d + 1)):
        point = tuple(j - pi[j - 1] for j in range(1, d + 1))
        if max_l1 is not None and sum(abs(x) for x in point) > max_l1:
            continue
        yield pi, point, perm_sign(pi)


def stays_in_dominance_region(w: Walk) -> bool:
    """True if every visited point has x_1 >= x_2 >= ... >= x_d, that is,
    if the walk translated to start at (d-1, ..., 0) stays strictly ordered."""
    return translated_exit(w) is None


def reverse_negative_half(w: Walk) -> Walk:
    """Reverse the order of the negative steps; self-inverse."""
    return Walk(d=w.d, pos=w.pos, neg=w.neg[::-1])


# ----------------------------------------------------------- block families


def weakly_decreasing_blocks(values, r: int) -> bool:
    """Every group of r consecutive values is weakly decreasing."""
    return all(
        values[i] >= values[i + 1] for i in range(len(values) - 1) if (i + 1) % r
    )


def strictly_increasing_blocks(values, r: int) -> bool:
    return all(
        values[i] < values[i + 1] for i in range(len(values) - 1) if (i + 1) % r
    )


def in_restricted_family(w: Walk, r: int, kind: str = "matching") -> bool:
    """Representative-walk block test: weakly decreasing values per block for
    "matching", strictly increasing for "subgraph", on both halves.  Blocks
    of one step are monotone either way, so r = 1 needs only the lengths."""
    check_kind(kind)
    if len(w.pos) != len(w.neg) or len(w.pos) % r:
        return False
    if r == 1:
        return True
    if kind == "matching":
        return weakly_decreasing_blocks(w.pos, r) and weakly_decreasing_blocks(w.neg, r)
    return strictly_increasing_blocks(w.pos, r) and strictly_increasing_blocks(w.neg, r)


def in_reversed_family(w: Walk, r: int) -> bool:
    """Block test after the negative half has been reversed: positive blocks
    weakly decrease, negative blocks weakly increase.  r divides the length,
    so reversing the negative half maps its blocks onto blocks."""
    if len(w.pos) != len(w.neg) or len(w.pos) % r:
        return False
    return r == 1 or (
        weakly_decreasing_blocks(w.pos, r) and weakly_decreasing_blocks(w.neg[::-1], r)
    )


@lru_cache(maxsize=None)
def _block_choices(d: int, r: int, kind: str) -> tuple:
    """All admissible blocks as (values, direction-count vector), in
    lexicographic order of the value tuple."""
    check_kind(kind)
    if kind == "matching":
        raw = [tuple(sorted(c, reverse=True)) for c in
               combinations_with_replacement(range(1, d + 1), r)]
    else:
        raw = [c for c in combinations(range(1, d + 1), r)]
    out = []
    for values in sorted(raw):
        counts = [0] * d
        for v in values:
            counts[v - 1] += 1
        out.append((values, tuple(counts)))
    return tuple(out)


def restricted_halves(n: int, r: int, d: int, kind: str = "matching"):
    """The blocks**n half-walks of one (n, r, d, kind), built one block at a
    time: every half with its direction histogram, in lexicographic order
    of its block sequence, and the same halves grouped by histogram, as
    their numbers in that order.  Positive and negative halves obey the
    same block condition, so one table serves both sides of every endpoint."""
    check_count_params(n, r, d)
    blocks = _block_choices(d, r, kind)
    halves = [((), (0,) * d)]
    for _ in range(n):
        halves = [
            (values + block, tuple(h + c for h, c in zip(hist, counts)))
            for values, hist in halves
            for block, counts in blocks
        ]
    by_hist: dict[tuple[int, ...], list[int]] = {}
    for i, (_, hist) in enumerate(halves):
        by_hist.setdefault(hist, []).append(i)
    return halves, by_hist


def _join_halves(halves, by_hist, d: int, target) -> Iterator[Walk]:
    """The walks to `target` from one table of `restricted_halves`: every
    positive half with histogram h, followed by every negative half with
    histogram h - target.  A difference with a negative entry is no
    histogram and finds no group."""
    partners = {
        hist: by_hist.get(tuple(h - t for h, t in zip(hist, target)))
        for hist in by_hist
    }
    for pos, hist in halves:
        negs = partners[hist]
        if negs:
            for j in negs:
                yield Walk(d=d, pos=pos, neg=halves[j][0])


def iter_restricted_walks(n: int, r: int, d: int, pi, kind: str = "matching"):
    """All representative walks of length 2rn ending at the Toeplitz point of
    pi whose blocks satisfy the `kind` condition on both halves.

    Positive halves are produced in lexicographic order of their block
    sequence, then negative halves likewise.  The walks are joined from one
    table of half-walks (`restricted_halves`): each positive half with
    histogram h meets the negative halves with histogram h - T(pi), so no
    negative half is searched for twice.
    """
    check_count_params(n, r, d)
    target = toeplitz_point(pi)
    if len(target) != d:
        raise ValueError(f"endpoint permutation must have length {d}")
    yield from _join_halves(*restricted_halves(n, r, d, kind), d, target)


def iter_restricted_family(n: int, r: int, d: int) -> Iterator[tuple[Walk, int]]:
    """(walk, sign of endpoint permutation) for the matching-kind walks of
    `iter_restricted_walks` over all Toeplitz endpoints, in `iter_toeplitz`
    order: the join of one `restricted_halves` table at every endpoint."""
    halves, by_hist = restricted_halves(n, r, d)
    for _, point, sign in iter_toeplitz(d, max_l1=2 * n * r):
        for w in _join_halves(halves, by_hist, d, point):
            yield w, sign


# ----------------------------------------------------- signed walk counting


class BudgetExceeded(RuntimeError):
    """Raised when a computation refuses to start because its node budget
    would be exceeded.  No partial result is returned."""


def require_budget(estimate: int, budget: int | None, what: str) -> None:
    """Refuse before any work when the estimate exceeds the budget.  A
    negative budget is no budget: it raises ValueError, not a refusal."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    if budget is not None and estimate > budget:
        raise BudgetExceeded(
            f"{what}: estimated {estimate} nodes exceeds budget {budget}"
        )


def _half_profiles_enumerate(n: int, r: int, d: int, kind: str) -> dict:
    """Displacement histogram -> number of half-walks, as the n-fold
    convolution of the block count-vectors: every histogram so far is
    extended by every block, one block at a time.  Each half-walk is counted
    once, in its histogram's tally, so the tally's total is blocks**n.  No
    histogram is sorted or signed here; `_fold_into_shapes` does that once,
    at the end.

    A histogram is packed into one int, direction j as the digit of base**j
    with base = rn + 1; no entry exceeds rn, so no digit carries.  Each
    block's count-vector is packed once, so a block move adds its code to
    the key, and each final histogram is decoded once, at the end."""
    base = n * r + 1
    powers = [base**j for j in range(d)]
    codes = [sum(map(mul, counts, powers)) for _, counts in _block_choices(d, r, kind)]
    profiles = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, ways in profiles.items():
            for code in codes:
                k = key + code
                nxt[k] = get(k, 0) + ways
        profiles = nxt
    return {
        tuple(key // p % base for p in powers): ways for key, ways in profiles.items()
    }


def _sort_with_sign(values) -> tuple[tuple[int, ...], int] | None:
    """values sorted increasingly, with the sign of the sorting permutation;
    None when two entries are equal.  Insertion sort, so nearly sorted
    input costs about one comparison per entry."""
    out = list(values)
    sign = 1
    for i in range(1, len(out)):
        v = out[i]
        j = i
        while j and out[j - 1] > v:
            out[j] = out[j - 1]
            j -= 1
            sign = -sign
        if j and out[j - 1] == v:
            return None
        out[j] = v
    return tuple(out), sign


def _fold_into_shapes(profiles: dict, d: int) -> dict:
    """Histogram -> half-walk count, folded into shape -> signed count."""
    delta = range(d)
    shapes: dict[tuple[int, ...], int] = {}
    for hist, ways in profiles.items():
        sorted_sign = _sort_with_sign([h + k for h, k in zip(hist, delta)])
        if sorted_sign is not None:
            shape, sign = sorted_sign
            shapes[shape] = shapes.get(shape, 0) + sign * ways
    return shapes


def _shape_counts_dp(n: int, r: int, d: int, kind: str) -> dict:
    """Shape -> number of half-walks, by adding one strip at a time to
    sorted states, starting from delta.

    Adding every block's count-vector c to y and sorting with sign gives the
    same counts: by Pieri's rule (Stanley, EC2 section 7.15) the terms with
    a tie vanish and those that reorder y cancel against order-keeping
    terms that add no strip to the partition y - delta (read backwards).
    So a "matching" block (h_r) moves y only when it adds a horizontal
    strip, c[j] < y[j+1] - y[j] for j < d - 1, and a "subgraph" block (e_r)
    only when it adds a vertical strip, c[j] - c[j+1] < y[j+1] - y[j].  No
    count is signed or zero.

    A state y is packed into one int, coordinate j as the digit of base**j
    with base = rn + d + 1; no entry reaches rn + d, so no digit carries and
    a move adds c's code to the key.  Whether c is a strip depends only on
    y's gaps capped at cap = 1 + the largest entry of any c, so the test is
    paid once per gap class and block, in a table that lives for one call.

    A state finds its strip codes by its packed gaps, key // base minus
    key % base**(d-1): digit j is y[j+1] - y[j] >= 1, so the subtraction
    never borrows.  Only a miss in that lookup decodes the gap digits, caps
    them and reads (or builds) the class's entry; both dicts share the one
    code list per class.  A miss decodes only the state that missed, so no
    state is decoded more than once per step.
    """
    increments = [counts for _, counts in _block_choices(d, r, kind)]
    base = n * r + d + 1
    powers = [base**j for j in range(d)]
    # d = 0 has no gaps: every key is 0 and so is its gap key
    low = powers[-1] if powers else 1
    cap = 1 + max(map(max, increments), default=0)
    capped = [min(gap, cap) for gap in range(base)]
    table: dict[tuple[int, ...], list[int]] = {}
    by_gaps: dict[int, list[int]] = {}

    def is_strip(c, gaps) -> bool:
        steps = c if kind == "matching" else map(sub, c, c[1:])
        return all(map(lt, steps, gaps))

    shapes = {sum(map(mul, range(d), powers)): 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, ways in shapes.items():
            packed = key // base - key % low
            codes = by_gaps.get(packed)
            if codes is None:
                gaps = tuple(capped[packed // p % base] for p in powers[:-1])
                codes = table.get(gaps)
                if codes is None:
                    codes = table[gaps] = [
                        sum(map(mul, c, powers)) for c in increments if is_strip(c, gaps)
                    ]
                by_gaps[packed] = codes
            for code in codes:
                k = key + code
                nxt[k] = get(k, 0) + ways
        shapes = nxt
    return {
        tuple(key // p % base for p in powers): ways for key, ways in shapes.items()
    }


def signed_walk_cost(n: int, r: int, d: int, kind: str) -> int:
    """Upper bound on the work of `signed_walk_sum`, with either counter:
    n steps that each add every block to every state, where a step starts
    from at most min(blocks**k, C(rn+d, d)) states after k earlier steps.
    The states are histograms for "enumerate" and shapes for "dp".  A strip
    is a block, so the dp's moves are among those counted.  Its move table
    does not change the bound: it tests each block once per gap class, and
    a class is built only when a shape of it is first met, so the table adds
    at most one pass of classes x blocks, which is no more than the
    shape x block transitions counted here.  Its lookup by packed gaps does
    not change it either: each state costs one lookup, and a miss decodes
    that one state, so the decoding is at most one pass over the states."""
    check_kind(kind)
    blocks = comb(d + r - 1, r) if kind == "matching" else comb(d, r)
    return n * blocks * min(blocks ** (n - 1), comb(n * r + d, d)) if n else 0


def signed_walk_sum(
    n: int,
    r: int,
    d: int,
    kind: str = "matching",
    counter: str = "dp",
) -> int:
    """Signed count of restricted representative walks over all Toeplitz
    endpoints: sum over pi of sgn(pi) |{walks of length 2rn to T(pi)}|.

    Evaluated as the sum of c(y)^2 over shapes y (see the module docstring),
    which holds because both kinds of block are symmetric in the d
    directions.  Counter "enumerate" tallies the half-walks by direction
    histogram, convolving the block count-vectors, and folds the tally into
    shapes once, at the end; counter "dp" adds one strip at a time to shape
    counts (Pieri's rule) and never forms a histogram or a sign.
    """
    check_count_params(n, r, d)
    if counter == "enumerate":
        shapes = _fold_into_shapes(_half_profiles_enumerate(n, r, d, kind), d)
    elif counter == "dp":
        shapes = _shape_counts_dp(n, r, d, kind)
    else:
        raise ValueError(f"unknown counter {counter!r}")
    return sum(c * c for c in shapes.values())


def all_walks_cost(m: int, d: int) -> int:
    """Upper bound on the work of `count_all_walks_signed`: m steps that
    each move every shape 2d ways.  After k <= m steps a shape y has
    y - delta weakly increasing with l1 norm <= k, so its entries lie in
    [-m, m], which allows C(2m + d, d) sequences, and its negative and
    positive parts are two partitions whose sizes sum to at most m, which
    allows the sum of p(a) p(b) over a + b <= m, with p the partition
    count."""
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for k in range(part, m + 1):
            p[k] += p[k - part]
    pairs = sum(map(mul, p, reversed(list(accumulate(p)))))
    return 2 * m * d * min(comb(2 * m + d, d), pairs)


def count_all_walks_signed(m: int, d: int) -> int:
    """Signed count over *all* walks of length 2m (every interleaving of
    positive and negative steps) ending at Toeplitz points.

    The step set is symmetric, so the number of walks to p equals the number
    to -p, and -T(pi) + delta is pi - 1 in one-line notation: the count is
    the signed number of walks from delta to a permutation of delta.  The
    step set is also closed under permuting directions, so the dynamic
    program runs on sorted shapes, starting from delta, and, like
    `_shape_counts_dp`, keeps only the moves that leave the shape sorted.
    A unit step cannot carry an entry past its neighbour: it either keeps
    the shape sorted (sign +1) or makes a tie, whose terms cancel.  So the count is the number of closed walks from delta that
    keep the entries strictly increasing.  Such a walk splits at step m
    into two walks of length m from delta to one shape y, the second one
    reversed, which the symmetric step set allows; with a(y) the number of
    length-m walks from delta to y, the count is the sum of a(y)^2."""
    check_length_params(m, d)
    shapes: dict[tuple[int, ...], int] = {tuple(range(d)): 1}
    for _ in range(m):
        nxt: dict[tuple[int, ...], int] = {}
        for shape, ways in shapes.items():
            for j, y in enumerate(shape):
                if j == 0 or shape[j - 1] < y - 1:
                    key = shape[:j] + (y - 1,) + shape[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + ways
                if j == d - 1 or y + 1 < shape[j + 1]:
                    key = shape[:j] + (y + 1,) + shape[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + ways
        shapes = nxt
    return sum(c * c for c in shapes.values())


# ------------------------------------------------- configuration <-> walks


def profile_walk(perm, d: int | None = None) -> Walk:
    """The walk of prefix matching sizes: positive step values are the
    largest-planar-matching sizes up to each left node, negative step values
    the same over right nodes.  Always a closed representative walk."""
    prof = planar_matching_profile(perm)
    if d is None:
        d = max(1, prof.largest)
    return Walk(d=d, pos=prof.left, neg=prof.right)


def _value_positions(values) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, v in enumerate(values, start=1):
        out.setdefault(v, []).append(i)
    return out


def crossing_pairing(w: Walk) -> QuasiConfiguration:
    """Pair equal-valued step sets "in a crossing way".

    For each value k, let A be the positive positions with value k and B the
    negative ones.  The first min(|A|,|B|) elements of A (respectively the
    last min(|A|,|B|) of B, when B is longer) are joined first-to-last, so
    that any two edges from the same value cross.  The result is a complete
    pairing exactly when the walk is closed.

    So the i-th positive k is joined to the i-th-to-last negative k, when
    there is one, and the pairs come out in left-node order.
    """
    if len(w.pos) != len(w.neg):
        raise ValueError("need equally many positive and negative steps")
    at = _value_positions(w.neg)
    seen: dict[int, int] = {}
    pairs = []
    for a, k in enumerate(w.pos, start=1):
        i = seen[k] = seen.get(k, 0) + 1
        b = at.get(k, ())
        if i <= len(b):
            pairs.append((a, b[-i]))
    return QuasiConfiguration(m=len(w.pos), pairs=tuple(pairs))


def occurrence_profile(w: Walk) -> OccurrenceProfile:
    same = []
    lower = []
    counts: dict[int, int] = {}
    for v in w.pos:
        counts[v] = counts.get(v, 0) + 1
        same.append(counts[v])
        lower.append(counts.get(v - 1, 0))
    return OccurrenceProfile(tuple(same), tuple(lower))


def profile_violations(w: Walk) -> tuple[int, ...]:
    """Positive positions at which the walk fails to look like a prefix
    matching profile.

    Position u with value c > 1 is fine iff: some c-1 occurs weakly before u
    (lower count l > 0), the k-th-to-last occurrence of c among the negative
    steps exists (k = occurrences of c up to u), and the l-th-to-last
    occurrence of c-1 among the negative steps, if it exists, comes earlier.
    """
    return tuple(u for u, _, _ in _profile_violations(w, _value_positions(w.neg)))


def _profile_violations(w: Walk, at) -> Iterator[tuple[int, int, int]]:
    """(u, c, l) for each position of `profile_violations`, lazily, in
    order: its value c and lower count l, read off the positive prefix as
    `occurrence_profile` counts them, given the positions of each value
    among the negative steps (`_value_positions`), so the k-th-to-last c
    is at[c][-k].  A caller that needs only the first violation stops
    reading there."""
    counts: dict[int, int] = {}
    for u, c in enumerate(w.pos, start=1):
        k = counts[c] = counts.get(c, 0) + 1
        if c == 1:
            continue
        l = counts.get(c - 1, 0)
        anchors = at.get(c, ())
        if l == 0 or len(anchors) < k:
            yield u, c, l
            continue
        earlier = at.get(c - 1, ())
        if len(earlier) >= l and earlier[-l] > anchors[-k]:
            yield u, c, l


def is_profile_walk(w: Walk) -> bool:
    """Positional test for being a prefix matching profile.

    Among representative walks ending at Toeplitz points this accepts
    exactly the images of the profile map (and such walks are necessarily
    closed); with an arbitrary endpoint the test can hold vacuously.  It
    stops at the first violation.
    """
    return (
        len(w.pos) == len(w.neg)
        and next(_profile_violations(w, _value_positions(w.neg)), None) is None
    )


# ------------------------------------------------------------- involutions


def _toeplitz_preimage(point) -> tuple[int, ...]:
    """The permutation pi with T(pi) = point; raises if there is none."""
    return check_permutation(tuple(j - point[j - 1] for j in range(1, len(point) + 1)))


def _swap_in_blocks(
    half: tuple[int, ...], lo: int, hi: int, high: int, r: int, descending: bool
) -> tuple[int, ...]:
    """Swap the multiplicities of `high` and `high-1` on the 0-based range
    [lo, hi) of a half, inside every block of r positions, writing the
    larger value first (descending) or last.

    Every block of the half must already be monotone in that direction, so
    a block's piece of the range holds its high-1's and high's next to each
    other: exchanging the two values over the whole range, then sorting each
    piece again, swaps their multiplicities in every block at once."""
    low = high - 1
    out = list(half)
    out[lo:hi] = [low + high - v if low <= v <= high else v for v in out[lo:hi]]
    if r > 1:
        cuts = [lo, *range(lo - lo % r + r, hi, r), hi]
        for start, stop in pairwise(cuts):
            out[start:stop] = sorted(out[start:stop], reverse=descending)
    return tuple(out)


def nonprofile_involution(w: Walk, r: int) -> Walk:
    """Sign-reversing involution on restricted walks that are not prefix
    matching profiles.

    At the first failing positive position u (value c), the positive prefix
    up to u and the negative suffix from the l-th-to-last occurrence of c-1
    onwards stay fixed; everywhere else the step multiplicities of c and c-1
    are swapped block by block, larger value first.  The endpoint permutation
    is composed with the transposition of c-1 and c, flipping its sign.
    """
    m = len(w.pos)
    if len(w.neg) != m or m % r:
        raise ValueError("need rn positive and rn negative steps")
    if not in_restricted_family(w, r, "matching"):
        raise ValueError("walk does not satisfy the block conditions")
    _toeplitz_preimage(endpoint(w))
    at = _value_positions(w.neg)
    first = next(_profile_violations(w, at), None)
    if first is None:
        raise ValueError("walk is a prefix matching profile; not in the domain")
    u, c, l = first
    if l == 0:
        v_bar = m + 1
    elif len(at.get(c - 1, ())) < l:
        raise ValueError("no anchor position; endpoint is not a Toeplitz point")
    else:
        v_bar = at[c - 1][-l]

    pos = _swap_in_blocks(w.pos, u, m, c, r, descending=True)
    neg = _swap_in_blocks(w.neg, 0, v_bar - 1, c, r, descending=True)
    return Walk(d=w.d, pos=pos, neg=neg)


def translated_exit(w: Walk) -> tuple[int, int] | None:
    """First step index t (1-based) at which the walk, translated to start at
    (d-1, d-2, ..., 0), leaves the strict region x_1 > ... > x_d, together
    with the unique coordinate j where equality x_j = x_{j+1} occurs.
    None if the walk stays strictly ordered throughout.  A unit step from a
    strictly ordered point can only tie the moved coordinate with the
    neighbour it moves towards, so the exit is always that one tie."""
    point = list(range(w.d - 1, -1, -1))
    for t, j in enumerate(w.pos, start=1):
        point[j - 1] += 1
        if j > 1 and point[j - 2] == point[j - 1]:
            return t, j - 1
    for t, j in enumerate(w.neg, start=len(w.pos) + 1):
        point[j - 1] -= 1
        if j < w.d and point[j - 1] == point[j]:
            return t, j
    return None


def offregion_involution(w: Walk, r: int) -> Walk:
    """Sign-reversing involution on reversed-family walks that leave the
    dominance region.

    The prefix up to the first exit time t is kept; after t the step
    multiplicities of the tied directions j and j+1 are swapped inside every
    block of r positions, writing j+1 first in positive blocks and last in
    negative blocks.  The endpoint coordinates j and j+1 swap, so the
    endpoint permutation changes by a transposition.
    """
    m = len(w.pos)
    if len(w.neg) != m or m % r:
        raise ValueError("need rn positive and rn negative steps")
    if not in_reversed_family(w, r):
        raise ValueError("walk does not satisfy the reversed block conditions")
    _toeplitz_preimage(endpoint(w))
    exit_info = translated_exit(w)
    if exit_info is None:
        raise ValueError("walk stays in the region; not in the domain")
    t, j = exit_info

    pos = _swap_in_blocks(w.pos, min(t, m), m, j + 1, r, descending=True)
    neg = _swap_in_blocks(w.neg, max(t - m, 0), m, j + 1, r, descending=False)
    return Walk(d=w.d, pos=pos, neg=neg)


# ------------------------------------------- pruned audit-grade enumerators


def iter_profile_walks(n: int, r: int, d: int):
    """Every restricted walk of length 2rn ending at a Toeplitz point that is
    a prefix matching profile, each half grown as a list one step at a time.

    Sound prunes only: a positive value c > 1 needs an earlier c-1 (else the
    lower count is zero), so each positive value is at most one more than
    the largest before it; every positive value needs as many negative
    copies as its positive count (the k-th-to-last occurrences must exist),
    which with a Toeplitz endpoint forces the negative half to be a
    rearrangement of the positive half; and the before/after order of the
    profile test is checked as each negative step is placed, back to front.
    Positive halves come in lexicographic order, and for each the negative
    halves in lexicographic order of their reversal.
    """
    check_count_params(n, r, d)
    m = n * r
    # (half, its largest value); blocks weakly decrease
    positives = [((), 0)]
    for i in range(m):
        positives = [
            (a + (v,), max(top, v))
            for a, top in positives
            for v in range(1, min(d, top + 1, a[-1] if i % r else d) + 1)
        ]
    for a, _ in positives:
        same, lower = occurrence_profile(Walk(d, a, ()))
        # a positive position with value c > 1, same-count k and lower-count
        # l needs the l-th-to-last c-1 of the negative half before its
        # k-th-to-last c.  Filled back to front, that c-1 is placed too late
        # iff fewer than k c's are placed, so need keeps the largest k.
        need: dict[tuple[int, int], int] = {}
        for c, k, l in zip(a, same, lower):
            if c > 1 and k > need.get((c - 1, l), 0):
                need[(c - 1, l)] = k
        counts = Counter(a)
        values = sorted(counts)
        # the negative tails, positions p..m, each with its value counts
        # (index v counts v; index d + 1 stays 0); blocks weakly decrease
        tails = [((), (0,) * (d + 2))]
        for p in range(m, 0, -1):
            tails = [
                ((v,) + tail, seen[:v] + (seen[v] + 1,) + seen[v + 1 :])
                for tail, seen in tails
                for v in values
                if (p % r == 0 or v >= tail[0])
                and seen[v] < counts[v]
                and seen[v + 1] >= need.get((v, seen[v] + 1), 0)
            ]
        for b, _ in tails:
            yield Walk(d=d, pos=a, neg=b)


def region_halves(
    n: int, r: int, d: int
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Endpoint -> the positive halves of length rn, blocks weakly
    decreasing, that stay in the dominance region x_1 >= ... >= x_d, each
    group in lexicographic order.  The halves are grown one step at a time;
    a step in direction v > 1 is allowed while x_v < x_(v-1).  Grouped by
    endpoint, they are the column words of the standard tableaux with strict
    block descents, one group per shape."""
    check_count_params(n, r, d)
    halves = [((), (0,) * d)]
    for i in range(n * r):
        halves = [
            (values + (v,), point[: v - 1] + (point[v - 1] + 1,) + point[v:])
            for values, point in halves
            for v in range(1, (values[-1] if i % r else d) + 1)
            if v == 1 or point[v - 1] < point[v - 2]
        ]
    by_end: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for values, point in halves:
        by_end.setdefault(point, []).append(values)
    return by_end


def iter_region_walks(n: int, r: int, d: int) -> Iterator[Walk]:
    """Every closed reversed-family walk of length 2rn staying in the
    dominance region x_1 >= ... >= x_d: each half of `region_halves`, in
    lexicographic order, followed by every reversed half with its endpoint,
    in lexicographic order.

    The reversal lemma: the negative steps of such a walk go from its
    midpoint lambda back to 0 through the points that the reversed word
    visits on its way from 0 to lambda, so one stays in the region exactly
    when the other does.  Their negative blocks weakly increase exactly when
    the reversed word's blocks weakly decrease: r divides rn, so reversing
    the word maps its blocks onto blocks, each one reversed."""
    halves = region_halves(n, r, d)
    reversed_halves = {
        end: sorted(h[::-1] for h in group) for end, group in halves.items()
    }
    for pos, end in sorted((h, end) for end, group in halves.items() for h in group):
        for neg in reversed_halves[end]:
            yield Walk(d=d, pos=pos, neg=neg)
