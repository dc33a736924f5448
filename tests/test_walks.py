import gc
from collections import Counter
from functools import lru_cache
from itertools import compress, permutations, product
from math import comb, factorial
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from planarcount.graphs import (
    count_bounded_lis,
    count_bounded_matching,
    planar_matching_profile,
)
from planarcount.perms import perm_sign
from planarcount.tableaux import iter_partitions
from planarcount.walks import (
    QuasiConfiguration,
    Walk,
    _block_choices,
    _fold_into_shapes,
    _half_profiles_enumerate,
    _profile_violations,
    _shape_counts_dp,
    _sort_with_sign,
    _value_positions,
    all_walks_cost,
    count_all_walks_signed,
    crossing_pairing,
    endpoint,
    in_restricted_family,
    in_reversed_family,
    is_profile_walk,
    iter_profile_walks,
    iter_region_walks,
    iter_restricted_family,
    iter_restricted_walks,
    iter_toeplitz,
    nonprofile_involution,
    occurrence_profile,
    offregion_involution,
    profile_violations,
    profile_walk,
    region_halves,
    restricted_halves,
    reverse_negative_half,
    signed_walk_cost,
    signed_walk_sum,
    stays_in_dominance_region,
    strictly_increasing_blocks,
    toeplitz_point,
    translated_exit,
    walk_steps,
    weakly_decreasing_blocks,
)

WORKED_LIFT = (6, 4, 2, 1, 5, 3)


def is_toeplitz_point(point):
    """True when point = (1 - pi(1), ..., d - pi(d)) for a permutation pi."""
    values = [j - point[j - 1] for j in range(1, len(point) + 1)]
    return sorted(values) == list(range(1, len(point) + 1))
WORKED_WALK = Walk.from_text("111122|112121")


def all_representative_walks(m, d):
    """Every representative walk with m positive and m negative steps."""
    values = range(1, d + 1)
    for pos in product(values, repeat=m):
        for neg in product(values, repeat=m):
            yield Walk(d=d, pos=pos, neg=neg)


# ------------------------------------------------------------------- basics


def test_walk_text_round_trip():
    assert WORKED_WALK.pos == (1, 1, 1, 1, 2, 2)
    assert WORKED_WALK.neg == (1, 1, 2, 1, 2, 1)
    assert WORKED_WALK.to_text() == "111122|112121"
    big = Walk(d=11, pos=(1, 11), neg=(2,))
    assert Walk.from_text(big.to_text(), d=11) == big
    with pytest.raises(ValueError):
        Walk.from_text("11|2|1")
    with pytest.raises(ValueError):
        Walk(d=2, pos=(3,), neg=())


def test_walk_rejection_names_first_bad_step():
    for pos, neg, bad in [((3,), (), 3), ((1, 0, 5), (), 0), ((2,), (1, 4, -1), 4)]:
        with pytest.raises(ValueError, match=rf"^step direction {bad} outside \[1, 2\]$"):
            Walk(d=2, pos=pos, neg=neg)
    with pytest.raises(ValueError, match="^dimension must be >= 0$"):
        Walk(d=-1, pos=(), neg=())
    assert Walk(d=0, pos=(), neg=()).to_text() == "|"


def test_toeplitz_points():
    assert toeplitz_point((1, 2, 3)) == (0, 0, 0)
    assert toeplitz_point((2, 1)) == (-1, 1)
    assert toeplitz_point((2, 3, 1)) == (-1, -1, 2)
    points = list(iter_toeplitz(3))
    assert len(points) == 6
    assert sum(sign for _, _, sign in points) == 0


def test_endpoint_examples():
    assert endpoint(Walk(d=2, pos=(), neg=())) == (0, 0)
    assert endpoint(WORKED_WALK) == (0, 0)
    assert endpoint(Walk(d=2, pos=(1, 2), neg=(2,))) == (1, 0)


def test_dominance_region():
    assert stays_in_dominance_region(Walk(d=2, pos=(1, 1, 2, 1), neg=()))
    assert not stays_in_dominance_region(Walk(d=2, pos=(2,), neg=()))
    assert stays_in_dominance_region(Walk(d=3, pos=(), neg=()))


def prefix_point_region_test(w):
    """The dominance region by its definition: every visited point, the
    start included, has x_1 >= x_2 >= ... >= x_d."""
    point = [0] * w.d
    points = [tuple(point)]
    for v, step in [(v, 1) for v in w.pos] + [(v, -1) for v in w.neg]:
        point[v - 1] += step
        points.append(tuple(point))
    return all(all(p[i] >= p[i + 1] for i in range(w.d - 1)) for p in points)


def two_length_reversed_family(w, r):
    """The reversed family by its definition: equal halves of a multiple of
    r steps, weakly decreasing positive blocks and weakly increasing
    negative blocks."""
    if len(w.pos) != len(w.neg) or len(w.pos) % r:
        return False
    return weakly_decreasing_blocks(w.pos, r) and weakly_decreasing_blocks(
        w.neg[::-1], r
    )


def small_walks():
    """Every walk with d <= 4, at most 4 positive and at most 3 negative
    steps."""
    for d in range(5):
        for p, q in product(range(5), range(4)):
            for pos in product(range(1, d + 1), repeat=p):
                for neg in product(range(1, d + 1), repeat=q):
                    yield Walk(d=d, pos=pos, neg=neg)


def test_region_and_reversed_family_match_their_definitions():
    walks = 0
    for w in small_walks():
        assert stays_in_dominance_region(w) == prefix_point_region_test(w), w.to_text()
        for r in (1, 2, 3):
            assert in_reversed_family(w, r) == two_length_reversed_family(w, r)
        walks += 1
    assert walks == 34_311


def test_reverse_negative_half():
    w = Walk(d=2, pos=(1, 1, 2, 1), neg=(1, 1, 2, 1))
    assert reverse_negative_half(w).neg == (1, 2, 1, 1)
    assert reverse_negative_half(reverse_negative_half(w)) == w
    pal = Walk(d=2, pos=(1, 2), neg=(1, 2, 1))
    assert reverse_negative_half(pal).neg == (1, 2, 1)
    for w in all_representative_walks(3, 2):
        assert reverse_negative_half(reverse_negative_half(w)) == w


# ------------------------------------------------------- restricted families


def test_restricted_walks_single_step_blocks():
    for d in (1, 2, 3):
        walks = list(iter_restricted_walks(1, 1, d, tuple(range(1, d + 1))))
        assert sorted(w.pos for w in walks) == [(v,) for v in range(1, d + 1)]
        for w in walks:
            assert w.pos == w.neg
    with pytest.raises(ValueError):  # endpoint permutation of the wrong length
        list(iter_restricted_walks(2, 1, 3, (2, 1)))


def test_worked_walk_is_in_matching_family():
    assert in_restricted_family(WORKED_WALK, 2, "matching")
    assert endpoint(WORKED_WALK) == (0, 0)
    family = list(iter_restricted_walks(3, 2, 2, (1, 2)))
    assert WORKED_WALK in family


def test_restricted_walks_one_block_pair():
    walks = list(iter_restricted_walks(1, 2, 2, (1, 2)))
    assert {w.to_text() for w in walks} == {"11|11", "21|21", "22|22"}


def test_subgraph_walks_examples():
    assert list(iter_restricted_walks(1, 2, 1, (1,), "subgraph")) == []
    walks = list(iter_restricted_walks(1, 2, 2, (1, 2), "subgraph"))
    assert [w.to_text() for w in walks] == ["12|12"]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_one_regular_families_agree(n, d):
    for pi, _, _ in iter_toeplitz(d, 2 * n):
        a = list(iter_restricted_walks(n, 1, d, pi, "matching"))
        b = list(iter_restricted_walks(n, 1, d, pi, "subgraph"))
        assert a == b


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 3)])
def test_enumerated_walks_against_raw_filter(n, r, d):
    m = n * r
    for pi, point, _ in iter_toeplitz(d, 2 * m):
        expected = sorted(
            (w.pos, w.neg)
            for w in all_representative_walks(m, d)
            if endpoint(w) == point and in_restricted_family(w, r, "matching")
        )
        got = sorted(
            (w.pos, w.neg) for w in iter_restricted_walks(n, r, d, pi, "matching")
        )
        assert got == expected


def reference_restricted_walks(n, r, d, kind):
    """Toeplitz pi -> restricted walks ending at T(pi), in order, from every
    pair of block sequences taken by `itertools.product`.  A histogram is
    packed into one int in base 2(rn + d) + 1, so the difference of two
    codes is the code of the endpoint, digit by digit."""
    blocks = _block_choices(d, r, kind)
    base = 2 * (n * r + d) + 1
    halves = []
    for seq in product(blocks, repeat=n):
        values = tuple(v for block, _ in seq for v in block)
        hist = [sum(counts[j] for _, counts in seq) for j in range(d)]
        halves.append((values, sum(h * base**j for j, h in enumerate(hist))))
    codes = [code for _, code in halves]
    points = {
        sum(t * base**j for j, t in enumerate(point)): pi
        for pi, point, _ in iter_toeplitz(d)
    }
    walks = {pi: [] for pi in points.values()}
    for pos, code in halves:
        hits = map(points.__contains__, map(code.__sub__, codes))
        for neg, neg_code in compress(halves, hits):
            walks[points[code - neg_code]].append(Walk(d=d, pos=pos, neg=neg))
    return walks


@pytest.mark.parametrize("kind", ["matching", "subgraph"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_restricted_walks_match_product_reference_in_order(r, kind):
    # rn <= 6 and d <= 4, but for (6, 1, 4): its 2.8 million walks would
    # take about 10 s per kind here
    for n in range(6 // r + 1):
        for d in range(5):
            if (n * r, d) == (6, 4):
                continue
            expected = reference_restricted_walks(n, r, d, kind)
            for pi, _, _ in iter_toeplitz(d):
                got = list(iter_restricted_walks(n, r, d, pi, kind))
                assert got == expected[pi], (n, r, d, pi)


def test_restricted_walks_validate_params():
    for args in ((-1, 1, 1, (1,)), (2, 0, 1, (1,))):
        with pytest.raises(ValueError, match="need n >= 0, r >= 1, d >= 0"):
            list(iter_restricted_walks(*args))


# ------------------------------------------------------------- signed sums


def test_signed_sum_examples():
    assert signed_walk_sum(2, 2, 2, "matching", "enumerate") == 3
    assert signed_walk_sum(2, 2, 1, "matching", "enumerate") == 1
    assert signed_walk_sum(2, 2, 2, "subgraph", "enumerate") == 1
    assert signed_walk_sum(2, 2, 3, "subgraph", "dp") == 2


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (5, 1), (4, 1)])
def test_signed_sum_counters_agree(n, r):
    for d in range(0, min(n * r, 4) + 1):
        for kind in ("matching", "subgraph"):
            assert signed_walk_sum(n, r, d, kind, "enumerate") == signed_walk_sum(
                n, r, d, kind, "dp"
            )


def test_signed_sum_against_direct_family_count():
    # fold |family| per endpoint directly from the enumerator
    for n, r, d in [(2, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 1)]:
        total = 0
        for pi, _, sign in iter_toeplitz(d, 2 * n * r):
            total += sign * sum(1 for _ in iter_restricted_walks(n, r, d, pi))
        assert total == signed_walk_sum(n, r, d, "matching", "dp")


def toeplitz_join(profiles, d, m):
    """Reference: for every permutation pi of [d], pair the two halves whose
    histograms differ by T(pi), and weight the pairs by sgn(pi)."""
    # at_least[j][t]: the histograms with coordinate j >= t; a positive half
    # h can pair at T only if h >= T, so scanning the largest coordinate's
    # list skips most histograms without changing the sum.  T sums to 0 and
    # has l1 <= 2m, so its largest coordinate lies in [0, m]: in range below
    at_least = [
        [[h for h in profiles if h[j] >= t] for t in range(m + 1)] for j in range(d)
    ]
    total = 0
    for _, point, sign in iter_toeplitz(d, max_l1=2 * m):
        j = max(range(d), key=point.__getitem__, default=None)
        for hist in profiles if j is None else at_least[j][point[j]]:
            other = tuple(h - t for h, t in zip(hist, point))
            if all(x >= 0 for x in other):
                total += sign * profiles[hist] * profiles.get(other, 0)
    return total


# rn <= 6: at rn = 7 and d >= 8 the reference join alone takes minutes
JOIN_GRID = [
    (n, r, d, kind)
    for r in range(1, 5)
    for n in range(0, 6 // r + 1)
    for d in range(0, r * n + 3)
    for kind in ("matching", "subgraph")
]


@pytest.mark.parametrize("n,r,d,kind", JOIN_GRID)
def test_counters_match_reference_toeplitz_join(n, r, d, kind):
    expected = toeplitz_join(_half_profiles_enumerate(n, r, d, kind), d, n * r)
    assert signed_walk_sum(n, r, d, kind, "enumerate") == expected
    assert signed_walk_sum(n, r, d, kind, "dp") == expected


@lru_cache(maxsize=None)
def product_half_profiles(n, d, vectors):
    """Reference: every sequence of n block count-vectors, summed as tuples."""
    zero = (0,) * d
    return Counter(tuple(map(sum, zip(zero, *seq))) for seq in product(vectors, repeat=n))


ENUM_GRID = [
    (n, r, d, kind)
    for r in range(1, 5)
    for n in range(0, 7 // r + 1)
    for d in range(0, r * n + 3)
    for kind in ("matching", "subgraph")
]


@pytest.mark.parametrize("n,r,d,kind", ENUM_GRID)
def test_half_profiles_enumerate_matches_product_reference(n, r, d, kind):
    profiles = _half_profiles_enumerate(n, r, d, kind)
    half_walks = len(_block_choices(d, r, kind)) ** n
    assert sum(profiles.values()) == half_walks
    if r == 1:
        other = "subgraph" if kind == "matching" else "matching"
        assert profiles == _half_profiles_enumerate(n, r, d, other)
    # the reference pays about 3 us a leaf; (7, 1, 8) and (7, 1, 9) would
    # take 20 s, so their histograms are checked above by total and kind only
    if half_walks <= 7**7:
        vectors = tuple(counts for _, counts in _block_choices(d, r, kind))
        assert profiles == product_half_profiles(n, d, vectors)


@pytest.mark.parametrize("n,r,d,kind", ENUM_GRID)
def test_shape_dp_matches_folded_enumeration(n, r, d, kind):
    folded = _fold_into_shapes(_half_profiles_enumerate(n, r, d, kind), d)
    assert _shape_counts_dp(n, r, d, kind) == {y: c for y, c in folded.items() if c}
    assert all(c > 0 for c in _shape_counts_dp(n, r, d, kind).values())


def hook_length_count(shape):
    """Number of standard tableaux of a partition, by the hook length formula."""
    cols = [sum(1 for length in shape if length > j) for j in range(max(shape, default=0))]
    hooks = 1
    for i, length in enumerate(shape):
        for j in range(length):
            hooks *= (length - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // hooks


@pytest.mark.parametrize("n", range(11))
def test_one_regular_shape_dp_is_the_hook_length_formula(n):
    # at r = 1 every strip is one box, so the count at y = mu + delta (mu
    # read backwards) is f^mu, the number of standard tableaux of shape mu
    for d in range(n + 2):
        expected = {
            tuple(map(add, reversed(mu + (0,) * (d - len(mu))), range(d))):
                hook_length_count(mu)
            for mu in iter_partitions(n, n)
            if len(mu) <= d
        }
        for kind in ("matching", "subgraph"):
            assert _shape_counts_dp(n, 1, d, kind) == expected, (d, kind)


@pytest.mark.parametrize("n,r", [(n, r) for r in range(1, 9) for n in range(8 // r + 1)])
def test_shape_dp_counts_the_region_halves_at_each_endpoint(n, r):
    # two independent constructions of one table: the DP's count at
    # y = reversed(e) + delta is the number of region halves ending at e
    for d in range(n * r + 2):
        expected = {
            tuple(map(add, reversed(end), range(d))): len(group)
            for end, group in region_halves(n, r, d).items()
        }
        assert _shape_counts_dp(n, r, d, "matching") == expected, d


@pytest.mark.parametrize("d", range(6))
def test_sort_with_sign(d):
    for perm in permutations(range(1, d + 1)):
        assert _sort_with_sign(perm) == (tuple(range(1, d + 1)), perm_sign(perm))
    for values in product(range(d), repeat=d):
        if len(set(values)) < d:
            assert _sort_with_sign(values) is None


# Each was computed by the half-walk profile DP and the per-pi Toeplitz join
# before the shape DP replaced both; all but (12, 2, 3) are also pinned by
# the count-large benchmark workload.
PINNED_COUNTS = {
    (8, 1, 8, "matching"): 40320,
    (4, 2, 8, "matching"): 282,
    (5, 3, 6, "matching"): 153040,
    (9, 1, 7, "matching"): 362815,
    (6, 2, 6, "subgraph"): 147168,
    (20, 2, 4, "matching"): 459546848972770902853115363292,
    (12, 3, 4, "matching"): 515122130640069851424,
    (24, 2, 4, "subgraph"): 18916437670848472111903330956,
    (8, 4, 4, "matching"): 131412032096731,
    (30, 2, 3, "matching"): 3932865977000307256438328837465662392981,
    (20, 3, 3, "matching"): 385596508403630628015473409641524,
    (12, 2, 3, "matching"): 13046831372394,
}


@pytest.mark.parametrize("n,r,d,kind", sorted(PINNED_COUNTS))
def test_pinned_large_counts(n, r, d, kind):
    for counter in ("dp", "enumerate"):
        assert signed_walk_sum(n, r, d, kind, counter) == PINNED_COUNTS[(n, r, d, kind)]


def reference_shape_counts_dp(n, r, d, kind):
    """Reference: the shape DP that sorts y + c afresh at every transition."""
    increments = [counts for _, counts in _block_choices(d, r, kind)]
    shapes = {tuple(range(d)): 1}
    for _ in range(n):
        nxt = {}
        for shape, ways in shapes.items():
            for inc in increments:
                sorted_sign = _sort_with_sign([a + b for a, b in zip(shape, inc)])
                if sorted_sign is not None:
                    key, sign = sorted_sign
                    nxt[key] = nxt.get(key, 0) + sign * ways
        shapes = {key: ways for key, ways in nxt.items() if ways}
    return shapes


@st.composite
def dp_sizes(draw):
    """(n, r, d, kind) with n <= 16, r <= 4, d <= 6, n capped so that the
    reference DP's cost estimate stays small."""
    r = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["matching", "subgraph"]))
    n_max = max(n for n in range(17) if signed_walk_cost(n, r, d, kind) <= 10**5)
    return draw(st.integers(0, n_max)), r, d, kind


@given(dp_sizes())
@settings(max_examples=100, deadline=None)
def test_shape_dp_matches_reference_dp(size):
    assert _shape_counts_dp(*size) == reference_shape_counts_dp(*size)


@pytest.mark.parametrize("n,r,d,kind", sorted(PINNED_COUNTS))
def test_shape_dp_matches_reference_dp_at_pinned_sizes(n, r, d, kind):
    assert _shape_counts_dp(n, r, d, kind) == reference_shape_counts_dp(n, r, d, kind)


def reference_half_profiles(n, r, d, kind):
    """Reference: the convolution on tuple-keyed histograms, each block move
    adding the count-vector entry by entry."""
    vectors = [counts for _, counts in _block_choices(d, r, kind)]
    profiles = {(0,) * d: 1}
    for _ in range(n):
        nxt = {}
        for hist, ways in profiles.items():
            for counts in vectors:
                key = tuple(map(add, hist, counts))
                nxt[key] = nxt.get(key, 0) + ways
        profiles = nxt
    return profiles


@given(dp_sizes())
@settings(max_examples=100, deadline=None)
def test_half_profiles_enumerate_matches_tuple_reference(size):
    assert _half_profiles_enumerate(*size) == reference_half_profiles(*size)


@pytest.mark.parametrize("kind", ["matching", "subgraph"])
def test_half_profiles_enumerate_closed_forms(kind):
    # r = 1, d = 2: a histogram (k, n - k) is reached by C(n, k) half-walks,
    # and at k = n its first digit is base - 1, the largest with no carry
    for n in range(41):
        expected = {(k, n - k): comb(n, k) for k in range(n + 1)}
        assert _half_profiles_enumerate(n, 1, 2, kind) == expected, n
    # d = 1: the one matching block is r copies of direction 1, and no
    # subgraph block of r >= 2 distinct directions exists
    for n in range(1, 9):
        for r in range(1, 5):
            expected = {(r * n,): 1} if kind == "matching" or r == 1 else {}
            assert _half_profiles_enumerate(n, r, 1, kind) == expected, (n, r)
    # n = 0: only the empty half-walk, at the origin
    for r in range(1, 5):
        for d in range(7):
            assert _half_profiles_enumerate(0, r, d, kind) == {(0,) * d: 1}, (r, d)


def test_signed_walk_cost():
    assert signed_walk_cost(8, 1, 8, "matching") == 8 * 8 * comb(16, 8)
    assert signed_walk_cost(12, 2, 3, "matching") == 12 * 6 * comb(27, 3)
    assert signed_walk_cost(1, 8, 8, "matching") == comb(15, 8)
    assert signed_walk_cost(0, 2, 3, "subgraph") == 0
    assert signed_walk_cost(3, 2, 1, "subgraph") == 0


def test_signed_walk_sum_rejects_unknown_counter():
    with pytest.raises(ValueError, match=r"^unknown counter 'join'$"):
        signed_walk_sum(2, 2, 2, "matching", "join")


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (3, 1, 3), (1, 2, 2), (2, 2, 3), (4, 1, 4), (5, 1, 3)])
def test_dp_counts_match_enumerator_per_endpoint(n, r, d):
    # the half-walk histograms, joined at one endpoint, count that endpoint's
    # restricted walks
    profiles = _half_profiles_enumerate(n, r, d, "matching")
    for pi, point, _ in iter_toeplitz(d, 2 * n * r):
        expected = sum(1 for _ in iter_restricted_walks(n, r, d, pi, "matching"))
        joined = 0
        for hist, ways in profiles.items():
            other = tuple(h - t for h, t in zip(hist, point))
            if all(x >= 0 for x in other):
                joined += ways * profiles.get(other, 0)
        assert joined == expected, (pi, joined, expected)


def test_all_walks_signed_small():
    # length-2 walks in d=2: four closed, two to the transposition point
    assert count_all_walks_signed(1, 2) == 2
    for d in (1, 2, 3):
        assert count_all_walks_signed(1, d) == 2 if d >= 1 else 0
    assert count_all_walks_signed(0, 2) == 1


def all_walks_toeplitz_join(m, d):
    """Reference: the distribution of all walks of length 2m, read at each
    Toeplitz point T(pi) and weighted by sgn(pi)."""
    dist = {(0,) * d: 1}
    for _ in range(2 * m):
        nxt = {}
        for point, ways in dist.items():
            for j in range(d):
                for step in (1, -1):
                    key = point[:j] + (point[j] + step,) + point[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + ways
        dist = nxt
    return sum(sign * dist.get(point, 0) for _, point, sign in iter_toeplitz(d))


def test_all_walks_cost():
    # 2md times the pairs of partitions of total size <= 3: 1 + 2 + 5 + 10
    assert all_walks_cost(3, 9) == 54 * 18 == 972
    assert all_walks_cost(0, 4) == all_walks_cost(4, 0) == 0
    # never above the Z^d estimate that `verify mot` used before
    for m in range(8):
        for d in range(12):
            assert all_walks_cost(m, d) <= 4 * m * d * (2 * m + 1) ** d


def test_all_walks_cost_bounds_the_moves_made():
    # the strictly increasing shapes reachable from delta in k < m steps,
    # each moved 2d ways, as `count_all_walks_signed` moves them
    for m in range(8):
        for d in range(8):
            shapes, moves = {tuple(range(d))}, 0
            for _ in range(m):
                moves += 2 * d * len(shapes)
                shapes = {
                    s[:j] + (s[j] + step,) + s[j + 1 :]
                    for s in shapes
                    for j in range(d)
                    for step in (1, -1)
                }
                shapes = {s for s in shapes if all(map(int.__lt__, s, s[1:]))}
            assert moves <= all_walks_cost(m, d)


@pytest.mark.parametrize("m", range(5))
def test_all_walks_signed_matches_reference_join(m):
    for d in range(7):
        expected = all_walks_toeplitz_join(m, d)
        assert count_all_walks_signed(m, d) == expected
        assert expected == comb(2 * m, m) * count_bounded_lis(m, d)


# ------------------------------------------------------------ profile walks


def test_profile_walk_examples():
    assert profile_walk(WORKED_LIFT).to_text() == "111122|112121"
    assert profile_walk((2, 1)).to_text() == "11|11"
    assert profile_walk((1, 2, 3)).to_text() == "123|123"


def test_crossing_pairing_worked_example():
    qc = crossing_pairing(Walk.from_text("112122|122122"))
    assert qc.pairs == ((1, 4), (2, 1), (3, 6), (5, 5), (6, 3))
    assert qc.unmatched_left() == (4,)
    assert qc.unmatched_right() == (2,)
    assert not qc.is_complete


@pytest.mark.parametrize(
    "m,pairs,message",
    [
        # the first input also leaves [m], so the injectivity check wins
        (1, ((2, 1), (2, 1)), "pairing must be injective"),
        (2, ((1, 2), (2, 2)), "pairing must be injective"),
        (1, ((0, 1),), "nodes must lie in \\[m\\]"),
        (2, ((1, 3),), "nodes must lie in \\[m\\]"),
    ],
)
def test_quasi_configuration_rejections_in_check_order(m, pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuasiConfiguration(m=m, pairs=pairs)


def test_crossing_pairing_small():
    qc = crossing_pairing(Walk.from_text("11|11"))
    assert qc.as_permutation() == (2, 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_crossing_inverts_profile_walk(m):
    for perm in permutations(range(1, m + 1)):
        w = profile_walk(perm)
        assert crossing_pairing(w).as_permutation() == perm


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4)])
def test_crossing_complete_iff_closed(m, d):
    origin = (0,) * d
    for w in all_representative_walks(m, d):
        assert crossing_pairing(w).is_complete == (endpoint(w) == origin)


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (3, 3)])
def test_positive_steps_agree_iff_walks_equal(m, d):
    origin = (0,) * d
    for w in all_representative_walks(m, d):
        if endpoint(w) != origin:
            continue
        again = profile_walk(crossing_pairing(w).as_permutation(), d=d)
        assert (again.pos == w.pos) == (again == w)


# -------------------------------------------------------------- condition on k/l


def test_occurrence_profile_table():
    prof = occurrence_profile(WORKED_WALK)
    assert prof.same == (1, 2, 3, 4, 1, 2)
    assert prof.lower == (0, 0, 0, 0, 4, 4)
    assert occurrence_profile(Walk.from_text("12|21")) == ((1, 1), (0, 1))


def test_profile_condition_examples():
    assert is_profile_walk(WORKED_WALK)
    assert not is_profile_walk(Walk.from_text("12|21"))
    assert is_profile_walk(Walk.from_text("1|1"))
    assert profile_violations(Walk.from_text("12|21")) == (2,)


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_profile_condition_characterizes_images(m, d):
    # among Toeplitz-ending walks the positional test must accept exactly
    # the prefix-profile walks; profiles are always closed
    images = {
        profile_walk(perm, d=d)
        for perm in permutations(range(1, m + 1))
        if planar_matching_profile(perm).largest <= d
    }
    for w in all_representative_walks(m, d):
        pairing = crossing_pairing(w)
        truth = False
        if pairing.is_complete:
            prof = planar_matching_profile(pairing.as_permutation())
            truth = prof.left == w.pos and prof.right == w.neg
        if is_toeplitz_point(endpoint(w)):
            assert is_profile_walk(w) == truth, w.to_text()
        else:
            assert not truth, w.to_text()
        if truth:
            assert w in images


# ----------------------------------------------------------- involution (second)


@given(
    st.integers(0, 40).flatmap(lambda m: st.permutations(list(range(1, m + 1))))
)
@settings(max_examples=100, deadline=None)
def test_profile_lemma_to_40(perm):
    perm = tuple(perm)
    w = profile_walk(perm)
    assert profile_violations(w) == ()
    assert crossing_pairing(w).as_permutation() == perm


def test_nonprofile_involution_hand_example():
    w = Walk.from_text("12|21")
    out = nonprofile_involution(w, 1)
    assert out.to_text() == "12|11"
    assert endpoint(out) == (-1, 1)
    assert nonprofile_involution(out, 1) == w


def test_nonprofile_involution_rejects_profiles():
    with pytest.raises(ValueError):
        nonprofile_involution(WORKED_WALK, 2)
    with pytest.raises(ValueError):
        nonprofile_involution(Walk.from_text("12|12"), 1)
    with pytest.raises(ValueError):   # endpoint not a Toeplitz point
        nonprofile_involution(Walk.from_text("21|22"), 1)


def toeplitz_sign_of(w):
    point = endpoint(w)
    pi = tuple(j - point[j - 1] for j in range(1, w.d + 1))
    return perm_sign(pi)


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (3, 1, 2), (1, 2, 2), (2, 2, 2), (1, 3, 3), (2, 2, 3)])
def test_nonprofile_involution_is_sign_reversing(n, r, d):
    domain = set()
    for pi, _, _ in iter_toeplitz(d, 2 * n * r):
        for w in iter_restricted_walks(n, r, d, pi, "matching"):
            if profile_violations(w):
                domain.add(w)
    assert sum(toeplitz_sign_of(w) for w in domain) == 0
    for w in domain:
        out = nonprofile_involution(w, r)
        assert out in domain
        assert out != w
        assert in_restricted_family(out, r, "matching")
        assert toeplitz_sign_of(out) == -toeplitz_sign_of(w)
        assert profile_violations(out)[0] == profile_violations(w)[0]
        assert nonprofile_involution(out, r) == w


# ------------------------------------------------------------ involution (first)


def test_translated_exit_examples():
    # walk 2|2 in d=2: from start (1,0) the first step reaches (1,1)
    w = Walk(d=2, pos=(2,), neg=(2,))
    assert translated_exit(w) == (1, 1)
    assert translated_exit(Walk(d=2, pos=(1,), neg=(1,))) is None
    tilde = reverse_negative_half(WORKED_WALK)
    assert translated_exit(tilde) is None  # corresponds to a real graph


def test_offregion_involution_hand_example():
    w = Walk(d=2, pos=(2,), neg=(2,))
    out = offregion_involution(w, 1)
    assert out == Walk(d=2, pos=(2,), neg=(1,))
    assert endpoint(out) == (-1, 1)
    assert offregion_involution(out, 1) == w
    with pytest.raises(ValueError):
        offregion_involution(Walk(d=2, pos=(1,), neg=(1,)), 1)


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (3, 1, 2), (1, 2, 2), (2, 2, 2), (1, 3, 3), (4, 1, 2), (2, 2, 3)])
def test_offregion_involution_is_sign_reversing(n, r, d):
    domain = set()
    for pi, _, _ in iter_toeplitz(d, 2 * n * r):
        for w in iter_restricted_walks(n, r, d, pi, "matching"):
            wt = reverse_negative_half(w)
            if translated_exit(wt) is not None:
                domain.add(wt)
    assert sum(toeplitz_sign_of(w) for w in domain) == 0
    for w in domain:
        out = offregion_involution(w, r)
        assert out in domain
        assert out != w
        assert in_reversed_family(out, r)
        assert toeplitz_sign_of(out) == -toeplitz_sign_of(w)
        assert translated_exit(out) == translated_exit(w)
        assert offregion_involution(out, r) == w


# ------------------------------------------------- involutions, block by block


def reference_reassign_block(values, positions, high, hi_first):
    """Swap the multiplicities of `high` and `high-1` on `positions` (1-based),
    writing the larger value first (hi_first) or last."""
    if not positions:
        return
    n_high = sum(1 for s in positions if values[s - 1] == high)
    n_low = len(positions) - n_high
    if hi_first:
        new_vals = [high] * n_low + [high - 1] * n_high
    else:
        new_vals = [high - 1] * n_high + [high] * n_low
    for s, v in zip(positions, new_vals):
        values[s - 1] = v


def reference_nonprofile_involution(w, r):
    """The second involution rewritten one block at a time, on a walk of its
    domain."""
    m = len(w.pos)
    u = profile_violations(w)[0]
    c = w.pos[u - 1]
    l = occurrence_profile(w).lower[u - 1]
    at = [s for s, v in enumerate(w.neg, start=1) if v == c - 1]
    v_bar = m + 1 if l == 0 else at[-l]
    new_pos, new_neg = list(w.pos), list(w.neg)
    for i in range(m // r):
        block = range(i * r + 1, (i + 1) * r + 1)
        pos_positions = [s for s in block if s > u and w.pos[s - 1] in (c - 1, c)]
        reference_reassign_block(new_pos, pos_positions, c, hi_first=True)
        neg_positions = [
            s for s in block if s < v_bar and w.neg[s - 1] in (c - 1, c)
        ]
        reference_reassign_block(new_neg, neg_positions, c, hi_first=True)
    return Walk(d=w.d, pos=tuple(new_pos), neg=tuple(new_neg))


def reference_offregion_involution(w, r):
    """The first involution rewritten one block at a time, on a walk of its
    domain."""
    m = len(w.pos)
    t, j = translated_exit(w)
    values = list(w.pos) + list(w.neg)
    for i in range(2 * m // r):
        block = range(i * r + 1, (i + 1) * r + 1)
        positions = [s for s in block if s > t and values[s - 1] in (j, j + 1)]
        reference_reassign_block(values, positions, j + 1, hi_first=(i < m // r))
    return Walk(d=w.d, pos=tuple(values[:m]), neg=tuple(values[m:]))


INVOLUTIONS = {
    # which: (involution, block-loop reference, domain test of a family walk)
    "second": (
        nonprofile_involution,
        reference_nonprofile_involution,
        lambda w, r: (
            in_restricted_family(w, r, "matching")
            and is_toeplitz_point(endpoint(w))
            and bool(profile_violations(w))
        ),
    ),
    "first": (
        offregion_involution,
        reference_offregion_involution,
        lambda w, r: (
            in_reversed_family(w, r)
            and is_toeplitz_point(endpoint(w))
            and translated_exit(w) is not None
        ),
    ),
}


def involution_domain(n, r, d, which):
    for w, _ in iter_restricted_family(n, r, d):
        if which == "first":
            w = reverse_negative_half(w)
        if INVOLUTIONS[which][2](w, r):
            yield w


def test_involutions_match_block_loop_references_on_the_audit_grid():
    # every domain walk the benchmark's involution audits map: rn <= 5, d <= 3
    walks = 0
    for r in range(1, 6):
        for n in range(1, 5 // r + 1):
            for d in range(4):
                for which, (rho, reference, _) in INVOLUTIONS.items():
                    for w in involution_domain(n, r, d, which):
                        assert rho(w, r) == reference(w, r), (which, r, w.to_text())
                        walks += 1
    assert walks == 41_628


def reference_in_restricted_family(w, r, kind="matching"):
    """`in_restricted_family` as a dict of block checks, scanned at every r."""
    check = {
        "matching": weakly_decreasing_blocks,
        "subgraph": strictly_increasing_blocks,
    }[kind]
    if len(w.pos) != len(w.neg) or len(w.pos) % r:
        return False
    return check(w.pos, r) and check(w.neg, r)


def reference_in_reversed_family(w, r):
    """`in_reversed_family` through a reversed `Walk`."""
    return reference_in_restricted_family(reverse_negative_half(w), r)


def reference_translated_exit(w):
    """`translated_exit` over the signed step sequence of `walk_steps`."""
    point = list(range(w.d - 1, -1, -1))
    for t, step in enumerate(walk_steps(w), start=1):
        j = abs(step)
        if step > 0:
            point[j - 1] += 1
            if j > 1 and point[j - 2] == point[j - 1]:
                return t, j - 1
        else:
            point[j - 1] -= 1
            if j < w.d and point[j - 1] == point[j]:
                return t, j
    return None


def test_walk_predicates_match_their_references_on_the_audit_grid():
    # every restricted walk of the involution audits' grid (rn <= 5, d <= 3)
    # and its reversal, tested at its own r and at every r <= 3
    walks = 0
    for r in range(1, 6):
        for n in range(5 // r + 1):
            for d in range(4):
                for w, _ in iter_restricted_family(n, r, d):
                    for v in (w, reverse_negative_half(w)):
                        assert translated_exit(v) == reference_translated_exit(v)
                        for s in {r, 1, 2, 3}:
                            assert in_reversed_family(v, s) == (
                                reference_in_reversed_family(v, s)
                            ), (s, v.to_text())
                            for kind in ("matching", "subgraph"):
                                assert in_restricted_family(v, s, kind) == (
                                    reference_in_restricted_family(v, s, kind)
                                ), (s, kind, v.to_text())
                    walks += 1
    assert walks == 21_057


@pytest.mark.parametrize("n,r,d", [(0, 1, 2), (3, 1, 2), (2, 2, 3), (1, 3, 2), (4, 1, 3)])
def test_restricted_halves_joined_at_every_endpoint_is_the_family(n, r, d):
    halves, by_hist = restricted_halves(n, r, d)
    blocks = _block_choices(d, r, "matching")
    assert [values for values, _ in halves] == [
        tuple(v for block, _ in seq for v in block) for seq in product(blocks, repeat=n)
    ]
    for values, hist in halves:
        assert hist == tuple(values.count(v) for v in range(1, d + 1))
    assert sorted(i for group in by_hist.values() for i in group) == list(
        range(len(halves))
    )
    for hist, group in by_hist.items():
        assert group == sorted(group)
        assert all(halves[i][1] == hist for i in group)
    joined = [
        (Walk(d=d, pos=pos, neg=halves[j][0]), sign)
        for _, point, sign in iter_toeplitz(d, max_l1=2 * n * r)
        for pos, hist in halves
        for j in by_hist.get(tuple(h - t for h, t in zip(hist, point)), ())
    ]
    assert joined == list(iter_restricted_family(n, r, d))


@st.composite
def involution_domain_walks(draw):
    """(which, r, walk) with rn <= 12 and d <= 5: a positive half under the
    block condition, a negative half that reorders its values and sorts
    each block again (so the walk is closed), drawn until it is in the
    domain of `which`."""
    which = draw(st.sampled_from(sorted(INVOLUTIONS)))
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12 // r))
    d = draw(st.integers(2, 5))
    values = draw(st.lists(st.integers(1, d), min_size=n * r, max_size=n * r))
    shuffled = draw(st.permutations(values))

    def blocks_descending(seq):
        return tuple(
            v for i in range(0, n * r, r) for v in sorted(seq[i : i + r], reverse=True)
        )

    w = Walk(d=d, pos=blocks_descending(values), neg=blocks_descending(shuffled))
    if which == "first":
        w = reverse_negative_half(w)
    assume(INVOLUTIONS[which][2](w, r))
    return which, r, w


@given(involution_domain_walks())
@settings(max_examples=300, deadline=None)
def test_involutions_past_the_audit_grid(drawn):
    which, r, w = drawn
    rho, reference, in_domain = INVOLUTIONS[which]
    image = rho(w, r)
    assert image == reference(w, r)
    assert in_domain(image, r)
    assert toeplitz_sign_of(image) == -toeplitz_sign_of(w)
    assert image != w
    assert rho(image, r) == w


# ------------------------------------------------------- audit-grade enumerators


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (3, 1, 3), (1, 2, 2), (2, 2, 2), (2, 2, 4), (1, 3, 3)])
def test_profile_walk_enumerator_against_filter(n, r, d):
    m = n * r
    expected = set()
    for pi, point, _ in iter_toeplitz(d, 2 * m):
        for w in iter_restricted_walks(n, r, d, pi, "matching"):
            if is_profile_walk(w):
                expected.add(w)
    got = set(iter_profile_walks(n, r, d))
    assert got == expected


@pytest.mark.parametrize("n,r,d", [(2, 1, 2), (3, 1, 3), (1, 2, 2), (2, 2, 2), (2, 2, 4)])
def test_region_walk_enumerator_against_filter(n, r, d):
    m = n * r
    expected = set()
    for w in iter_restricted_walks(n, r, d, tuple(range(1, d + 1)), "matching"):
        wt = reverse_negative_half(w)
        if stays_in_dominance_region(wt):
            expected.add(wt)
    got = set(iter_region_walks(n, r, d))
    assert got == expected


def reference_region_walks(n, r, d):
    """Every closed reversed-family walk staying in the dominance region, by
    a backtracking search that grows the negative half under every positive
    half, in lexicographic order of both."""
    m = n * r
    pos_acc = []
    hist = [0] * (d + 2)

    def grow_neg(a, point, buf, p):
        if p == m:
            yield Walk(d=d, pos=a, neg=tuple(buf))
            return
        prev = buf[-1] if p % r else None
        for v in range(1, d + 1):
            if point[v - 1] == 0:
                continue
            if prev is not None and v < prev:
                continue
            if v < d and point[v - 1] - 1 < point[v]:
                continue
            point[v - 1] -= 1
            buf.append(v)
            yield from grow_neg(a, point, buf, p + 1)
            buf.pop()
            point[v - 1] += 1

    def grow_pos(i):
        if i == m:
            yield from grow_neg(tuple(pos_acc), hist[1 : d + 1], [], 0)
            return
        prev = pos_acc[-1] if i % r else None
        for v in range(1, d + 1):
            if prev is not None and v > prev:
                continue
            if v > 1 and hist[v] + 1 > hist[v - 1]:
                continue
            hist[v] += 1
            pos_acc.append(v)
            yield from grow_pos(i + 1)
            pos_acc.pop()
            hist[v] -= 1

    yield from grow_pos(0)


def test_region_walks_match_backtracking_reference_in_order():
    # every (n, r, d) with rn <= 7 and d <= rn + 1
    walks = 0
    for r in range(1, 8):
        for n in range(0, 7 // r + 1):
            for d in range(n * r + 2):
                got = list(iter_region_walks(n, r, d))
                assert got == list(reference_region_walks(n, r, d)), (n, r, d)
                walks += len(got)
    assert walks == 32_216


@given(
    st.integers(2, 5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(1, 10 // r).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(0, n * r + 1))
            ),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_region_walks_past_the_reference_grid(drawn):
    # rn <= 10 with r >= 2, where the walks number at most 20 000
    r, (n, d) = drawn
    total = sum(len(group) ** 2 for group in region_halves(n, r, d).values())
    assume(total <= 20_000)
    got = list(iter_region_walks(n, r, d))
    assert len(got) == total
    assert got == list(reference_region_walks(n, r, d))


@pytest.mark.parametrize(
    "n,r,d", [(0, 1, 0), (0, 2, 3), (3, 1, 3), (4, 1, 2), (2, 2, 2), (3, 2, 4), (2, 3, 5), (1, 4, 4)]
)
def test_region_halves_stay_in_the_region_grouped_by_endpoint(n, r, d):
    halves = region_halves(n, r, d)
    for end, group in halves.items():
        assert group == sorted(set(group))
        for half in group:
            w = Walk(d=d, pos=half, neg=())
            assert len(half) == n * r
            assert weakly_decreasing_blocks(half, r)
            assert stays_in_dominance_region(w)
            assert endpoint(w) == end
    every = sum(halves.values(), [])
    assert len(every) == len(set(every))
    assert sum(len(group) ** 2 for group in halves.values()) == len(
        list(iter_region_walks(n, r, d))
    )


def test_first_profile_violation_is_read_lazily():
    # on every restricted walk of the benchmark's involution audit sizes
    # (rn <= 5, d <= 3), the first violation read lazily is the first
    # position of `profile_violations`, with its value and lower count
    walks = 0
    for r in range(1, 6):
        for n in range(1, 5 // r + 1):
            for d in range(4):
                for w, _ in iter_restricted_family(n, r, d):
                    first = next(_profile_violations(w, _value_positions(w.neg)), None)
                    bad = profile_violations(w)
                    assert is_profile_walk(w) == (first is None) == (not bad)
                    if first is not None:
                        u, c, l = first
                        assert u == bad[0]
                        assert c == w.pos[u - 1]
                        assert l == occurrence_profile(w).lower[u - 1]
                    walks += 1
    assert walks == 21_037


@pytest.mark.parametrize("n,r,d", [(3, 1, 3), (2, 2, 2), (2, 2, 4), (1, 3, 3), (4, 1, 2)])
def test_profile_walk_enumerator_order(n, r, d):
    # positive halves in lexicographic order; for each, negative halves
    # filled back to front, smallest value first
    walks = [(w.pos, w.neg[::-1]) for w in iter_profile_walks(n, r, d)]
    assert walks == sorted(set(walks))


def test_profile_walk_enumerator_leaves_no_reference_cycles():
    # both halves grow as plain lists of tuples, with no shared buffer or
    # closure, so a consumed enumerator is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for _ in iter_profile_walks(7, 1, 7):
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_counter_leaves_no_reference_cycles():
    # the convolution keeps its tally in plain dicts, with no closure
    gc.collect()
    gc.disable()
    try:
        assert signed_walk_sum(5, 1, 5, "matching", "enumerate") == 120
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_profile_enumerator_counts_match_graph_counts():
    for n, r in [(2, 2), (3, 1), (1, 3), (4, 1)]:
        for d in range(n * r + 1):
            assert sum(1 for _ in iter_profile_walks(n, r, d)) == (
                count_bounded_matching(n, r, d)
            )


# --------------------------------------------------------------- lis linkage


@pytest.mark.parametrize("m", range(0, 6))
def test_one_regular_signed_sum_counts_lis(m):
    for d in range(0, m + 2):
        assert signed_walk_sum(m, 1, d, "matching", "dp") == count_bounded_lis(m, d)
