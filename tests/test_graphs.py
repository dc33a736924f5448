import math
import statistics
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcount.graphs import (
    Multigraph,
    canonical_lift,
    count_bounded_lis,
    count_bounded_matching,
    count_bounded_subgraph,
    enumerate_multigraphs,
    largest_planar_matching_size,
    largest_planar_subgraph_size,
    lifted_multigraphs,
    planar_matching_profile,
    project_configuration,
    sample_configuration,
)
from planarcount.perms import perm_inverse
from planarcount.walks import signed_walk_sum

WORKED_GRAPH = Multigraph(n=3, r=2, rows=((0, 1, 1), (2, 0, 0), (0, 1, 1)))
WORKED_LIFT = (6, 4, 2, 1, 5, 3)

SMALL_GRIDS = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 2), (8, 1)]


# ---------------------------------------------------------------- oracles


def brute_matrices(n, r):
    """All n x n matrices with row/column sums r, by raw exhaustion."""
    found = []
    for flat in product(range(r + 1), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if any(sum(row) != r for row in rows):
            continue
        if any(sum(row[j] for row in rows) != r for j in range(n)):
            continue
        found.append(tuple(rows))
    return found


def brute_largest_matching(perm):
    """Largest increasing subsequence by exhausting subsets of positions."""
    m = len(perm)
    best = 0
    for size in range(m, best, -1):
        for positions in combinations(range(m), size):
            values = [perm[p] for p in positions]
            if all(values[i] < values[i + 1] for i in range(size - 1)):
                return size
    return best


def brute_largest_subgraph(g):
    """Max weight over weakly increasing chains of distinct cells, recursively."""
    cells = [(i, j) for i in range(g.n) for j in range(g.n)]

    def extend(i, j):
        here = g.rows[i][j]
        best = 0
        for i2, j2 in cells:
            if (i2, j2) != (i, j) and i2 >= i and j2 >= j:
                best = max(best, extend(i2, j2))
        return here + best

    return max(extend(i, j) for i, j in cells)


def slice_sum_lift(g):
    """The canonical lift with a and b re-summed from slices for every cell."""
    n, r = g.n, g.r
    values = [0] * (r * n)
    for i in range(n):
        for j in range(n):
            t = g.rows[i][j]
            if t == 0:
                continue
            a = sum(g.rows[i][j + 1 :])
            b = sum(g.rows[ii][j] for ii in range(i + 1, n))
            for s in range(1, t + 1):
                values[i * r + a + s - 1] = j * r + b + (t - s + 1)
    return tuple(values)


def whole_matrix_lift(g):
    """The canonical lift read cell by cell over the whole matrix, with the
    row and column remainders kept as running counts."""
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
    return tuple(values)


def whole_matrix_subgraph_size(g):
    """The planar-subgraph DP over the whole matrix in one list: after row
    i, best[j] is the best chain over the cells <= (i, j)."""
    best = [0] * (g.n + 1)
    for row in g.rows:
        for j, t in enumerate(row, start=1):
            best[j] = t + max(best[j], best[j - 1])
    return best[-1]


# ---------------------------------------------------------- enumeration


def test_single_vertex_graph_is_forced():
    for r in (1, 2, 5):
        graphs = list(enumerate_multigraphs(1, r))
        assert graphs == [Multigraph(n=1, r=r, rows=((r,),))]


def test_two_by_two_r2_graphs_in_order():
    rows = [g.rows for g in enumerate_multigraphs(2, 2)]
    assert rows == [((2, 0), (0, 2)), ((1, 1), (1, 1)), ((0, 2), (2, 0))]


def test_one_regular_graphs_are_permutation_matrices():
    graphs = list(enumerate_multigraphs(3, 1))
    assert len(graphs) == 6
    for g in graphs:
        assert all(sorted(row) == [0, 0, 1] for row in g.rows)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 1), (2, 3), (3, 2)])
def test_enumeration_matches_raw_exhaustion(n, r):
    assert sorted(g.rows for g in enumerate_multigraphs(n, r)) == sorted(
        brute_matrices(n, r)
    )


def compositions(total, parts):
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_enumeration_order_matches_product_reference(n, r):
    # every choice of n rows among the compositions of r, kept when the
    # column sums are r too, in descending order of the flattened matrix
    expected = sorted(
        (
            rows
            for rows in product(compositions(r, n), repeat=n)
            if all(sum(row[j] for row in rows) == r for j in range(n))
        ),
        reverse=True,
    )
    assert [g.rows for g in enumerate_multigraphs(n, r)] == expected
    if (n, r) == (4, 2):
        assert len(expected) == 282


def test_zero_vertices_is_the_empty_multigraph():
    for r in (1, 2):
        assert list(enumerate_multigraphs(0, r)) == [Multigraph(n=0, r=r, rows=())]
        assert count_bounded_matching(0, r, 0) == 1
        assert count_bounded_subgraph(0, r, 0) == 1
    with pytest.raises(ValueError):
        list(enumerate_multigraphs(-1, 2))


def test_invalid_matrix_rejected():
    # one case per check, in the order the checks run: each matrix passes
    # every earlier check, so the message names the first failing one
    cases = [
        ((-1, 2, ()), "need n >= 0 and r >= 1"),
        ((2, 0, ((0, 0), (0, 0))), "need n >= 0 and r >= 1"),
        ((2, 2, ((2, 0),)), "multiplicity matrix must be n x n"),
        ((2, 2, ((2, 0), (0, 1, 1))), "multiplicity matrix must be n x n"),
        ((2, 1, ((1, -1), (-1, 1))), "multiplicities must be nonnegative"),
        ((2, 2, ((2, 0), (1, 2))), "every row sum must equal r"),
        ((2, 2, ((2, 0), (0, 1))), "every row sum must equal r"),
        ((2, 2, ((1, 1), (2, 0))), "every column sum must equal r"),
        ((3, 1, ((1, 0, 0), (1, 0, 0), (0, 0, 1))), "every column sum must equal r"),
    ]
    for (n, r, rows), message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Multigraph(n=n, r=r, rows=rows)
    assert Multigraph(n=0, r=1, rows=()).rows == ()


# ------------------------------------------------------------ lift/project


def test_lift_of_all_ones_matrix():
    g = Multigraph(n=2, r=2, rows=((1, 1), (1, 1)))
    assert canonical_lift(g) == (4, 2, 3, 1)


def test_lift_of_double_edge():
    g = Multigraph(n=1, r=2, rows=((2,),))
    assert canonical_lift(g) == (2, 1)


def test_lift_of_worked_graph():
    assert canonical_lift(WORKED_GRAPH) == WORKED_LIFT


def test_project_undoes_lift_examples():
    assert project_configuration((4, 2, 3, 1), 2, 2).rows == ((1, 1), (1, 1))
    assert project_configuration((2, 1), 1, 2).rows == ((2,),)
    assert project_configuration((1, 2, 3), 3, 1).rows == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


@pytest.mark.parametrize("n,r", SMALL_GRIDS)
def test_lift_round_trip_and_injectivity(n, r):
    seen = {}
    for g in enumerate_multigraphs(n, r):
        lift = canonical_lift(g)
        assert project_configuration(lift, n, r) == g
        assert lift not in seen
        seen[lift] = g


@pytest.mark.parametrize("n,r", SMALL_GRIDS)
def test_lift_matches_slice_sum_reference_in_order(n, r):
    graphs = list(enumerate_multigraphs(n, r))
    assert [canonical_lift(g) for g in graphs] == [slice_sum_lift(g) for g in graphs]


@pytest.mark.parametrize("n,r", SMALL_GRIDS)
def test_lift_matches_whole_matrix_reference(n, r):
    for g in enumerate_multigraphs(n, r):
        assert canonical_lift(g) == whole_matrix_lift(g)


@pytest.mark.parametrize("n,r", SMALL_GRIDS)
def test_lifted_multigraphs_lift_and_measure_every_graph_in_order(n, r):
    # the incremental fill against lifting and measuring each whole graph
    graphs = list(enumerate_multigraphs(n, r))
    expected = []
    for g in graphs:
        lift = whole_matrix_lift(g)
        expected.append(
            (lift, planar_matching_profile(lift).largest, whole_matrix_subgraph_size(g))
        )
    lifted = list(lifted_multigraphs(n, r))
    assert lifted == expected
    for g, (lift, _, _) in zip(graphs, lifted):
        assert project_configuration(lift, n, r) == g
    if n <= 3:
        assert [s for _, _, s in lifted] == [brute_largest_subgraph(g) for g in graphs]


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_lift_profile_weakly_decreases_within_blocks(n, r):
    # the lift makes parallel copies cross, so matching sizes cannot grow
    # along the copies of one vertex
    for g in enumerate_multigraphs(n, r):
        prof = planar_matching_profile(canonical_lift(g))
        for side in (prof.left, prof.right):
            for i in range(n):
                block = side[i * r : (i + 1) * r]
                assert all(block[s] >= block[s + 1] for s in range(r - 1))


# ----------------------------------------------------------------- profile


def test_profile_of_worked_lift():
    prof = planar_matching_profile(WORKED_LIFT)
    assert prof.left == (1, 1, 1, 1, 2, 2)
    assert prof.right == (1, 1, 2, 1, 2, 1)
    assert prof.largest == 2


def test_profile_of_identity_and_crossing():
    assert planar_matching_profile((1, 2, 3, 4)).left == (1, 2, 3, 4)
    assert planar_matching_profile((2, 1)) == ((1, 1), (1, 1), 1)


@pytest.mark.parametrize("m", range(1, 7))
def test_largest_matching_matches_subset_search(m):
    for perm in permutations(range(1, m + 1)):
        assert planar_matching_profile(perm).largest == brute_largest_matching(perm)


@pytest.mark.parametrize("m", range(8))
def test_largest_matching_size_is_profile_largest(m):
    for perm in permutations(range(1, m + 1)):
        assert largest_planar_matching_size(perm) == planar_matching_profile(perm).largest


@given(st.permutations(list(range(1, 9))))
@settings(max_examples=60, deadline=None)
def test_profile_right_side_is_left_of_inverse(perm):
    perm = tuple(perm)
    prof = planar_matching_profile(perm)
    assert prof.right == planar_matching_profile(perm_inverse(perm)).left
    assert prof.largest == max(prof.right)


@pytest.mark.parametrize("m", [9, 10])
def test_largest_matching_subset_search_larger(m):
    # spot-check the dynamic program against the 2^m subset oracle
    for seed in range(25):
        perm = sample_configuration(m, 1, seed)
        assert planar_matching_profile(perm).largest == brute_largest_matching(perm)


# ---------------------------------------------------------------- subgraph


def test_subgraph_size_examples():
    assert largest_planar_subgraph_size(Multigraph(1, 3, ((3,),))) == 3
    assert largest_planar_subgraph_size(Multigraph(2, 2, ((1, 1), (1, 1)))) == 3
    assert largest_planar_subgraph_size(Multigraph(2, 2, ((0, 2), (2, 0)))) == 2


@pytest.mark.parametrize("n,r", [(2, 2), (3, 1), (3, 2), (2, 3)])
def test_subgraph_size_matches_chain_search(n, r):
    for g in enumerate_multigraphs(n, r):
        assert largest_planar_subgraph_size(g) == brute_largest_subgraph(g)


@pytest.mark.parametrize("n,r", SMALL_GRIDS)
def test_subgraph_size_matches_whole_matrix_reference(n, r):
    for g in enumerate_multigraphs(n, r):
        assert largest_planar_subgraph_size(g) == whole_matrix_subgraph_size(g)


# ------------------------------------------------------------------ counts


def test_count_bounded_matching_examples():
    assert count_bounded_matching(2, 2, 1) == 1
    assert count_bounded_matching(2, 2, 2) == 3
    assert count_bounded_matching(3, 1, 2) == 5


def test_count_with_inactive_bound_equals_total():
    for n, r in [(2, 2), (3, 1), (2, 3), (3, 2)]:
        total = sum(1 for _ in enumerate_multigraphs(n, r))
        assert count_bounded_matching(n, r, n * r) == total


@pytest.mark.parametrize("n", range(1, 7))
def test_one_regular_reduction_to_lis_counts(n):
    for d in range(n + 1):
        assert count_bounded_matching(n, 1, d) == count_bounded_lis(n, d)


def test_count_bounded_subgraph_examples():
    for r in (1, 2, 3):
        assert count_bounded_subgraph(1, r, 0) == 0
        if r > 1:
            assert count_bounded_subgraph(1, r, r - 1) == 0
        assert count_bounded_subgraph(1, r, r) == 1
    # the three 2-regular graphs on 2+2 vertices have subgraph sizes 4, 3, 2
    sizes = sorted(
        largest_planar_subgraph_size(g) for g in enumerate_multigraphs(2, 2)
    )
    assert sizes == [2, 3, 4]
    assert count_bounded_subgraph(2, 2, 1) == 0
    assert count_bounded_subgraph(2, 2, 2) == 1
    assert count_bounded_subgraph(2, 2, 3) == 2
    assert count_bounded_subgraph(2, 2, 4) == 3
    assert count_bounded_subgraph(2, 1, 1) == 1


@pytest.mark.parametrize("n,r", [(5, 2), (4, 3), (3, 4), (2, 6)])
def test_brute_force_agrees_with_walk_dp_past_the_grid(n, r):
    # rn = 10, 12, 12, 12: beyond the rn <= 8 grid that every method covers
    for d in range(n * r + 1):
        assert count_bounded_matching(n, r, d) == signed_walk_sum(
            n, r, d, "matching", "dp"
        ), d
        assert count_bounded_subgraph(n, r, d) == signed_walk_sum(
            n, r, d, "subgraph", "dp"
        ), d


def test_zero_bound_counts_nothing():
    assert count_bounded_matching(2, 2, 0) == 0
    assert count_bounded_matching(3, 1, 0) == 0


def test_lis_count_values():
    assert count_bounded_lis(3, 2) == 5
    for m in range(7):
        assert count_bounded_lis(m, m) == math.factorial(m)
        assert count_bounded_lis(m, m + 2) == math.factorial(m)
    for m in range(1, 7):
        assert count_bounded_lis(m, 1) == 1
    assert count_bounded_lis(0, 0) == 1


def test_lis_counts_at_most_two_are_catalan():
    for m in range(8):
        assert count_bounded_lis(m, 2) == math.comb(2 * m, m) // (m + 1)
    for m, d in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            count_bounded_lis(m, d)


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic_under_seed():
    for seed in (0, 1, 123456789):
        assert sample_configuration(3, 2, seed) == sample_configuration(3, 2, seed)
    assert sample_configuration(1, 1, 7) == (1,)


def test_sampling_rejects_bad_domain():
    for n, r in ((-1, 2), (2, 0)):
        with pytest.raises(ValueError, match="need n >= 0, r >= 1, d >= 0"):
            sample_configuration(n, r, 1)


def test_sampling_mean_matches_exhaustive_mean():
    sizes = [
        planar_matching_profile(perm).largest for perm in permutations((1, 2, 3, 4))
    ]
    exact_mean = statistics.mean(sizes)
    exact_sd = statistics.pstdev(sizes)
    trials = 100_000
    total = sum(
        planar_matching_profile(sample_configuration(2, 2, seed)).largest
        for seed in range(trials)
    )
    observed = total / trials
    assert abs(observed - exact_mean) <= 3 * exact_sd / math.sqrt(trials)
