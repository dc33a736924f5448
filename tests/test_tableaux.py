import gc
from bisect import bisect_right
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcount.graphs import count_bounded_lis, planar_matching_profile
from planarcount.perms import perm_inverse
from planarcount.tableaux import (
    YoungTableau,
    blocks_strictly_below,
    blocks_weakly_above,
    column_word,
    count_tableau_pairs,
    enumerate_tableaux,
    iter_block_tableaux,
    iter_partitions,
    pair_walk,
    rsk,
    rsk_inverse,
    tableau_from_column_word,
)
from planarcount.walks import (
    Walk,
    endpoint,
    signed_walk_sum,
    stays_in_dominance_region,
    weakly_decreasing_blocks,
)

T = lambda *rows: YoungTableau(tuple(tuple(r) for r in rows))
EMPTY_TABLEAU = T()

WORKED_LIFT = (6, 4, 2, 1, 5, 3)
WORKED_P = T((1, 3), (2, 5), (4,), (6,))
WORKED_Q = T((1, 5), (2, 6), (3,), (4,))


# ---------------------------------------------------------------- hook oracle


def hook_length_count(shape):
    """Number of standard tableaux of a shape, by the hook length formula."""
    if not shape:
        return 1
    cols = [sum(1 for length in shape if length > j) for j in range(shape[0])]
    product = 1
    for i, length in enumerate(shape):
        for j in range(length):
            product *= (length - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // product


def grid_backtracking_tableaux(m, d):
    """Standard tableaux on [m] with at most d columns, shape by shape:
    value k+1 goes into the first free cell of any row whose upper
    neighbour is filled, found by scanning the row."""
    if m == 0:
        yield EMPTY_TABLEAU
        return
    for shape in iter_partitions(m, d):
        grid = [[0] * length for length in shape]

        def fill(value):
            if value > m:
                yield YoungTableau(tuple(tuple(row) for row in grid))
                return
            for i, length in enumerate(shape):
                j = next((jj for jj in range(length) if grid[i][jj] == 0), None)
                if j is None:
                    continue
                if i > 0 and (len(grid[i - 1]) <= j or grid[i - 1][j] == 0):
                    continue
                grid[i][j] = value
                yield from fill(value + 1)
                grid[i][j] = 0

        yield from fill(1)


# ------------------------------------------------------------------ validity


def test_tableau_validation():
    with pytest.raises(ValueError):
        T((1, 2), (3, 4, 5))  # growing rows
    with pytest.raises(ValueError):
        T((3, 2),)  # row not increasing
    with pytest.raises(ValueError):
        T((1, 2), (1,))  # duplicate
    with pytest.raises(ValueError):
        T((2, 3), (1,))  # column not increasing


@pytest.mark.parametrize(
    "rows,message",
    [
        # each input also breaks every later check, so the first check wins
        (((2, 2), (1,), ()), "empty rows are not allowed"),
        (((2,), (2, 1)), "row lengths must weakly decrease"),
        (((2, 2), (1,)), "entries must be distinct"),
        (((3, 1), (2,)), "rows must increase left to right"),
        (((2,), (1,)), "columns must increase top to bottom"),
    ],
)
def test_tableau_rejections_in_check_order(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        YoungTableau(rows)


def test_text_round_trip():
    t = T((1, 3), (2,), (4,))
    assert t.to_text() == "[[1,3],[2],[4]]"


# ----------------------------------------------------------------- insertion


def row_insert(t, x):
    """Reference Schensted insertion of x into t: x bumps the smallest larger
    entry of row 1, the bumped value goes on into row 2, and so on.  Returns
    the new tableau and the 1-based (row, column) of the created box."""
    if x in t.entries():
        raise ValueError(f"{x} is already an entry")
    rows = list(t.rows)
    for i, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            rows[i] = row + (x,)
            return YoungTableau(tuple(rows)), (i + 1, j + 1)
        rows[i] = row[:j] + (x,) + row[j + 1 :]
        x = row[j]
    return YoungTableau(tuple(rows) + ((x,),)), (len(rows) + 1, 1)


def row_of(t, value):
    """1-based row of an entry of t."""
    return t.position_of(value)[0]


def test_row_insert_examples():
    t, box = row_insert(T((2,), (4,)), 3)
    assert t == T((2, 3), (4,)) and box == (1, 2)
    t, box = row_insert(T((2, 3), (4,)), 1)
    assert t == T((1, 3), (2,), (4,)) and box == (3, 1)
    t, box = row_insert(EMPTY_TABLEAU, 7)
    assert t == T((7,)) and box == (1, 1)
    with pytest.raises(ValueError):
        row_insert(T((2,),), 2)


def box_relation(first, second, weakly_right):
    """Bumping relation: with x <= x', the first box is strictly left of and
    weakly below the second; with x > x', weakly left / strictly below in the
    other order."""
    (r1, c1), (r2, c2) = first, second
    if weakly_right:
        return c1 < c2 and r1 >= r2
    return c2 <= c1 and r2 > r1


@pytest.mark.parametrize("m", range(2, 7))
def test_bumping_relation_along_insertions(m):
    for perm in permutations(range(1, m + 1)):
        t = EMPTY_TABLEAU
        boxes = []
        for x in perm:
            t, box = row_insert(t, x)
            boxes.append(box)
        for i in range(m - 1):
            assert box_relation(boxes[i], boxes[i + 1], perm[i] <= perm[i + 1])


def test_bumping_relation_direct_pairs():
    # scaled entries leave gaps so odd values can be inserted
    for t0 in enumerate_tableaux(4, 3):
        doubled = YoungTableau(
            tuple(tuple(2 * x for x in row) for row in t0.rows)
        )
        for x in (1, 3, 5, 7, 9):
            for y in (1, 3, 5, 7, 9):
                if x == y:
                    continue
                t1, b1 = row_insert(doubled, x)
                t2, b2 = row_insert(t1, y)
                assert box_relation(b1, b2, x <= y)


# ----------------------------------------------------------------------- rsk


def test_rsk_examples():
    p, q = rsk((4, 2, 3, 1))
    assert p == q == T((1, 3), (2,), (4,))
    p, q = rsk((1, 2, 3, 4, 5))
    assert p == q == T((1, 2, 3, 4, 5))


def test_rsk_worked_pair():
    p, q = rsk(WORKED_LIFT)
    assert (p, q) == (WORKED_P, WORKED_Q)
    # row relations quoted for the printed pair: in the left tableau 4, 1, 3
    # sit strictly above 6, 2, 5; in the right one 1, 3, 5 above 2, 4, 6
    for a, b in [(4, 6), (1, 2), (3, 5)]:
        assert row_of(p, a) < row_of(p, b)
    for a, b in [(1, 2), (3, 4), (5, 6)]:
        assert row_of(q, a) < row_of(q, b)
    assert blocks_strictly_below(p, 3, 2) and blocks_strictly_below(q, 3, 2)


def test_rsk_inverse_examples():
    assert rsk_inverse(T((1, 2, 3),), T((1, 2, 3),)) == (1, 2, 3)
    assert rsk_inverse(T((1, 3), (2,), (4,)), T((1, 3), (2,), (4,))) == (4, 2, 3, 1)
    with pytest.raises(ValueError):
        rsk_inverse(T((1, 2),), T((1,), (2,)))
    with pytest.raises(ValueError):
        rsk_inverse(T((1, 3),), T((1, 2),))


@pytest.mark.parametrize("m", range(0, 6))
def test_rsk_round_trip_exhaustive(m):
    for perm in permutations(range(1, m + 1)):
        p, q = rsk(perm)
        assert p.shape == q.shape
        assert rsk_inverse(p, q) == perm


@pytest.mark.parametrize("m", range(1, 7))
def test_rsk_symmetry_and_column_count(m):
    for perm in permutations(range(1, m + 1)):
        p, q = rsk(perm)
        pi, qi = rsk(perm_inverse(perm))
        assert (pi, qi) == (q, p)
        assert p.column_count == planar_matching_profile(perm).largest


@given(st.permutations(list(range(1, 9))))
@settings(max_examples=50, deadline=None)
def test_rsk_round_trip_random(perm):
    perm = tuple(perm)
    p, q = rsk(perm)
    assert rsk_inverse(p, q) == perm


@given(
    st.integers(0, 40).flatmap(lambda m: st.permutations(list(range(1, m + 1))))
)
@settings(max_examples=100, deadline=None)
def test_rsk_round_trip_and_column_count_to_40(perm):
    perm = tuple(perm)
    p, q = rsk(perm)
    assert rsk_inverse(p, q) == perm
    assert p.column_count == planar_matching_profile(perm).largest


def rsk_by_row_insert(perm):
    """Reference RSK: fold `row_insert` over the permutation and
    record the row of every created box."""
    p = EMPTY_TABLEAU
    q_rows = []
    for i, x in enumerate(perm, start=1):
        p, (row, _) = row_insert(p, x)
        if row > len(q_rows):
            q_rows.append([])
        q_rows[row - 1].append(i)
    return p, T(*q_rows)


@pytest.mark.parametrize("m", range(0, 8))
def test_rsk_matches_row_insert_reference(m):
    for perm in permutations(range(1, m + 1)):
        assert rsk(perm) == rsk_by_row_insert(perm)


# ----------------------------------------------------------- block conditions


def test_block_conditions_examples():
    t1 = T((1, 3), (2,), (4,))
    t2 = T((1, 2), (3, 4))
    assert blocks_strictly_below(t1, 2, 2) is True
    assert blocks_strictly_below(t2, 2, 2) is False
    assert blocks_weakly_above(t2, 2, 2) is True
    assert blocks_weakly_above(t1, 2, 2) is False
    # r = 1 makes both conditions vacuous
    for t in enumerate_tableaux(4, 4):
        assert blocks_strictly_below(t, 4, 1)
        assert blocks_weakly_above(t, 4, 1)
    with pytest.raises(ValueError):
        blocks_strictly_below(T((1, 2),), 2, 2)


# ------------------------------------------------------------------ counting


@pytest.mark.parametrize("m", range(9))
def test_enumeration_matches_grid_backtracking_in_order(m):
    for d in range(m + 2):
        assert list(enumerate_tableaux(m, d)) == list(grid_backtracking_tableaux(m, d))


def row_of_reference(t, n, r, holds):
    """Block condition read with `row_of` per value: holds(row(k), row(k+1))
    for every pair of consecutive values inside one block."""
    return all(
        holds(row_of(t, r * (i - 1) + s), row_of(t, r * (i - 1) + s + 1))
        for i in range(1, n + 1)
        for s in range(1, r)
    )


@pytest.mark.parametrize(
    "n,r", [(0, 3), (4, 1), (4, 2), (2, 4), (3, 2), (2, 3), (1, 7)]
)
def test_block_conditions_match_row_of_reference(n, r):
    for t in enumerate_tableaux(n * r, n * r):
        assert blocks_strictly_below(t, n, r) == row_of_reference(
            t, n, r, lambda a, b: a < b
        )
        assert blocks_weakly_above(t, n, r) == row_of_reference(
            t, n, r, lambda a, b: b <= a
        )


def test_block_conditions_check_the_entries():
    for t, n, r in (
        (T((1, 2),), 2, 2),  # too few entries
        (T((1, 2, 3),), 1, 2),  # too many
        (T((1, 5),), 1, 2),  # right size, out of range
        (T((2,),), 1, 1),
    ):
        message = rf"entries must be exactly \[{n * r}\]"
        for check in (blocks_strictly_below, blocks_weakly_above):
            with pytest.raises(ValueError, match=message):
                check(t, n, r)


def test_enumerate_tableaux_counts():
    assert len(list(enumerate_tableaux(3, 1))) == 1
    assert len(list(enumerate_tableaux(3, 3))) == 4
    assert len(list(enumerate_tableaux(4, 2))) == 6
    assert list(enumerate_tableaux(0, 3)) == [EMPTY_TABLEAU]
    assert list(enumerate_tableaux(2, 0)) == []


@pytest.mark.parametrize("enumerator", [enumerate_tableaux, iter_partitions])
def test_tableau_enumerators_leave_no_reference_cycles(enumerator):
    # the fill grows plain lists of tuples and the partitions live in
    # generator frames and arguments, so a consumed enumerator is freed by
    # reference counting alone
    gc.collect()
    gc.disable()
    try:
        assert list(enumerator(7, 7))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m,d", [(4, 4), (5, 3), (6, 2), (6, 6)])
def test_enumeration_against_hook_lengths(m, d):
    tableaux = list(enumerate_tableaux(m, d))
    assert len(set(tableaux)) == len(tableaux)
    by_shape = {}
    for t in tableaux:
        by_shape[t.shape] = by_shape.get(t.shape, 0) + 1
    assert set(by_shape) == {
        shape for shape in iter_partitions(m, m) if shape[0] <= d
    }
    for shape, count in by_shape.items():
        assert count == hook_length_count(shape)


def test_count_tableau_pairs_examples():
    assert count_tableau_pairs(2, 2, 2, "matching") == 3
    assert count_tableau_pairs(2, 2, 1, "matching") == 1
    for n in range(1, 6):
        for d in range(n + 1):
            assert count_tableau_pairs(n, 1, d, "matching") == count_bounded_lis(n, d)
            assert count_tableau_pairs(n, 1, d, "subgraph") == count_bounded_lis(n, d)
    assert count_tableau_pairs(2, 2, 0, "matching") == 0


def test_count_tableau_pairs_subgraph_small():
    # on [4] with <= 2 columns only [[1,2],[3,4]] has weak block ascents
    sats = [
        t
        for t in enumerate_tableaux(4, 2)
        if blocks_weakly_above(t, 2, 2)
    ]
    assert sats == [T((1, 2), (3, 4))]
    assert count_tableau_pairs(2, 2, 2, "subgraph") == 1
    assert count_tableau_pairs(1, 2, 2, "subgraph") == 1


@pytest.mark.parametrize("kind", ["matching", "subgraph"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_block_tableaux_are_the_filtered_enumeration(r, kind):
    # the fill prunes by the block rule; the filter reads whole tableaux
    check = blocks_strictly_below if kind == "matching" else blocks_weakly_above
    for n in range(9 // r + 1):
        for d in range(n * r + 2):
            expected = [
                t
                for t in enumerate_tableaux(n * r, d)
                if n * r == 0 or check(t, n, r)
            ]
            assert list(iter_block_tableaux(n, r, d, kind)) == expected


@pytest.mark.parametrize(
    "n,r,d,kind,count",
    [
        (6, 2, 12, "matching", 202410),
        (4, 3, 12, "matching", 2008),
        (6, 2, 6, "subgraph", 147168),
        (9, 1, 7, "matching", 362815),
        (5, 3, 6, "matching", 153040),
    ],
)
def test_tableau_pairs_past_the_filter(n, r, d, kind, count):
    # sizes where filtering all (rn)! standard tableaux took seconds to
    # minutes; the pruned fill keeps only the block tableaux
    assert count_tableau_pairs(n, r, d, kind) == count
    assert signed_walk_sum(n, r, d, kind, "dp") == count


def test_count_tableau_pairs_rejects_bad_domain():
    # the same domain as the walk counters: r = 0 is no regular graph
    for n, r, d in ((2, 0, 1), (-1, 2, 1), (2, 2, -1)):
        with pytest.raises(ValueError, match="need n >= 0, r >= 1, d >= 0"):
            count_tableau_pairs(n, r, d)


# ------------------------------------------------------------ tableau <-> walk


def test_column_word_examples():
    assert column_word(T((1, 3), (2,), (4,))) == (1, 1, 2, 1)
    assert column_word(T((1,), (2,), (3,))) == (1, 1, 1)
    assert column_word(T((1, 2, 3),)) == (1, 2, 3)


def test_column_walk_stays_in_region():
    w = Walk(d=3, pos=column_word(T((1, 3), (2,), (4,))), neg=())
    assert w.pos == (1, 1, 2, 1) and w.neg == ()
    assert stays_in_dominance_region(w)


def test_column_word_round_trip_examples():
    assert tableau_from_column_word((1, 1, 2, 1), 2) == T((1, 3), (2,), (4,))
    assert tableau_from_column_word((1, 2, 3), 3) == T((1, 2, 3),)
    with pytest.raises(ValueError):
        tableau_from_column_word((2, 1), 2)  # leaves the region
    with pytest.raises(ValueError):
        tableau_from_column_word((1, 3), 2)  # direction out of range


def test_empty_column_word_is_the_empty_tableau():
    for d in range(3):
        assert tableau_from_column_word((), d) == EMPTY_TABLEAU
    assert column_word(EMPTY_TABLEAU) == ()


def test_column_word_round_trip_exhaustive():
    for t in enumerate_tableaux(6, 3):
        assert tableau_from_column_word(column_word(t), 3) == t


@pytest.mark.parametrize("n,r,d", [(2, 2, 4), (3, 2, 3), (4, 1, 4), (2, 3, 4)])
def test_block_condition_transfers_to_walk(n, r, d):
    # strict block descents in the tableau <=> weakly decreasing blocks in
    # the column word
    for t in enumerate_tableaux(n * r, d):
        assert blocks_strictly_below(t, n, r) == weakly_decreasing_blocks(
            column_word(t), r
        )


@pytest.mark.parametrize("n,r,d", [(3, 2, 3), (6, 1, 2), (2, 3, 4), (1, 5, 3)])
def test_column_words_biject_onto_region_walks(n, r, d):
    # two-sided: column words of block-descent tableaux are exactly the
    # positive region-respecting words with weakly decreasing blocks
    from itertools import product as iproduct

    from planarcount.walks import Walk, stays_in_dominance_region

    m = n * r
    words_from_tableaux = {
        column_word(t)
        for t in enumerate_tableaux(m, d)
        if blocks_strictly_below(t, n, r)
    }
    direct = set()
    for word in iproduct(range(1, d + 1), repeat=m):
        walk = Walk(d=d, pos=word, neg=())
        if stays_in_dominance_region(walk) and weakly_decreasing_blocks(word, r):
            direct.add(word)
    assert direct == words_from_tableaux
    for word in direct:
        assert column_word(tableau_from_column_word(word, d)) == word


def test_pair_walk_examples():
    t = T((1, 3), (2,), (4,))
    w = pair_walk(t, t)
    assert w.pos == (1, 1, 2, 1) and w.neg == (1, 2, 1, 1)
    assert endpoint(w) == (0, 0)
    single = T((1,),)
    assert pair_walk(single, single) == Walk(d=1, pos=(1,), neg=(1,))
    with pytest.raises(ValueError):
        pair_walk(T((1, 2),), T((1,), (2,)))


def test_pair_walk_of_worked_pair():
    w = pair_walk(WORKED_P, WORKED_Q)
    assert w.pos == (1, 1, 2, 1, 2, 1)
    assert w.neg == (2, 2, 1, 1, 1, 1)
    assert endpoint(w) == (0, 0)
    assert stays_in_dominance_region(w)
