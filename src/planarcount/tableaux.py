"""Standard Young tableaux, RSK row insertion and bounded-column counting.

Rows are numbered from the top starting at 1, so "strictly above" means a
strictly smaller row index.  Entries are distinct positive integers that
increase along rows and down columns.  Standard tableaux and the tableaux
with a block condition come from one fill, which places one value at a
time and prunes by the block rule as it goes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import factorial
from operator import ge, lt
from typing import Iterator

from .graphs import check_count_params, check_kind, check_length_params
from .perms import check_permutation
from .walks import Walk, strictly_increasing_blocks, weakly_decreasing_blocks


@dataclass(frozen=True, slots=True)
class YoungTableau:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        lengths = list(map(len, rows))
        if 0 in lengths:
            raise ValueError("empty rows are not allowed")
        if any(map(lt, lengths, lengths[1:])):
            raise ValueError("row lengths must weakly decrease")
        entries = [x for row in rows for x in row]
        if len(set(entries)) != len(entries):
            raise ValueError("entries must be distinct")
        for row in rows:
            if any(map(ge, row, row[1:])):
                raise ValueError("rows must increase left to right")
        # row lengths weakly decrease, so each pair stops at the lower row
        for upper, lower in zip(rows, rows[1:]):
            if any(map(ge, upper, lower)):
                raise ValueError("columns must increase top to bottom")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def column_count(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entries(self) -> list[int]:
        return sorted(x for row in self.rows for x in row)

    def position_of(self, value: int) -> tuple[int, int]:
        """1-based (row, column) of an entry."""
        for i, row in enumerate(self.rows):
            j = bisect_right(row, value) - 1
            if j >= 0 and row[j] == value:
                return (i + 1, j + 1)
        raise ValueError(f"{value} is not an entry")

    def to_text(self) -> str:
        inner = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in self.rows)
        return "[" + inner + "]"


def _insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Schensted insertion on plain lists, in place: x bumps the smallest
    larger entry of row 1, the bumped value recurses into row 2, and so on.
    Returns the 1-based (row, column) of the created box."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return (i + 1, 1)
        row = rows[i]
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return (i + 1, j + 1)
        x, row[j] = row[j], x
        i += 1


def _freeze(rows: list[list[int]]) -> YoungTableau:
    return YoungTableau(tuple(tuple(row) for row in rows))


def rsk(perm) -> tuple[YoungTableau, YoungTableau]:
    """Insertion tableau P and recording tableau Q of a permutation.

    P collects the values in insertion order; Q records in which box the
    i-th insertion grew the shape.  The two always share a shape, and the
    number of columns equals the longest increasing subsequence.  Both are
    built on plain lists and validated once, at the end.
    """
    perm = check_permutation(perm)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, value in enumerate(perm, start=1):
        bi, _ = _insert(p_rows, value)
        if bi > len(q_rows):
            q_rows.append([i])
        else:
            q_rows[bi - 1].append(i)
    return _freeze(p_rows), _freeze(q_rows)


def rsk_inverse(p: YoungTableau, q: YoungTableau) -> tuple[int, ...]:
    """The unique permutation whose insertion/recording pair is (p, q)."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    m = p.size
    if p.entries() != list(range(1, m + 1)) or q.entries() != list(range(1, m + 1)):
        raise ValueError(f"entries of both tableaux must be exactly [{m}]")
    # 1-based (row, column) of each entry of q, the steps read back to front
    position = {
        value: (i, j)
        for i, row in enumerate(q.rows, start=1)
        for j, value in enumerate(row, start=1)
    }
    rows = [list(row) for row in p.rows]
    out = [0] * m
    for step in range(m, 0, -1):
        i, j = position[step]
        x = rows[i - 1].pop(j - 1)
        if not rows[i - 1]:
            rows.pop()
        # bump upwards: in each higher row the rightmost entry smaller than x
        # is displaced
        for k in range(i - 2, -1, -1):
            j2 = bisect_right(rows[k], x) - 1
            x, rows[k][j2] = rows[k][j2], x
        out[step - 1] = x
    return tuple(out)


def blocks_strictly_below(t: YoungTableau, n: int, r: int) -> bool:
    """Within every group of r consecutive values r(i-1)+1..ri, each value
    sits in a strictly higher row than its successor."""
    return strictly_increasing_blocks(_block_row_word(t, n, r), r)


def blocks_weakly_above(t: YoungTableau, n: int, r: int) -> bool:
    """Within every group of r consecutive values, each successor sits weakly
    above (same row or higher than) its predecessor."""
    return weakly_decreasing_blocks(_block_row_word(t, n, r), r)


def _block_row_word(t: YoungTableau, n: int, r: int) -> list[int]:
    """For entries 1..rn in order, the row each occupies.  The entries are
    distinct, so rn of them in [1, rn] are exactly [rn]."""
    m = n * r
    if t.size != m:
        raise ValueError(f"entries must be exactly [{m}]")
    word = [0] * m
    for i, row in enumerate(t.rows, start=1):
        for value in row:
            if not 1 <= value <= m:
                raise ValueError(f"entries must be exactly [{m}]")
            word[value - 1] = i
    return word


def iter_partitions(m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m with every part <= max_part, largest-first order."""
    yield from _partitions(m, max_part, [])


def _partitions(remaining: int, cap: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
    """The partitions that extend `acc` by parts <= cap summing to
    `remaining`, largest part first."""
    if remaining == 0:
        yield tuple(acc)
        return
    for part in range(min(cap, remaining), 0, -1):
        acc.append(part)
        yield from _partitions(remaining - part, part, acc)
        acc.pop()


def enumerate_tableaux(m: int, d: int) -> Iterator[YoungTableau]:
    """Every standard tableau with entries [m] and at most d columns.

    Shapes come first (partitions of m with parts <= d), then each shape is
    filled by `_fill` with r = 1, where every value opens a block.
    """
    check_length_params(m, d)
    for shape in iter_partitions(m, d):
        yield from _fill(shape, 1, "matching")


def _fill(shape: tuple[int, ...], r: int, kind: str) -> Iterator[YoungTableau]:
    """The standard tableaux of `shape` with the block condition of `kind`,
    grown as a list of partial fills, one value at a time.  Value k goes to
    the end of any row that is shorter than its part and than the row
    above, topmost row first.  Unless k opens a block ((k - 1) % r == 0),
    its row must also be strictly below the row of k - 1 ("matching") or
    weakly above it ("subgraph").  The condition is prefix-closed, so the
    pruned fill keeps the tableaux a filter would, in the same order."""
    h = len(shape)
    # the rows value k may take, by the row of k - 1 (a 0-based index)
    free = [range(h)] * h
    rule = [range(i + 1, h) if kind == "matching" else range(i + 1) for i in range(h)]
    fills = [(((),) * h, 0)]
    for k in range(1, sum(shape) + 1):
        rows_for = free if (k - 1) % r == 0 else rule
        fills = [
            (rows[:i] + (rows[i] + (k,),) + rows[i + 1 :], i)
            for rows, last in fills
            for i in rows_for[last]
            if len(rows[i]) < shape[i] and (i == 0 or len(rows[i - 1]) > len(rows[i]))
        ]
    for rows, _ in fills:
        yield YoungTableau(rows)


def iter_block_tableaux(n: int, r: int, d: int, kind: str) -> Iterator[YoungTableau]:
    """The tableaux of `enumerate_tableaux(rn, d)`, in its order, that satisfy
    the block condition of `kind`: strict block descents for "matching", weak
    block ascents for "subgraph".  Each shape is filled by `_fill`, which
    prunes by the condition as the fill grows.  For rn = 0 the empty tableau
    meets both."""
    check_count_params(n, r, d)
    check_kind(kind)
    for shape in iter_partitions(n * r, d):
        yield from _fill(shape, r, kind)


def count_tableau_pairs(n: int, r: int, d: int, kind: str = "matching") -> int:
    """Ordered pairs of equal-shape tableaux on [rn] with at most d columns,
    both satisfying the block condition selected by `kind`:

    - "matching": strict block descents (counts graphs by largest matching)
    - "subgraph": weak block ascents (counts graphs by largest subgraph)

    The two members of a pair are constrained independently given the shape,
    so the total is the sum over shapes of the squared per-shape count.
    """
    shapes = Counter(t.shape for t in iter_block_tableaux(n, r, d, kind))
    return sum(c * c for c in shapes.values())


def tableau_pairs_cost(n: int, r: int) -> int:
    """Bound on the tableaux `count_tableau_pairs` enumerates: (rn)!.  A
    true bound but a loose one, since the fill builds only block tableaux:
    12! is about 4.8e8 at (6, 2, 12), against 2 578 tableaux."""
    return factorial(n * r)


def pair_walk(p: YoungTableau, q: YoungTableau, d: int | None = None):
    """Closed walk of an equal-shape pair: the column word of p as positive
    steps, then the column word of q reversed as negative steps.  Equal
    shapes make the walk end at the origin."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    if d is None:
        d = max(1, p.column_count)
    return column_words_walk(column_word(p), column_word(q), d)


def column_words_walk(p_word: tuple[int, ...], q_word: tuple[int, ...], d: int):
    """`pair_walk` of the tableaux with column words p_word and q_word, for
    callers that read each tableau's word once and pair it many times."""
    return Walk(d=d, pos=p_word, neg=q_word[::-1])


def column_word(t: YoungTableau) -> tuple[int, ...]:
    """For entries 1..m in order, the column index each entry occupies."""
    m = t.size
    word = [0] * m
    for i, row in enumerate(t.rows):
        for j, value in enumerate(row):
            if not 1 <= value <= m:
                raise ValueError(f"entries must be exactly [{m}]")
            word[value - 1] = j + 1
    return tuple(word)


def tableau_from_column_word(word, d: int) -> YoungTableau:
    """Inverse of `column_word`: column l collects the positions holding l,
    sorted increasingly.  Valid only for words whose running column counts
    weakly decrease (the walk stays in the dominance region) and stay <= d."""
    counts = [0] * (d + 1)
    for i, value in enumerate(word, start=1):
        if not 1 <= value <= d:
            raise ValueError(f"step {value} at position {i} leaves [1..{d}]")
        counts[value] += 1
        if value > 1 and counts[value] > counts[value - 1]:
            raise ValueError(f"position {i} leaves the dominance region")
    columns: dict[int, list[int]] = {}
    for i, value in enumerate(word, start=1):
        columns.setdefault(value, []).append(i)
    height = len(columns.get(1, ()))
    rows = []
    for i in range(height):
        row = [columns[l][i] for l in sorted(columns) if len(columns[l]) > i]
        rows.append(tuple(row))
    return YoungTableau(tuple(rows))
