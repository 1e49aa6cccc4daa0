"""Skew shapes and standard Young tableau counts."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

from .partitions import (
    Partition,
    _beta_numbers,
    check_partition,
    format_partition,
)

@dataclass(frozen=True)
class SkewShape:
    """The boxes of `outer` not in `inner`, with diagram containment enforced."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        outer = check_partition(self.outer)
        inner = check_partition(self.inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        if len(inner) > len(outer) or any(t > o for t, o in zip(inner, outer)):
            raise ValueError(f"inner shape {inner} not contained in {outer}")

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_spans(self) -> list[tuple[int, int]]:
        """Per row of outer, the half-open column interval [start, end) of cells."""
        return list(_row_spans(self.outer, self.inner))

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c) for r, (s, e) in enumerate(self.row_spans()) for c in range(s, e)
        ]

    def __str__(self) -> str:
        return f"{format_partition(self.outer)}/{format_partition(self.inner)}"


def _row_spans(outer: Partition, inner: Partition) -> tuple[tuple[int, int], ...]:
    """Per row of outer, the span [start, end) of the cells of outer/inner."""
    return tuple(zip(inner + (0,) * (len(outer) - len(inner)), outer))


def is_border_strip(shape: SkewShape) -> bool:
    """True iff the skew diagram is edge-connected and free of 2x2 blocks.

    Starts and ends of a skew diagram's rows never increase downward, so a row
    [s, e) and the next nonempty row [s2, e2) share the columns [s, e2): each
    pair must share exactly one.  Rows with an empty row between them share
    none, so this also makes the nonempty rows consecutive.
    """
    if shape.size == 0:
        raise ValueError("empty skew shape has no border-strip status")
    rows = [(s, e) for s, e in shape.row_spans() if e > s]
    return all(e2 - s == 1 for (s, _), (_, e2) in zip(rows, rows[1:]))


def _retrim(rows: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Memo key: nonempty row spans, shifted so the leftmost cell is in column 0.

    Translation-equivalent shapes share a key; empty rows impose no ordering
    constraints on fillings and are dropped.
    """
    rows = tuple((s, e) for s, e in rows if e > s)
    if not rows:
        return ()
    c0 = min(s for s, _ in rows)
    if c0:
        rows = tuple((s - c0, e - c0) for s, e in rows)
    return rows


def _count_rows(rows: tuple[tuple[int, int], ...], memo: dict) -> int:
    """Standard fillings of the canonical row spans `rows` (see `_retrim`).

    At the first row that shares no column with the row below it the shape
    splits: the rows down to it, shifted to column 0, and the rest fill
    independently, their k and n - k entries interleaved in C(n, k) ways.  So
    only connected span tuples enter `memo`, which maps them to their counts
    and lives as long as the caller keeps it.  In a connected shape a row of
    one cell is a corner only when it is the last, which holds column 0, so
    every child passed down is canonical too.
    """
    if not rows:
        return 1
    total = memo.get(rows)
    if total is not None:
        return total
    last = len(rows) - 1
    for i in range(last):
        c0 = rows[i][0]
        if rows[i + 1][1] <= c0:
            top = tuple((s - c0, e - c0) for s, e in rows[: i + 1])
            k = sum(e - s for s, e in top)
            rest = rows[i + 1 :]
            n = k + sum(e - s for s, e in rest)
            return comb(n, k) * _count_rows(top, memo) * _count_rows(rest, memo)
    total = 0
    for i, (s, e) in enumerate(rows):
        # cell (i, e-1) can hold the largest entry iff nothing sits below it
        if i < last and rows[i + 1][1] >= e:
            continue
        if e - s > 1:
            child = rows[:i] + ((s, e - 1),) + rows[i + 1 :]
        else:
            c0 = rows[i - 1][0] if i else 0
            child = tuple((a - c0, b - c0) for a, b in rows[:i])
        total += _count_rows(child, memo)
    memo[rows] = total
    return total


def count_skew_syt(shape: SkewShape) -> int:
    """Number of standard fillings of the skew diagram (1 for the empty shape).

    Entries 1..size increase left to right along rows and top to bottom down
    columns.  Computed by corner-removal recursion, memoized for this call on
    the translation-canonical row spans.
    """
    return _skew_count(shape.outer, shape.inner, {})


def _skew_count(outer: Partition, inner: Partition, memo: dict) -> int:
    """`count_skew_syt` of checked outer/inner, inner inside outer, through `memo`."""
    return _count_rows(_retrim(_row_spans(outer, inner)), memo)


def count_syt(shape) -> int:
    """Degree f of the straight shape, by the hook-length formula on beta-numbers."""
    return _degree_of_betas(_beta_numbers(check_partition(shape)))


def _degree_of_betas(betas) -> int:
    """Degree f of the partition with the increasing beta-numbers `betas`.

    The i-th smallest of k beta-numbers is a part plus i, so the parts sum to
    N = sum(betas) - k(k-1)/2, and the hook-length formula reads
    f = N! * prod_{i<j} (b_j - b_i) / prod b_i!.
    """
    num = factorial(sum(betas) - len(betas) * (len(betas) - 1) // 2)
    den = 1
    for j, b in enumerate(betas):
        den *= factorial(b)
        for a in betas[:j]:
            num *= b - a
    return num // den


def _box_classes(
    rows: int, cols: int, size: int, memo: dict | None = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], int | None]]:
    """(spans, f) for every translation class of `size` cells in a box.

    `spans` are the class's canonical row spans: no empty row and the leftmost
    cell in column 0, so a `_count_rows` key as it stands.  Starts and ends
    never increase downward, so the last row holds the leftmost cell.  Given a
    `memo` for `_count_rows`, f is the class's filling count, or None for a
    border strip; without one, f is None throughout.

    The walk appends rows top to bottom.  A row that shares no column with
    the row above closes the open connected component, and the walk carries
    the product of the closed ones, each times the binomial that interleaves
    its entries with those above it; a class then costs one count of its last
    component.  It also carries whether the rows so far form a border strip.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if rows < 1:
        return
    # partial classes (spans, cells left, count of the components spans[:start],
    # start, cells in spans[:start], strip), children pushed last one first
    stack = [((), size, 1, 0, 0, True)]
    while stack:
        spans, left, closed, start, before, strip = stack.pop()
        if not left:
            if strip or memo is None:
                yield spans, None
            else:
                last = _count_rows(spans[start:], memo)
                yield spans, closed * comb(size, size - before) * last
            continue
        max_s, max_e = spans[-1] if spans else (cols, cols)
        used = size - left
        deeper = len(spans) + 1 < rows
        shut = None
        for e in range(1, min(max_e, max_s + left) + 1):
            if e > max_s:  # shares columns [max_s, e) with the row above
                head, st, cells = closed, start, before
                strip_e = strip and e - max_s == 1
            else:  # a gap, or the first row, opens a component
                if shut is None and memo is not None:
                    top = tuple((a - max_s, z - max_s) for a, z in spans[start:])
                    shut = closed * comb(used, used - before) * _count_rows(top, memo)
                head, st, cells = shut, len(spans), used
                strip_e = not spans
            for s in range(max(e - left, 0), min(e - 1, max_s) + 1):
                rest = left - (e - s)
                # a class ends in column 0, and a partial one needs a row to spare
                if deeper if rest else not s:
                    stack.append((spans + ((s, e),), rest, head, st, cells, strip_e))


def _box_class_count(rows: int, cols: int, size: int, cap: int) -> int:
    """Translation classes of 1..size cells in a rows x cols box, or a bound past `cap`.

    A sweep of `_box_classes(rows, cols, size)` visits the classes of `size`
    cells, so this bounds its time; its memo holds only connected classes of
    at most `size` cells.  When the classes of single-cell rows stepping left
    already outnumber `cap`, their count is returned instead.
    """
    size = min(size, rows * cols)
    depth = min(rows, size)
    if min(depth, cols) < 1:
        return 0
    lower = term = 1
    for j in range(1, depth):
        term = term * (cols - 1 + j) // j  # j + 1 such rows: C(cols - 1 + j, j)
        lower += term
        if lower > cap:
            return lower
    # ways[s][e][k]: span tuples of k cells, one per row so far, the last [s, e)
    ways = _grid(cols, size)
    for e in range(1, cols + 1):
        for s in range(max(e - size, 0), e):
            ways[s][e][e - s] = 1
    total = sum(sum(ways[0][e]) for e in range(1, cols + 1))
    for _ in range(depth - 1):
        # suffix sums over starts, then over ends: every row that fits above
        for s in range(cols - 1, -1, -1):
            for e in range(1, cols + 1):
                ways[s][e] = [a + b for a, b in zip(ways[s][e], ways[s + 1][e])]
        for s in range(cols):
            for e in range(cols - 1, 0, -1):
                ways[s][e] = [a + b for a, b in zip(ways[s][e], ways[s][e + 1])]
        ways, above = _grid(cols, size), ways
        for e in range(1, cols + 1):
            for s in range(max(e - size, 0), e):
                ways[s][e][e - s :] = above[s][e][: size + 1 - (e - s)]
        total += sum(sum(ways[0][e]) for e in range(1, cols + 1))
    return total


def _grid(cols: int, size: int) -> list[list[list[int]]]:
    return [[[0] * (size + 1) for _ in range(cols + 1)] for _ in range(cols + 1)]


def _spans_shape(spans: tuple[tuple[int, int], ...]) -> SkewShape:
    """The skew shape whose rows are the canonical `spans`."""
    return SkewShape(tuple(e for _, e in spans), tuple(s for s, _ in spans if s > 0))


def iter_box_skews(rows: int, cols: int, size: int) -> Iterator[SkewShape]:
    """All translation classes of skew shapes with `size` cells in a rows x cols box.

    Yields one canonical representative per class: no empty rows, leftmost cell
    in column 0.  Every skew shape fitting in the box canonicalizes to exactly
    one of these.
    """
    for spans, _ in _box_classes(rows, cols, size):
        yield _spans_shape(spans)
