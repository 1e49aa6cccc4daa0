"""Skew shapes, standard Young tableau counts, and Littlewood-Richardson coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, NamedTuple

from .errors import SizeCapError
from .partitions import (
    Partition,
    _beta_numbers,
    check_partition,
    format_partition,
    partitions_of,
)

LR_VERIFICATION_CAP = 9


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
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return [(inner[i], self.outer[i]) for i in range(len(self.outer))]

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c) for r, (s, e) in enumerate(self.row_spans()) for c in range(s, e)
        ]

    def __str__(self) -> str:
        return f"{format_partition(self.outer)}/{format_partition(self.inner)}"


def is_border_strip(shape: SkewShape) -> bool:
    """True iff the skew diagram is edge-connected and free of 2x2 blocks.

    On row spans: each nonempty row overlaps the next nonempty one in exactly
    one column.  Rows with an empty row between them share no column, so this
    also makes the nonempty rows consecutive.
    """
    if shape.size == 0:
        raise ValueError("empty skew shape has no border-strip status")
    rows = [(s, e) for s, e in shape.row_spans() if e > s]
    return all(min(e, e2) - max(s, s2) == 1 for (s, e), (s2, e2) in zip(rows, rows[1:]))


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


@lru_cache(maxsize=None)
def _count_rows(rows: tuple[tuple[int, int], ...]) -> int:
    if not rows:
        return 1
    total = 0
    for i, (s, e) in enumerate(rows):
        # cell (i, e-1) can hold the largest entry iff nothing sits below it
        if i + 1 == len(rows) or rows[i + 1][1] < e:
            shrunk = rows[:i] + ((s, e - 1),) + rows[i + 1 :]
            total += _count_rows(_retrim(shrunk))
    return total


def count_skew_syt(shape: SkewShape) -> int:
    """Number of standard fillings of the skew diagram (1 for the empty shape).

    Entries 1..size increase left to right along rows and top to bottom down
    columns.  Computed by corner-removal recursion, memoized on the
    translation-canonical row spans.
    """
    return _count_rows(_retrim(tuple(shape.row_spans())))


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


def lr_coefficient(outer, inner, content) -> int:
    """Littlewood-Richardson coefficient c^outer_{inner, content}.

    Counts semistandard fillings of outer/inner with the given content whose
    reverse reading word (rows top to bottom, each read right to left) is a
    lattice word.  Zero when the sizes mismatch or inner is not contained in
    outer.
    """
    outer = check_partition(outer)
    inner = check_partition(inner)
    content = check_partition(content)
    if sum(outer) != sum(inner) + sum(content):
        return 0
    try:
        shape = SkewShape(outer, inner)
    except ValueError:  # inner is not contained in outer
        return 0
    if shape.size == 0:
        return 1 if not content else 0

    spans = shape.row_spans()
    # cells in reverse-reading order: rows top to bottom, right to left
    order = [(r, c) for r, (s, e) in enumerate(spans) for c in range(e - 1, s - 1, -1)]
    ncolors = len(content)
    remaining = list(content)
    counts = [0] * (ncolors + 1)  # counts[0] is a sentinel ceiling
    counts[0] = shape.size
    fill: dict[tuple[int, int], int] = {}

    def place(k: int) -> int:
        if k == len(order):
            return 1
        r, c = order[k]
        right = fill.get((r, c + 1))
        above = fill.get((r - 1, c))
        lo = 1 if above is None else above + 1
        hi = ncolors if right is None else right
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0 or counts[v] + 1 > counts[v - 1]:
                continue
            fill[(r, c)] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            total += place(k + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            del fill[(r, c)]
        return total

    return place(0)


class LrExpansion(NamedTuple):
    ok: bool
    direct: int
    expansion: int


def verify_lr_expansion(shape: SkewShape) -> LrExpansion:
    """Check that the skew count equals the weighted sum of straight-shape counts.

    Both sides are returned so a failure carries its witness.
    """
    k = shape.size
    if k > LR_VERIFICATION_CAP:
        raise SizeCapError(
            f"verification capped at size {LR_VERIFICATION_CAP}, got {k}"
        )
    direct = count_skew_syt(shape)
    expansion = sum(
        count_syt(nu) * lr_coefficient(shape.outer, shape.inner, nu)
        for nu in partitions_of(k)
    )
    return LrExpansion(direct == expansion, direct, expansion)


def iter_box_skews(rows: int, cols: int, size: int) -> Iterator[SkewShape]:
    """All translation classes of skew shapes with `size` cells in a rows x cols box.

    Yields one canonical representative per class: no empty rows, leftmost cell
    in column 0.  Every skew shape fitting in the box canonicalizes to exactly
    one of these.
    """
    if size < 1:
        raise ValueError("size must be positive")

    def build(row_spans: list[tuple[int, int]], left: int):
        if left == 0:
            if min(s for s, _ in row_spans) == 0:
                outer = tuple(e for _, e in row_spans)
                inner = tuple(s for s, _ in row_spans if s > 0)
                yield SkewShape(outer, inner)
            return
        if len(row_spans) == rows:
            return
        max_s, max_e = (cols, cols) if not row_spans else row_spans[-1]
        for e in range(max_e, 0, -1):
            for s in range(min(e - 1, max_s), -1, -1):
                if e - s <= left:
                    yield from build(row_spans + [(s, e)], left - (e - s))

    yield from build([], size)
