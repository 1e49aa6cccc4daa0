"""Integer partitions: enumeration, counting, conjugation, and exact sampling.

A partition is represented throughout as a tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  The same tuples double
as conjugacy-class cycle types.  All arithmetic is exact (Python integers).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import getitem, lt, sub
from typing import Iterator, Mapping

from .errors import FormatError, SizeCapError

Partition = tuple[int, ...]

ENUMERATION_CAP = 60
SAMPLING_CAP = 5000


def check_partition(parts) -> Partition:
    """Coerce to a tuple of ints and verify weakly decreasing positive parts.

    A part must equal its int: 3.0 is read as 3, but 2.5 is refused, not cut.
    """
    parts = tuple(parts)
    out = tuple(map(int, parts))
    # an integral, weakly decreasing tuple whose last part is positive is valid
    if out != parts or (out and (out[-1] < 1 or any(map(lt, out, out[1:])))):
        for i, x in enumerate(out):  # word the first fault
            if x != parts[i]:
                raise ValueError(f"parts must be positive integers, got {parts[i]!r}")
            if x < 1:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i > 0 and out[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {out}")
    return out


def parse_partition(text: str) -> Partition:
    """Parse the bracket form "[6,5,3,1,1,1]"; "[]" is the empty partition."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise FormatError(f"expected [a1,a2,...], got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(p) for p in inner.split(","))
    except ValueError as exc:
        raise FormatError(f"non-integer part in {text!r}") from exc
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_partition(parts) -> str:
    """Canonical text form: comma-separated parts in brackets."""
    return "[" + ",".join(str(x) for x in parts) + "]"


def partitions_of(n: int) -> tuple[Partition, ...]:
    """Every partition of n once, in reverse-lexicographic order; not cached."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeCapError(f"enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    return tuple(_descending(n, n))


def _descending(n: int, bound: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for k in range(min(bound, n), 0, -1):
        for rest in _descending(n - k, k):
            yield (k,) + rest


_pcount = [1]


def partition_count(n: int) -> int:
    """Exact p(n) via Euler's pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcount[m - g]
            g = k * (3 * k + 1) // 2
            if g <= m:
                total += sign * _pcount[m - g]
            k += 1
        _pcount.append(total)
    return _pcount[n]


def conjugate(parts) -> Partition:
    """Transpose of the Young diagram (an involution)."""
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def _beta_numbers(parts: Partition) -> list[int]:
    """Increasing beta-numbers of a checked partition: its k-th smallest part plus k."""
    return [p + k for k, p in enumerate(reversed(parts))]


def hook_lengths(parts) -> list[list[int]]:
    """Hook length of every box, row by row: arm + leg + 1."""
    parts = check_partition(parts)
    conj = conjugate(parts)
    return [
        [(row - j) + (conj[j] - i) - 1 for j in range(row)]
        for i, row in enumerate(parts)
    ]


def multiplicities(parts) -> dict[int, int]:
    """Map each part size to its multiplicity, largest size first."""
    out: dict[int, int] = {}
    for x in parts:
        out[x] = out.get(x, 0) + 1
    return out


def from_multiplicities(mult: Mapping[int, int]) -> Partition:
    """Rebuild the sorted partition from a size -> count map."""
    parts: list[int] = []
    for m in sorted(mult, reverse=True):
        a = mult[m]
        if a < 0 or (a > 0 and m < 1):
            raise ValueError(f"invalid multiplicity entry {m}: {a}")
        parts.extend([m] * a)
    return tuple(parts)


_bounded: list[list[int]] = [[1]]
_pprefix = [0]  # _pprefix[t] = p(0) + ... + p(t - 1)
_WIDTH_STEP = 64  # rows are built and widened this many entries at a time


def _bounded_counts(n: int) -> list[list[int]]:
    """Rows 0..n of `_bounded`, and `_pprefix` up to t = n.  Row k holds entry
    m, the partitions of k into parts <= m, for m <= min(k // 2, W) only, with
    W = len(_bounded[-1]) - 1 the width every row shares: at least
    _WIDTH_STEP, and wider only as far as a draw has needed (`_widen`).  Past
    k // 2, a partition of k with a part j > m is j plus any partition of
    k - j, so they number _pprefix[k - m] and the entry is p(k) minus that
    (`_bounded_entry`).  So the table holds about n * W integers: W = 448 after
    1,000 draws at n = 2000, where half rows would be n**2 / 4."""
    partition_count(n)
    while len(_pprefix) <= n:
        _pprefix.append(_pprefix[-1] + _pcount[len(_pprefix) - 1])
    width = max(len(_bounded[-1]) - 1, _WIDTH_STEP)
    for k in range(len(_bounded), n + 1):
        row = [0]
        _extend_row(k, row, min(k // 2, width))
        _bounded.append(row)
    return _bounded


def _extend_row(k: int, row: list[int], hi: int) -> None:
    """Append to row k its entries len(row), ..., hi, in C-level passes.

    Partitions of k with largest part j number row k - j's entry j for
    3j <= k, else p(k - j) - _pprefix[k - 2j]; rows below k must be at least
    min(k // 3, hi) wide.
    """
    lo, third = len(row), k // 3
    mid, past = min(hi, third), max(lo, third + 1)
    terms = chain(
        map(getitem, _bounded[k - lo : k - mid - 1 : -1], range(lo, mid + 1)),
        map(
            sub,
            reversed(_pcount[k - hi : k - past + 1]),
            reversed(_pprefix[k - 2 * hi : k - 2 * past + 1 : 2]),
        ),
    )
    row.extend(accumulate(terms, initial=row.pop()))


def _widen(width: int) -> None:
    """Widen every row k of `_bounded` to its entries m <= min(k // 2, width),
    in increasing k, so that each row reads rows already widened."""
    for k in range(2 * len(_bounded[-1]), len(_bounded)):  # the rows with k // 2 > W
        _extend_row(k, _bounded[k], min(k // 2, width))


def _bounded_entry(k: int, m: int) -> int:
    """Partitions of k into parts <= m (0 <= m <= k), once row k is built."""
    row = _bounded[k]
    if len(row) <= m <= k // 2:  # not stored yet, and the p formula is wrong here
        _widen(m)
    return row[m] if m < len(row) else _pcount[k] - _pprefix[k - m]


def sample_seed(seed: int, i: int) -> int:
    """Seed of the i-th draw of a run seeded with `seed`.

    Each integer is folded onto the naturals (x >= 0 -> 2x, x < 0 -> -2x - 1)
    and the pair is joined by Cantor's pairing, so distinct (seed, i) pairs
    never share a seed and the result is never negative (`random.Random`
    ignores the sign of an integer seed).
    """
    a = 2 * seed if seed >= 0 else -2 * seed - 1
    b = 2 * i if i >= 0 else -2 * i - 1
    return (a + b) * (a + b + 1) // 2 + b


def sample_uniform(n: int, rng_seed: int) -> Partition:
    """Draw one partition of n, exactly uniformly over all p(n) of them.

    Picks each successive largest part m at one integer draw, as the least m
    whose count of partitions of the remainder into parts <= m reaches the
    draw: a bisection of the stored row, or of the prefix sums of p for m
    past the half row.  A part past the stored width widens the table first,
    and once the bound is 1 the parts left are 1s without a draw.  O(log n)
    per part, the output a pure function of (n, rng_seed).  The table holds
    about n * W integers for the width W the draws have needed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > SAMPLING_CAP:
        raise SizeCapError(f"sampling capped at n <= {SAMPLING_CAP}, got {n}")
    table = _bounded_counts(n)
    rng = random.Random(rng_seed)
    parts: list[int] = []
    remaining, bound = n, n
    while remaining:
        b = min(bound, remaining)
        if b == 1:  # every part left is 1, and nothing is drawn after them
            parts += [1] * remaining
            break
        row = table[remaining]
        count = _bounded_entry(remaining, b)
        # the least m with _bounded_entry(remaining, m) >= target
        target = count - rng.randrange(count)
        top = min(b, len(row) - 1)
        while row[top] < target and top < remaining // 2:
            _widen(top + _WIDTH_STEP)  # the part is past the stored width
            top = min(b, len(row) - 1)
        if row[top] >= target:
            m = bisect_left(row, target, 1, top + 1)
        else:
            # past the half row the count is p(remaining) - _pprefix[t] with
            # t = remaining - m: take the largest t with _pprefix[t] <= v
            v = _pcount[remaining] - target
            t = bisect_right(_pprefix, v, remaining - b, remaining - top) - 1
            m = remaining - t
        parts.append(m)
        remaining, bound = remaining - m, m
    return tuple(parts)
