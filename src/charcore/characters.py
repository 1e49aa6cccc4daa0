"""Exact irreducible character values by iterated border-strip removal.

Each part of the cycle type removes a border strip of its length in every way
the row allows, with sign (-1)^height.  Reads go from the empty row up,
smallest part first, through transfer lists (`_transfers`): for each row of
a size N, the indices of the rows of N - t its t-strips leave, with the sign
of their height, held flat and built once per N and t for the life of the
process.  The values of a class tail on every row of its size form a level
(`_level`), and a part goes up a level in a few C-level passes (`_apply`).
Levels of at most CHI_TAIL cells are kept, so they are built once for every
class that ends in the same small parts.  One value (`chi`) or a few rows
(`_chi_values`) walk forward from their rows instead, largest part first,
until at most CHI_TAIL cells remain, and read the rest from the cached
level.  Rows are bead masks (see `abacus.bead_mask`), one table per size
(`_row_table`).  Values are plain Python integers, so no precision is lost.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import factorial
from operator import mul, sub
from typing import IO

from .abacus import (
    _beads,
    _conjugate_mask,
    _partition_mask,
    bead_mask,
    from_partition,
    strip_removals,
)
from .errors import SizeCapError
from .partitions import (
    Partition,
    check_partition,
    format_partition,
    multiplicities,
    partitions_of,
)
from .tableaux import _degree_of_betas

TABLE_CAP = 26
# chi refuses n > CHI_CAP before any work, and stops once its walk has reached
# CHI_STATES bead masks: 2.2-3.3 s and at most 85 MB peak RSS for the capped
# queries measured on the CLI (2-vCPU x86-64, Python 3.11)
CHI_CAP = 500
CHI_STATES = 500_000
# chi and _chi_values walk forward only while more than CHI_TAIL cells of mu
# remain, and read the rest from its cached level (`_level`): at most
# p(0) + ... + p(16) = 915 levels of 125,411 values in all.  Bench `point`
# wall_s, median (range) of 3 runs of 20 s by CHI_TAIL (2-vCPU x86-64,
# Python 3.11): no cut 1.22 (1.20-1.22) s, 12 1.05 (1.03-1.08), 14 1.04
# (1.01-1.07), 16 1.00 (1.00-1.03), 18 1.04 (1.02-1.06), 20 1.18 (1.18-1.19),
# 22 1.52 (1.51-1.55); past 16 the levels cost more to build than they save.
CHI_TAIL = 16
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _same_size(lam, mu) -> tuple[Partition, Partition]:
    """Both partitions checked; a ValueError unless they partition the same integer."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(
            f"lambda and mu must partition the same integer, "
            f"got {sum(lam)} and {sum(mu)}"
        )
    return lam, mu


def chi(lam, mu) -> int:
    """Character value of the row `lam` on the conjugacy class `mu`.

    Walks forward a level per part of mu (`_head` of them), keeping {bead
    mask: signed number of removal paths}: a strip of height h removed from
    a mask with count c adds (-1)^h * c to the mask it leaves.  The value is
    the sum of c times the value of the rest of mu on each row left
    (`_tail_values`).  Raises SizeCapError once the walk has reached more
    than CHI_STATES masks.
    """
    lam, mu = _same_size(lam, mu)
    if sum(mu) > CHI_CAP:
        raise SizeCapError(f"chi capped at n <= {CHI_CAP}, got {sum(mu)}")
    # a walk of its own: through `_chi_values` point queries took 1.3-1.4x as long
    level = {_partition_mask(lam): 1}
    room = CHI_STATES - 1
    k = _head(mu)
    for j, t in enumerate(mu[:k]):
        reached: dict[int, int] = {}
        for w, c in level.items():
            for _, height, smaller in strip_removals(w, t):
                reached[smaller] = reached.get(smaller, 0) + (-c if height & 1 else c)
            if len(reached) > room:
                raise SizeCapError(
                    f"chi capped at {CHI_STATES} bead-mask states, "
                    f"exceeded on part {j + 1} of mu"
                )
        room -= len(reached)
        level = reached
    return sum(map(mul, level.values(), _tail_values(level, mu[k:])))


def _head(mu: Partition) -> int:
    """How many parts of mu a forward walk removes: its parts above 1 until
    at most CHI_TAIL cells remain."""
    left = sum(mu)
    for k, t in enumerate(mu):
        if left <= CHI_TAIL or t == 1:
            return k
        left -= t
    return len(mu)


def _tail_values(masks, tail: Partition) -> list[int]:
    """chi of each row bead mask in `masks` on the class `tail`: read from
    its cached level, or, for more than CHI_TAIL 1s, the degree of the row.
    """
    n = sum(tail)
    if n > CHI_TAIL:
        return [_degree_of_betas(_beads(w)) for w in masks]
    level, index = _level(tail[::-1]), _row_table(n)[3]
    return [level[index[w]] for w in masks]


@lru_cache(maxsize=None)
def _row_table(n: int) -> tuple[tuple[int, ...], int, tuple[int, ...], dict[int, int]]:
    """The rows of size n in level order, how many are top rows, where each
    row of table order is read from the top of a column, and each row's level
    position: (bead masks, top, signed, index).  `_transfers` only reads
    `index`; `_chi_values` numbers the rows it reaches in dicts of its own.

    Level order puts first, in table order, the `top` rows whose table index
    is at most their conjugate's, then the others.  Entry i of `signed` is the
    level position of table row i, or its conjugate's complemented (~k) when
    row i is not a top row.
    """
    masks = [bead_mask(from_partition(lam)) for lam in partitions_of(n)]
    index = {w: i for i, w in enumerate(masks)}
    conjugates = [index[_conjugate_mask(w)] for w in masks]
    top = [i for i, j in enumerate(conjugates) if i <= j]
    pos = {i: k for k, i in enumerate(top)}
    signed = tuple(pos[i] if i <= j else ~pos[j] for i, j in enumerate(conjugates))
    order = top + [i for i, j in enumerate(conjugates) if i > j]
    rows = tuple(masks[i] for i in order)
    return rows, len(top), signed, {w: k for k, w in enumerate(rows)}


def _strip_lists(rows, t: int, number) -> tuple[list[int], list[int]]:
    """Where the t-strips of each bead mask in `rows` lead, held flat.

    The first list holds, per t-strip of each row in turn, the number
    `number(w)` of the row w left by removing it, or its complement ~i when
    the strip's height is odd; the caller's `number` decides how rows left
    are numbered.  The second holds the offsets where each row's entries
    start, and then where the last one ends.  Read against a signed level
    (`_signed`), a row's entries sum to its value.
    """
    flat, bounds = [], [0]
    for w in rows:
        for _, height, smaller in strip_removals(w, t):
            i = number(smaller)
            flat.append(~i if height & 1 else i)
        bounds.append(len(flat))
    return flat, bounds


def _signed(values: list[int]) -> list[int]:
    """values, then their negatives in reverse, so that entry ~i is -values[i]."""
    return values + [-v for v in reversed(values)]


def _apply(lists, values: list[int], rows: int | None = None) -> list[int]:
    """The values one part up: the entries of each row of `lists` (flat, as
    `_strip_lists` makes them) summed over `values`, for the first `rows`
    rows or all of them.  One prefix sum over the flat entries, then one
    difference per row; a row with no entries gets 0.
    """
    flat, bounds = lists
    if rows is None:
        rows = len(bounds) - 1
    g = _signed(values).__getitem__
    pre = list(accumulate(map(g, islice(flat, bounds[rows])), initial=0))
    get = pre.__getitem__
    return list(map(sub, map(get, islice(bounds, 1, rows + 1)), map(get, bounds)))


@lru_cache(maxsize=None)
def _transfers(n: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`_strip_lists` of every row of size n, in level order, numbered by
    the level positions of size n - t; a row left missing there raises
    KeyError.  Each row of n is scanned once per t for the life of the process.
    """
    flat, bounds = _strip_lists(_row_table(n)[0], t, _row_table(n - t)[3].__getitem__)
    return tuple(flat), tuple(bounds)


# levels of class tails of at most CHI_TAIL cells, kept for the life of the
# process; never to be changed
_LEVELS: dict[tuple[int, ...], list[int]] = {}


def _level(tail: tuple[int, ...]) -> list[int]:
    """Values of the class `tail`, whose parts are increasing, on every row
    of size sum(tail) in level order: the transfer list of its last part
    applied to the level of the parts before it, down to [1], the value on
    the empty row.  Levels of at most CHI_TAIL cells are read from
    `_LEVELS`, and built once.
    """
    if not tail:
        return [1]
    level = _LEVELS.get(tail)
    if level is None:
        n = sum(tail)
        level = _apply(_transfers(n, tail[-1]), _level(tail[:-1]))
        if n <= CHI_TAIL:
            _LEVELS[tail] = level
    return level


def _chi_values(masks, mu: Partition) -> list[int]:
    """chi of each row bead mask in `masks` on the class mu.

    Strip lists are made for only the rows the masks reach, largest part
    first, so a few rows cost far less than their column.  As in `chi`, the
    walk stops after `_head(mu)` parts: the rows left get their values from
    `_tail_values`, and the lists are applied from there back up.
    """
    top = {w: i for i, w in enumerate(dict.fromkeys(masks))}
    index, lists = top, []
    k = _head(mu)
    for t in mu[:k]:
        below = defaultdict()  # numbers each row in order of first reach
        below.default_factory = below.__len__
        lists.append(_strip_lists(index, t, below.__getitem__))
        index = below
    level = _tail_values(index, mu[k:])
    for rows in reversed(lists):
        level = _apply(rows, level)
    return [level[top[w]] for w in masks]


def chi_column(mu) -> list[int]:
    """Character values of every row, in reverse-lex order, on the class `mu`.

    The parts below the largest give a full level (`_level`); at the top
    only the top rows of `_row_table` are computed.  Each row of table order
    reads its own value or its conjugate's through `signed`, since
    chi^{lam'}(mu) = (-1)^(n - len(mu)) chi^lam(mu): entry ~k reads top row k
    negated (`_signed`) when n - len(mu) is odd, mirrored when it is even.
    """
    mu = check_partition(mu)
    if not mu:
        return [1]
    n = sum(mu)
    _, top, signed, _ = _row_table(n)
    half = _apply(_transfers(n, mu[0]), _level(mu[:0:-1]), top)
    both = _signed(half) if (n - len(mu)) & 1 else half + half[::-1]
    return list(map(both.__getitem__, signed))


def centralizer_order(mu) -> int:
    """Order of the centralizer of the class `mu`: prod of m^a_m * a_m!."""
    z = 1
    for m, a in multiplicities(check_partition(mu)).items():
        z *= m**a * factorial(a)
    return z


@dataclass(frozen=True)
class CharacterTable:
    """Full p(n) x p(n) table; rows and columns both in reverse-lex order."""

    n: int
    partitions: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]


def _columns(n: int):
    """The classes of size n and their columns (`chi_column`), computed one at
    a time as they are read; n is checked against TABLE_CAP before any."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > TABLE_CAP:
        raise SizeCapError(f"table size capped at n <= {TABLE_CAP}, got {n}")
    parts = partitions_of(n)
    return parts, map(chi_column, parts)


def build_table(n: int) -> CharacterTable:
    """Compute the full character table, one class column at a time."""
    parts, columns = _columns(n)
    return CharacterTable(n, parts, tuple(zip(*columns)))


def verify_orthogonality(table: CharacterTable):
    """Exact column orthogonality against centralizer orders.

    Returns (True, None) or (False, witness) with the first failing pair.
    """
    parts = table.partitions
    k = len(parts)
    zs = [centralizer_order(mu) for mu in parts]
    for j in range(k):
        for l in range(j, k):
            dot = sum(row[j] * row[l] for row in table.rows)
            expected = zs[j] if j == l else 0
            if dot != expected:
                return False, {
                    "mu": format_partition(parts[j]),
                    "nu": format_partition(parts[l]),
                    "got": dot,
                    "expected": expected,
                }
    return True, None


def _json_value(v: int):
    return v if _INT64_MIN <= v <= _INT64_MAX else str(v)


def write_table_csv(table: CharacterTable, out: IO[str]) -> None:
    """CSV export: header row of class cycle types, first column the row label."""
    labels = [format_partition(mu) for mu in table.partitions]
    out.write("partition," + ",".join(labels) + "\n")
    fmt = ",%d" * len(labels) + "\n"
    for lam, row in zip(table.partitions, table.rows):
        out.write(format_partition(lam) + fmt % row)


def write_table_json(table: CharacterTable, out: IO[str]) -> None:
    """JSON export, streamed row by row; oversized values become decimal strings."""
    labels = [format_partition(mu) for mu in table.partitions]
    out.write('{"n":%d,"classes":%s,"rows":[' % (table.n, json.dumps(labels)))
    for i, (lam, row) in enumerate(zip(table.partitions, table.rows)):
        if i:
            out.write(",")
        out.write(
            '{"partition":%s,"values":%s}'
            % (
                json.dumps(format_partition(lam)),
                json.dumps([_json_value(v) for v in row]),
            )
        )
    out.write("]}")
