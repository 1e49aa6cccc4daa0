"""Exact irreducible character values by iterated border-strip removal.

The cycle type is consumed largest part first; each part removes a border
strip of its length in every way the row allows, with sign (-1)^height.  One
value (`chi`) walks the removals forward, a level per part, keeping a signed
path count per row reached; the reads of many rows on one class
(`chi_column`, `_chi_values`) recurse with one memo that the rows share.
Rows are bead masks (see `abacus.bead_mask`), encoded once per row and size.
Values are plain Python integers, so no precision is ever lost.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import IO

from .abacus import _beads, _partition_mask, bead_mask, from_partition, strip_removals
from .errors import SizeCapError
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    format_partition,
    multiplicities,
    partitions_of,
)
from .tableaux import _degree_of_betas, count_syt

TABLE_CAP = 26
# chi refuses n > CHI_CAP before any work, and stops once its walk has reached
# CHI_STATES bead masks: 3.4-4.1 s and at most 90 MB peak RSS for the capped
# queries measured (2-vCPU x86-64, Python 3.11)
CHI_CAP = 500
CHI_STATES = 500_000
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

    Walks forward a level per part of mu, keeping {bead mask: signed number
    of removal paths}: a strip of height h removed from a mask with count c
    adds (-1)^h * c to the mask it leaves.  A tail of 1s in mu is not walked;
    the value is the sum of c times the degree of each row left.  Raises
    SizeCapError once the walk has reached more than CHI_STATES masks.
    """
    lam, mu = _same_size(lam, mu)
    if sum(mu) > CHI_CAP:
        raise SizeCapError(f"chi capped at n <= {CHI_CAP}, got {sum(mu)}")
    level = {_partition_mask(lam): 1}
    room = CHI_STATES - 1
    head = mu[: len(mu) - mu.count(1)]
    for k, t in enumerate(head):
        reached: dict[int, int] = {}
        for w, c in level.items():
            for _, height, smaller in strip_removals(w, t):
                reached[smaller] = reached.get(smaller, 0) + (-c if height & 1 else c)
            if len(reached) > room:
                raise SizeCapError(
                    f"chi capped at {CHI_STATES} bead-mask states, "
                    f"exceeded on part {k + 1} of mu"
                )
        room -= len(reached)
        level = reached
    return sum(c * _degree_of_betas(_beads(w)) for w, c in level.items())


def _chi_mask(w: int, mu: Partition, idx: int, memo: list[dict]) -> int:
    """chi of the row with bead mask w, of size sum(mu[idx:]), on mu[idx:].

    memo[idx] maps w to the value.  Past the last part the row is empty and
    the value is 1.  This recursion serves the reads of many rows on one
    class, which share the memo: a level-by-level walk that carried a count
    per row was slower for every column at n = 20 (1.34 s against 0.70 s).
    """
    if idx == len(mu):
        return 1
    seen = memo[idx]
    value = seen.get(w)
    if value is None:
        value = 0
        for _, height, smaller in strip_removals(w, mu[idx]):
            sub = _chi_mask(smaller, mu, idx + 1, memo)
            value += -sub if height & 1 else sub
        seen[w] = value
    return value


def _chi_values(masks, mu: Partition) -> list[int]:
    """chi of each row bead mask in `masks` on the class mu, with one memo."""
    memo: list[dict] = [{} for _ in mu]
    return [_chi_mask(w, mu, 0, memo) for w in masks]


@lru_cache(maxsize=None)
def _row_table(n: int) -> tuple[tuple[int, int], ...]:
    """(bead mask, index of the conjugate) of every row of size n, in table order."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    return tuple(
        (bead_mask(from_partition(lam)), index[conjugate(lam)]) for lam in parts
    )


def chi_column(mu) -> list[int]:
    """Character values of every row, in reverse-lex order, on the class `mu`.

    One memo table is shared across rows, so a full column costs little more
    than its hardest entry.  Only rows whose index is at most their
    conjugate's are computed; chi^{lam'}(mu) = (-1)^(n - len(mu)) chi^lam(mu)
    gives the others.
    """
    mu = check_partition(mu)
    n = sum(mu)
    sign = -1 if (n - len(mu)) & 1 else 1
    memo: list[dict] = [{} for _ in mu]
    column: list[int] = []
    for i, (w, j) in enumerate(_row_table(n)):
        column.append(_chi_mask(w, mu, 0, memo) if i <= j else sign * column[j])
    return column


def degree(lam) -> int:
    """Dimension of the irreducible representation (hook-length formula)."""
    return count_syt(lam)


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


def build_table(n: int, threads: int = 1) -> CharacterTable:
    """Compute the full character table, one class column at a time.

    Columns are independent, so they may be farmed out to worker processes;
    the result is identical for every worker count.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > TABLE_CAP:
        raise SizeCapError(f"table size capped at n <= {TABLE_CAP}, got {n}")
    parts = partitions_of(n)
    if threads > 1 and len(parts) >= 8:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(parts) // (threads * 8))
            columns = list(pool.map(chi_column, parts, chunksize=chunk))
    else:
        columns = [chi_column(mu) for mu in parts]
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
    for lam, row in zip(table.partitions, table.rows):
        out.write(format_partition(lam) + "," + ",".join(map(str, row)) + "\n")


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
