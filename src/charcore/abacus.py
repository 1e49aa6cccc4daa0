"""The 0/1 bead-sequence encoding of partitions.

Reading the boundary of a Young diagram from the bottom-left corner to the
top-right corner, writing 0 for every step right and 1 for every step up,
gives a finite word; padding with 1s on the left and 0s on the right turns it
into a bi-infinite bead sequence, considered up to index shifts.  `Abacus`
stores the finite window together with the absolute index of its first symbol.

Hooks of the partition are exactly the index pairs (i, i + t) whose beads read
(0, 1); swapping the two beads removes the corresponding border strip.  All
values here are immutable and every operation returns a fresh abacus.

The hot paths work on the window as one integer, its bead mask: bit i is the
bead at window index i (`bead_mask`).  The starts of the hooks of length t
are then the set bits of `(w >> t) & ~w`, a hook's height is the bit count of
the beads strictly between its two ends, a strip is removed by XOR-ing its two
bits, and the window is made canonical again by shifting off the low run of
1s (`strip_removals`).  `mask_partition` reads the partition back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import FormatError, UnreachableError
from .partitions import Partition, check_partition
from .tableaux import SkewShape


@dataclass(frozen=True)
class Abacus:
    word: tuple[int, ...]
    offset: int = 0

    def bead(self, i: int) -> int:
        """Bead at absolute index i: implicit 1s to the left, 0s to the right."""
        if i < self.offset:
            return 1
        if i >= self.offset + len(self.word):
            return 0
        return self.word[i - self.offset]

    def shift(self, j: int) -> "Abacus":
        """Index-shifted window; represents the same partition."""
        return Abacus(self.word, self.offset + j)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.word) + f"@{self.offset}"


@dataclass(frozen=True)
class Hook:
    """Index pair (start, start + length) with beads (0, 1) on the owning abacus.

    `height` counts the 1s strictly between the two indices, which equals one
    less than the number of diagram rows the border strip meets.
    """

    start: int
    length: int
    height: int

    @property
    def end(self) -> int:
        return self.start + self.length


def trim_word(word) -> tuple[int, ...]:
    """Drop the redundant 1-prefix and 0-suffix of a window."""
    w = tuple(word)
    i = 0
    while i < len(w) and w[i] == 1:
        i += 1
    j = len(w)
    while j > i and w[j - 1] == 0:
        j -= 1
    return w[i:j]


def canonicalize(word) -> Abacus:
    """Canonical window: trimmed, with the first 0 placed at index 0."""
    return Abacus(trim_word(word), 0)


def from_partition(parts) -> Abacus:
    """Boundary-walk encoding: 0 per horizontal move, 1 per vertical move."""
    parts = check_partition(parts)
    word: list[int] = []
    prev = 0
    for p in reversed(parts):
        word.extend([0] * (p - prev))
        word.append(1)
        prev = p
    return Abacus(tuple(word), 0)


def to_partition(a: Abacus) -> Partition:
    """Inverse of from_partition; rejects non-canonical windows."""
    word = a.word
    if not word:
        return ()
    if word[0] != 0 or word[-1] != 1 or any(b not in (0, 1) for b in word):
        raise FormatError(f"not a canonical abacus window: {a}")
    parts: list[int] = []
    zeros = 0
    for b in word:
        if b == 0:
            zeros += 1
        else:
            parts.append(zeros)
    parts.reverse()
    return tuple(parts)


def bead_mask(a: Abacus) -> int:
    """The window as an integer: bit i is the bead at window index i."""
    return sum(b << i for i, b in enumerate(a.word))


def mask_partition(w: int) -> Partition:
    """The partition of a bead mask: each 1 is a part, the number of 0s below it."""
    parts: list[int] = []
    while w:
        low = w & -w
        parts.append(low.bit_length() - 1 - len(parts))
        w ^= low
    return tuple(p for p in reversed(parts) if p)


def strip_removals(w: int, t: int) -> list[tuple[int, int, int]]:
    """Every hook of length t of the bead mask w, by increasing start index.

    Each entry is (start, height, smaller): the window index of the hook's 0
    bead, the number of 1s strictly between its two ends, and the canonical
    mask left once the strip is removed (the pair swapped, the low run of 1s
    shifted off).
    """
    out = []
    starts = (w >> t) & ~w
    while starts:
        low = starts & -starts
        starts ^= low
        height = (w & ((low << t) - (low << 1))).bit_count()
        v = w ^ low ^ (low << t)
        v >>= (v ^ (v + 1)).bit_length() - 1
        out.append((low.bit_length() - 1, height, v))
    return out


def hooks_of_length(a: Abacus, t: int) -> list[Hook]:
    """All hooks of length t, with heights; empty iff the partition is a t-core."""
    if t < 1:
        raise ValueError("hook length must be positive")
    return [Hook(a.offset + i, t, h) for i, h, _ in strip_removals(bead_mask(a), t)]


def is_tcore(parts, t: int) -> bool:
    """True iff no box of the diagram has hook length t."""
    if t < 1:
        raise ValueError("t must be positive")
    w = bead_mask(from_partition(parts))
    return not (w >> t) & ~w


@lru_cache(maxsize=None)
def hook_length_mask(parts: Partition) -> int:
    """Bitmask with bit t set iff the partition has a hook of length t."""
    w = bead_mask(from_partition(parts))
    return sum(1 << t for t in range(1, w.bit_length()) if (w >> t) & ~w)


def swap(a: Abacus, i: int, j: int) -> Abacus:
    """The bead-exchange operator on absolute indices; an involution.

    The window is extended as needed so both indices are materialized; no
    canonicalization is applied.
    """
    if i == j:
        raise ValueError("indices must be distinct")
    lo = min(i, j, a.offset)
    hi = max(i, j, a.offset + len(a.word) - 1)
    w = [a.bead(k) for k in range(lo, hi + 1)]
    w[i - lo], w[j - lo] = w[j - lo], w[i - lo]
    return Abacus(tuple(w), lo)


def remove_border_strip(a: Abacus, h: Hook) -> Abacus:
    """Remove the strip by swapping the hook's bead pair; result re-canonicalized."""
    if a.bead(h.start) != 0 or a.bead(h.end) != 1:
        raise ValueError(f"{h} is not a hook of {a}")
    return canonicalize(swap(a, h.start, h.end).word)


@dataclass(frozen=True)
class QuotientView:
    """The residue subsequences of a window mod `modulus`.

    `raw[c]` collects the beads at absolute indices base + c, base + c + m, ...
    over a padded window whose length is a multiple of m, so interleaving the
    raw subwords reproduces the original sequence exactly.  `subabaci[c]` is the
    canonical abacus of the c-th subsequence.
    """

    modulus: int
    base: int
    raw: tuple[tuple[int, ...], ...]
    subabaci: tuple[Abacus, ...]

    def sub_partitions(self) -> tuple[Partition, ...]:
        return tuple(to_partition(sub) for sub in self.subabaci)


def quotient(a: Abacus, m: int) -> QuotientView:
    """Split the window into its m residue classes."""
    if m < 1:
        raise ValueError("modulus must be positive")
    base = (a.offset // m) * m
    pad_left = a.offset - base
    total = pad_left + len(a.word)
    pad_right = (-total) % m
    w = [1] * pad_left + list(a.word) + [0] * pad_right
    raw = tuple(tuple(w[c::m]) for c in range(m))
    return QuotientView(m, base, raw, tuple(canonicalize(sub) for sub in raw))


def tcore(parts, t: int) -> Partition:
    """The t-core: what remains after removing length-t hooks until none exist.

    Computed by pushing every bead of each residue class as far left as it
    goes; the result is independent of the removal order.
    """
    if t < 1:
        raise ValueError("t must be positive")
    qv = quotient(from_partition(parts), t)
    subs = [sorted(sub, reverse=True) for sub in qv.raw]
    w: list[int] = []
    for level in range(len(subs[0])):
        for c in range(t):
            w.append(subs[c][level])
    return to_partition(canonicalize(w))


def aligned_windows(a: Abacus, a2: Abacus, m: int) -> tuple[list[int], list[int]]:
    """Embed both abaci in one ambient index range of length a multiple of m.

    The second window is shifted so its bead count matches the first, which is
    the alignment produced by removing border strips; raises UnreachableError
    when the counts cannot be matched.
    """
    w1 = trim_word(a.word)
    w2 = trim_word(a2.word)
    shift = sum(w1) - sum(w2)
    if shift < 0:
        raise UnreachableError("target has more beads than the source window")
    width = max(len(w1), shift + len(w2))
    width += (-width) % m
    full1 = list(w1) + [0] * (width - len(w1))
    full2 = [1] * shift + list(w2) + [0] * (width - shift - len(w2))
    return full1, full2


def skew_per_residue(a: Abacus, a2: Abacus, m: int) -> list[tuple[SkewShape, int]]:
    """Per-residue skew diagrams between a partition and one reachable from it.

    Requires a2 to be reachable from a by removing hooks of length m; the
    shapes' sizes sum to the number of removed hooks.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    w1, w2 = aligned_windows(a, a2, m)
    result = []
    for c in range(m):
        sub1, sub2 = w1[c::m], w2[c::m]
        if sum(sub1) != sum(sub2):
            raise UnreachableError(
                f"residue {c} bead counts differ; not reachable by length-{m} strips"
            )
        p1 = to_partition(canonicalize(sub1))
        p2 = to_partition(canonicalize(sub2))
        if len(p2) > len(p1) or any(t > p1[i] for i, t in enumerate(p2)):
            raise UnreachableError(
                f"residue {c} diagram {p2} not contained in {p1}"
            )
        shape = SkewShape(p1, p2)
        result.append((shape, shape.size))
    return result
