"""The 0/1 bead-sequence encoding of partitions.

Reading the boundary of a Young diagram from the bottom-left corner to the
top-right corner, writing 0 for every step right and 1 for every step up,
gives a finite word; padding with 1s on the left and 0s on the right turns it
into a bi-infinite bead sequence, considered up to index shifts.  `Abacus`
stores the finite window together with the absolute index of its first symbol.

Hooks of the partition are exactly the index pairs (i, i + t) whose beads read
(0, 1); exchanging the two beads removes the corresponding border strip.  All
values here are immutable and every operation returns a fresh abacus.

The window is worked on as one integer, its bead mask: bit i is the bead at
window index i (`bead_mask`).  The beads of a partition sit at its
beta-numbers, its k-th smallest part plus k, so its canonical mask is the sum
of 1 << b over them, and a mask reads back as each bead's position minus its
rank (`mask_partition`).  The starts of the hooks of length t are the set
bits of `(w >> t) & ~w`, a hook's height is the bit count of the beads
strictly between its two ends, a strip is removed by XOR-ing its two bits,
and the window is made canonical again by shifting off the low run of 1s
(`_trim`).  `strip_removals` is the only place that swaps and trims:
`remove_border_strip`, the characters and the hook-sequence walk all read
its entries.

Modulo m the beads sit on m runners: the bead at window index i is on runner
i % m at level i // m.  Removing an m-hook moves one bead a level down its
runner, so t-cores (every runner's beads pushed down) and the residue skews
between a partition and one reachable from it are read off the runner levels;
a runner's partition has one part per bead, its level minus its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

from .errors import FormatError, UnreachableError
from .partitions import Partition, _beta_numbers, check_partition
from .tableaux import SkewShape


@dataclass(frozen=True)
class Abacus:
    word: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if not set(self.word) <= {0, 1}:
            raise FormatError(f"abacus word must hold only 0s and 1s, got {self.word}")

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


def _partition_mask(parts: Partition) -> int:
    """The bead mask of a checked partition: its beads sit at its beta-numbers."""
    return sum([1 << b for b in _beta_numbers(parts)])


def _window(w: int) -> Abacus:
    """The abacus whose window at offset 0 reads the bits of w, lowest first."""
    return Abacus(tuple(map(int, bin(w)[:1:-1])) if w else ())


def from_partition(parts) -> Abacus:
    """Boundary-walk encoding: 0 per horizontal move, 1 per vertical move."""
    return _window(_partition_mask(check_partition(parts)))


def to_partition(a: Abacus) -> Partition:
    """Inverse of from_partition; rejects non-canonical windows."""
    if a.word and (a.word[0] != 0 or a.word[-1] != 1):
        raise FormatError(f"not a canonical abacus window: {a}")
    return mask_partition(bead_mask(a))


def bead_mask(a: Abacus) -> int:
    """The window as an integer: bit i is the bead at window index i."""
    return sum(b << i for i, b in enumerate(a.word))


def _beads(w: int) -> list[int]:
    """Positions of the set bits of w, increasing: the beads of a bead mask."""
    out = []
    while w:
        low = w & -w
        out.append(low.bit_length() - 1)
        w ^= low
    return out


def _bead_partition(beads: list[int]) -> Partition:
    """Partition of increasing bead positions: each bead's position minus its rank."""
    return tuple(p for p in reversed([b - k for k, b in enumerate(beads)]) if p)


def mask_partition(w: int) -> Partition:
    """The partition of a bead mask: each 1 is a part, the number of 0s below it."""
    return _bead_partition(_beads(w))


_SWAP = str.maketrans("01", "10")


def _conjugate_mask(w: int) -> int:
    """The bead mask of the conjugate: w's window read backwards, 0s and 1s swapped."""
    return int(bin(w)[:1:-1].translate(_SWAP), 2) if w else 0


def _trim(w: int) -> int:
    """Shift off the low run of 1s: the canonical mask of the same partition."""
    return w >> (w ^ (w + 1)).bit_length() - 1


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
        v = w ^ low ^ (low << t)  # an even v has no low run of 1s to trim
        out.append((low.bit_length() - 1, height, _trim(v) if v & 1 else v))
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
    w = _partition_mask(check_partition(parts))
    return not (w >> t) & ~w


def hook_length_mask(parts) -> int:
    """Bitmask with bit t set iff the partition has a hook of length t."""
    w = _partition_mask(check_partition(parts))
    return sum(1 << t for t in range(1, w.bit_length()) if (w >> t) & ~w)


def remove_border_strip(a: Abacus, h: Hook) -> Abacus:
    """The canonical abacus left once the hook's strip is removed."""
    if h.length < 1:
        raise ValueError("hook length must be positive")
    i = h.start - a.offset
    for start, _, smaller in strip_removals(bead_mask(a), h.length):
        if start == i:
            return _window(smaller)
    raise ValueError(f"{h} is not a hook of {a}")


def _runners(beads: list[int], m: int) -> dict[int, list[int]]:
    """{runner: its bead levels, increasing} for the runners that hold beads:
    bead i is level i // m of runner i % m."""
    runners: dict[int, list[int]] = {}
    for i in beads:
        runners.setdefault(i % m, []).append(i // m)
    return runners


def tcore(parts, t: int) -> Partition:
    """The t-core: what remains after removing length-t hooks until none exist.

    Computed by pushing every bead of each runner as far down as it goes; the
    result is independent of the removal order.  Runner c then holds its k
    beads at c, c + t, ..., c + t*(k-1).  No hook is longer than the largest
    beta-number, so a larger t returns the partition as it is.
    """
    if t < 1:
        raise ValueError("t must be positive")
    parts = check_partition(parts)
    betas = _beta_numbers(parts)
    if not betas or t > betas[-1]:
        return parts
    counts = [0] * t
    for b in betas:
        counts[b % t] += 1
    return _bead_partition(
        sorted([i for c, k in enumerate(counts) for i in range(c, c + t * k, t)])
    )


def _aligned_runners(w1: int, w2: int, m: int):
    """Runner levels of two bead masks in one index frame, w2 given as many beads as w1.

    Removing m-hooks keeps every bead on its runner and at its rank there and
    only moves beads down, so w2 is reachable from w1 iff every runner holds as
    many beads in both and no bead of w2 sits above the bead of the same rank
    in w1; raises UnreachableError otherwise.  Only the runners that hold
    beads are kept (`_runners`), so the cost does not grow with m.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    w1, w2 = _trim(w1), _trim(w2)
    # leading beads that give w2 as many as w1; if w2 has more, a runner count differs
    shift = max(0, w1.bit_count() - w2.bit_count())
    r1, r2 = _runners(_beads(w1), m), _runners(_beads(((w2 + 1) << shift) - 1), m)
    if r1.keys() != r2.keys() or any(
        len(x) != len(r2[c]) or any(map(gt, r2[c], x)) for c, x in r1.items()
    ):
        a, a2 = _window(w1), _window(w2)
        raise UnreachableError(f"{a2} is not reachable from {a} by {m}-hooks")
    return r1, r2


def _residue_skews(w1: int, w2: int, m: int) -> dict[int, tuple[Partition, Partition]]:
    """{runner: (outer, inner)}, the partitions of its levels in w1 and in w2,
    by runner, for the runners that hold beads; the others hold the empty skew.

    Requires w2 to be reachable from w1 by m-hooks (see `_aligned_runners`).
    """
    r1, r2 = _aligned_runners(w1, w2, m)
    return {
        c: (_bead_partition(x), _bead_partition(r2[c])) for c, x in sorted(r1.items())
    }


def skew_per_residue(a: Abacus, a2: Abacus, m: int) -> list[tuple[SkewShape, int]]:
    """Per-residue skew diagrams between a partition and one reachable from it.

    Requires a2 to be reachable from a by removing hooks of length m; the
    shapes' sizes sum to the number of removed hooks.
    """
    skews = _residue_skews(bead_mask(a), bead_mask(a2), m)
    result = []
    for c in range(m):
        shape = SkewShape(*skews.get(c, ((), ())))
        result.append((shape, shape.size))
    return result
