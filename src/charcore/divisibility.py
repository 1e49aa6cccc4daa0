"""Prime-power divisibility machinery for character values.

The pieces fit together as follows: combining equal parts of a cycle type
preserves character values modulo a prime power; iterating the rewrite
reduces any cycle type to one with bounded multiplicities; and for suitable
core partitions, counting hook-removal sequences with signs certifies the
divisibility directly, without evaluating the character.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import factorial, isqrt, prod
from typing import Callable, Iterable, Iterator, Sequence

from .abacus import (
    _aligned_runners,
    _beads,
    _partition_mask,
    _residue_skews,
    hook_length_mask,
    is_tcore,
    mask_partition,
    strip_removals,
)
from .characters import TABLE_CAP, _chi_values, _same_size, chi, chi_column
from .errors import SizeCapError
from .partitions import (
    Partition,
    check_partition,
    format_partition,
    from_multiplicities,
    multiplicities,
    partitions_of,
)
from .tableaux import (
    _box_class_count,
    _box_classes,
    _skew_count,
    _spans_shape,
)

LEMMA81_BOX_CAP = 64
LEMMA81_CAP = 2_100_000
PRIME_CAP = 10**12
# Python's default limit on int-to-str conversion: no larger power could be printed
POWER_DIGITS = 4300
_POWER_LIMIT = 10**POWER_DIGITS


def check_prime(p: int) -> None:
    """Raise unless p is a prime of at most PRIME_CAP, tested by trial division."""
    if p > PRIME_CAP:
        raise SizeCapError(f"prime capped at p <= {PRIME_CAP}, got {p}")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be prime, got {p}")


def check_power(p: int, e: int) -> None:
    """Raise SizeCapError when p**e would have more than POWER_DIGITS digits.

    p**e >= 2**(e * (bits(p) - 1)), so a long power is refused on bit lengths
    alone; a power is formed only when it has under twice the limit's bits.
    """
    if e * (p.bit_length() - 1) >= _POWER_LIMIT.bit_length() or p**e >= _POWER_LIMIT:
        raise SizeCapError(
            f"powers of p capped at {POWER_DIGITS} decimal digits, got {p}**{e}"
        )


@dataclass(frozen=True)
class CombineConfig:
    """A prime power q = p**r driving the combining rewrite."""

    p: int
    r: int

    def __post_init__(self):
        check_prime(self.p)
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")
        check_power(self.p, self.r)

    @property
    def q(self) -> int:
        return self.p**self.r


def combine_step(mu, m: int, cfg: CombineConfig) -> Partition:
    """Replace q parts of size m by q/p parts of size p*m; the size is unchanged."""
    mu = check_partition(mu)
    counts = multiplicities(mu)
    if counts.get(m, 0) < cfg.q:
        raise ValueError(
            f"need at least {cfg.q} parts of size {m}, got {counts.get(m, 0)}"
        )
    counts[m] -= cfg.q
    counts[cfg.p * m] = counts.get(cfg.p * m, 0) + cfg.p ** (cfg.r - 1)
    return from_multiplicities(counts)


def carry_levels(levels: Sequence[int], cfg: CombineConfig) -> list[int]:
    """Run the rewrite along one p-free class: multiplicities by level, lowest first.

    One pass from the lowest level up: a level holding c parts keeps c % p**r
    and sends p**(r-1) * (c // p**r) parts to the next level, opening one
    past the top if needed.  Every count is then below p**r, so the result
    is the fixpoint.  A negative multiplicity is refused before any work.
    """
    arr = list(levels)
    if arr and min(arr) < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {min(arr)}")
    q, keep = cfg.q, cfg.p ** (cfg.r - 1)
    j = 0
    while j < len(arr):
        t, arr[j] = divmod(arr[j], q)
        if t:
            if j + 1 == len(arr):
                arr.append(0)
            arr[j + 1] += keep * t
        j += 1
    return arr


def _carry_classes(counts: dict[int, int], cfg: CombineConfig) -> bool:
    """Carry `counts` (size -> multiplicity) to the fixpoint, in place.

    Each p-free class holding a size with at least p**r parts is carried
    once, upward from its base b (b, p*b, p**2*b, ...), by `carry_levels`.
    Returns whether any class was carried.  The fixpoint does not depend on
    the rewrite order.
    """
    p, q = cfg.p, cfg.q
    bases = set()
    for m, a in counts.items():
        if a >= q:
            while m % p == 0:
                m //= p
            bases.add(m)
    top = max(counts, default=0)
    for base in sorted(bases):
        levels, part = [], base
        while part <= top:
            levels.append(counts.get(part, 0))
            part *= p
        part = base
        for c in carry_levels(levels, cfg):
            counts[part] = c
            part *= p
    return bool(bases)


@dataclass(frozen=True)
class ReductionTrace:
    """A class mu, its fixpoint under the combining rewrite, and the config."""

    input: Partition
    output: Partition
    cfg: CombineConfig


def reduce_partition(mu, cfg: CombineConfig) -> ReductionTrace:
    """Iterate combine_step to its fixpoint; returns (input, output, cfg).

    Only the fixpoint is computed, on multiplicities (`_carry_classes`); a
    class with no size of at least p**r parts is its own output.
    """
    mu = check_partition(mu)
    counts = multiplicities(mu)
    if not _carry_classes(counts, cfg):
        return ReductionTrace(mu, mu, cfg)
    out = from_multiplicities(counts)
    assert sum(out) == sum(mu)
    return ReductionTrace(mu, out, cfg)


@dataclass
class VerifyReport:
    """Tally of an exhaustive check, with the first failing witness kept."""

    lemma: str
    params: dict
    checked: int = 0
    skipped: int = 0
    violated: int = 0
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.violated == 0

    def check(self, condition: bool, witness: Callable[[], dict]) -> None:
        """Tally one assertion; `witness()` builds the case at the first violation."""
        if condition:
            self.checked += 1
        else:
            self.violated += 1
            if self.witness is None:
                self.witness = witness()


def verify_combine_congruence(n: int, cfg: CombineConfig) -> VerifyReport:
    """Exhaust every applicable combine step at size n against every row.

    For each pair (mu, nu) related by one rewrite and every lambda, the two
    character values must agree modulo p**r.  nu has mu's fixpoint, so the
    sweep takes one reduction class at a time and holds only its columns,
    each computed once.  n is capped at TABLE_CAP, the cap of the table whose
    columns it reads, before any column is read.
    """
    if n > TABLE_CAP:
        raise SizeCapError(f"congruence sweep capped at n <= {TABLE_CAP}, got {n}")
    report = VerifyReport("combine", {"n": n, "p": cfg.p, "r": cfg.r})
    rows = partitions_of(n)
    classes: dict[Partition, list[Partition]] = {}
    for mu in rows:
        classes.setdefault(reduce_partition(mu, cfg).output, []).append(mu)
    for members in classes.values():
        column = cache(chi_column)
        for mu in members:
            applicable = [m for m, a in multiplicities(mu).items() if a >= cfg.q]
            if not applicable:
                report.skipped += 1
                continue
            for m in applicable:
                nu = combine_step(mu, m, cfg)
                col_mu, col_nu = column(mu), column(nu)
                for lam, x, y in zip(rows, col_mu, col_nu):
                    report.check(
                        (x - y) % cfg.q == 0,
                        lambda: {
                            "lambda": format_partition(lam),
                            "mu": format_partition(mu),
                            "nu": format_partition(nu),
                            "chi_mu": str(x),
                            "chi_nu": str(y),
                            "modulus": cfg.q,
                        },
                    )
    return report


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")


def enumerate_hook_sequences(
    lam, m: int, count: int
) -> dict[Partition, tuple[int, int]]:
    """Count the ways to remove `count` hooks of length m, by target and sign.

    Each target maps to (even, odd), its sequences of sign +1 and of sign -1,
    from the last level of `_hook_groups`; a removal of odd height swaps the
    pair.  Targets come in the order a depth-first walk meets them, and the
    work is the number of masks reached, not the number of sequences.
    """
    lam = check_partition(lam)
    _check_m(m)
    if count < 1 or count * m > sum(lam):
        raise ValueError(
            f"cannot remove {count} hooks of length {m} from a partition of {sum(lam)}"
        )
    for _, _, _, level in _hook_groups((lam,), m, count):
        pass  # each level replaces the one before, so only the last is held
    return {mask_partition(w): pair for w, pair in level.items()}


def epsilon(lam, lam2, m: int) -> int:
    """Common sign of every hook sequence of length m from lam down to lam2.

    Removing a hook moves one bead m places down, past `height` beads, and
    keeps its rank among the beads of its runner.  So the heights sum, mod 2,
    to the change in the number of bead pairs that index order and runner
    order rank differently.  Raises UnreachableError when no sequence exists.
    """
    lam, lam2 = check_partition(lam), check_partition(lam2)
    return _epsilon(_partition_mask(lam), _partition_mask(lam2), m)


def _epsilon(w: int, w2: int, m: int) -> int:
    """`epsilon` on bead masks."""
    r1, r2 = _aligned_runners(w, w2, m)
    return -1 if _crossings(r1) ^ _crossings(r2) else 1


def _crossings(runners: dict[int, list[int]]) -> int:
    """Parity of the bead pairs whose index order and runner order disagree.

    A bead at level x of runner c comes after a bead at level y of a later
    runner iff y < x.  Empty runners hold no pair, and `_runners` keeps none.
    """
    held = sorted(runners.items())
    return sum(
        bisect_left(later, x)
        for c, (_, levels) in enumerate(held)
        for _, later in held[c + 1 :]
        for x in levels
    ) & 1


def _multinomial(total: int, parts: Iterable[int]) -> int:
    out = factorial(total)
    for s in parts:
        out //= factorial(s)
    return out


def _predicted_count(w: int, w2: int, m: int, count: int, memo: dict):
    """Ordered removals of `count` m-hooks from bead mask w down to w2, predicted.

    The count factors as a multinomial over residues times the per-residue
    filling counts, from `memo`; returns (prediction, multinomial, fillings,
    sizes), with fillings and sizes for the runners of w that hold beads.
    """
    skews = _residue_skews(w, w2, m).values()
    sizes = tuple(sum(outer) - sum(inner) for outer, inner in skews)
    assert sum(sizes) == count
    multinomial = _multinomial(count, sizes)
    fillings = tuple(_skew_count(outer, inner, memo) for outer, inner in skews)
    return multinomial * prod(fillings), multinomial, fillings, sizes


def _hook_groups(rows: Iterable[Partition], m: int, max_hooks: int):
    """(lam, its bead mask, count, {target mask: (even, odd)}) per row and count
    up to max_hooks, in one walk per row: each level is reached from the last."""
    _check_m(m)
    for lam in rows:
        w = _partition_mask(lam)
        level = {w: (1, 0)}
        for count in range(1, min(max_hooks, sum(lam) // m) + 1):
            reached: dict[int, tuple[int, int]] = {}
            for v, pair in level.items():
                for _, height, smaller in strip_removals(v, m):
                    even, odd = pair[::-1] if height & 1 else pair
                    e, o = reached.get(smaller, (0, 0))
                    reached[smaller] = (e + even, o + odd)
            level = reached
            yield lam, w, count, level


def verify_lemma61(n: int, m: int, max_hooks: int) -> VerifyReport:
    """Sign constancy: within every group of sequences, all signs agree.

    Also cross-checks the sign `epsilon` computes against each group.
    """
    report = VerifyReport("lemma61", {"n": n, "m": m, "max_hooks": max_hooks})
    for lam, w, _, level in _hook_groups(partitions_of(n), m, max_hooks):
        for w2, (even, odd) in level.items():
            signs = [-1] * bool(odd) + [1] * bool(even)
            report.check(
                len(signs) == 1 and _epsilon(w, w2, m) in signs,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(mask_partition(w2)),
                    "m": m,
                    "signs": signs,
                },
            )
    return report


def verify_factorization(n: int, m: int, max_hooks: int) -> VerifyReport:
    """Exhaust the counting identity over all reachable pairs at size n."""
    report = VerifyReport("factorization", {"n": n, "m": m, "max_hooks": max_hooks})
    memo: dict = {}
    for lam, w, count, level in _hook_groups(partitions_of(n), m, max_hooks):
        for w2, pair in level.items():
            predicted = _predicted_count(w, w2, m, count, memo)[0]
            report.check(
                sum(pair) == predicted,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(mask_partition(w2)),
                    "m": m,
                    "direct": sum(pair),
                    "predicted": predicted,
                },
            )
    return report


def _core_groups(
    n: int, m: int, cfg: CombineConfig, report: VerifyReport
) -> list[tuple[Partition, list[tuple[Partition, bool, int]]]]:
    """Each core row of size n with its groups, in walk order.

    A row is a core when it has no hook of length m * p**(r-1); every other
    row is counted as skipped on `report`.  A group gathers the ways of
    removing p**(r-1) strips of length m that end at one target and is kept as
    (target, whether all its signs agree, sign * count).
    """
    _check_m(m)
    count = cfg.p ** (cfg.r - 1)
    cores = []
    for lam in partitions_of(n):
        if count * m > n or not is_tcore(lam, count * m):
            report.skipped += 1
            continue
        groups = [
            (lam2, not (even and odd), (1 if even else -1) * (even + odd))
            for lam2, (even, odd) in enumerate_hook_sequences(lam, m, count).items()
        ]
        cores.append((lam, groups))
    return cores


def verify_lemma62(n: int, m: int, cfg: CombineConfig) -> VerifyReport:
    """For cores, every group count of p**(r-1) removals is a multiple of p."""
    report = VerifyReport("lemma62", {"n": n, "m": m, "p": cfg.p, "r": cfg.r})
    for lam, groups in _core_groups(n, m, cfg, report):
        for lam2, _, c in groups:
            report.check(
                c % cfg.p == 0,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(lam2),
                    "m": m,
                    "count": abs(c),
                    "p": cfg.p,
                },
            )
    return report


def verify_prop_pm1_sweep(n: int, m: int, cfg: CombineConfig) -> VerifyReport:
    """Check the p-divisible expansion of every core row of size n.

    Removing p**(r-1) strips of length m must aggregate into coefficients all
    divisible by p, and the signed expansion must reproduce the character
    value on every residual class tau.  Character values are read once per
    tau, for the core rows on tau + m^count and for the union of the groups'
    targets on tau, each set visiting only the rows it reaches.  Checks are
    then made row by row, groups before classes, so the tallies and the first
    witness are those of checking one row at a time.
    """
    report = VerifyReport("prop-pm1", {"n": n, "m": m, "p": cfg.p, "r": cfg.r})
    count = cfg.p ** (cfg.r - 1)
    cores = _core_groups(n, m, cfg, report)
    if not cores:
        return report
    targets: dict[Partition, int] = {}
    for _, groups in cores:
        for lam2, _, _ in groups:
            targets.setdefault(lam2, len(targets))
    taus = partitions_of(n - count * m)
    core_masks = [_partition_mask(lam) for lam, _ in cores]
    target_masks = [_partition_mask(lam2) for lam2 in targets]
    # per-row walks took 2-2.7x as long; chi_column 4-5x at n = 26, 0.5-0.6x at n = 30
    lhs = [
        _chi_values(core_masks, tuple(sorted(tau + (m,) * count, reverse=True)))
        for tau in taus
    ]
    rhs = [_chi_values(target_masks, tau) for tau in taus]
    for i, (lam, groups) in enumerate(cores):
        for lam2, one_sign, c in groups:
            report.check(
                one_sign,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(lam2),
                    "issue": "mixed signs",
                },
            )
            report.check(
                c % cfg.p == 0,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(lam2),
                    "coefficient": c,
                    "p": cfg.p,
                },
            )
        for t, tau in enumerate(taus):
            expansion = sum(c * rhs[t][targets[lam2]] for lam2, _, c in groups)
            report.check(
                lhs[t][i] == expansion,
                lambda: {
                    "lambda": format_partition(lam),
                    "tau": format_partition(tau),
                    "chi": str(lhs[t][i]),
                    "expansion": str(expansion),
                },
            )
    return report


def _sum_sets(mu, cfg: CombineConfig) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each r-set of part sizes of mu and the bitmask of its combined lengths.

    A size qualifies when it occurs at least p**(r-1) times in mu; the combined
    lengths of m_1..m_r are the sums k_1 m_1 + ... + k_r m_r with every k_i at
    most p**(r-1) and some k_i equal to it.  Bit t of the mask is set iff t is
    a combined length.
    """
    reps = cfg.p ** (cfg.r - 1)
    candidates = sorted(m for m, a in multiplicities(mu).items() if a >= reps)
    for sizes in combinations(candidates, cfg.r):
        sums = {
            sum(k * m for k, m in zip(ks, sizes))
            for ks in product(range(reps + 1), repeat=cfg.r)
            if max(ks) == reps
        }
        yield sizes, sum(1 << t for t in sums)


def _hypothesis(mask: int, sum_sets: Iterable[tuple]):
    """The first of `sum_sets` whose combined lengths are no hook length; else None.

    `mask` is a row's `hook_length_mask`: the row is a core for every combined
    length of a set exactly when the two masks share no bit.
    """
    return next((s for s in sum_sets if not mask & s[1]), None)


def verify_theorem3(n: int, cfg: CombineConfig) -> VerifyReport:
    """Exhaust all row/class pairs of size n for hypothesis-vs-divisibility.

    The hypothesis depends on a row only through its hook-length mask and on
    a class only through the sizes of its sum sets, so it is tested once per
    distinct mask and signature; each class then reads its column only for
    the rows it accepts, in table order; n is capped first at TABLE_CAP.
    """
    if n > TABLE_CAP:
        raise SizeCapError(f"theorem3 sweep capped at n <= {TABLE_CAP}, got {n}")
    report = VerifyReport("theorem3", {"n": n, "p": cfg.p, "r": cfg.r})
    rows = partitions_of(n)
    by_mask: dict[int, int] = {}  # hook-length mask -> bitset of row indices
    for i, lam in enumerate(rows):
        mask = hook_length_mask(lam)
        by_mask[mask] = by_mask.get(mask, 0) | 1 << i
    accepted: dict[tuple, int] = {}  # sum-set sizes -> bitset of rows
    for mu in rows:
        sum_sets = list(_sum_sets(mu, cfg))
        key = tuple(sizes for sizes, _ in sum_sets)
        if key not in accepted:
            # each row is in one mask's bitset, so their sum is their union
            accepted[key] = sum(
                bits
                for mask, bits in by_mask.items()
                if _hypothesis(mask, sum_sets) is not None
            )
        bits = accepted[key]
        report.skipped += len(rows) - bits.bit_count()
        if not bits:
            continue
        column = chi_column(mu)
        for i in _beads(bits):
            lam = rows[i]
            report.check(
                column[i] % cfg.q == 0,
                lambda: {
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "chi": str(column[i]),
                    "modulus": cfg.q,
                },
            )
    return report


@dataclass(frozen=True)
class PipelineResult:
    divides: bool
    certified: bool
    mu_tilde: Partition
    sizes: tuple[int, ...] | None
    core_lengths: tuple[int, ...] | None


def theorem1_pipeline(lam, mu, cfg: CombineConfig) -> PipelineResult:
    """Reduce the class, then certify divisibility from core conditions alone.

    When the hypothesis fails the reduced character value is evaluated
    directly; either way the verdict matches p**r | chi(lam, mu).
    """
    lam, mu = _same_size(lam, mu)
    reduced = reduce_partition(mu, cfg).output
    hit = _hypothesis(hook_length_mask(lam), _sum_sets(reduced, cfg))
    if hit:
        return PipelineResult(True, True, reduced, hit[0], tuple(_beads(hit[1])))
    divides = chi(lam, reduced) % cfg.q == 0
    return PipelineResult(divides, False, reduced, None, None)


def verify_lemma81(box: int, cfg: CombineConfig) -> VerifyReport:
    """p divides the filling count of every non-strip skew of size p**r in a box.

    Sweeps one representative per translation class; counts and strip status
    depend only on the class.  The classes of at most p**r cells in the box
    bound the sweep's time, and are capped at LEMMA81_CAP; the sweep's own
    count memo holds connected shapes only.
    """
    size = cfg.q
    if box > LEMMA81_BOX_CAP:
        raise SizeCapError(f"lemma81 box capped at {LEMMA81_BOX_CAP}, got {box}")
    classes = _box_class_count(box, box, size, LEMMA81_CAP)
    if classes > LEMMA81_CAP:
        raise SizeCapError(
            f"lemma81 capped at {LEMMA81_CAP} skew classes of size <= "
            f"{cfg.p}**{cfg.r}, got at least {classes} in box {box}"
        )
    report = VerifyReport("lemma81", {"box": box, "p": cfg.p, "r": cfg.r})
    for spans, f in _box_classes(box, box, size, {}):
        if f is None:
            report.skipped += 1
            continue
        report.check(
            f % cfg.p == 0,
            lambda: {"shape": str(_spans_shape(spans)), "count": str(f), "p": cfg.p},
        )
    return report
