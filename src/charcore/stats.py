"""Desk-scale statistics: divisibility densities, core counts, partitions into
prime powers, and numeric bound checks.

Counting is exact throughout; real-valued thresholds and bounds are evaluated
in high-precision arithmetic (interval arithmetic where a verdict must be
rigorous), and asymptotic statements are reported but never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from .characters import _columns
from .divisibility import CombineConfig, _carry_classes, check_power, check_prime
from .errors import RangeError, SizeCapError
from .partitions import (
    ENUMERATION_CAP,
    SAMPLING_CAP,
    multiplicities,
    partition_count,
    sample_seed,
    sample_uniform,
)

PPOWER_CAP = 10**5
RESTRICTED_CAP = 2000
# prop4 refuses more samples before any work: at the sampling cap n = 5000,
# 100,000 samples took 48.5 s and 244 MB peak RSS on the CLI (2-vCPU x86-64,
# Python 3.11), about 0.48 ms a sample, the sampler's table 832 entries wide
PROP4_SAMPLES_CAP = 100_000
# delta refuses a wider l window before listing it, and more series terms
# (values of l times k_truncation) before summing one: 17,143 values of l at
# k_truncation 1024 took 4.6-5.6 s and 20 MB peak RSS in process (2-vCPU
# x86-64, Python 3.11; see docs/formats.md)
DELTA_WINDOW_CAP = 20_000
DELTA_TERMS_CAP = 20_000_000
DELTA_DPS = 30  # significant digits of the reported Delta
# fp refuses more predicted work, its factor count times its working digits
# squared, before any: one exp at D digits took about 5.5e-10 * D**2 s, and
# the largest admitted runs measured 1.5-4.8 s and 22 MB peak RSS in process
# (2-vCPU x86-64, Python 3.11, mpmath without gmpy; see docs/formats.md)
FP_WORK_CAP = 10**10


@dataclass(frozen=True)
class DensityReport:
    """Exact entry counts of one character table against one modulus."""

    n: int
    modulus: int
    total: int
    divisible: int
    zero: int
    nonzero_positive: int
    nonzero_negative: int


def density_report(n: int, k: int) -> DensityReport:
    """Count the entries of the table at size n, one column at a time: each is
    tallied as it is computed and then dropped.  Zeros count as divisible."""
    if k < 1:
        raise ValueError("modulus must be positive")
    total = divisible = zero = pos = 0
    for column in _columns(n)[1]:
        total += len(column)
        zero += column.count(0)
        pos += len([v for v in column if v > 0])
        divisible += len([v for v in column if v % k == 0])
    return DensityReport(n, k, total, divisible, zero, pos, total - zero - pos)


def count_non_tcores(n: int, t: int) -> int:
    """Exact number of partitions of n having some hook of length t.

    That is p(n) minus the number c_t(n) of t-cores of n, the coefficient of
    x**n in prod_k (1 - x**(t*k))**t / (1 - x**k) (Garvan, Kim and Stanton,
    "Cranks and t-cores", 1990): the series of p is multiplied by t factors
    (1 - x**w) for each multiple w of t up to n, O(n**2) integer steps.  n
    stays capped at ENUMERATION_CAP.  Tested against the enumeration
    `non_tcore_counts` in `tests/oracles.py`.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeCapError(f"enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    cores = [partition_count(k) for k in range(n + 1)]
    for w in range(t, n + 1, t):
        for _ in range(t):
            for k in range(n, w - 1, -1):
                cores[k] -= cores[k - w]
    count = partition_count(n) - cores[n]
    # strip-removal bound; cannot fail, kept as a tripwire
    assert count <= non_tcore_bound(n, t)
    return count


def non_tcore_bound(n: int, t: int) -> int:
    """(t+1) * p(n-t), 0 when t > n: a bound on the partitions of n with a t-hook."""
    return (t + 1) * partition_count(n - t) if t <= n else 0


def _ppower_table(p: int, kmax: int) -> list[int]:
    dp = [1] + [0] * kmax
    w = 1
    while w <= kmax:
        for x in range(w, kmax + 1):
            dp[x] += dp[x - w]
        w *= p
    return dp


def ppower_count(p: int, k: int) -> int:
    """Number of partitions of k into powers of p (1 for k = 0)."""
    check_prime(p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > PPOWER_CAP:
        raise SizeCapError(f"capped at k <= {PPOWER_CAP}, got {k}")
    return _ppower_table(p, k)[k]


def ppower_count_restricted(p: int, r: int, s: int, k: int) -> int:
    """Partitions of k into p-powers whose reduction avoids levels >= s.

    A partition counts when the fixpoint of the combining rewrite has fewer
    than p**(r-1) parts of size p**j for every j >= s.  Read off the carry DP.
    """
    if k > RESTRICTED_CAP:
        _check_restricted(p, r, s, k)  # a bad p, r, s or k is named before the cap
        raise SizeCapError(f"capped at k <= {RESTRICTED_CAP}, got {k}")
    return restricted_counts_table(p, r, s, k)[k]


def _check_restricted(p: int, r: int, s: int, k: int) -> None:
    """Raise unless p is prime, r is positive and s and k are nonnegative."""
    check_prime(p)
    if r < 1 or s < 0 or k < 0:
        raise ValueError("r must be positive and s, k nonnegative")


def restricted_counts_table(p: int, r: int, s: int, kmax: int) -> list[int]:
    """ptilde(k; s) for every k <= kmax at once, via a carry-tracking pass.

    Walks the levels bottom-up; a state is (weight used, carry entering the
    current level) and choosing the parts of one size is a unary closure, so
    the pass is linear in the state count.  Above kmax no parts are added and
    the walk goes on until every carry has settled.  Tested against the
    multiplicity-vector enumeration `brute_restricted_count` in
    `tests/oracles.py`.
    """
    _check_restricted(p, r, s, kmax)
    check_power(p, r)
    q = p**r
    keep = p ** (r - 1)
    # buckets[w] maps carry -> number of ways, for the current level
    buckets: list[dict[int, int]] = [dict() for _ in range(kmax + 1)]
    buckets[0][0] = 1
    pj = 1
    level = 0
    while pj <= kmax or any(c for carries in buckets for c in carries):
        for w in range(kmax - pj + 1):
            target = buckets[w + pj]
            for c, count in buckets[w].items():
                target[c + 1] = target.get(c + 1, 0) + count
        nxt: list[dict[int, int]] = [dict() for _ in range(kmax + 1)]
        for w, carries in enumerate(buckets):
            for c, count in carries.items():
                t, f = divmod(c, q)
                if level >= s and f >= keep:
                    continue
                nxt[w][keep * t] = nxt[w].get(keep * t, 0) + count
        buckets = nxt
        pj *= p
        level += 1
    return [carries.get(0, 0) for carries in buckets]


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality; `satisfied` is None for report-only output."""

    inputs: dict
    lhs: str
    rhs: str
    satisfied: bool | None
    detail: dict = field(default_factory=dict)


def ppower_difference_check(p: int, r: int, s: int, k: int) -> BoundCheck:
    """Exact lower bound on ptilde(k) - ptilde(k; s).

    Valid for s >= 2 and k >= p**(r+s-1) * (1 + 4/s); the comparison is done by
    cross-multiplication, so the verdict is exact.
    """
    if s < 2:
        raise RangeError(f"s must be at least 2, got {s}")
    check_power(p, r + s - 1)
    if k * s < p ** (r + s - 1) * (s + 4):
        raise RangeError(
            f"k={k} is below the validity threshold p**(r+s-1)*(1+4/s)"
        )
    diff = ppower_count(p, k) - ppower_count_restricted(p, r, s, k)
    denom = (s - 1) ** (s - 1)
    numer = p ** (s * (s - 1) // 2)
    return BoundCheck(
        {"p": p, "r": r, "s": s, "k": k},
        str(diff),
        f"{numer}/{denom}",
        diff * denom >= numer,
    )


def generating_function_fp(p: int, t, dps: int):
    """Product form of the p-power partition generating function at e**(-1/t).

    Factors with p**j > 50*t are dropped; each is within exp(exp(-50)) of 1,
    far below the returned precision.  1 - exp(-p**j/t) cancels about
    log10(t) digits, so past t = 2**40 they are added to the 15 guard digits.
    Tested against the truncated series `fp_series` in `tests/oracles.py`.
    """
    if dps < 1:
        raise ValueError(f"dps must be at least 1, got {dps}")
    check_prime(p)
    tt = mpmath.mpf(t)
    if not (mpmath.isfinite(tt) and tt > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    bits = mpmath.mag(tt)  # t <= 2**bits
    digits = dps + 15 + max(0, bits - 40) * 3 // 10
    # one exp per factor p**j <= 50*t < 2**(bits + 6), and p >= 2**(bits(p) - 1)
    factors = (bits + 6) // (p.bit_length() - 1) + 1
    if factors * digits**2 > FP_WORK_CAP:
        raise SizeCapError(
            f"fp capped at {FP_WORK_CAP} factors times working digits squared, "
            f"got {factors} times {digits}**2"
        )
    with mpmath.workdps(digits):
        tt = mpmath.mpf(t)  # again, at the working precision
        result = mpmath.mpf(1)
        power = mpmath.mpf(1)
        while power <= 50 * tt:
            result /= 1 - mpmath.exp(-power / tt)
            power *= p
        value = result
    with mpmath.workdps(dps):
        return +value


def _threshold(ctx, n: int, cfg: CombineConfig):
    """(1 + 1/(6q)) * sqrt(6)/(2 pi) * sqrt(n) * log(n) in the mpmath context ctx."""
    one = ctx.mpf(1)
    return (
        (one + one / (6 * cfg.q))
        * ctx.sqrt(6)
        / (2 * ctx.pi)
        * ctx.sqrt(n)
        * ctx.log(n)
    )


# interval context of the escalation, kept apart from the global `mpmath.iv`
_IV = MPIntervalContext()


def exceeds_threshold(value: int, n: int, cfg: CombineConfig) -> bool:
    """Rigorously decide value > (1 + 1/(6q)) * sqrt(6)/(2 pi) * sqrt(n) * log n."""
    for dps in (40, 80, 160, 320):
        _IV.dps = dps
        thr = _threshold(_IV, n, cfg)
        v = _IV.mpf(value)
        if v > thr:
            return True
        if v < thr:
            return False
    raise RuntimeError(f"cannot separate {value} from the threshold")


def prop4_threshold(n: int, cfg: CombineConfig):
    """The part-size threshold at 50 digits (for reporting)."""
    with mpmath.workdps(50):
        return +_threshold(mpmath.mp, n, cfg)


@dataclass(frozen=True)
class SamplingReport:
    n: int
    p: int
    r: int
    samples: int
    seed: int
    holds: int
    fails: int
    threshold: str
    min_clearing_part: int
    failure_fraction: float
    ci95: tuple[float, float]


def prop4_empirical(
    n: int, cfg: CombineConfig, samples: int, rng_seed: int
) -> SamplingReport:
    """Sample uniform partitions, reduce each, and test the large-parts property.

    The property: the reduction has at least r distinct part sizes, each with
    multiplicity at least p**(r-1) and with p**(r-1) * size clearing the
    threshold.  Sample i is drawn with `sample_seed(rng_seed, i)`, so the report
    is a pure function of (n, cfg, samples, rng_seed).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > SAMPLING_CAP:
        raise SizeCapError(f"sampling capped at n <= {SAMPLING_CAP}, got {n}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > PROP4_SAMPLES_CAP:
        raise SizeCapError(
            f"prop4 capped at samples <= {PROP4_SAMPLES_CAP}, got {samples}"
        )
    reps = cfg.p ** (cfg.r - 1)
    # smallest part size whose scaled value rigorously clears the threshold
    approx = prop4_threshold(n, cfg)
    m_min = max(1, int(mpmath.floor(approx / reps)) - 1)
    while not exceeds_threshold(reps * m_min, n, cfg):
        m_min += 1
    holds = 0
    for i in range(samples):
        counts = multiplicities(sample_uniform(n, sample_seed(rng_seed, i)))
        _carry_classes(counts, cfg)  # the reduction's multiplicities, in place
        big = sum(1 for m, a in counts.items() if a >= reps and m >= m_min)
        if big >= cfg.r:
            holds += 1
    fails = samples - holds
    frac = fails / samples
    half = 1.96 * math.sqrt(frac * (1 - frac) / samples)
    return SamplingReport(
        n,
        cfg.p,
        cfg.r,
        samples,
        rng_seed,
        holds,
        fails,
        mpmath.nstr(approx, 20),
        m_min,
        frac,
        (max(0.0, frac - half), min(1.0, frac + half)),
    )


def _series_floor(coeffs: list[int], z):
    """sum(c * z**k for k, c in enumerate(coeffs)), rounded down, for integer
    coefficients c >= 0 and an mpf 0 < z < 1, as an mpf of the working precision.

    Horner's rule on Python integers in binary fixed point with B fractional
    bits.  With z = man * 2**exp exactly, the step
    acc = ((acc * man) >> -exp) + (c << B) multiplies by z itself and floors
    to a multiple of 2**-B.  Each floor loses less than 2**-B, z < 1 shrinks
    the losses already made, and the first step (from acc = 0) is exact, so
    the sum S and its fixed-point value S' obey 0 <= S - S' < (K - 1) * 2**-B
    for K = len(coeffs).  B starts at the working precision plus 64 guard bits
    and doubles until acc >= K * 2**prec, so that (S - S') / S < 2**-prec;
    cutting acc to prec bits rounds down again and loses less than
    2**(1 - prec).  The relative error is thus below 3 * 2**-prec, under
    10**-(DELTA_DPS + 13) at DELTA_DPS + 15 digits.  Tested against the
    per-term loop `delta_series_terms` in `tests/oracles.py`.
    """
    if not any(coeffs):
        return mpmath.mpf(0)
    man, exp = z.man_exp
    prec = mpmath.mp.prec
    bits = prec + 64
    while True:
        acc = 0
        for c in reversed(coeffs):
            acc = ((acc * man) >> -exp) + (c << bits)
        if acc >> prec >= len(coeffs):
            break
        bits *= 2
    drop = max(0, acc.bit_length() - prec)
    # at most prec bits remain, so the mpf is exact
    return mpmath.mpf((acc >> drop, drop - bits))


def lemma91_delta(n: int, cfg: CombineConfig, L, tail: float) -> BoundCheck:
    """Numeric evaluation of the weighted deficiency sum Delta (report-only).

    What the value states, exactly:
    - the inner sums are truncated at an adaptively chosen k; the dropped
      terms are all nonnegative and `tail_bound`, a geometric bound below
      `tail` (positive, finite), bounds their sum rigorously;
    - each inner sum is evaluated by `_series_floor`, which rounds down;
    - z = exp(-l/x) is rounded to nearest at DELTA_DPS + 15 = 45 digits; the
      sum is multiplied by the factors 1 - z**(p**j), p**j * l <= 50x, of
      1 / `generating_function_fp` at t = x/l, each power of z the p-th power
      of the one before; the powers, the products, the sum over l and the
      reported DELTA_DPS digits round to nearest.
    So Delta is a lower bound of the untruncated sum up to those roundings
    to nearest, not a certified one.  The deficit is 0 below p**(r+s-1) and
    k_truncation <= 65,536, so a non-zero term has t = x/l <= 2 p**(r+s-1)
    <= 131,072; a factor carries p**j times the error of z and cancels about
    p**j / t of its size, so it keeps all but log10(t) < 6 of the 45 digits.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (mpmath.isfinite(tail) and tail > 0):
        raise ValueError(f"tail must be positive and finite, got {tail}")
    with mpmath.workdps(DELTA_DPS + 15):
        x = mpmath.sqrt(6 * n) / mpmath.pi
        s = int(mpmath.floor(mpmath.log(mpmath.sqrt(n)) / (mpmath.e * cfg.q)))
        scale = cfg.p ** (cfg.r + s - 1)
        lower = x / (2 * scale)
        upper = (1 + mpmath.mpf(1) / (5 * cfg.q)) * lower * mpmath.log(n)
        if upper < lower:  # log(n) < 1 at n = 1 and 2
            raise RangeError(
                f"the L window [{mpmath.nstr(lower, 10)}, {mpmath.nstr(upper, 10)}] "
                f"is empty at n={n}"
            )
        Lval = mpmath.mpf(L)
        if not (lower <= Lval <= upper):
            raise RangeError(
                f"L={L} outside [{mpmath.nstr(lower, 10)}, {mpmath.nstr(upper, 10)}]"
            )
        lo = int(mpmath.ceil(Lval))
        hi = int(mpmath.floor(Lval + x / scale))
        if hi - lo > DELTA_WINDOW_CAP:
            raise SizeCapError(
                f"delta capped at an l window of {DELTA_WINDOW_CAP}, got {hi - lo}"
            )
        ells = [l for l in range(lo, hi + 1) if l % cfg.p != 0]
        if not ells:
            raise RangeError("empty coprime window; n is too small for these parameters")
        ell_lower_bound = x / (3 * scale)
        ell_ok = mpmath.mpf(len(ells)) >= ell_lower_bound

        # pick the truncation point from the geometric tail bound at the
        # smallest ell, which dominates
        lmin = ells[0]
        ratio = mpmath.exp(-mpmath.mpf(lmin) / (2 * x))
        fp_big = generating_function_fp(cfg.p, 2 * x / lmin, dps=DELTA_DPS)
        kmax = 32
        while True:
            bound = len(ells) * fp_big * ratio ** (kmax + 1) / (1 - ratio)
            if bound < tail:
                break
            kmax *= 2
            if kmax > PPOWER_CAP:
                raise SizeCapError("tail target unreachable at a sane truncation")
        if len(ells) * kmax > DELTA_TERMS_CAP:
            raise SizeCapError(
                f"delta capped at {DELTA_TERMS_CAP} series terms, got "
                f"{len(ells)} values of l times k_truncation {kmax}"
            )

        total = _ppower_table(cfg.p, kmax)
        good = restricted_counts_table(cfg.p, cfg.r, s, kmax)
        deficit = [a - b for a, b in zip(total, good)]
        delta = mpmath.mpf(0)
        for l in ells:
            z = mpmath.exp(-mpmath.mpf(l) / x)
            term, power = _series_floor(deficit, z), l
            while power <= 50 * x:
                term, z, power = term * (1 - z), z**cfg.p, power * cfg.p
            delta += term
        tail_str = mpmath.nstr(bound, 8)
        x_str = mpmath.nstr(x, 20)
        lower_str = mpmath.nstr(ell_lower_bound, 15)
    with mpmath.workdps(DELTA_DPS):
        return BoundCheck(
            {"n": n, "p": cfg.p, "r": cfg.r, "s": s, "L": str(L)},
            mpmath.nstr(+delta, DELTA_DPS),
            "0",
            None,
            {
                "x": x_str,
                "ell_count": len(ells),
                "ell_lower_bound": lower_str,
                "ell_bound_satisfied": bool(ell_ok),
                "k_truncation": kmax,
                "tail_bound": tail_str,
            },
        )
