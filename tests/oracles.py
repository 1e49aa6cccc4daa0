"""Independent reference implementations used only to check the library.

Everything here works directly on Young diagrams or by brute enumeration,
deliberately avoiding the bead-sequence machinery and the memoized recursions
that the package itself uses.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from operator import lt
from typing import NamedTuple

import mpmath


def diagram_strip_removals(lam, t):
    """All (resulting partition, height) pairs for removing a length-t strip.

    Walks the diagram itself: a box whose arm plus leg plus one equals t owns
    a rim strip; removing it shifts the intermediate rows up-left.
    """
    lam = list(lam)
    out = []
    for r in range(len(lam)):
        for c in range(lam[r]):
            arm = lam[r] - c - 1
            leg = sum(1 for rr in range(r + 1, len(lam)) if lam[rr] > c)
            if arm + leg + 1 != t:
                continue
            r2 = r + leg
            new = lam[:r] + [lam[i + 1] - 1 for i in range(r, r2)] + [c] + lam[r2 + 1 :]
            out.append((tuple(x for x in new if x > 0), leg))
    return out


def hook_sequence_signs(lam, m, count):
    """Sorted signs of every ordered removal of `count` m-strips, by final partition.

    Each removal walks the diagram (`diagram_strip_removals`) and multiplies
    the sign by (-1)^leg.
    """
    level = [(tuple(lam), 1)]
    for _ in range(count):
        level = [
            (smaller, -sign if leg % 2 else sign)
            for mu, sign in level
            for smaller, leg in diagram_strip_removals(mu, m)
        ]
    groups = {}
    for mu, sign in level:
        groups.setdefault(mu, []).append(sign)
    return {mu: sorted(signs) for mu, signs in groups.items()}


def hook_sequence_dfs(lam, m, count):
    """One sign per ordered removal of `count` m-hooks, grouped by final partition.

    Depth-first over bead masks, removals by increasing start index; targets and
    signs are in the order the walk reaches them.  Lists every sequence, so its
    cost is their number.  It reads the library's hook scan, which the diagram
    walk `hook_sequence_signs` checks on its own.
    """
    from charcore.abacus import _partition_mask, mask_partition, strip_removals

    by_mask = {}

    def dfs(w, depth, parity):
        if depth == count:
            by_mask.setdefault(w, []).append(-1 if parity else 1)
            return
        for _, height, smaller in strip_removals(w, m):
            dfs(smaller, depth + 1, parity ^ (height & 1))

    dfs(_partition_mask(lam), 0, 0)
    return {mask_partition(w): signs for w, signs in by_mask.items()}


def diagram_tcore(lam, t):
    """The t-core by removing length-t strips from the diagram until none is left."""
    lam = tuple(lam)
    while True:
        removals = diagram_strip_removals(lam, t)
        if not removals:
            return lam
        lam = removals[0][0]


def mn_reference(lam, mu):
    """Unmemoized character recursion on diagrams, consuming smallest part first."""
    if not mu:
        return 1
    t = mu[-1]
    rest = mu[:-1]
    return sum(
        (-sub if h % 2 else sub)
        for res, h in diagram_strip_removals(lam, t)
        for sub in [mn_reference(res, rest)]
    )


def apply_per_row(lists, values):
    """The values one part up, one sum per row of `lists`: entry i of a row
    reads values[i], and its complement ~i reads -values[i]."""
    return [sum(values[i] if i >= 0 else -values[~i] for i in row) for row in lists]


def chi_walk(lam, mu):
    """chi(lam, mu) by the forward walk over every part of mu above its 1s.

    Keeps {bead mask: signed number of removal paths} a level per part,
    largest first, with no cut, cap or cached level, then sums each count
    times the hook-length degree of the row left.  It reads the library's
    hook scan and degree formula, which other oracles check on their own.
    """
    from charcore.abacus import _beads, _partition_mask, strip_removals
    from charcore.tableaux import _degree_of_betas

    level = {_partition_mask(tuple(lam)): 1}
    for t in mu:
        if t == 1:
            break
        reached = {}
        for w, c in level.items():
            for _, height, smaller in strip_removals(w, t):
                reached[smaller] = reached.get(smaller, 0) + (-c if height & 1 else c)
        level = reached
    return sum(c * _degree_of_betas(_beads(w)) for w, c in level.items())


def square_root_count(mu):
    """Number of permutations h with h * h = g, for one g of cycle type mu.

    The Frobenius-Schur count.  An m-cycle of g is the square of one m-cycle
    of h when m is odd, or half the square of a 2m-cycle of h that pairs it
    with another m-cycle, in m ways per pair.  With a parts of size m, k pairs
    give a! / ((a - 2k)! k! 2**k) * m**k roots; when m is even every m-cycle
    is paired, so only k = a/2 counts.
    """
    total = 1
    for m, a in Counter(mu).items():
        total *= sum(
            factorial(a) // (factorial(a - 2 * k) * factorial(k) * 2**k) * m**k
            for k in range(a // 2 + 1)
            if m % 2 or 2 * k == a
        )
    return total


def brute_square_root_count(mu):
    """Number of permutations h of range(n) with h(h(i)) = g(i), by listing all
    n! of them, for the g whose cycles are the runs of mu's parts in order."""
    g, start = [], 0
    for m in mu:
        g += [start + (i + 1) % m for i in range(m)]
        start += m
    return sum(
        all(h[h[i]] == gi for i, gi in enumerate(g)) for h in permutations(range(start))
    )


def table_identities(table):
    """(identity, partition) of each identity a character table of S_n fails.

    - "row norm", per row lam: sum_mu |C_mu| chi^lam(mu)**2 = n!;
    - "column sum", per column mu: sum_lam chi^lam(mu) = square_root_count(mu),
      since every representation of S_n is real;
    - "regular character", per column mu != 1^n: sum_lam chi^lam(1^n)
      chi^lam(mu) = 0.

    Each costs O(p(n)**2) integer operations and needs no second engine.
    """
    n, parts = table.n, table.partitions
    fact = factorial(n)
    sizes = [
        fact // prod(m**a * factorial(a) for m, a in Counter(mu).items())
        for mu in parts
    ]
    failed = [
        ("row norm", lam)
        for lam, row in zip(parts, table.rows)
        if sum(c * v * v for c, v in zip(sizes, row)) != fact
    ]
    columns = list(zip(*table.rows))
    identity = parts.index((1,) * n)
    degrees = columns[identity]
    for mu, column in zip(parts, columns):
        if sum(column) != square_root_count(mu):
            failed.append(("column sum", mu))
        if mu != parts[identity] and sum(d * v for d, v in zip(degrees, column)):
            failed.append(("regular character", mu))
    return failed


def brute_skew_syt(outer, inner):
    """Count standard fillings of outer/inner by direct placement of 1..size."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = {
        (r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])
    }
    size = len(cells)
    filled = set()

    def rec(remaining):
        if remaining == 0:
            return 1
        total = 0
        for cell in cells:
            if cell in filled:
                continue
            r, c = cell
            if (r - 1, c) in cells and (r - 1, c) not in filled:
                continue
            if (r, c - 1) in cells and (r, c - 1) not in filled:
                continue
            filled.add(cell)
            total += rec(remaining - 1)
            filled.remove(cell)
        return total

    return rec(size)


def _fraction_det(matrix):
    m = [row[:] for row in matrix]
    k = len(m)
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, k):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def aitken_count(outer, inner):
    """Skew standard-filling count via the classical determinant formula."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    k = len(outer)
    n = sum(outer) - sum(inner)

    def inv_fact(x):
        return Fraction(1, factorial(x)) if x >= 0 else Fraction(0)

    matrix = [
        [inv_fact(outer[i] - inner[j] - i + j) for j in range(k)] for i in range(k)
    ]
    value = _fraction_det(matrix) * factorial(n)
    assert value.denominator == 1
    return int(value)


def descending_partitions(n, bound):
    """Every partition of n with parts at most `bound`, in reverse-lexicographic
    order: each largest part k from the top down, then the partitions of n - k
    with parts at most k."""
    if n == 0:
        yield ()
        return
    for k in range(min(bound, n), 0, -1):
        for rest in descending_partitions(n - k, k):
            yield (k,) + rest


def check_partition_in_one_pass(parts):
    """`check_partition` without its fast path: every part through `int`, one
    pairwise pass, and the first fault worded."""
    parts = tuple(parts)
    out = tuple(map(int, parts))
    if out != parts or (out and (out[-1] < 1 or any(map(lt, out, out[1:])))):
        for i, x in enumerate(out):
            if x != parts[i]:
                raise ValueError(f"parts must be positive integers, got {parts[i]!r}")
            if x < 1:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i > 0 and out[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {out}")
    return out


def naive_partitions(n):
    """Set of all partitions of n by ascending-part recursion."""
    out = set()

    def rec(remaining, minpart, acc):
        if remaining == 0:
            out.add(tuple(sorted(acc, reverse=True)))
            return
        for k in range(minpart, remaining + 1):
            rec(remaining - k, k, acc + [k])

    rec(n, 1, [])
    return out


def brute_ppower_count(p, k):
    """Partitions of k into powers of p, by plain recursion over powers."""
    powers = []
    w = 1
    while w <= k:
        powers.append(w)
        w *= p

    def rec(remaining, idx):
        if remaining == 0:
            return 1
        if idx < 0:
            return 0
        total = 0
        w = powers[idx]
        for a in range(remaining // w + 1):
            total += rec(remaining - a * w, idx - 1)
        return total

    return rec(k, len(powers) - 1)


def brute_restricted_count(p, r, s, k):
    """Partitions of k into powers of p whose reduction keeps fewer than
    p**(r-1) parts of size p**j at every level j >= s.

    Enumerates every multiplicity vector of sum k and reduces it one trade at a
    time: while some level holds at least p**r parts, p**r of them become
    p**(r-1) parts at the next level up.
    """
    q, keep = p**r, p ** (r - 1)
    sizes = []
    w = 1
    while w <= k:
        sizes.append(w)
        w *= p

    def vectors(j, budget):
        # multiplicities of sizes[0..j], lowest first, with total weight budget
        if j < 0:
            if budget == 0:
                yield []
            return
        for a in range(budget // sizes[j] + 1):
            for rest in vectors(j - 1, budget - a * sizes[j]):
                yield rest + [a]

    def stays_low(counts):
        j = 0
        while j < len(counts):
            while counts[j] >= q:
                counts[j] -= q
                if j + 1 == len(counts):
                    counts.append(0)
                counts[j + 1] += keep
            j += 1
        return all(a < keep for a in counts[s:])

    return sum(1 for counts in vectors(len(sizes) - 1, k) if stays_low(counts))


def fp_series(p, t, dps=30):
    """The p-power partition generating function at exp(-1/t), summed as a
    truncated power series (the library evaluates the product form)."""
    with mpmath.workdps(dps + 15):
        tt = mpmath.mpf(t)
        # truncate where the terms are safely below the target precision;
        # partitions of k into p-powers number fewer than exp(3 sqrt(k))
        kmax = 8
        threshold = mpmath.mpf(10) ** (-(dps + 12))
        while kmax < 8 * tt or mpmath.exp(
            3 * mpmath.sqrt(kmax) - kmax / tt
        ) > threshold:
            kmax *= 2
        counts = [1] + [0] * kmax
        w = 1
        while w <= kmax:
            for x in range(w, kmax + 1):
                counts[x] += counts[x - w]
            w *= p
        z = mpmath.exp(-1 / tt)
        acc = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        for k in range(kmax + 1):
            acc += counts[k] * zk
            zk *= z
        value = acc
    with mpmath.workdps(dps):
        return +value


def fp_expm1_product(p, t, dps=400):
    """The product form at `dps` digits, each factor 1 - exp(-p**j/t) read as
    -expm1(-p**j/t), which does not cancel for large t."""
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        result, power = mpmath.mpf(1), mpmath.mpf(1)
        while power <= 50 * tt:
            result /= -mpmath.expm1(-power / tt)
            power *= p
        return result


def delta_series_terms(coeffs, z):
    """sum(c * z**k for k, c in enumerate(coeffs)) term by term in mpf: one
    power, product and sum per term, each rounded to nearest at the working
    precision (the library sums it in fixed point, `stats._series_floor`)."""
    acc = mpmath.mpf(0)
    zk = mpmath.mpf(1)
    for c in coeffs:
        if c:
            acc += c * zk
        zk *= z
    return acc


def cells(shape):
    """The (row, column) cells of a skew shape, row by row."""
    return [(r, c) for r, (s, e) in enumerate(shape.row_spans()) for c in range(s, e)]


def connected_components(shape):
    """Maximal edge-connected pieces of a skew shape, each as its own SkewShape."""
    from charcore.tableaux import SkewShape

    remaining = set(cells(shape))
    components = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            r, c = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in remaining and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        remaining -= seen
        rows = sorted({r for r, _ in seen})
        spans = []
        for r in rows:
            cols = [c for rr, c in seen if rr == r]
            spans.append((min(cols), max(cols) + 1))
        outer = tuple(e for _, e in spans)
        inner = tuple(s for s, _ in spans if s > 0)
        components.append(SkewShape(outer, inner))
    return components


def random_order_reduce(mu, cfg, rng):
    """Apply the combine rewrite at randomly chosen sites until it stalls."""
    from charcore.divisibility import combine_step
    from charcore.partitions import multiplicities

    current = tuple(mu)
    while True:
        options = sorted(
            m for m, a in multiplicities(current).items() if a >= cfg.q
        )
        if not options:
            return current
        current = combine_step(current, rng.choice(options), cfg)


def reduce_class_by_class(mu, cfg):
    """`reduce_partition` one p-free class at a time, lowest class first, as
    (output, steps).

    Every class present is read from its p-free part upward and carried by
    its own loop, not the library's `carry_levels`, whether or not any of its
    levels can carry; the steps, (part, count before, count after) per
    application of `combine_step`, come out by class, then level.
    """
    from charcore.partitions import from_multiplicities, multiplicities

    mu = tuple(mu)
    p, q, keep = cfg.p, cfg.q, cfg.p ** (cfg.r - 1)
    classes = {}
    for m, a in multiplicities(mu).items():
        free, level = m, 0
        while free % p == 0:
            free //= p
            level += 1
        classes.setdefault(free, {})[level] = a
    final = {}
    steps = []
    for free in sorted(classes):
        by_level = classes[free]
        top = max(by_level)
        part, level, carried = free, 0, 0
        while level <= top or carried:
            c = by_level.get(level, 0) + carried
            if c >= q:
                steps += [(part, b, b - q) for b in range(c, q - 1, -q)]
            if c % q:
                final[part] = c % q
            carried = keep * (c // q)
            part *= p
            level += 1
    return from_multiplicities(final), tuple(steps)


def non_tcore_counts(n):
    """{t: number of partitions of n with a hook of length t}, by listing every
    partition of n (`naive_partitions`) and the hook lengths of its diagram."""
    counts = {}
    for lam in naive_partitions(n):
        conj = [sum(1 for row in lam if row > c) for c in range(lam[0] if lam else 0)]
        hooks = {
            row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)
        }
        for h in hooks:
            counts[h] = counts.get(h, 0) + 1
    return counts


_reference_rows = [[1]]


def bounded_counts_reference(n):
    """Rows 0..n of the bounded partition counts by the textbook recurrence:
    row k, entry m counts partitions of k into parts <= m, one entry at a time."""
    while len(_reference_rows) <= n:
        k = len(_reference_rows)
        row = [0] * (k + 1)
        for m in range(1, k + 1):
            rem = k - m
            row[m] = row[m - 1] + _reference_rows[rem][min(m, rem)]
        _reference_rows.append(row)
    return _reference_rows[: n + 1]


def linear_scan_sample(n, seed):
    """Uniform partition of n: draw u below the count of partitions with
    largest part <= b, then scan the largest part down from b, subtracting the
    count of each candidate until u falls inside one."""
    table = bounded_counts_reference(n)
    rng = random.Random(seed)
    parts = []
    remaining, bound = n, n
    while remaining:
        b = min(bound, remaining)
        u = rng.randrange(table[remaining][b])
        for m in range(b, 0, -1):
            rem = remaining - m
            c = table[rem][min(m, rem)]
            if u < c:
                parts.append(m)
                remaining, bound = rem, m
                break
            u -= c
    return tuple(parts)


def prop_pm1_per_value(lam, m, cfg, report=None):
    """The prop-pm1 check of one row, one fresh `chi` call per character value.

    Adds to `report` (a new single-row report when None) in the order the
    library promises: the row's groups, then its classes tau.
    """
    from charcore.abacus import is_tcore
    from charcore.characters import chi
    from charcore.divisibility import VerifyReport
    from charcore.partitions import format_partition, partitions_of

    lam = tuple(lam)
    n = sum(lam)
    if report is None:
        report = VerifyReport(
            "prop-pm1",
            {"lambda": format_partition(lam), "m": m, "p": cfg.p, "r": cfg.r},
        )
    count = cfg.p ** (cfg.r - 1)
    strip_total = count * m
    if strip_total > n or not is_tcore(lam, strip_total):
        report.skipped += 1
        return report
    coeffs = {}
    for lam2, seqs in hook_sequence_dfs(lam, m, count).items():
        signs = set(seqs)
        report.check(
            len(signs) == 1,
            lambda: {
                "lambda": format_partition(lam),
                "lambda2": format_partition(lam2),
                "issue": "mixed signs",
            },
        )
        c = next(iter(signs)) * len(seqs)
        coeffs[lam2] = c
        report.check(
            c % cfg.p == 0,
            lambda: {
                "lambda": format_partition(lam),
                "lambda2": format_partition(lam2),
                "coefficient": c,
                "p": cfg.p,
            },
        )
    for tau in partitions_of(n - strip_total):
        mu = tuple(sorted(tau + (m,) * count, reverse=True))
        lhs = chi(lam, mu)
        rhs = sum(c * chi(lam2, tau) for lam2, c in coeffs.items())
        report.check(
            lhs == rhs,
            lambda: {
                "lambda": format_partition(lam),
                "tau": format_partition(tau),
                "chi": str(lhs),
                "expansion": str(rhs),
            },
        )
    return report


def prop_pm1_sweep_per_value(n, m, cfg):
    """The prop-pm1 sweep of size n, one row after another, one value at a time."""
    from charcore.divisibility import VerifyReport
    from charcore.partitions import partitions_of

    report = VerifyReport("prop-pm1", {"n": n, "m": m, "p": cfg.p, "r": cfg.r})
    for lam in partitions_of(n):
        prop_pm1_per_value(lam, m, cfg, report)
    return report


def theorem3_hypothesis_per_length(lam, mu, cfg):
    """(holds, sizes, sums) of theorem 3's hypothesis, one `is_tcore` per length.

    The first r-set of part sizes of mu for which lam is a t-core at every
    combined length t wins; (False, None, None) when none does.  The sorted
    combined lengths are listed from each set's sizes, not read off its mask.
    """
    from charcore.abacus import is_tcore
    from charcore.divisibility import _sum_sets

    reps = cfg.p ** (cfg.r - 1)
    for sizes, _ in _sum_sets(mu, cfg):
        sums = sorted(
            {
                sum(k * m for k, m in zip(ks, sizes))
                for ks in product(range(reps + 1), repeat=cfg.r)
                if max(ks) == reps
            }
        )
        if all(is_tcore(lam, t) for t in sums):
            return True, sizes, tuple(sums)
    return False, None, None


def theorem3_per_pair(n, cfg):
    """The theorem3 sweep one (class, row) pair at a time.

    Tests the hypothesis on every pair and reads a class's column at its
    first accepted row, through `divisibility.chi_column`, so a test that
    patches that name patches it here too.
    """
    from charcore.abacus import hook_length_mask
    from charcore.divisibility import VerifyReport, _hypothesis, _sum_sets, chi_column
    from charcore.partitions import format_partition, partitions_of

    report = VerifyReport("theorem3", {"n": n, "p": cfg.p, "r": cfg.r})
    rows = partitions_of(n)
    masks = [hook_length_mask(lam) for lam in rows]
    for mu in rows:
        sum_sets = list(_sum_sets(mu, cfg))
        if not sum_sets:
            report.skipped += len(rows)
            continue
        column = None
        for i, lam in enumerate(rows):
            if _hypothesis(masks[i], sum_sets) is None:
                report.skipped += 1
                continue
            if column is None:
                column = chi_column(mu)
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


def predicted_count_via_shapes(lam, lam2, m, count):
    """`_predicted_count` through `Abacus` windows and `SkewShape`s.

    The multinomial over the residues' sizes from `skew_per_residue` times
    each residue's `count_skew_syt`; an empty residue contributes 1 to both.
    """
    from charcore.abacus import from_partition, skew_per_residue
    from charcore.tableaux import count_skew_syt

    skews = skew_per_residue(from_partition(lam), from_partition(lam2), m)
    assert sum(size for _, size in skews) == count
    multinomial = factorial(count)
    for _, size in skews:
        multinomial //= factorial(size)
    return multinomial * prod(count_skew_syt(shape) for shape, _ in skews)


def lemma62_per_row(n, m, cfg):
    """The lemma62 sweep one row at a time: skip the non-cores, check each group."""
    from charcore.abacus import is_tcore
    from charcore.divisibility import VerifyReport
    from charcore.partitions import format_partition, partitions_of

    count = cfg.p ** (cfg.r - 1)
    report = VerifyReport("lemma62", {"n": n, "m": m, "p": cfg.p, "r": cfg.r})
    for lam in partitions_of(n):
        if count * m > n or not is_tcore(lam, count * m):
            report.skipped += 1
            continue
        for lam2, seqs in hook_sequence_dfs(lam, m, count).items():
            report.check(
                len(seqs) % cfg.p == 0,
                lambda: {
                    "lambda": format_partition(lam),
                    "lambda2": format_partition(lam2),
                    "m": m,
                    "count": len(seqs),
                    "p": cfg.p,
                },
            )
    return report


def lemma81_via_shapes(box, cfg):
    """The lemma81 sweep on `SkewShape`s: build, strip-test and count each class.

    Counts by Aitken's determinant, not by the library's corner recursion.
    """
    from charcore.divisibility import VerifyReport
    from charcore.tableaux import is_border_strip, iter_box_skews

    size = cfg.q
    report = VerifyReport("lemma81", {"box": box, "p": cfg.p, "r": cfg.r})
    for shape in iter_box_skews(box, box, size):
        if is_border_strip(shape):
            report.skipped += 1
            continue
        f = aitken_count(shape.outer, shape.inner)
        report.check(
            f % cfg.p == 0,
            lambda: {"shape": str(shape), "count": str(f), "p": cfg.p},
        )
    return report


def lr_coefficient(outer, inner, content):
    """Littlewood-Richardson coefficient c^outer_{inner, content}.

    Counts semistandard fillings of outer/inner with the given content whose
    reverse reading word (rows top to bottom, each read right to left) is a
    lattice word.  Zero when the sizes mismatch or inner is not contained in
    outer.
    """
    from charcore.partitions import check_partition
    from charcore.tableaux import SkewShape

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


LR_VERIFICATION_CAP = 9


class LrExpansion(NamedTuple):
    ok: bool
    direct: int
    expansion: int


def verify_lr_expansion(shape):
    """Check that the skew count equals the weighted sum of straight-shape counts.

    Both sides are returned so a failure carries its witness.
    """
    from charcore.errors import SizeCapError
    from charcore.partitions import partitions_of
    from charcore.tableaux import count_skew_syt, count_syt

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
