"""Workloads of the charcore benchmark: their jobs, their inputs and the checks
that every answer is right.

Batch workloads (table, verify, stats) are lists of CLI jobs run through
`charcore.cli.main(argv)`.  The point workload is a seeded stream of single
library calls.  The seed reaches only the point generator and `prop4 --seed`;
every other job is fixed, so its output is checked against a digest recorded
in `reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import factorial, prod
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WHY = {
    "table": "Exercises the bulk character path (p(n)^2 row encodings, column memos, "
    "transpose, CSV export) with no tableaux, divisibility or stats code.",
    "verify": "Exercises hook-sequence DFS, skew-SYT counts, epsilon and point chi "
    "calls, so a table-path speedup that slows this path shows here.",
    "stats": "Exercises sampling, carry and restricted counts, p-power DPs and mpmath "
    "interval escalation, with the character engine idle.",
    "point": "Measures per-call overhead and the latency tail of single chi, tcore and "
    "reduce queries, which the table workload amortises away.",
}

BATCH_JOBS = {
    "table": ("table 20 --format csv --threads 1",),
    "verify": (
        "verify lemma61 --n 18 --m 2 --hooks 3",
        "verify factorization --n 16 --m 2 --hooks 4",
        "verify prop-pm1 --n 20 --m 3 --p 2 --r 2",
        "verify theorem3 --n 20 --p 2 --r 2",
        "verify lemma81 --n 8 --p 2 --r 3",
    ),
    "stats": (
        "stats prop4 --n 2000 --p 2 --r 2 --samples 1000 --seed {seed}",
        "stats delta --n 10000000 --p 2 --r 2 --L 620",
        "stats pdiff --p 2 --r 2 --s 2 --k 192",
        "stats tcores --n 30 --t 5",
    ),
}
WORKLOADS = ("table", "verify", "stats", "point")

# prop4 output fields that do not depend on how samples are seeded
PROP4_FIXED = ("n", "p", "r", "samples", "threshold", "min_clearing_part")


def cli_jobs(workload: str, seed: int) -> list[str]:
    return [job.format(seed=seed) for job in BATCH_JOBS[workload]]


def reference_key(job: str) -> str:
    """Reference entry of a job; the seeded prop4 job shares one entry."""
    return job.split(" --seed")[0]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(job: str, rc, out: str) -> dict:
    """What `reference.json` records for one job run at the reference commit."""
    entry = {"exit": rc}
    if job.startswith("stats prop4"):
        rep = json.loads(out)
        entry["fields"] = {k: rep[k] for k in PROP4_FIXED}
    else:
        entry["sha256"] = digest(out)
    return entry


def check_cli(job: str, rc, out: str, reference: dict, seed: int) -> list[str]:
    """Problems with one CLI job's result; empty when it is correct."""
    ref = reference.get(reference_key(job))
    if ref is None:
        return [f"{job}: no reference recorded"]
    problems = []
    if rc != ref["exit"]:
        problems.append(f"{job}: exit {rc}, expected {ref['exit']}")
    if "sha256" in ref and digest(out) != ref["sha256"]:
        problems.append(f"{job}: stdout digest differs from the reference")
    if "fields" in ref:
        problems += _check_prop4(job, out, ref["fields"], seed)
    if job.startswith("verify"):
        problems += _check_verifier(job, out)
    if job.startswith("table") and "--format csv" in job:
        problems += check_table_csv(out)
    return problems


def _check_prop4(job: str, out: str, fields: dict, seed: int) -> list[str]:
    try:
        rep = json.loads(out)
    except ValueError:
        return [f"{job}: output is not JSON"]
    problems = [
        f"{job}: {k}={rep.get(k)!r}, expected {v!r}"
        for k, v in fields.items()
        if rep.get(k) != v
    ]
    if rep.get("seed") != seed:
        problems.append(f"{job}: seed={rep.get('seed')!r}, expected {seed}")
    if rep.get("holds", -1) + rep.get("fails", -1) != rep.get("samples"):
        problems.append(f"{job}: holds + fails != samples")
    return problems


def _check_verifier(job: str, out: str) -> list[str]:
    """A verifier must find no violation and check at least one case."""
    try:
        rep = json.loads(out)
    except ValueError:
        return [f"{job}: output is not JSON"]
    if rep.get("violated") != 0:
        return [f"{job}: violated={rep.get('violated')}"]
    if not rep.get("checked", 0) > 0:
        return [f"{job}: vacuous pass, checked={rep.get('checked')}"]
    return []


def parse_partition(text: str) -> tuple[int, ...]:
    inner = text.strip()[1:-1]
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def _hook_lengths(lam) -> list[int]:
    conj = [sum(1 for row in lam if row > c) for c in range(lam[0])] if lam else []
    return [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


def hook_degree(lam) -> int:
    """Number of standard Young tableaux of shape lam, by the hook-length formula."""
    return factorial(sum(lam)) // prod(_hook_lengths(lam))


def check_table_csv(text: str) -> list[str]:
    """The identity column holds the degrees, and the squared degrees sum to n!."""
    lines = text.splitlines()
    header = lines[0].split(",", 1)[1]
    last_class = parse_partition(header[header.rindex("[") :])
    n = len(last_class)
    if last_class != (1,) * n:
        return [f"table: last class is {last_class}, expected the identity class"]
    problems = []
    total = 0
    for line in lines[1:]:
        label, values = line.split("],", 1)
        lam = parse_partition(label + "]")
        value = int(values.rsplit(",", 1)[-1])
        deg = hook_degree(lam)
        total += deg * deg
        if value != deg:
            problems.append(f"table: chi({lam}, 1^{n}) = {value}, degree is {deg}")
            break
    if total != factorial(n):
        problems.append(f"table: sum of squared degrees is {total}, not {n}!")
    return problems


# --- the point workload --------------------------------------------------

CHI_N = (30, 60)
CHI_MAX_PARTS = 16  # mu is uniform among the partitions of n with at most this many parts
DEGREE_N = (20, 30)
BIG_N = (100, 2000)
TCORE_T = (2, 12)
REDUCE_CONFIGS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
KINDS = ("chi", "tcore", "chi", "reduce")
DEGREE_EVERY = 25  # every 25th chi query asks for the degree, chi(lam, 1^n)
REFERENCE_MAX_PARTS = 5  # mn_reference is unmemoized; keep it to short mu
POINT_QUERIES = 12000  # per repetition; every repetition of a run runs the same queries


def _partition_counts(nmax: int) -> list[int]:
    """p(0..nmax) by Euler's pentagonal recurrence."""
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            g = k * (3 * k - 1) // 2
            sign = 1 if k % 2 else -1
            total += sign * p[n - g]
            if g + k <= n:
                total += sign * p[n - g - k]
            k += 1
        p[n] = total
    return p


class PointGenerator:
    """Seeded inputs of the point workload.

    Every partition is uniform over the partitions of its size, except that
    the mu of a chi query is redrawn until it has at most `CHI_MAX_PARTS`
    parts.  The cost of chi grows steeply with the number of parts of mu:
    without the cap, the 2% of queries with more than 30 parts take about
    a third of the time, so a run's total and its p99 would follow how
    many of them the seed happens to draw.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.p = _partition_counts(BIG_N[1])
        self.divisors = [[] for _ in range(BIG_N[1] + 1)]
        for d in range(1, BIG_N[1] + 1):
            for s in range(d, BIG_N[1] + 1, d):
                self.divisors[s].append(d)

    def uniform(self, n: int, rng: random.Random) -> tuple[int, ...]:
        """Nijenhuis-Wilf: pick j copies of d with weight d * p(m - j*d)."""
        p, divisors = self.p, self.divisors
        parts: list[int] = []
        m = n
        while m:
            u = rng.randrange(m * p[m])
            s = 0
            while True:
                s += 1
                pm = p[m - s]
                for d in divisors[s]:
                    w = d * pm
                    if u < w:
                        parts += [d] * (s // d)
                        m -= s
                        break
                    u -= w
                else:
                    continue
                break
        parts.sort(reverse=True)
        return tuple(parts)

    def chi_query(self, j: int, rng: random.Random):
        if j % DEGREE_EVERY == DEGREE_EVERY - 1:
            n = rng.randint(*DEGREE_N)
            return self.uniform(n, rng), (1,) * n
        n = rng.randint(*CHI_N)
        lam = self.uniform(n, rng)
        mu = self.uniform(n, rng)
        while len(mu) > CHI_MAX_PARTS:
            mu = self.uniform(n, rng)
        return lam, mu

    def queries(self, count: int = POINT_QUERIES) -> list[tuple]:
        """The run's queries, as (kind, args); they depend on the seed only."""
        rng = random.Random(f"point:{self.seed}")
        queries, j = [], 0
        for i in range(count):
            kind = KINDS[i % len(KINDS)]
            if kind == "chi":
                queries.append(("chi", self.chi_query(j, rng)))
                j += 1
            elif kind == "tcore":
                lam = self.uniform(rng.randint(*BIG_N), rng)
                queries.append(("tcore", (lam, rng.randint(*TCORE_T))))
            else:
                mu = self.uniform(rng.randint(*BIG_N), rng)
                queries.append(("reduce", (mu, rng.choice(REDUCE_CONFIGS))))
        return queries


def write_queries(queries: list[tuple], path) -> None:
    with open(path, "w") as f:
        json.dump(queries, f)


def read_queries(path) -> list[tuple]:
    """Queries written by `write_queries`, with their lists back as tuples."""
    with open(path) as f:
        return [
            (kind, tuple(tuple(a) if isinstance(a, list) else a for a in args))
            for kind, args in json.load(f)
        ]


def _is_partition(parts) -> bool:
    return all(isinstance(x, int) and x > 0 for x in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def check_point(kind: str, args, answer, mn_reference) -> str | None:
    """A problem with one point answer, or None.

    Checks avoid the library's code path: the diagram-walking recursion in
    `tests/oracles.py`, the hook-length formula, and the defining properties
    of cores and reductions.
    """
    if isinstance(answer, str):
        return f"{kind}{args}: {answer}"
    if kind == "chi":
        lam, mu = args
        deg = hook_degree(lam)
        if mu == (1,) * len(mu):
            if answer != deg:
                return f"chi({lam}, 1^{len(mu)}) = {answer}, degree is {deg}"
        elif abs(answer) > deg:
            return f"|chi({lam}, {mu})| = {abs(answer)} exceeds the degree {deg}"
        elif len(mu) <= REFERENCE_MAX_PARTS and answer != mn_reference(lam, mu):
            return f"chi({lam}, {mu}) = {answer} disagrees with the reference"
        return None
    if kind == "tcore":
        (lam, t), core = args, tuple(answer)
        n, size = sum(lam), sum(core)
        if not _is_partition(core) or size > n or (n - size) % t:
            return f"tcore({lam}, {t}) = {core} is not a core of the right size"
        if t in _hook_lengths(core):
            return f"tcore({lam}, {t}) = {core} has a hook of length {t}"
        return None
    (mu, (p, r)), out = args, tuple(answer)
    counts: dict[int, int] = {}
    for part in out:
        counts[part] = counts.get(part, 0) + 1
    if not _is_partition(out) or sum(out) != sum(mu):
        return f"reduce({mu}, q={p}**{r}) = {out} changes the size"
    if max(counts.values(), default=0) >= p**r:
        return f"reduce({mu}, q={p}**{r}) = {out} keeps a multiplicity >= q"
    return None
