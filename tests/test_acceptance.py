"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer equality); no tolerances are involved anywhere.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

from charcore.abacus import from_partition, hooks_of_length, remove_border_strip, to_partition
from charcore.characters import centralizer_order, verify_orthogonality
from charcore.divisibility import (
    CombineConfig,
    verify_combine_congruence,
    verify_factorization,
    verify_lemma61,
    verify_lemma62,
    verify_lemma81,
    verify_prop_pm1_sweep,
    verify_theorem3,
)
from charcore.partitions import hook_lengths, partition_count, partitions_of
from charcore.stats import count_non_tcores, density_report, ppower_difference_check
from charcore.tableaux import count_syt, iter_box_skews
from oracles import verify_lr_expansion


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_character_engine(tables):
    with criterion(1, "orthogonality, degrees, and sum of squares for n <= 14"):
        for n in range(1, 15):
            table = tables.get(n)
            ok, witness = verify_orthogonality(table)
            assert ok, witness
            identity = table.partitions.index((1,) * n)
            degrees = [row[identity] for row in table.rows]
            assert degrees == [count_syt(lam) for lam in table.partitions]
            assert sum(d * d for d in degrees) == math.factorial(n)
            assert centralizer_order((1,) * n) == math.factorial(n)


def test_criterion_02_worked_example():
    with criterion(2, "boundary word, strip removal, and hook row of the example"):
        lam = (6, 5, 3, 1, 1, 1)
        a = from_partition(lam)
        assert "".join(map(str, a.word)) == "011100100101"
        hooks = hooks_of_length(a, 5)
        assert len(hooks) == 1
        assert to_partition(remove_border_strip(a, hooks[0])) == (6, 2, 1, 1, 1, 1)
        assert hook_lengths(lam)[0] == [11, 7, 6, 4, 3, 1]


def test_criterion_03_combine_congruence():
    with criterion(3, "combining congruence exhaustive: n <= 12 all q, n <= 16 for q = 4"):
        configs = [
            CombineConfig(2, 1),
            CombineConfig(3, 1),
            CombineConfig(2, 2),
            CombineConfig(2, 3),
            CombineConfig(3, 2),
        ]
        for cfg in configs:
            for n in range(1, 13):
                report = verify_combine_congruence(n, cfg)
                assert report.ok, report.as_dict()
        for n in range(13, 17):
            report = verify_combine_congruence(n, CombineConfig(2, 2))
            assert report.ok, report.as_dict()


def test_criterion_04_divisibility_theorem():
    with criterion(4, "core-condition theorem exhaustive for n <= 16, three configs"):
        total_checked = 0
        for cfg in (CombineConfig(2, 2), CombineConfig(3, 2), CombineConfig(2, 3)):
            for n in range(1, 17):
                report = verify_theorem3(n, cfg)
                assert report.ok, report.as_dict()
                total_checked += report.checked
        assert total_checked > 0  # the sweep is not vacuous


def test_criterion_05_hook_sequence_lemmas():
    with criterion(5, "sign constancy, p | group counts, and the counting identity"):
        for n in range(1, 13):
            for m in range(1, 5):
                report = verify_lemma61(n, m, max_hooks=4)
                assert report.ok, report.as_dict()
                report = verify_factorization(n, m, max_hooks=4)
                assert report.ok, report.as_dict()
        for cfg in (CombineConfig(2, 2), CombineConfig(3, 2), CombineConfig(2, 3)):
            for n in range(1, 13):
                for m in range(1, 5):
                    report = verify_lemma62(n, m, cfg)
                    assert report.ok, report.as_dict()


def test_criterion_06_expansion_proposition():
    with criterion(6, "p-divisible expansion over cores, n <= 12, m in {1,2,3}"):
        cfg = CombineConfig(2, 2)
        checked = 0
        for n in range(2, 13):
            for m in (1, 2, 3):
                if cfg.p ** (cfg.r - 1) * m > n:
                    continue
                report = verify_prop_pm1_sweep(n, m, cfg)
                assert report.ok, report.as_dict()
                checked += report.checked
        assert checked > 0


def test_criterion_07_skew_multiplicity_lemma():
    with criterion(7, "p | skew counts for non-strips; expansion identity in a box"):
        for cfg in (CombineConfig(2, 2), CombineConfig(2, 3), CombineConfig(3, 2)):
            report = verify_lemma81(8, cfg)
            assert report.ok, report.as_dict()
            assert report.checked > 0
        for size in range(1, 9):
            for shape in iter_box_skews(6, 6, size):
                assert verify_lr_expansion(shape).ok, str(shape)


def test_criterion_08_non_core_bound():
    with criterion(8, "non-core counts below (t+1) p(n-t) for 1 <= t <= n <= 28"):
        for n in range(1, 29):
            for t in range(1, n + 1):
                count = count_non_tcores(n, t)
                assert count <= (t + 1) * partition_count(n - t)


def test_criterion_09_ppower_difference_bound():
    with criterion(9, "restricted p-power deficiency bound over 40-wide windows"):
        for p in (2, 3):
            r = 2
            for s in (2, 3):
                start = -(-(p ** (r + s - 1) * (s + 4)) // s)  # ceil
                for k in range(start, start + 41):
                    check = ppower_difference_check(p, r, s, k)
                    assert check.satisfied, check.as_dict()


# Computed once from the verified engine (orthogonality holds exactly through
# n = 16) and frozen; reruns must reproduce them bit for bit.
DENSITY_FIXTURES = {
    (10, 2): (1764, 966, 588, 652, 524),
    (10, 3): (1764, 803, 588, 652, 524),
    (10, 4): (1764, 681, 588, 652, 524),
    (16, 2): (53361, 37492, 20615, 17080, 15666),
    (16, 3): (53361, 29669, 20615, 17080, 15666),
    (16, 4): (53361, 27733, 20615, 17080, 15666),
    (22, 2): (1004004, 759962, 395473, 310602, 297929),
    (22, 3): (1004004, 617021, 395473, 310602, 297929),
    (22, 4): (1004004, 569403, 395473, 310602, 297929),
}


def test_criterion_10_density_regression():
    with criterion(10, "density fixtures reproduced; mod-2 density grows 10 -> 22"):
        reports = {}
        for n in (10, 16, 22):
            for k in (2, 3, 4):
                rep = density_report(n, k)
                reports[(n, k)] = rep
                got = (
                    rep.total,
                    rep.divisible,
                    rep.zero,
                    rep.nonzero_positive,
                    rep.nonzero_negative,
                )
                assert got == DENSITY_FIXTURES[(n, k)], (n, k, got)
        low = reports[(10, 2)]
        high = reports[(22, 2)]
        assert high.divisible * low.total > low.divisible * high.total


def test_criterion_11_cli_determinism():
    with criterion(11, "byte-identical CLI output across reruns and 1-8 workers"):
        base = [sys.executable, "-m", "charcore"]

        def run(*args):
            res = subprocess.run(
                base + list(args), capture_output=True, text=True, timeout=300
            )
            assert res.returncode == 0, res.stderr
            return res.stdout

        table_outputs = {
            run("table", "10", "--format", "csv", "--threads", str(t))
            for t in (1, 2, 4, 8)
        }
        assert len(table_outputs) == 1
        for args in (
            ("verify", "combine", "--n", "9", "--p", "2", "--r", "2"),
            ("stats", "density", "--n", "7", "--mod", "3"),
            ("sample", "--n", "40", "--seed", "17", "--count", "6"),
            ("stats", "prop4", "--n", "80", "--p", "2", "--r", "2",
             "--samples", "10", "--seed", "5"),
        ):
            assert run(*args) == run(*args)
        report = json.loads(run("verify", "combine", "--n", "9", "--p", "2", "--r", "2"))
        assert report["violated"] == 0
