import inspect
import json

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from charcore import cli
from charcore.abacus import is_tcore
from charcore.divisibility import CombineConfig
from charcore.errors import RangeError, SizeCapError
from charcore.partitions import partition_count, partitions_of
from charcore.stats import (
    DELTA_DPS,
    _series_floor,
    count_non_tcores,
    density_report,
    exceeds_threshold,
    generating_function_fp,
    lemma91_delta,
    non_tcore_bound,
    ppower_count,
    ppower_count_restricted,
    ppower_difference_check,
    prop4_empirical,
    prop4_threshold,
    restricted_counts_table,
)
from oracles import (
    brute_ppower_count,
    brute_restricted_count,
    delta_series_terms,
    fp_expm1_product,
    fp_series,
    non_tcore_counts,
)


class TestDensity:
    def test_n1(self):
        rep = density_report(1, 2)
        assert (rep.total, rep.divisible, rep.nonzero_positive) == (1, 0, 1)
        assert rep.zero == 0 and rep.nonzero_negative == 0

    def test_n3_mod2(self):
        rep = density_report(3, 2)
        assert rep.divisible == 2  # the entries 2 and 0
        assert rep.total == 9

    def test_counts_partition_total(self):
        for n in (2, 5, 8):
            for k in (2, 3, 5):
                rep = density_report(n, k)
                assert rep.zero + rep.nonzero_positive + rep.nonzero_negative == rep.total
                assert rep.total == partition_count(n) ** 2
                assert rep.divisible >= rep.zero

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            density_report(3, 0)

    def test_takes_no_thread_count(self):
        assert list(inspect.signature(density_report).parameters) == ["n", "k"]

    def test_holds_one_column_at_a_time(self):
        # one column of 627 entries is held at a time, never the 627 x 627 table
        import tracemalloc

        density_report(20, 2)  # the process caches warm
        tracemalloc.start()
        try:
            density_report(20, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestNonTCores:
    def test_above_n(self):
        assert count_non_tcores(5, 6) == 0
        assert count_non_tcores(5, 17) == 0

    def test_t_one(self):
        for n in range(1, 12):
            assert count_non_tcores(n, 1) == partition_count(n)

    def test_small_value_against_direct_scan(self):
        direct = sum(1 for lam in partitions_of(5) if not is_tcore(lam, 3))
        assert direct == 6
        assert count_non_tcores(5, 3) == 6
        assert 6 <= 4 * partition_count(2)

    def test_generating_function_matches_enumeration(self):
        for n in range(41):
            counts = non_tcore_counts(n)
            for t in range(1, n + 3):
                assert count_non_tcores(n, t) == counts.get(t, 0), (n, t)

    def test_size_errors(self):
        with pytest.raises(ValueError, match="t must be positive"):
            count_non_tcores(5, 0)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            count_non_tcores(-1, 3)
        with pytest.raises(SizeCapError, match="enumeration capped at n <= 60, got 61"):
            count_non_tcores(61, 3)

    def test_bound_window(self):
        for n in range(1, 18):
            for t in range(1, n + 1):
                assert count_non_tcores(n, t) <= (t + 1) * partition_count(n - t)

    def test_bound_is_the_cli_bound(self, capsys):
        for n in range(31):
            for t in range(1, n + 3):
                argv = ["stats", "tcores", "--n", str(n), "--t", str(t)]
                assert cli.main(argv) == 0
                record = json.loads(capsys.readouterr().out)
                assert non_tcore_bound(n, t) == record["bound"]


class TestPPowerCounts:
    def test_conventions(self):
        assert ppower_count(2, 0) == 1
        assert ppower_count(2, 4) == 4
        assert ppower_count(3, 2) == 1

    def test_against_brute_enumeration(self):
        for p, top in ((2, 120), (3, 200), (5, 200)):
            for k in range(top + 1):
                assert ppower_count(p, k) == brute_ppower_count(p, k)
        for k in (150, 200):
            assert ppower_count(2, k) == brute_ppower_count(2, k)

    def test_binary_recurrence(self):
        # classical: b(2m) = b(2m-1) + b(m), odd values repeat the previous
        b = [ppower_count(2, k) for k in range(301)]
        for m in range(1, 150):
            assert b[2 * m] == b[2 * m - 1] + b[m]
            assert b[2 * m + 1] == b[2 * m]

    def test_validation(self):
        with pytest.raises(ValueError):
            ppower_count(4, 5)
        with pytest.raises(SizeCapError):
            ppower_count(2, 10**5 + 1)


class TestRestrictedCounts:
    def test_vacuous_restriction(self):
        # no reachable level at or above s: the restriction drops away
        assert ppower_count_restricted(2, 2, 4, 10) == ppower_count(2, 10)
        assert ppower_count_restricted(3, 2, 3, 8) == ppower_count(3, 8)

    def test_zero(self):
        assert ppower_count_restricted(2, 2, 0, 0) == 1

    def test_monotone_in_s(self):
        for k in (10, 17, 24):
            values = [ppower_count_restricted(2, 2, s, k) for s in range(6)]
            assert values == sorted(values)
            assert values[-1] == ppower_count(2, k)

    def test_witness_family_not_restricted(self):
        # the explicit construction lands outside the restricted count
        from charcore.divisibility import carry_levels

        p, r = 2, 2
        for s in (2, 3):
            k = p ** (r + s - 1) * (s + 4) // s + 1
            bound_hit = 0
            ranges = [p ** (s - i) // (s - 1) for i in range(1, s)]
            from itertools import product

            for choice in product(*(range(b + 1) for b in ranges)):
                used = sum(a * p**i for i, a in zip(range(1, s), choice))
                levels = [k - used] + list(choice)
                assert levels[0] >= 0
                reduced = carry_levels(levels, CombineConfig(p, r))
                keep = p ** (r - 1)
                assert any(a >= keep for a in reduced[s:]), (s, choice)
                bound_hit += 1
            assert bound_hit >= p ** (s * (s - 1) // 2) // (s - 1) ** (s - 1)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            ppower_count_restricted(2, 2, 2, 2001)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((4, 1, 0, 5), ValueError, "p must be prime, got 4"),
            ((2, 0, 0, 5), ValueError, "r must be positive"),
            ((2, 1, -1, 5), ValueError, "s, k nonnegative"),
            ((2, 1, 0, -1), ValueError, "s, k nonnegative"),
            ((2, 10**5, 0, 5), SizeCapError, "4300 decimal digits"),
        ],
    )
    def test_table_refuses_a_bad_input(self, args, error, message):
        with pytest.raises(error, match=message):
            restricted_counts_table(*args)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((4, 1, 0, 2001), ValueError, "p must be prime, got 4"),
            ((2, 0, 0, 2001), ValueError, "r must be positive"),
            ((2, 1, -1, 2001), ValueError, "s, k nonnegative"),
            # past the cap, the cap is named before an over-long p**r
            ((2, 10**5, 0, 2001), SizeCapError, "capped at k <= 2000"),
            ((2, 10**5, 0, 5), SizeCapError, "4300 decimal digits"),
        ],
    )
    def test_count_names_the_first_bad_input(self, args, error, message):
        with pytest.raises(error, match=message):
            ppower_count_restricted(*args)

    def test_bulk_table_matches_enumeration(self):
        # the carry-tracking pass and the materialized enumeration must agree
        for p, r in ((2, 2), (3, 2), (2, 3)):
            for s in range(4):
                table = restricted_counts_table(p, r, s, 48)
                for k in range(49):
                    expect = brute_restricted_count(p, r, s, k)
                    assert table[k] == expect, (p, r, s, k)
                    assert ppower_count_restricted(p, r, s, k) == expect, (
                        p, r, s, k,
                    )

    def test_larger_k_matches_enumeration(self):
        # the size the benchmark's pdiff job asks for
        assert ppower_count_restricted(2, 2, 2, 192) == brute_restricted_count(
            2, 2, 2, 192
        )

    def test_just_under_the_cap_runs(self):
        # 2000 has 264,830,889,564 partitions into powers of 2, too many to list
        count = ppower_count_restricted(2, 2, 2, 2000)
        assert 0 < count < ppower_count(2, 2000)


class TestPPowerDifference:
    def test_window_start(self):
        check = ppower_difference_check(2, 2, 2, 24)
        assert check.satisfied

    def test_range_errors(self):
        with pytest.raises(RangeError):
            ppower_difference_check(2, 2, 1, 100)
        with pytest.raises(RangeError):
            ppower_difference_check(2, 2, 2, 23)


class TestGeneratingFunction:
    def test_product_vs_series(self):
        prod = generating_function_fp(2, 5, dps=30)
        series = fp_series(2, 5)
        assert abs(prod - series) < mpmath.mpf("1e-10")

    def test_small_t_limit(self):
        assert abs(generating_function_fp(2, "0.01", dps=30) - 1) < mpmath.mpf("1e-12")

    def test_other_primes(self):
        for p in (3, 5):
            prod = generating_function_fp(p, 2.5, dps=30)
            series = fp_series(p, 2.5)
            assert abs(prod - series) < mpmath.mpf("1e-10")

    def test_log_growth_report(self):
        # residual of log F against its leading terms stays bounded on a grid
        residuals = []
        for t in (10, 100, 1000):
            val = generating_function_fp(2, t, dps=40)
            lead = (mpmath.log(t)) ** 2 / (2 * mpmath.log(2)) + mpmath.log(t) / 2
            residuals.append(float(mpmath.log(val) - lead))
        assert all(abs(x) < 10 for x in residuals)

    @pytest.mark.parametrize("t", [1e10, 1e40, 1e44, 1e45, 1e100, 1e300, 1.7e308])
    def test_large_t_keeps_every_digit(self, t):
        # 1 - exp(-p**j/t) cancels about log10(t) digits
        for p in (2, 3):
            got = generating_function_fp(p, t, dps=30)
            with mpmath.workdps(30):
                assert mpmath.nstr(got, 30) == mpmath.nstr(+fp_expm1_product(p, t), 30)

    def test_too_much_work_is_refused_before_any(self, monkeypatch):
        import charcore.stats as stats

        def no_exp(*args):
            raise AssertionError("evaluated a factor")

        monkeypatch.setattr(stats.mpmath, "exp", no_exp)
        # at t = 10 < 2**4 the factor bound is 11, so 30136 + 15 digits is the most
        with pytest.raises(AssertionError, match="evaluated a factor"):
            generating_function_fp(2, 10, dps=30136)
        with pytest.raises(SizeCapError, match=r"got 11 times 30152\*\*2$"):
            generating_function_fp(2, 10, dps=30137)

    def test_validation(self):
        with pytest.raises(ValueError):
            generating_function_fp(2, 0, dps=30)
        with pytest.raises(ValueError):
            generating_function_fp(6, 1, dps=30)

    @pytest.mark.parametrize("dps", [0, -5, -40])
    def test_dps_below_one_is_refused_before_any_mpmath_work(self, dps, monkeypatch):
        import charcore.stats as stats

        monkeypatch.setattr(stats, "mpmath", None)
        with pytest.raises(ValueError, match=f"^dps must be at least 1, got {dps}$"):
            generating_function_fp(2, 5, dps=dps)


class TestProp4:
    def test_threshold_value(self):
        cfg = CombineConfig(2, 2)
        thr = prop4_threshold(10**4, cfg)
        expect = (
            (1 + mpmath.mpf(1) / 24)
            * mpmath.sqrt(6)
            / (2 * mpmath.pi)
            * 100
            * mpmath.log(10**4)
        )
        assert abs(thr - expect) < mpmath.mpf("1e-12")

    def test_exceeds_threshold_brackets(self):
        cfg = CombineConfig(2, 2)
        thr = prop4_threshold(10**4, cfg)
        below = int(mpmath.floor(thr))
        assert not exceeds_threshold(below, 10**4, cfg)
        assert exceeds_threshold(below + 1, 10**4, cfg)

    def test_exceeds_threshold_keeps_global_precision(self, monkeypatch):
        # the escalation must not touch the caller's mpmath.iv precision,
        # not even while the threshold is being evaluated
        import charcore.stats as stats

        seen = []
        original = stats._threshold

        def spy(ctx, n, cfg):
            seen.append(mpmath.iv.dps)
            return original(ctx, n, cfg)

        monkeypatch.setattr(stats, "_threshold", spy)
        saved = mpmath.iv.dps
        mpmath.iv.dps = 17
        try:
            cfg = CombineConfig(2, 2)
            below = int(mpmath.floor(prop4_threshold(10**4, cfg)))
            assert not exceeds_threshold(below, 10**4, cfg)
            assert exceeds_threshold(below + 1, 10**4, cfg)
            assert seen and all(dps == 17 for dps in seen)
            assert mpmath.iv.dps == 17
        finally:
            mpmath.iv.dps = saved

    def test_min_clearing_part_is_the_smallest_that_clears(self):
        for n, (p, r) in ((2, (2, 2)), (60, (2, 2)), (2000, (2, 2)),
                          (500, (3, 2)), (1000, (2, 3)), (7, (5, 1))):
            cfg = CombineConfig(p, r)
            reps = p ** (r - 1)
            m_min = prop4_empirical(n, cfg, 1, 0).min_clearing_part
            assert exceeds_threshold(reps * m_min, n, cfg)
            assert m_min == 1 or not exceeds_threshold(reps * (m_min - 1), n, cfg)

    @pytest.mark.parametrize(
        "n, error, message",
        [
            (0, ValueError, "^n must be at least 1, got 0$"),
            (-5, ValueError, "^n must be at least 1, got -5$"),
            (5001, SizeCapError, "^sampling capped at n <= 5000, got 5001$"),
        ],
    )
    def test_n_is_checked_before_the_threshold(self, monkeypatch, n, error, message):
        import charcore.stats as stats

        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(stats, "prop4_threshold", refuse)
        with pytest.raises(error, match=message):
            prop4_empirical(n, CombineConfig(2, 2), 10, 1)

    def test_empirical_deterministic(self):
        cfg = CombineConfig(2, 2)
        a = prop4_empirical(120, cfg, 40, 7)
        b = prop4_empirical(120, cfg, 40, 7)
        assert a == b
        assert a.holds + a.fails == 40
        assert 0 <= a.failure_fraction <= 1
        lo, hi = a.ci95
        assert 0 <= lo <= a.failure_fraction <= hi <= 1


class TestLemma91Delta:
    def _in_range_L(self, n, cfg):
        with mpmath.workdps(40):
            x = mpmath.sqrt(6 * n) / mpmath.pi
            s = int(mpmath.floor(mpmath.log(mpmath.sqrt(n)) / (mpmath.e * cfg.q)))
            return float(x / (2 * cfg.p ** (cfg.r + s - 1))) + 1.0

    def test_report_values(self):
        cfg = CombineConfig(2, 2)
        n = 10**6
        check = lemma91_delta(n, cfg, self._in_range_L(n, cfg), tail=1e-4)
        assert check.satisfied is None
        assert mpmath.mpf(check.lhs) > 0
        assert check.detail["ell_bound_satisfied"]
        assert mpmath.mpf(check.detail["tail_bound"]) < mpmath.mpf("1e-4")

    def test_range_error(self):
        cfg = CombineConfig(2, 2)
        with pytest.raises(RangeError):
            lemma91_delta(10**6, cfg, 1.0, tail=1e-6)

    def test_prime_checks_do_not_grow_with_the_window(self, monkeypatch):
        import charcore.stats as stats

        calls, real = [], stats.check_prime

        def spy(p):
            calls.append(p)
            real(p)

        monkeypatch.setattr(stats, "check_prime", spy)
        cfg = CombineConfig(2, 2)
        seen = {}
        for n in (10**4, 10**6):
            calls.clear()
            check = lemma91_delta(n, cfg, self._in_range_L(n, cfg), tail=1e-4)
            seen[check.detail["ell_count"]] = len(calls)
        assert len(seen) == 2 and len(set(seen.values())) == 1, seen

    def test_each_exponential_is_computed_once(self, monkeypatch):
        # one exp per l, one for the tail ratio, and the factors of fp_big
        calls, real = [], mpmath.exp

        def spy(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(mpmath, "exp", spy)
        check = lemma91_delta(10**7, CombineConfig(2, 2), 620, 1e-6)
        assert len(calls) <= check.detail["ell_count"] + 16

    def test_wide_window_is_refused_before_the_first_ell(self, monkeypatch):
        import charcore.stats as stats

        def no_sum(*args):
            raise AssertionError("summed a term of the window")

        monkeypatch.setattr(stats, "_series_floor", no_sum)
        cfg = CombineConfig(2, 2)
        n = 10**12  # 97,462 values of l, a window of 194,923
        with pytest.raises(SizeCapError, match="got 194923"):
            lemma91_delta(n, cfg, self._in_range_L(n, cfg), tail=1e-6)

    def test_too_many_terms_are_refused_before_the_first_ell(self, monkeypatch):
        import time

        import charcore.stats as stats

        def no_sum(*args):
            raise AssertionError("summed a term of the window")

        monkeypatch.setattr(stats, "_series_floor", no_sum)
        cfg = CombineConfig(11, 3)
        n = 9_631_347_665_285  # a window of 19,997; summing it took 177 s
        start = time.process_time()
        match = "got 18180 values of l times k_truncation 32768"
        with pytest.raises(SizeCapError, match=match):
            lemma91_delta(n, cfg, self._in_range_L(n, cfg), tail=1e-6)
        assert time.process_time() - start < 1


class TestSeriesKernel:
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.integers(0, 10**40), max_size=600),
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.booleans(),
    )
    @example([10**40] * 600, 1 - 2.0**-53, True)
    def test_rounds_down_within_documented_bound(self, coeffs, w, full):
        # z is a short float mantissa, or a full-precision one from sqrt
        with mpmath.workdps(DELTA_DPS + 15):
            prec = mpmath.mp.prec
            z = mpmath.sqrt(w) if full else mpmath.mpf(w)
            got = _series_floor(coeffs, z)
            assert got.man_exp[0].bit_length() <= prec
        with mpmath.workprec(2 * prec):
            ref = delta_series_terms(coeffs, z)
            # the reference's own nearest rounding, first order in 2**-(2 prec)
            slack = 4 * (len(coeffs) + 1) * ref * mpmath.ldexp(1, -2 * prec)
            assert got <= ref + slack
            assert ref - got <= 3 * ref * mpmath.ldexp(1, -prec) + slack

    def test_exact_sums_come_back_exact(self):
        with mpmath.workdps(DELTA_DPS + 15):
            assert _series_floor([0] * 40, mpmath.mpf("0.5")) == 0
            assert _series_floor([3, 0, 5], mpmath.mpf("0.5")) == mpmath.mpf("4.25")
            assert _series_floor([0] * 599 + [1], mpmath.ldexp(1, -100)) == (
                mpmath.ldexp(1, -59900)
            )
