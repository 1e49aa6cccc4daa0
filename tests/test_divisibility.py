import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import charcore.characters as characters
import charcore.divisibility as divisibility
import oracles
from charcore.abacus import (
    _beads,
    _partition_mask,
    bead_mask,
    from_partition,
    hook_length_mask,
    is_tcore,
    mask_partition,
    tcore,
)
from charcore.characters import chi
from charcore.divisibility import (
    CombineConfig,
    carry_levels,
    combine_step,
    enumerate_hook_sequences,
    epsilon,
    reduce_partition,
    theorem1_pipeline,
    verify_combine_congruence,
    verify_factorization,
    verify_lemma61,
    verify_lemma62,
    verify_lemma81,
    verify_prop_pm1_sweep,
    verify_theorem3,
)
from charcore.errors import SizeCapError, UnreachableError
from charcore.partitions import format_partition, multiplicities, partitions_of
from charcore.tableaux import count_syt
from oracles import (
    hook_sequence_dfs,
    hook_sequence_signs,
    lemma62_per_row,
    lemma81_via_shapes,
    predicted_count_via_shapes,
    prop_pm1_per_value,
    prop_pm1_sweep_per_value,
    random_order_reduce,
    reduce_class_by_class,
    theorem3_hypothesis_per_length,
    theorem3_per_pair,
)

CFGS = [CombineConfig(2, 2), CombineConfig(2, 3), CombineConfig(3, 2)]
ONE_LEVEL_CFGS = [CombineConfig(2, 1), CombineConfig(3, 1), CombineConfig(5, 1)]
THEOREM3_CFGS = [CombineConfig(*c) for c in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2))]

partition_lists = st.lists(st.integers(1, 6), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@st.composite
def heavy_partitions(draw, max_n):
    """Partitions of at most max_n with long runs of sizes that share p-free classes."""
    parts, room = [], max_n
    for _ in range(draw(st.integers(0, 8))):
        m = draw(st.integers(1, 5)) * draw(st.sampled_from((1, 2, 3, 4, 8, 9, 16, 27)))
        if m > room:
            break
        a = draw(st.integers(1, room // m))
        parts += [m] * a
        room -= m * a
    return tuple(sorted(parts, reverse=True))


class TestCombineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CombineConfig(4, 2)
        with pytest.raises(ValueError):
            CombineConfig(2, 0)
        assert CombineConfig(3, 2).q == 9

    def test_prime_case_allowed(self):
        assert CombineConfig(2, 1).q == 2

    def test_prime_cap(self):
        assert CombineConfig(999999999989, 1).q == 999999999989
        with pytest.raises(SizeCapError, match="prime capped"):
            CombineConfig(100000000000000003, 1)

    @pytest.mark.parametrize("p", [2, 3, 7, 999999999989])
    def test_power_cap_falls_at_the_printable_digits(self, p):
        e = int(4300 / math.log10(p))
        while p ** (e + 1) < 10**4300:
            e += 1
        while p**e >= 10**4300:
            e -= 1
        assert CombineConfig(p, e).q == p**e
        with pytest.raises(SizeCapError, match="4300 decimal digits"):
            CombineConfig(p, e + 1)
        with pytest.raises(SizeCapError, match="4300 decimal digits"):
            CombineConfig(p, 10**12)


class TestCombineStep:
    def test_examples(self):
        cfg = CombineConfig(2, 2)
        assert combine_step((1, 1, 1, 1), 1, cfg) == (2, 2)
        assert combine_step((3, 1, 1, 1, 1), 1, cfg) == (3, 2, 2)

    def test_insufficient_multiplicity(self):
        with pytest.raises(ValueError):
            combine_step((1, 1, 1), 1, CombineConfig(2, 2))

    def test_size_preserved_randomized(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(4, 18)
            parts = partitions_of(n)
            mu = parts[rng.randrange(len(parts))]
            cfg = CFGS[rng.randrange(len(CFGS))]
            options = [m for m, a in multiplicities(mu).items() if a >= cfg.q]
            if not options:
                continue
            nu = combine_step(mu, rng.choice(options), cfg)
            assert sum(nu) == n


class TestReduce:
    def test_carry_chain_example(self):
        trace = reduce_partition((1,) * 8, CombineConfig(2, 2))
        assert trace.output == (4, 4)
        assert reduce_class_by_class((1,) * 8, CombineConfig(2, 2)) == (
            (4, 4),
            ((1, 8, 4), (1, 4, 0), (2, 4, 0)),
        )

    def test_two_carry_chains_in_one_class(self):
        # class 1 carries at sizes 1 and 8, so its steps come before class 3's
        mu = (8,) * 7 + (3,) * 4 + (2,) + (1,) * 5
        output, steps = reduce_class_by_class(mu, CombineConfig(2, 2))
        assert steps == ((1, 5, 1), (8, 7, 3), (3, 4, 0))
        assert reduce_partition(mu, CombineConfig(2, 2)).output == output

    def test_matches_class_by_class_oracle_exhaustive(self):
        # r = 1 (q = p) makes the most classes carry
        for cfg in CFGS + ONE_LEVEL_CFGS:
            for n in range(19):
                for mu in partitions_of(n):
                    expect, _ = reduce_class_by_class(mu, cfg)
                    assert reduce_partition(mu, cfg).output == expect

    @settings(max_examples=300, deadline=None)
    @given(heavy_partitions(300), st.sampled_from(CFGS + ONE_LEVEL_CFGS))
    def test_matches_class_by_class_oracle_property(self, mu, cfg):
        expect, _ = reduce_class_by_class(mu, cfg)
        assert reduce_partition(mu, cfg).output == expect

    def test_carry_free_class_is_its_own_output(self):
        mu = (5, 5, 5, 3, 1)
        trace = reduce_partition(mu, CombineConfig(2, 2))
        assert trace.output is trace.input
        assert reduce_class_by_class(mu, CombineConfig(2, 2)) == (mu, ())

    def test_same_class_under_two_configs_gives_unequal_traces(self):
        # neither config carries, so only the recorded config tells them apart
        mu = (2, 2, 1, 1, 1, 1)
        one = reduce_partition(mu, CombineConfig(5, 1))
        two = reduce_partition(mu, CombineConfig(7, 1))
        assert one.output == two.output == mu
        assert one != two
        assert one.cfg == CombineConfig(5, 1)

    def test_fixpoint_untouched(self):
        cfg = CombineConfig(2, 2)
        for mu in [(3, 2, 1), (5, 5, 5), (2, 2, 2, 1, 1, 1)]:
            assert reduce_partition(mu, cfg).output == mu

    def test_invariants_exhaustive(self):
        for cfg in CFGS:
            keep = cfg.p ** (cfg.r - 1)
            for n in range(15):
                for mu in partitions_of(n):
                    out = reduce_partition(mu, cfg).output
                    assert sum(out) == n
                    out_counts = multiplicities(out)
                    assert all(a < cfg.q for a in out_counts.values())
                    in_counts = multiplicities(mu)
                    for m in set(in_counts) | set(out_counts):
                        assert (
                            in_counts.get(m, 0) - out_counts.get(m, 0)
                        ) % keep == 0

    def test_confluence_exhaustive(self):
        rng = random.Random(99)
        for cfg in CFGS:
            for n in range(15):
                for mu in partitions_of(n):
                    expected = reduce_partition(mu, cfg).output
                    for _ in range(3):
                        assert random_order_reduce(mu, cfg, rng) == expected

    @settings(max_examples=200)
    @given(partition_lists, st.randoms(use_true_random=False))
    def test_confluence_property(self, mu, rng):
        cfg = CombineConfig(2, 2)
        assert random_order_reduce(mu, cfg, rng) == reduce_partition(mu, cfg).output

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 30), max_size=5),
        st.sampled_from(CFGS + ONE_LEVEL_CFGS),
        st.randoms(use_true_random=False),
    )
    @example([8], CombineConfig(2, 2), random.Random(0))  # opens two levels
    @example([], CombineConfig(2, 2), random.Random(0))
    def test_carry_levels_is_the_combine_step_fixpoint(self, levels, cfg, rng):
        # levels j of the class of 1 hold parts of size p**j; the fixpoint of
        # repeated combine_step, in a random order, needs no carry loop
        mu = tuple(
            sorted(
                (cfg.p**j for j, a in enumerate(levels) for _ in range(a)),
                reverse=True,
            )
        )
        expect = multiplicities(random_order_reduce(mu, cfg, rng))
        reduced = carry_levels(levels, cfg)
        assert {cfg.p**j: a for j, a in enumerate(reduced) if a} == expect
        assert len(reduced) >= len(levels)

    def test_one_step_keeps_the_fixpoint(self):
        # what lets verify combine hold one reduction class at a time
        for cfg in THEOREM3_CFGS:
            for n in range(19):
                for mu in partitions_of(n):
                    fixpoint = reduce_partition(mu, cfg).output
                    for m, a in multiplicities(mu).items():
                        if a >= cfg.q:
                            nu = combine_step(mu, m, cfg)
                            assert reduce_partition(nu, cfg).output == fixpoint

    def test_carry_levels_refuses_a_negative_multiplicity_at_once(self):
        # a negative count would carry -1s upward for ever
        import signal

        def stop(signum, frame):
            raise TimeoutError("carry_levels took more than 1 s")

        old = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            for levels in ([-5], [3, -1, 4]):
                with pytest.raises(ValueError, match="nonnegative, got"):
                    carry_levels(levels, CombineConfig(2, 2))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_library_reductions_carry_through_carry_levels(self, monkeypatch):
        from charcore.stats import prop4_empirical

        calls = []
        real = divisibility.carry_levels

        def counted(levels, cfg):
            calls.append(len(levels))
            return real(levels, cfg)

        monkeypatch.setattr(divisibility, "carry_levels", counted)
        cfg = CombineConfig(2, 2)
        assert reduce_partition((1,) * 8, cfg).output == (4, 4)
        assert len(calls) == 1
        prop4_empirical(60, cfg, 5, 1)
        assert len(calls) > 1
        assert theorem1_pipeline((2, 1, 1), (1, 1, 1, 1), cfg).mu_tilde == (2, 2)
        assert len(calls) > 2


class TestCombineCongruence:
    def test_manual_n4(self):
        cfg = CombineConfig(2, 2)
        for lam in partitions_of(4):
            assert (chi(lam, (1, 1, 1, 1)) - chi(lam, (2, 2))) % 4 == 0

    def test_sweep_small(self):
        for cfg in CFGS:
            for n in range(1, 11):
                report = verify_combine_congruence(n, cfg)
                assert report.ok, report

    def test_prime_case(self):
        for p in (2, 3):
            for n in range(1, 11):
                report = verify_combine_congruence(n, CombineConfig(p, 1))
                assert report.ok, report

    def test_cap(self, monkeypatch):
        # the cap is the table's, and it acts before any column is read
        columns = []
        monkeypatch.setattr(divisibility, "chi_column", columns.append)
        message = "^congruence sweep capped at n <= 26, got 27$"
        with pytest.raises(SizeCapError, match=message):
            verify_combine_congruence(27, CombineConfig(2, 2))
        assert columns == []

    def test_sweep_past_sixteen(self):
        report = verify_combine_congruence(17, CombineConfig(2, 2))
        assert report.ok and report.checked > 0

    def test_reads_each_column_once(self, monkeypatch):
        calls = []
        real = divisibility.chi_column

        def counted(mu):
            calls.append(mu)
            return real(mu)

        monkeypatch.setattr(divisibility, "chi_column", counted)
        assert verify_combine_congruence(12, CombineConfig(2, 1)).ok
        assert len(calls) == len(set(calls))

    def test_holds_one_reduction_class_of_columns(self):
        # at most the columns of one reduction class, never all p(20) = 627
        import tracemalloc

        cfg = CombineConfig(2, 1)
        verify_combine_congruence(20, cfg)  # the engine caches warm
        tracemalloc.start()
        try:
            verify_combine_congruence(20, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_witness_is_the_first_of_two_failures(self, monkeypatch):
        real = divisibility.chi_column

        def shifted(mu):
            # chi^[3,1] off by one on [2,1,1], which meets [2,2] and [1,1,1,1]
            return [x + (mu == (2, 1, 1) and i == 1) for i, x in enumerate(real(mu))]

        monkeypatch.setattr(divisibility, "chi_column", shifted)
        report = verify_combine_congruence(4, CombineConfig(2, 1))
        assert report.violated == 2
        assert report.witness == {
            "lambda": "[3,1]", "mu": "[2,1,1]", "nu": "[2,2]",
            "chi_mu": "2", "chi_nu": "-1", "modulus": 2,
        }


def _sign_counts(groups):
    """Sign lists per target as (count of +1, count of -1), in the same order."""
    return [(lam2, (signs.count(1), signs.count(-1))) for lam2, signs in groups.items()]


def _one_fewer(pair):
    """An (even, odd) pair with one sequence of its sign taken away."""
    even, odd = pair
    return (even - 1, odd) if even else (even, odd - 1)


class TestHookSequences:
    def test_corner_removals_count_fillings(self):
        assert enumerate_hook_sequences((2, 2), 1, 4) == {(): (2, 0)}

    def test_single_long_hook(self):
        assert enumerate_hook_sequences((2, 2), 3, 1) == {(1,): (0, 1)}

    def test_no_hooks_of_excess_length(self):
        assert enumerate_hook_sequences((2, 2), 4, 1) == {}

    def test_too_many_removals_rejected(self):
        with pytest.raises(ValueError):
            enumerate_hook_sequences((2, 2), 3, 2)

    def test_counts_far_past_any_listing(self):
        # every ordering of the boxes of the staircase, about 1.1e9 sequences,
        # is counted over the 429 subdiagrams they pass through
        lam = (6, 5, 4, 3, 2, 1)
        assert count_syt(lam) > 10**9
        assert enumerate_hook_sequences(lam, 1, 21) == {(): (count_syt(lam), 0)}

    def test_counts_match_depth_first_oracle(self):
        # same targets in the same order, and the same signs counted
        for n in range(15):
            for lam in partitions_of(n):
                for m in (1, 2, 3, 4):
                    for count in (1, 2, 3):
                        if count * m > n:
                            continue
                        got = list(enumerate_hook_sequences(lam, m, count).items())
                        want = _sign_counts(hook_sequence_dfs(lam, m, count))
                        assert got == want, (lam, m, count)

    def test_signs_match_diagram_walk(self):
        for n in range(10):
            for lam in partitions_of(n):
                for m in (1, 2, 3):
                    for count in (1, 2, 3):
                        if count * m > n:
                            continue
                        got = enumerate_hook_sequences(lam, m, count)
                        want = dict(_sign_counts(hook_sequence_signs(lam, m, count)))
                        assert got == want, (lam, m, count)


M_CHECKS = {
    "lemma61": lambda m: verify_lemma61(4, m, 3),
    "factorization": lambda m: verify_factorization(4, m, 3),
    "lemma62": lambda m: verify_lemma62(4, m, CombineConfig(2, 2)),
    "prop_pm1_sweep": lambda m: verify_prop_pm1_sweep(4, m, CombineConfig(2, 2)),
    "hook_sequences": lambda m: enumerate_hook_sequences((2, 2), m, 1),
}


@pytest.mark.parametrize("m", [0, -3])
@pytest.mark.parametrize("name", sorted(M_CHECKS))
def test_m_below_one_rejected(name, m):
    with pytest.raises(ValueError, match=f"^m must be at least 1, got {m}$"):
        M_CHECKS[name](m)


WALKS = {
    "factorization": (lambda: verify_factorization(16, 2, 4), 2888),
    "lemma61": (lambda: verify_lemma61(18, 2, 3), 3227),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_each_row_is_walked_once(name, monkeypatch):
    # one strip scan per mask reached in each row's single walk
    sweep, scans = WALKS[name]
    calls, real = [], divisibility.strip_removals

    def spy(w, t):
        calls.append(w)
        return real(w, t)

    monkeypatch.setattr(divisibility, "strip_removals", spy)
    assert sweep().ok
    assert len(calls) == scans


class TestEpsilon:
    def test_identity(self):
        assert epsilon((3, 1), (3, 1), 2) == 1

    def test_example(self):
        assert epsilon((2, 2), (1,), 3) == -1

    def test_unreachable(self):
        with pytest.raises(UnreachableError):
            epsilon((2,), (1, 1), 2)
        with pytest.raises(UnreachableError):
            epsilon((3,), (1,), 3)

    def test_constancy_exhaustive(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                for m in (1, 2, 3, 4):
                    for count in (1, 2, 3):
                        if count * m > n:
                            continue
                        groups = enumerate_hook_sequences(lam, m, count)
                        for lam2, (even, odd) in groups.items():
                            # no sequence of the other sign
                            assert (odd if epsilon(lam, lam2, m) == 1 else even) == 0

    def test_many_empty_runners_cost_no_pairs(self):
        # 10**5 runners, at most three of them holding beads
        import signal

        def stop(signum, frame):
            raise TimeoutError("epsilon took more than 10 s")

        m = 10**5
        old = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            assert epsilon((5, 3, 1), (5, 3, 1), m) == 1
            assert epsilon((m - 1, 1), (), m) == -1  # one hook of height 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_cost_does_not_grow_with_m(self):
        # 10**6 runners, at most three of them holding beads; a pass over
        # every runner would take about a second here
        import time

        m = 10**6
        start = time.process_time()
        assert epsilon((5, 3, 1), (5, 3, 1), m) == 1
        w, w2 = _partition_mask((m + 2, 1)), _partition_mask((2, 1))
        assert divisibility._predicted_count(w, w2, m, 1, {})[0] == 1
        assert time.process_time() - start < 0.1


class TestLemma61:
    def test_mixed_signs_are_a_violation_with_both_signs(self, monkeypatch):
        walk = divisibility._hook_groups

        def mixed(rows, m, max_hooks):
            for lam, w, count, level in walk(rows, m, max_hooks):
                if lam == (2, 2):
                    level[_partition_mask((2, 1))] = (1, 1)
                yield lam, w, count, level

        monkeypatch.setattr(divisibility, "_hook_groups", mixed)
        report = verify_lemma61(4, 1, 1)
        assert (report.checked, report.violated) == (6, 1)
        assert report.witness == {
            "lambda": "[2,2]", "lambda2": "[2,1]", "m": 1, "signs": [-1, 1]
        }

    def test_a_sign_other_than_epsilon_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(divisibility, "_epsilon", lambda w, w2, m: -1)
        report = verify_lemma61(4, 1, 1)
        assert (report.checked, report.violated) == (0, 7)
        assert report.witness == {
            "lambda": "[4]", "lambda2": "[3]", "m": 1, "signs": [1]
        }


class TestFactorization:
    def test_worked_examples(self):
        # one 3-hook of [2,2] leaves [1]; its four boxes come off in 2 orders
        for lam2, m, count, direct in (((1,), 3, 1, 1), ((), 1, 4, 2)):
            w, w2 = _partition_mask((2, 2)), _partition_mask(lam2)
            got = divisibility._predicted_count(w, w2, m, count, {})
            assert got[:2] == (direct, 1)  # (prediction, multinomial)
            assert sum(enumerate_hook_sequences((2, 2), m, count)[lam2]) == direct

    def test_sweep(self):
        for n in range(1, 11):
            for m in (1, 2, 3):
                report = verify_factorization(n, m, max_hooks=3)
                assert report.ok, report

    def test_prediction_matches_the_shape_oracle(self):
        for n, m in product(range(1, 13), (1, 2, 3)):
            for lam, w, count, level in divisibility._hook_groups(
                partitions_of(n), m, 4
            ):
                for w2 in level:
                    got = divisibility._predicted_count(w, w2, m, count, {})
                    lam2 = mask_partition(w2)
                    assert got == predicted_count_via_shapes(lam, lam2, m, count)

    def test_witness_is_the_first_of_two_failures(self, monkeypatch):
        real = divisibility._predicted_count

        def one_more_at_three(w, w2, m, count, memo):
            # [4] and [3,1] each reach [3]
            predicted, *rest = real(w, w2, m, count, memo)
            return predicted + (w2 == _partition_mask((3,))), *rest

        monkeypatch.setattr(divisibility, "_predicted_count", one_more_at_three)
        report = verify_factorization(4, 1, 1)
        assert report.violated == 2
        assert report.witness == {
            "lambda": "[4]", "lambda2": "[3]", "m": 1, "direct": 1, "predicted": 2
        }

    def test_no_memo_outlives_the_sweep(self, count_memos):
        import gc

        memos = count_memos
        assert verify_factorization(10, 2, 3).ok
        # one memo for the whole sweep, held by nothing but the list above
        assert memos[0] and all(memo is memos[0] for memo in memos)
        assert gc.get_referrers(memos[0]) == [memos]


class TestLemma62:
    def test_prime_case_vacuous(self):
        report = verify_lemma62(6, 2, CombineConfig(2, 1))
        assert report.ok and report.checked == 0

    def test_rows_too_small_for_the_removals_are_skipped(self):
        # 2 removals of 3-hooks need n >= 6; every row of 4 is a skipped case
        report = verify_lemma62(4, 3, CombineConfig(2, 2))
        assert (report.checked, report.skipped, report.violated) == (0, 5, 0)

    def test_four_core_example(self):
        report = verify_lemma62(4, 1, CombineConfig(2, 3))
        assert report.ok
        groups = enumerate_hook_sequences((2, 2), 1, 4)
        assert sum(groups[()]) % 2 == 0

    def test_sweep(self):
        for cfg in CFGS:
            for n in range(1, 11):
                for m in (1, 2, 3):
                    report = verify_lemma62(n, m, cfg)
                    assert report.ok, report

    def test_matches_per_row_checks(self):
        cfgs = [CombineConfig(*c) for c in ((2, 1), (2, 2), (3, 1), (2, 3))]
        for n, m, cfg in product(range(1, 17), (1, 2, 3), cfgs):
            got = verify_lemma62(n, m, cfg)
            assert got == lemma62_per_row(n, m, cfg), (n, m, cfg)

    def test_a_lost_sequence_is_reported_as_per_row(self, monkeypatch):
        # [4,4,2,2] reaches [3,3,2] by two removals of two 2-hooks, both of
        # sign -1; one of them goes missing
        n, m, cfg = 12, 2, CombineConfig(2, 2)
        lost, target = (4, 4, 2, 2), (3, 3, 2)
        sequences = divisibility.enumerate_hook_sequences
        assert sequences(lost, m, 2)[target] == (0, 2)
        assert hook_sequence_dfs(lost, m, 2)[target] == [-1, -1]

        def one_lost(lam, m, count):
            groups = sequences(lam, m, count)
            if lam == lost:
                groups[target] = _one_fewer(groups[target])
            return groups

        def one_lost_dfs(lam, m, count):
            groups = hook_sequence_dfs(lam, m, count)
            if lam == lost:
                groups[target] = groups[target][1:]
            return groups

        monkeypatch.setattr(divisibility, "enumerate_hook_sequences", one_lost)
        monkeypatch.setattr(oracles, "hook_sequence_dfs", one_lost_dfs)
        report = verify_lemma62(n, m, cfg)
        assert report.violated == 1
        assert report.witness["lambda2"] == "[3,3,2]"
        assert report.witness["count"] == 1
        assert report == lemma62_per_row(n, m, cfg)


class TestPropPm1:
    def test_prime_case_zero_character(self):
        # an m-core row vanishes on any class containing the part m; [2,2] is
        # the one 4-core of 4, and its one check is chi on [4] against 0
        report = verify_prop_pm1_sweep(4, 4, CombineConfig(2, 1))
        assert report.ok
        assert (report.checked, report.skipped) == (1, 4)
        assert chi((2, 2), (4,)) == 0

    def test_skips_non_core(self):
        # no row of 4 is a 2-core, so every row is skipped and none checked
        report = verify_prop_pm1_sweep(4, 1, CombineConfig(2, 2))
        assert report.skipped == len(partitions_of(4)) and report.checked == 0

    def test_sweep(self):
        cfg = CombineConfig(2, 2)
        for n in range(2, 11):
            for m in (1, 2):
                report = verify_prop_pm1_sweep(n, m, cfg)
                assert report.ok, report

    def test_matches_per_value_checks(self):
        cfgs = [CombineConfig(*c) for c in ((2, 1), (2, 2), (3, 1), (2, 3))]
        for n, m, cfg in product(range(1, 15), (1, 2, 3), cfgs):
            swept = verify_prop_pm1_sweep(n, m, cfg)
            assert swept == prop_pm1_sweep_per_value(n, m, cfg)

    def test_class_checks_of_a_row_come_before_the_next_row(
        self, monkeypatch, cold_characters
    ):
        # the first core row gets wrong values, the last a wrong coefficient;
        # every class of n is read from levels, which start cold so that the
        # fault reaches them
        n, m, cfg = 12, 2, CombineConfig(2, 2)
        cores = [lam for lam in partitions_of(n) if is_tcore(lam, 4)]
        first, last = cores[0], cores[-1]
        bad = bead_mask(from_partition(first))
        exact = characters.strip_removals
        sequences = divisibility.enumerate_hook_sequences

        def wrong(w, t):
            # the levels that the sweep and the oracle's chi share scan the
            # row here; its first strip is counted twice
            found = exact(w, t)
            return found + found[:1] if w == bad else found

        def one_lost(lam, m, count):
            groups = sequences(lam, m, count)
            if lam == last:
                lam2 = next(iter(groups))
                groups[lam2] = _one_fewer(groups[lam2])
            return groups

        def one_lost_dfs(lam, m, count):
            groups = hook_sequence_dfs(lam, m, count)
            if lam == last:
                lam2 = next(iter(groups))
                groups[lam2] = groups[lam2][1:]
            return groups

        monkeypatch.setattr(characters, "strip_removals", wrong)
        monkeypatch.setattr(divisibility, "enumerate_hook_sequences", one_lost)
        monkeypatch.setattr(oracles, "hook_sequence_dfs", one_lost_dfs)
        swept = verify_prop_pm1_sweep(n, m, cfg)
        assert swept.witness["lambda"] == format_partition(first)
        assert "tau" in swept.witness
        assert swept == prop_pm1_sweep_per_value(n, m, cfg)
        # each fault is live on its own row
        for lam in (first, last):
            assert prop_pm1_per_value(lam, m, cfg).violated


class TestDivisibilityTheorem:
    def test_prime_case_example(self):
        res = theorem1_pipeline((2, 2), (4,), CombineConfig(2, 1))
        assert res.certified and res.divides

    def test_size_mismatch_names_both_sizes_as_chi_does(self):
        message = "^lambda and mu must partition the same integer, got 3 and 4$"
        with pytest.raises(ValueError, match=message):
            chi((2, 1), (4,))
        with pytest.raises(ValueError, match=message):
            theorem1_pipeline((2, 1), (4,), CombineConfig(2, 1))

    def test_constrained_tuple_count_bound(self):
        # tuples with some coordinate maxed number at most r*(R+1)^(r-1)
        for p, r in ((2, 2), (3, 2), (2, 3)):
            reps = p ** (r - 1)
            tuples = [
                ks
                for ks in product(range(reps + 1), repeat=r)
                if max(ks) == reps
            ]
            assert len(tuples) <= r * (reps + 1) ** (r - 1)

    def test_sweep(self):
        for cfg in CFGS:
            for n in range(1, 13):
                report = verify_theorem3(n, cfg)
                assert report.ok, report

    def test_hypothesis_matches_per_length_oracle(self):
        for cfg, n in product(THEOREM3_CFGS, range(1, 13)):
            rows = partitions_of(n)
            for lam, mu in product(rows, rows):
                hit = divisibility._hypothesis(
                    hook_length_mask(lam), divisibility._sum_sets(mu, cfg)
                )
                got = (False, None, None)
                if hit:
                    got = (True, hit[0], tuple(_beads(hit[1])))
                assert got == theorem3_hypothesis_per_length(lam, mu, cfg)

    def test_sweep_matches_per_pair_oracle(self):
        for cfg, n in product(THEOREM3_CFGS, range(1, 13)):
            got = verify_theorem3(n, cfg)
            assert got == theorem3_per_pair(n, cfg), (n, cfg)

    def test_violations_under_two_signatures_keep_class_order(self, monkeypatch):
        real = divisibility.chi_column
        # at n = 8, p = 2, r = 1 both classes accept only the row [4,2,1,1];
        # [3,2,2,1] has sum-set sizes (1, 2, 3) and comes first, [3,1,1,1,1,1]
        # shares (1, 3) with the earlier class [3,3,1,1]
        odd = {(3, 2, 2, 1), (3, 1, 1, 1, 1, 1)}

        def odd_on_two_classes(mu):
            return [x + (mu in odd) for x in real(mu)]

        monkeypatch.setattr(divisibility, "chi_column", odd_on_two_classes)
        cfg = CombineConfig(2, 1)
        report = verify_theorem3(8, cfg)
        assert report == theorem3_per_pair(8, cfg)
        assert report.violated == 2
        assert report.witness == {
            "lambda": "[4,2,1,1]", "mu": "[3,2,2,1]", "chi": "1", "modulus": 2
        }

    def test_hypothesis_reachable(self):
        # the sweep is not vacuous at moderate sizes
        report = verify_theorem3(12, CombineConfig(2, 2))
        assert report.checked > 0

    def test_witness_is_the_first_of_two_failures(self, monkeypatch):
        real = divisibility.chi_column

        def odd_on_three_one(mu):
            # [3,1] and [2,1,1] are the rows checked on [3,1], both 3-cores
            return [x + (mu == (3, 1)) for x in real(mu)]

        monkeypatch.setattr(divisibility, "chi_column", odd_on_three_one)
        report = verify_theorem3(4, CombineConfig(2, 1))
        assert report.violated == 2
        assert report.witness == {
            "lambda": "[3,1]", "mu": "[3,1]", "chi": "1", "modulus": 2
        }


class TestPipeline:
    def test_agrees_with_direct_evaluation(self):
        cfg = CombineConfig(2, 2)
        for n in range(1, 11):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    res = theorem1_pipeline(lam, mu, cfg)
                    assert res.divides == (chi(lam, mu) % cfg.q == 0), (lam, mu)

    def test_fallback_on_reduced_input(self):
        cfg = CombineConfig(2, 2)
        res = theorem1_pipeline((3, 2, 1), (3, 2, 1), cfg)
        assert res.mu_tilde == (3, 2, 1)
        assert not res.certified
        assert res.divides == (chi((3, 2, 1), (3, 2, 1)) % 4 == 0)

    def test_certification_occurs(self):
        cfg = CombineConfig(2, 2)
        certified = 0
        for n in (12, 14):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    res = theorem1_pipeline(lam, mu, cfg)
                    if res.certified:
                        certified += 1
                        assert res.divides
        assert certified > 0

    def test_certificate_matches_per_length_oracle(self):
        # the certificate's sizes and sorted lengths, as the oracle lists them
        for cfg, n in product(THEOREM3_CFGS, range(1, 10)):
            rows = partitions_of(n)
            for lam, mu in product(rows, rows):
                res = theorem1_pipeline(lam, mu, cfg)
                want = theorem3_hypothesis_per_length(lam, res.mu_tilde, cfg)
                assert (res.certified, res.sizes, res.core_lengths) == want

    def test_certificate_contents(self):
        cfg = CombineConfig(2, 2)
        res = theorem1_pipeline((3, 2, 1), (1,) * 6, cfg)
        assert res.mu_tilde == (2, 2, 1, 1)
        assert (res.sizes, res.core_lengths) == (None, None)
        res = theorem1_pipeline((7, 4, 1), (1,) * 12, cfg)
        assert res.certified and res.mu_tilde == (4, 4, 2, 2)
        assert (res.sizes, res.core_lengths) == ((2, 4), (4, 8, 10, 12))


class TestLemma81Sweep:
    def test_small_box(self):
        report = verify_lemma81(6, CombineConfig(2, 2))
        assert report.ok and report.checked > 0

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1)])
    def test_span_sweep_matches_shape_sweep(self, p, r):
        cfg = CombineConfig(p, r)
        for box in range(8):
            expected = lemma81_via_shapes(box, cfg)
            assert verify_lemma81(box, cfg) == expected

    def test_patched_violation_gives_the_same_witness(self, monkeypatch):
        import charcore.tableaux as tableaux
        from charcore.tableaux import count_skew_syt, is_border_strip, iter_box_skews

        cfg = CombineConfig(2, 2)
        classes = [s for s in iter_box_skews(6, 6, 4) if not is_border_strip(s)]
        # a connected class reaches the count whole, under its own span tuple
        connected = [s for s in classes if len(oracles.connected_components(s)) == 1]
        target = connected[len(connected) // 2]
        key = tuple(target.row_spans())
        real = tableaux._count_rows

        def odd_at_target(rows, memo):
            return real(rows, memo) + (rows == key)

        monkeypatch.setattr(tableaux, "_count_rows", odd_at_target)
        report = verify_lemma81(6, cfg)
        assert report.violated == 1
        assert report.witness["shape"] == str(target)
        assert int(report.witness["count"]) % 2 == 1
        # the witness is the first class, in enumeration order, counted odd
        odd = [s for s in classes if count_skew_syt(s) % 2]
        assert odd[0] == target

    def test_memo_holds_connected_shapes_only(self, count_memos):
        from charcore.tableaux import _spans_shape

        verify_lemma81(7, CombineConfig(2, 3))
        assert count_memos[0]
        for key in count_memos[0]:
            assert len(oracles.connected_components(_spans_shape(key))) == 1, key

    def test_no_memo_entry_outlives_the_sweep(self, count_memos):
        import gc

        memos = count_memos
        verify_lemma81(6, CombineConfig(2, 3))
        assert memos[0] and all(memo is memos[0] for memo in memos)
        # only the list above still holds the sweep's memo
        assert gc.get_referrers(memos[0]) == [memos]

    def test_admits_the_sweeps_in_use(self):
        # the bench job, criterion 7 and the slow size-sixteen sweep
        from charcore.tableaux import _box_class_count

        cap = divisibility.LEMMA81_CAP
        for q in (4, 8, 9, 16):
            assert _box_class_count(8, 8, q, cap) <= cap

    @pytest.mark.parametrize(
        "box,p,r",
        [
            (9, 2, 4), (12, 2, 4), (8, 5, 2), (20, 2, 3), (8, 2, 30), (65, 2, 1),
            (10**9, 2, 1),
        ],
    )
    def test_cap_rejects_before_any_work(self, box, p, r, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept past the cap")

        monkeypatch.setattr(divisibility, "_box_classes", no_sweep)
        with pytest.raises(SizeCapError):
            verify_lemma81(box, CombineConfig(p, r))


# each entry point that encodes a partition checks it itself, with these words
MALFORMED = [
    ((3, 0), "parts must be positive integers, got 0"),
    ((2, -1), "parts must be positive integers, got -1"),
    ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
    ((2, "x"), "invalid literal for int() with base 10: 'x'"),
]
ENTRY_POINTS = {
    "from_partition": from_partition,
    "is_tcore": lambda parts: is_tcore(parts, 2),
    "hook_length_mask": hook_length_mask,
    "epsilon lam": lambda parts: epsilon(parts, (1,), 1),
    "epsilon lam2": lambda parts: epsilon((2, 1), parts, 1),
    "chi lam": lambda parts: chi(parts, (1, 1, 1)),
    "chi mu": lambda parts: chi((2, 1), parts),
    "enumerate_hook_sequences": lambda parts: enumerate_hook_sequences(parts, 1, 1),
    "tcore": lambda parts: tcore(parts, 2),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("parts,message", MALFORMED)
def test_entry_points_reject_malformed_parts(entry, parts, message):
    with pytest.raises(ValueError) as exc:
        ENTRY_POINTS[entry](parts)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
