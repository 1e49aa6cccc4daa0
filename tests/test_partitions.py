import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import charcore.partitions as partitions
from charcore.errors import FormatError, SizeCapError
from charcore.partitions import (
    _bounded_counts,
    _bounded_entry,
    check_partition,
    conjugate,
    format_partition,
    from_multiplicities,
    hook_lengths,
    multiplicities,
    parse_partition,
    partition_count,
    partitions_of,
    sample_seed,
    sample_uniform,
)
from oracles import (
    bounded_counts_reference,
    check_partition_in_one_pass,
    descending_partitions,
    linear_scan_sample,
    naive_partitions,
)


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty sampler table for the test, and the process's own back after it."""
    monkeypatch.setattr(partitions, "_bounded", [[1]])


@pytest.fixture
def narrow_table(fresh_table, monkeypatch):
    """An empty sampler table that is built and widened 8 entries at a time."""
    monkeypatch.setattr(partitions, "_WIDTH_STEP", 8)


def stored_width(k):
    return len(partitions._bounded[k]) - 1


partition_lists = st.lists(st.integers(1, 9), max_size=9).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestEnumeration:
    def test_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_four_reverse_lex(self):
        assert list(partitions_of(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_five_has_seven(self):
        assert len(partitions_of(5)) == 7

    def test_order_is_reverse_lex(self):
        for n in range(11):
            parts = list(partitions_of(n))
            assert parts == sorted(parts, reverse=True)

    def test_matches_naive_enumeration(self):
        for n in range(13):
            assert set(partitions_of(n)) == naive_partitions(n)

    def test_matches_the_recursive_order_up_to_30(self):
        for n in range(31):
            assert partitions_of(n) == tuple(descending_partitions(n, n))

    def test_count_agrees_up_to_45(self):
        for n in range(46):
            assert len(partitions_of(n)) == partition_count(n)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            partitions_of(61)

    def test_negative_refused(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            partitions_of(-1)


class TestCounting:
    def test_values(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7
        assert partition_count(100) == 190569292

    def test_negative(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestConjugate:
    def test_basics(self):
        assert conjugate(()) == ()
        assert conjugate((7,)) == (1,) * 7
        assert conjugate((1,) * 5) == (5,)

    def test_worked_example(self):
        assert conjugate((6, 5, 3, 1, 1, 1)) == (6, 3, 3, 2, 2, 1)

    def test_involution_exhaustive(self):
        for n in range(21):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam

    @given(partition_lists)
    def test_involution_property(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestHookLengths:
    def test_single_box(self):
        assert hook_lengths((1,)) == [[1]]

    def test_two_by_two(self):
        assert hook_lengths((2, 2)) == [[3, 2], [2, 1]]

    def test_worked_example_grid(self):
        assert hook_lengths((6, 5, 3, 1, 1, 1)) == [
            [11, 7, 6, 4, 3, 1],
            [9, 5, 4, 2, 1],
            [6, 2, 1],
            [3],
            [2],
            [1],
        ]

    def test_multiset_conjugation_invariant(self):
        for n in range(16):
            for lam in partitions_of(n):
                flat = Counter(h for row in hook_lengths(lam) for h in row)
                flat_c = Counter(
                    h for row in hook_lengths(conjugate(lam)) for h in row
                )
                assert flat == flat_c

    def test_product_divides_factorial(self):
        for n in range(16):
            fact = math.factorial(n)
            for lam in partitions_of(n):
                prod = 1
                for row in hook_lengths(lam):
                    for h in row:
                        prod *= h
                assert fact % prod == 0


class TestTextFormat:
    def test_round_trip(self):
        assert parse_partition("[6,5,3,1,1,1]") == (6, 5, 3, 1, 1, 1)
        assert parse_partition("[]") == ()
        assert format_partition((6, 5, 3, 1, 1, 1)) == "[6,5,3,1,1,1]"
        assert format_partition(()) == "[]"

    @pytest.mark.parametrize("bad", ["6,5", "[2,3]", "[1,0]", "[a]", "[1,-2]"])
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_partition(bad)

    @given(partition_lists)
    def test_round_trip_property(self, lam):
        assert parse_partition(format_partition(lam)) == lam


class TestMultiplicities:
    def test_round_trip_exhaustive(self):
        for n in range(13):
            for lam in partitions_of(n):
                assert from_multiplicities(multiplicities(lam)) == lam

    @pytest.mark.parametrize(
        "parts,message",
        [
            ((3, 0), "parts must be positive integers, got 0"),
            ((2, -1), "parts must be positive integers, got -1"),
            ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
            ((1, 2, 0), "parts must be weakly decreasing, got (1, 2, 0)"),
            ((2, 0, 1), "parts must be positive integers, got 0"),
            ((5, 5, 5, 6), "parts must be weakly decreasing, got (5, 5, 5, 6)"),
        ],
    )
    def test_check_partition_words_the_first_fault(self, parts, message):
        with pytest.raises(ValueError) as exc:
            check_partition(parts)
        assert str(exc.value) == message

    def test_check_partition_accepts(self):
        assert check_partition(()) == ()
        assert check_partition([3.0, 1]) == (3, 1)
        assert check_partition((4, 4, 1)) == (4, 4, 1)

    @pytest.mark.parametrize(
        "parts,message",
        [
            ((2.5, 1), "parts must be positive integers, got 2.5"),
            ((3, 2.9), "parts must be positive integers, got 2.9"),
            ((2, 3.5), "parts must be positive integers, got 3.5"),
            ((1, "1"), "parts must be positive integers, got '1'"),
        ],
    )
    def test_check_partition_refuses_non_integral_parts(self, parts, message):
        with pytest.raises(ValueError) as exc:
            check_partition(parts)
        assert str(exc.value) == message

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 6),
                st.sampled_from([3.0, 2.5, 0.0, True, False]),
            ),
            max_size=8,
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_check_partition_matches_the_one_pass_check(self, parts, ordered, as_list):
        if ordered:
            parts.sort(key=float, reverse=True)
        parts = parts if as_list else tuple(parts)
        try:
            want = check_partition_in_one_pass(parts)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                check_partition(parts)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            got = check_partition(parts)
            assert got == want
            assert [type(x) for x in got] == [int] * len(got)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))
        with pytest.raises(ValueError):
            check_partition((0,))
        with pytest.raises(ValueError):
            from_multiplicities({2: -1})


class TestSampling:
    def test_unique_partition(self):
        for seed in (0, 1, 99):
            assert sample_uniform(1, seed) == (1,)

    def test_deterministic(self):
        assert sample_uniform(2, 1234) == sample_uniform(2, 1234)
        assert sample_uniform(47, 5) == sample_uniform(47, 5)

    def test_valid_outputs(self):
        for seed in range(50):
            lam = sample_uniform(23, seed)
            assert sum(lam) == 23
            assert check_partition(lam) == lam

    def test_cap(self):
        with pytest.raises(SizeCapError):
            sample_uniform(5001, 0)

    def test_seed_split_is_injective_and_non_negative(self):
        pairs = [(seed, i) for seed in range(-40, 41) for i in range(-40, 41)]
        seeds = [sample_seed(seed, i) for seed, i in pairs]
        assert len(set(seeds)) == len(pairs)
        assert min(seeds) >= 0

    def test_seed_split_separates_sign_and_neighbours(self):
        assert sample_seed(-1, 0) != sample_seed(1, 0)
        run7 = {sample_seed(7, i) for i in range(3)}
        run8 = {sample_seed(8, i) for i in range(2)}
        assert not run7 & run8

    def test_seed_split_inverts(self):
        # Cantor's pairing undone, then the fold onto the naturals undone
        from math import isqrt

        def unfold(x):
            return x // 2 if x % 2 == 0 else -(x + 1) // 2

        for seed, i in ((0, 0), (-1, 0), (1, 0), (7, 2), (-10**12, 999), (3, -4)):
            z = sample_seed(seed, i)
            w = (isqrt(8 * z + 1) - 1) // 2
            b = z - w * (w + 1) // 2
            assert (unfold(w - b), unfold(b)) == (seed, i)

    def test_matches_linear_scan_small_n(self):
        for n in range(1, 121):
            for seed in range(50):
                assert sample_uniform(n, seed) == linear_scan_sample(n, seed)

    def test_matches_linear_scan_at_2000(self):
        for seed in range(20):
            assert sample_uniform(2000, seed) == linear_scan_sample(2000, seed)

    @settings(deadline=None)
    @given(st.integers(1, 400), st.integers())
    def test_matches_linear_scan_property(self, n, seed):
        assert sample_uniform(n, seed) == linear_scan_sample(n, seed)

    def test_bounded_rows_match_recurrence(self, narrow_table):
        # rows start 8 wide, so every m in 8 < m <= k // 2 is read through a
        # widening, never through the p(k) formula of the wider entries
        _bounded_counts(300)
        assert stored_width(300) == 8
        reference = bounded_counts_reference(300)
        for k in range(301):
            for m in range(k + 1):
                assert _bounded_entry(k, m) == reference[k][m]

    def test_bounded_diagonal_is_partition_count(self, narrow_table):
        _bounded_counts(30)
        for k in range(31):
            assert _bounded_entry(k, k) == len(partitions_of(k))

    def test_first_part_past_the_starting_width(self, fresh_table):
        lam = sample_uniform(2000, 0)
        assert lam[0] > partitions._WIDTH_STEP
        assert stored_width(2000) > partitions._WIDTH_STEP
        assert lam == linear_scan_sample(2000, 0)

    def test_table_stays_narrow_at_the_cap(self, fresh_table):
        for seed in range(5):
            sample_uniform(5000, seed)
        # half rows would reach 2500 entries
        assert stored_width(5000) < 1024

    @pytest.mark.parametrize("n,samples", [(6, 40000), (10, 60000)])
    def test_goodness_of_fit(self, n, samples):
        # chi-square against the exact uniform law at significance 1e-4
        from scipy.stats import chi2

        cells = partitions_of(n)
        counts = Counter(sample_uniform(n, 1_000_000 + i) for i in range(samples))
        expected = samples / len(cells)
        stat = sum((counts[c] - expected) ** 2 / expected for c in cells)
        critical = chi2.isf(1e-4, len(cells) - 1)
        assert stat < critical, f"chi2={stat:.2f} exceeds {critical:.2f}"
