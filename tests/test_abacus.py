from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from charcore.abacus import (
    Abacus,
    _aligned_runners,
    _conjugate_mask,
    _partition_mask,
    _split,
    bead_mask,
    from_partition,
    hook_length_mask,
    hooks_of_length,
    is_tcore,
    remove_border_strip,
    skew_per_residue,
    strip_removals,
    tcore,
    to_partition,
)
from charcore.errors import FormatError, UnreachableError
from charcore.partitions import conjugate, hook_lengths, partitions_of
from oracles import diagram_strip_removals, diagram_tcore

partition_lists = st.lists(st.integers(1, 9), max_size=9).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _largest_parts_up_to_60(xs):
    """The partition of the largest entries of xs, taken while the size stays <= 60."""
    lam = []
    for x in sorted(xs, reverse=True):
        if sum(lam) + x <= 60:
            lam.append(x)
    return tuple(lam)


partitions_to_60 = st.lists(st.integers(1, 60), max_size=60).map(
    _largest_parts_up_to_60
)

WORKED = (6, 5, 3, 1, 1, 1)


def diagram_hook_lengths(lam):
    """Hook length of every box, straight from the diagram: arm + leg + 1."""
    cols = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
    return {
        (lam[r] - c - 1) + (cols[c] - r - 1) + 1
        for r in range(len(lam))
        for c in range(lam[r])
    }


def partition_of_mask(w):
    return to_partition(Abacus(tuple((w >> i) & 1 for i in range(w.bit_length()))))


class TestEncoding:
    def test_worked_example_word(self):
        a = from_partition(WORKED)
        assert a.word == (0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1)
        assert a.offset == 0
        assert str(a) == "011100100101@0"

    def test_trivial_words(self):
        assert from_partition(()).word == ()
        assert from_partition((1,)).word == (0, 1)

    def test_to_partition_examples(self):
        assert to_partition(Abacus((0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1))) == WORKED
        assert to_partition(Abacus(())) == ()
        assert to_partition(Abacus((0, 1))) == (1,)

    def test_round_trip_exhaustive(self):
        for n in range(21):
            for lam in partitions_of(n):
                assert to_partition(from_partition(lam)) == lam

    @given(partition_lists)
    def test_round_trip_property(self, lam):
        assert to_partition(from_partition(lam)) == lam

    def test_size_counts_inverted_pairs(self):
        for n in range(11):
            for lam in partitions_of(n):
                w = from_partition(lam).word
                pairs = sum(
                    1
                    for i in range(len(w))
                    for j in range(i + 1, len(w))
                    if w[i] == 0 and w[j] == 1
                )
                assert pairs == n

    def test_malformed_words(self):
        for bad in ((1, 0), (0, 1, 0), (0, 2, 1)):
            with pytest.raises(FormatError):
                to_partition(Abacus(bad))

    def test_words_of_other_symbols_rejected(self):
        # a window holding a 2 encodes no partition, so no hook scan reads it
        with pytest.raises(FormatError):
            hooks_of_length(Abacus((0, 2, 1)), 1)


class TestHooks:
    def test_unique_length_five_hook(self):
        hooks = hooks_of_length(from_partition(WORKED), 5)
        assert len(hooks) == 1
        (h,) = hooks
        assert (h.start, h.length, h.height) == (4, 5, 1)

    def test_no_hook_longer_than_max(self):
        assert hooks_of_length(from_partition(WORKED), 12) == []

    def test_two_by_two_single_corner(self):
        assert len(hooks_of_length(from_partition((2, 2)), 1)) == 1

    def test_bijection_with_boxes(self):
        for n in range(16):
            for lam in partitions_of(n):
                a = from_partition(lam)
                grid = Counter(h for row in hook_lengths(lam) for h in row)
                for t in range(1, n + 1):
                    assert len(hooks_of_length(a, t)) == grid[t]

    def test_heights_and_removals_match_diagram_walk(self):
        for n in range(13):
            for lam in partitions_of(n):
                a = from_partition(lam)
                for t in range(1, n + 1):
                    got = sorted(
                        (to_partition(remove_border_strip(a, h)), h.height)
                        for h in hooks_of_length(a, t)
                    )
                    assert got == sorted(diagram_strip_removals(lam, t))

    def test_mask_matches_hooks(self):
        for n in range(13):
            for lam in partitions_of(n):
                mask = hook_length_mask(lam)
                a = from_partition(lam)
                for t in range(1, n + 2):
                    assert bool((mask >> t) & 1) == bool(hooks_of_length(a, t))


class TestBeadMask:
    def test_worked_example(self):
        # word 011100100101, bit 0 first
        assert bead_mask(from_partition(WORKED)) == 0b101001001110
        assert bead_mask(from_partition(())) == 0

    def test_mask_of_any_window(self):
        a = Abacus((1, 0, 1, 1, 0), 3)
        assert bead_mask(a) == 0b01101
        assert [(h.start, h.height) for h in hooks_of_length(a, 2)] == [(4, 1)]

    def test_removals_match_diagram_walk(self):
        for n in range(11):
            for lam in partitions_of(n):
                w = bead_mask(from_partition(lam))
                for t in range(1, n + 2):
                    removals = strip_removals(w, t)
                    starts = [i for i, _, _ in removals]
                    assert starts == sorted(starts)
                    got = sorted((partition_of_mask(v), h) for _, h, v in removals)
                    assert got == sorted(diagram_strip_removals(lam, t))

    def test_removal_leaves_a_canonical_window(self):
        for lam in partitions_of(9):
            for t in range(1, 10):
                for _, _, v in strip_removals(bead_mask(from_partition(lam)), t):
                    assert v == bead_mask(from_partition(partition_of_mask(v)))

    def test_core_and_mask_against_diagram_hooks(self):
        for n in range(9):
            for lam in partitions_of(n):
                hooks = diagram_hook_lengths(lam)
                assert hook_length_mask(lam) == sum(1 << h for h in hooks)
                for t in range(1, n + 3):
                    assert is_tcore(lam, t) == (t not in hooks)

    def test_conjugate_mask_is_the_transposed_diagram(self):
        for n in range(17):
            for lam in partitions_of(n):
                got = _conjugate_mask(_partition_mask(lam))
                assert got == _partition_mask(conjugate(lam))

    def test_mask_accepts_a_list(self):
        assert hook_length_mask([3, 1]) == hook_length_mask((3, 1))


class TestCores:
    def test_above_size_always_core(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert is_tcore(lam, n + 1)

    def test_examples(self):
        assert is_tcore((2, 2), 4)
        assert not is_tcore((2, 2), 3)
        for n in range(1, 10):
            for lam in partitions_of(n):
                assert not is_tcore(lam, 1)

    def test_core_stability_under_shorter_strips(self):
        # a t-core that is also a (t+m)-core stays a t-core after removing a
        # length-m strip
        for n in range(15):
            for lam in partitions_of(n):
                a = from_partition(lam)
                for t in range(1, 7):
                    if not is_tcore(lam, t):
                        continue
                    for m in range(1, 7):
                        if not is_tcore(lam, t + m):
                            continue
                        for h in hooks_of_length(a, m):
                            smaller = to_partition(remove_border_strip(a, h))
                            assert is_tcore(smaller, t), (lam, t, m, smaller)

    def test_tcore_fixpoint(self):
        for n in range(13):
            for lam in partitions_of(n):
                for t in range(1, 6):
                    core = tcore(lam, t)
                    assert is_tcore(core, t)
                    assert (n - sum(core)) % t == 0
                    if is_tcore(lam, t):
                        assert core == lam

    def test_tcore_matches_diagram_removal(self):
        for n in range(15):
            for lam in partitions_of(n):
                for t in range(1, 7):
                    assert tcore(lam, t) == diagram_tcore(lam, t), (lam, t)

    @settings(max_examples=200, deadline=None)
    @given(partitions_to_60, st.integers(1, 12))
    def test_tcore_matches_diagram_removal_random(self, lam, t):
        assert tcore(lam, t) == diagram_tcore(lam, t)


class TestBorderStripRemoval:
    def test_worked_example(self):
        a = from_partition(WORKED)
        (h,) = hooks_of_length(a, 5)
        assert to_partition(remove_border_strip(a, h)) == (6, 2, 1, 1, 1, 1)

    def test_single_box(self):
        a = from_partition((1,))
        (h,) = hooks_of_length(a, 1)
        assert to_partition(remove_border_strip(a, h)) == ()

    def test_rejects_non_hook(self):
        a = from_partition(WORKED)
        from charcore.abacus import Hook

        with pytest.raises(ValueError):
            remove_border_strip(a, Hook(1, 3, 0))  # bead at index 1 is a 1
        with pytest.raises(ValueError):
            remove_border_strip(a, Hook(0, 4, 0))  # bead at index 4 is a 0

    @pytest.mark.parametrize("length", [0, -1])
    def test_rejects_non_positive_length_before_any_scan(self, length):
        from charcore.abacus import Hook

        a = from_partition((2, 1))
        with pytest.raises(ValueError, match="^hook length must be positive$"):
            remove_border_strip(a, Hook(2, length, 0))


def m_quotient(lam, m):
    """The m-quotient of lam as the skews down to its m-core, one per residue."""
    a, core = from_partition(lam), from_partition(tcore(lam, m))
    shapes = [shape for shape, _ in skew_per_residue(a, core, m)]
    # the m-core is reached by pushing every bead down, so no inner shape remains
    assert all(shape.inner == () for shape in shapes)
    return [shape.outer for shape in shapes]


class TestQuotient:
    def test_modulus_one_is_identity(self):
        assert m_quotient(WORKED, 1) == [WORKED]

    def test_hook_count_correspondence(self):
        # length-m hooks match length-1 hooks across the residue classes
        for n in range(13):
            for lam in partitions_of(n):
                a = from_partition(lam)
                for m in range(1, 6):
                    assert len(hooks_of_length(a, m)) == sum(
                        len(hooks_of_length(from_partition(q), 1))
                        for q in m_quotient(lam, m)
                    )

    def test_size_bookkeeping(self):
        for n in range(13):
            for lam in partitions_of(n):
                for m in range(1, 6):
                    inner = sum(sum(q) for q in m_quotient(lam, m))
                    assert n == m * inner + sum(tcore(lam, m))

    def test_core_quotients_are_cores(self):
        # an (R*m)-core has R-core residue classes
        for n in range(13):
            for lam in partitions_of(n):
                for m in range(1, 6):
                    for reps in (2, 3):
                        if not is_tcore(lam, reps * m):
                            continue
                        for q in m_quotient(lam, m):
                            assert is_tcore(q, reps) or q == ()


class TestSkewPerResidue:
    def test_identity_pair(self):
        a = from_partition(WORKED)
        for shape, size in skew_per_residue(a, a, 3):
            assert size == 0 and shape.size == 0

    def test_worked_example(self):
        a = from_partition(WORKED)
        b = from_partition((6, 2, 1, 1, 1, 1))
        sizes = [size for _, size in skew_per_residue(a, b, 5)]
        assert sum(sizes) == 1

    def test_size_bookkeeping_after_removals(self):
        for lam in partitions_of(9):
            a = from_partition(lam)
            for m in (1, 2, 3):
                for h in hooks_of_length(a, m):
                    b = remove_border_strip(a, h)
                    sizes = [
                        size for _, size in skew_per_residue(a, b, m)
                    ]
                    assert sum(sizes) * m == m

    def test_unreachable(self):
        with pytest.raises(UnreachableError):
            skew_per_residue(from_partition((2,)), from_partition((1, 1)), 2)

    def test_one_entry_per_residue(self):
        # (9) has its one bead on runner 2 of 7; the other six are empty
        shapes = skew_per_residue(from_partition((9,)), from_partition((2,)), 7)
        assert [(shape.outer, shape.inner, size) for shape, size in shapes] == [
            ((), (), 0), ((), (), 0), ((1,), (), 1), ((), (), 0),
            ((), (), 0), ((), (), 0), ((), (), 0),
        ]
        with pytest.raises(UnreachableError):
            # no bead to move: the empty row reaches nothing bigger
            skew_per_residue(from_partition(()), from_partition((5, 3)), 4)

    def test_reachability_matches_diagram_removals(self):
        # lam2 is reachable iff some chain of diagram strip removals leads there
        from charcore.divisibility import epsilon

        for n in range(9):
            for lam in partitions_of(n):
                a = from_partition(lam)
                for m in (1, 2, 3):
                    reachable, frontier = {lam}, {lam}
                    while frontier:
                        frontier = {
                            res
                            for mu in frontier
                            for res, _ in diagram_strip_removals(mu, m)
                        }
                        reachable |= frontier
                    for k in range(n + 1):
                        for lam2 in partitions_of(k):
                            expected = lam2 in reachable
                            for check in (
                                lambda: skew_per_residue(a, from_partition(lam2), m),
                                lambda: epsilon(lam, lam2, m),
                            ):
                                try:
                                    check()
                                    found = True
                                except UnreachableError:
                                    found = False
                                assert found == expected, (lam, lam2, m)

    def test_aligned_windows_charge(self):
        a, b = from_partition((1,)), from_partition(())
        split = _split(bead_mask(a), 1)
        r1, r2 = split[1], _aligned_runners(split, bead_mask(b), 1)
        assert sum(map(len, r1.values())) == sum(map(len, r2.values()))
