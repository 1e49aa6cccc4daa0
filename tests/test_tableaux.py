import gc
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from charcore.errors import SizeCapError
from charcore.partitions import partitions_of
from charcore.tableaux import (
    SkewShape,
    _box_class_count,
    _box_classes,
    _spans_shape,
    count_skew_syt,
    count_syt,
    is_border_strip,
    iter_box_skews,
)
from oracles import (
    aitken_count,
    brute_skew_syt,
    connected_components,
    lr_coefficient,
    verify_lr_expansion,
)


def all_subdiagrams(outer, size_drop):
    """All inner shapes contained in outer whose removal drops `size_drop` boxes."""
    target = sum(outer) - size_drop
    results = []

    def rec(i, acc, used):
        if used > target:
            return
        if i == len(outer):
            if used == target:
                results.append(tuple(x for x in acc if x > 0))
            return
        hi = min(outer[i], acc[-1] if acc else outer[0])
        for v in range(hi, -1, -1):
            rec(i + 1, acc + [v], used + v)

    rec(0, [], 0)
    return results


class TestSkewShape:
    def test_size_and_str(self):
        s = SkewShape((2, 2), (1,))
        assert s.size == 3
        assert str(s) == "[2,2]/[1]"

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SkewShape((2, 2), (3,))
        with pytest.raises(ValueError):
            SkewShape((2,), (1, 1))

    def test_cells(self):
        assert SkewShape((2, 2), (1,)).cells() == [(0, 1), (1, 0), (1, 1)]


class TestBorderStrip:
    def test_full_square_is_not(self):
        assert not is_border_strip(SkewShape((2, 2), ()))

    def test_examples(self):
        assert is_border_strip(SkewShape((2, 2), (1,)))
        assert is_border_strip(SkewShape((3, 3), (2,)))  # connected L, no square
        assert not is_border_strip(SkewShape((3, 1), (1,)))  # disconnected
        assert not is_border_strip(SkewShape((2, 1, 1), (1,)))  # corner contact only

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_border_strip(SkewShape((2,), (2,)))

    def test_matches_components_and_squares(self):
        # border strip = one edge-connected piece with no 2x2 block of cells
        shapes = 0
        for n in range(1, 12):
            for outer in partitions_of(n):
                for k in range(n):
                    for inner in partitions_of(k):
                        if len(inner) > len(outer) or any(
                            x > outer[i] for i, x in enumerate(inner)
                        ):
                            continue
                        shape = SkewShape(outer, inner)
                        cells = set(shape.cells())
                        square = any(
                            {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells
                            for r, c in cells
                        )
                        expected = len(connected_components(shape)) == 1 and not square
                        assert is_border_strip(shape) == expected, str(shape)
                        shapes += 1
        assert shapes == 4894

    def test_strip_iff_single_hook_removal(self):
        # strips of a straight shape are exactly the hook rim removals
        from charcore.abacus import from_partition, hooks_of_length

        for lam in partitions_of(8):
            a = from_partition(lam)
            for t in range(1, 9):
                strips = sum(
                    1
                    for inner in all_subdiagrams(lam, t)
                    if is_border_strip(SkewShape(lam, inner))
                )
                assert strips == len(hooks_of_length(a, t))


class TestCountSkewSyt:
    def test_empty(self):
        assert count_skew_syt(SkewShape((), ())) == 1
        assert count_skew_syt(SkewShape((3, 1), (3, 1))) == 1

    def test_examples(self):
        assert count_skew_syt(SkewShape((2, 2), ())) == 2
        assert count_skew_syt(SkewShape((2, 2), (1,))) == 2

    def test_against_brute_force(self):
        for outer in partitions_of(6):
            for drop in range(1, 7):
                for inner in all_subdiagrams(outer, drop):
                    shape = SkewShape(outer, inner)
                    assert count_skew_syt(shape) == brute_skew_syt(outer, inner)

    def test_against_determinant(self):
        rng = random.Random(7)
        shapes = [s for k in range(1, 10) for s in iter_box_skews(6, 6, k)]
        for shape in rng.sample(shapes, 400):
            assert count_skew_syt(shape) == aitken_count(shape.outer, shape.inner)

    def test_translation_invariance_via_determinant(self):
        # shifted copies of the same cells carry the same count
        pairs = [
            (((5, 4), (3, 2)), ((3, 2), (1,))),
            (((4, 4, 1), (2, 1)), ((6, 6, 3), (4, 3, 2))),
        ]
        for (o1, i1), (o2, i2) in pairs:
            assert count_skew_syt(SkewShape(o1, i1)) == aitken_count(o2, i2)
            assert count_skew_syt(SkewShape(o2, i2)) == aitken_count(o1, i1)


class TestCountSyt:
    def test_basics(self):
        assert count_syt((9,)) == 1
        assert count_syt((2, 1)) == 2
        assert count_syt(()) == 1

    def test_matches_skew_with_empty_inner(self):
        for n in range(13):
            for nu in partitions_of(n):
                assert count_syt(nu) == count_skew_syt(SkewShape(nu, ()))

    def test_degree_squares_sum(self):
        for n in range(15):
            assert sum(count_syt(nu) ** 2 for nu in partitions_of(n)) == math.factorial(n)


class TestLittlewoodRichardson:
    def test_trivial_coefficient(self):
        for n in range(7):
            for pi in partitions_of(n):
                assert lr_coefficient(pi, (), pi) == 1
                assert lr_coefficient(pi, pi, ()) == 1

    def test_size_mismatch(self):
        assert lr_coefficient((3, 1), (1,), (1, 1)) == 0

    def test_zero_without_containment(self):
        # the enumerator must discover this; no shortcut is coded in
        count = 0
        for pi in partitions_of(6):
            for inner in all_subdiagrams(pi, 3):
                for nu in partitions_of(3):
                    if len(nu) > len(pi) or any(
                        v > pi[i] for i, v in enumerate(nu)
                    ):
                        assert lr_coefficient(pi, inner, nu) == 0
                        count += 1
        assert count > 0

    def test_symmetry(self):
        for pi in partitions_of(6):
            for drop in range(1, 7):
                for inner in all_subdiagrams(pi, drop):
                    for nu in partitions_of(drop):
                        assert lr_coefficient(pi, inner, nu) == lr_coefficient(
                            pi, nu, inner
                        )

    def test_known_value(self):
        # s_(2,1) * s_(2,1) contains s_(3,2,1) with multiplicity 2
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2


class TestLrExpansion:
    def test_example(self):
        res = verify_lr_expansion(SkewShape((2, 2), (1,)))
        assert res.ok and res.direct == 2

    def test_straight_shape_reduces_to_identity(self):
        for nu in partitions_of(6):
            res = verify_lr_expansion(SkewShape(nu, ()))
            assert res.ok and res.direct == count_syt(nu)

    def test_all_small_skews_in_box(self):
        for k in range(1, 7):
            for shape in iter_box_skews(5, 5, k):
                assert verify_lr_expansion(shape).ok, str(shape)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            verify_lr_expansion(SkewShape((5, 5), ()))


class TestComponents:
    def test_connected_shape(self):
        comps = connected_components(SkewShape((2, 2), (1,)))
        assert len(comps) == 1 and comps[0].size == 3

    def test_disconnected_factorization(self):
        # standard fillings distribute over components with a multinomial
        for k in range(2, 9):
            for shape in iter_box_skews(6, 6, k):
                comps = connected_components(shape)
                if len(comps) == 1:
                    continue
                sizes = [c.size for c in comps]
                predicted = math.factorial(k)
                for s in sizes:
                    predicted //= math.factorial(s)
                for c in comps:
                    predicted *= count_skew_syt(c)
                assert count_skew_syt(shape) == predicted, str(shape)

    def test_count_memo_holds_connected_shapes_only(self, count_memos):
        # a disconnected shape is counted from its components, never kept whole
        for k in range(1, 9):
            for shape in iter_box_skews(6, 6, k):
                count_skew_syt(shape)
        seen = set()
        for memo in count_memos:
            if id(memo) not in seen:
                seen.add(id(memo))
                for key in memo:
                    assert len(connected_components(_spans_shape(key))) == 1, key
        assert len(seen) > 1000

    def test_no_memo_outlives_a_count(self, count_memos):
        memos = count_memos
        firsts = []
        for shape in (SkewShape((5, 5, 2), (3, 1)), SkewShape((5, 2), (3,))):
            firsts.append(len(memos))
            count_skew_syt(shape)
            # one memo per call, its own
            assert all(memo is memos[firsts[-1]] for memo in memos[firsts[-1] :])
        assert memos[firsts[0]] is not memos[firsts[1]]
        # only the list above still holds each call's memo
        for i in firsts:
            assert memos[i] and gc.get_referrers(memos[i]) == [memos]


@pytest.mark.slow
def test_skew_multiplicity_at_size_sixteen():
    # fourth power of 2: every skew that big in an 8x8 box fails the strip test
    from charcore.divisibility import CombineConfig, verify_lemma81

    report = verify_lemma81(8, CombineConfig(2, 4))
    assert report.ok and report.checked > 0 and report.skipped == 0


class TestBoxSkews:
    def test_counts_unique_and_canonical(self):
        shapes = list(iter_box_skews(4, 4, 3))
        assert len(shapes) == len(set(shapes))
        for s in shapes:
            spans = [(a, b) for a, b in s.row_spans()]
            assert all(b > a for a, b in spans)
            assert min(a for a, _ in spans) == 0

    def test_every_box_pair_canonicalizes_into_family(self):
        family = set(iter_box_skews(4, 4, 3))
        for outer in partitions_of(7):
            if len(outer) > 4 or outer[0] > 4:
                continue
            for inner in all_subdiagrams(outer, 3):
                shape = SkewShape(outer, inner)
                rows = [(s, e) for s, e in shape.row_spans() if e > s]
                c0 = min(s for s, _ in rows)
                canon = SkewShape(
                    tuple(e - c0 for _, e in rows),
                    tuple(s - c0 for s, _ in rows if s > c0),
                )
                assert canon in family


class TestBoxClasses:
    def test_spans_are_the_row_spans_of_the_shapes(self):
        boxes = [(b, k) for b in range(1, 7) for k in range(1, b * b + 1)] + [(8, 8)]
        for box, size in boxes:
            spans = [spans for spans, _ in _box_classes(box, box, size)]
            shapes = [tuple(s.row_spans()) for s in iter_box_skews(box, box, size)]
            assert spans == shapes, (box, size)

    def test_rejects_an_empty_size(self):
        with pytest.raises(ValueError):
            next(_box_classes(3, 3, 0))

    def test_class_count_matches_the_sweeps(self):
        for rows in range(6):
            for cols in range(6):
                for size in range(1, 10):
                    swept = sum(
                        1
                        for k in range(1, size + 1)
                        for _ in _box_classes(rows, cols, k)
                    )
                    assert _box_class_count(rows, cols, size, 10**9) == swept

    @pytest.mark.parametrize(
        "box",
        [(8, 8, 8), (6, 6, 9), (10, 4, 7), (3, 12, 9)]
        + [pytest.param((8, 8, 16), marks=pytest.mark.slow)],
        ids=lambda box: "x".join(map(str, box)),
    )
    def test_class_sequence_is_frozen(self, box):
        # every (spans, f) in walk order, without a memo (f is None) and with one
        for memo, digest in zip((None, {}), FROZEN_CLASSES[box]):
            h = hashlib.sha256()
            for spans, f in _box_classes(*box, memo):
                h.update(f"{spans}:{f}\n".encode())
            assert h.hexdigest() == digest, (box, memo is not None)

    def test_class_count_past_the_cap_is_a_lower_bound(self):
        exact = _box_class_count(8, 8, 16, 10**9)
        assert exact == 2087896
        for cap in (0, 100, 10**4, exact - 1):
            assert cap < _box_class_count(8, 8, 16, cap) <= exact


# sha256 of the "<spans>:<f>\n" lines of `_box_classes(*box, memo)`, without a
# memo and with one, recorded from the earlier recursive walk of the classes
FROZEN_CLASSES = {
    (8, 8, 8): (
        "a8be985bdddf28691c1e17601474af10c032ff59a7f494fae9216f010cb80935",
        "ea76c720f68b3acb8b3eac176ada7c4d0a1a754727b20eaca9579fa344175b60",
    ),
    (6, 6, 9): (
        "1051da22d43e21a699d10b3aa5d720505420a08d5d5c0e880881e25e72033623",
        "4929cdaf091faaeb66e466888a7719b312f4b0fca4c733cc365ad699548548d9",
    ),
    (10, 4, 7): (
        "7a4416f440b631090821225ae64067c34657bde0a29b0b719a862a7412925b78",
        "d52d76c33375fcf3f854fa66be8ba7601a2f5fdbe2963f55fc62fd4ae130a60b",
    ),
    (3, 12, 9): (
        "48cefd42ae419b0e9d94a211ecc22a61fb755701af2e386aadf6b7a8d2896f95",
        "17a44c4962b195639f796c141d342823d6b0ab4cdc2aab805a7de5a7a001b218",
    ),
    (8, 8, 16): (
        "7c7513feae3a520a733ad5e97653d588bdb5256848d4d0e897327d9e29c68b20",
        "449c78618080aa5c6c8278f9bcca16bf097b0135647969c258cad4f3fa9dab5f",
    ),
}


def _skew_pairs():
    outers = st.lists(st.integers(1, 8), min_size=1, max_size=8).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )

    def inners(outer):
        return st.tuples(*(st.integers(0, part) for part in outer)).map(
            lambda xs: tuple(
                x for x in (min(xs[: i + 1]) for i in range(len(xs))) if x > 0
            )
        )

    return outers.flatmap(lambda o: st.tuples(st.just(o), inners(o)))


@settings(max_examples=300, deadline=None)
@given(_skew_pairs())
def test_skew_count_matches_determinant(pair):
    # drawn pairs keep empty rows and offsets, so the entry re-trim is exercised
    outer, inner = pair
    assert count_skew_syt(SkewShape(outer, inner)) == aitken_count(outer, inner)
