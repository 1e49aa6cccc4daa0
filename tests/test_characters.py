import functools
import inspect
import io
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import charcore.characters as characters
import charcore.partitions as partitions
import oracles
from charcore.abacus import _partition_mask, strip_removals
from charcore.characters import (
    CHI_CAP,
    CHI_STATES,
    CHI_TAIL,
    CharacterTable,
    build_table,
    centralizer_order,
    chi,
    chi_column,
    verify_orthogonality,
    write_table_csv,
    write_table_json,
)
from charcore.errors import SizeCapError
from charcore.partitions import conjugate, hook_lengths, partition_count, partitions_of
from charcore.tableaux import count_syt
from oracles import mn_reference


@functools.cache
def short_classes(n):
    """The classes of n with at most 16 parts."""
    return [mu for mu in partitions_of(n) if len(mu) <= 16]


row_class_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.sampled_from(partitions_of(n))] * 2)
)


def class_sign(mu):
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def per_row_lists(n, t):
    """Per row of n in level order, one list of where its t-strips lead: the
    level position of each row of n - t left, complemented for odd heights."""
    index = characters._row_table(n - t)[3]
    return [
        [
            ~index[smaller] if height & 1 else index[smaller]
            for _, height, smaller in strip_removals(w, t)
        ]
        for w in characters._row_table(n)[0]
    ]


STRIP_PAIRS = [(n, t) for n in range(1, 15) for t in range(1, n + 1)]


class TestChi:
    def test_trivial_row(self):
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert chi((n,), mu) == 1

    def test_sign_row(self):
        for n in range(2, 9):
            assert chi((1,) * n, (2,) + (1,) * (n - 2)) == -1

    def test_empty_hook_sum_vanishes(self):
        assert chi((2, 2), (4,)) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            chi((2, 1), (2, 2))

    def test_base_case(self):
        assert chi((), ()) == 1

    def test_against_diagram_recursion(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 12)
            parts = partitions_of(n)
            lam = parts[rng.randrange(len(parts))]
            mu = parts[rng.randrange(len(parts))]
            assert chi(lam, mu) == mn_reference(lam, mu)

    @settings(max_examples=100, deadline=None)
    @given(row_class_pairs)
    def test_against_diagram_recursion_property(self, pair):
        lam, mu = pair
        assert chi(lam, mu) == mn_reference(lam, mu)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            chi((1,) * 1200, (1,) * 1200)
        with pytest.raises(SizeCapError):
            chi((CHI_CAP + 1,), (CHI_CAP + 1,))

    def test_deepest_recursion_under_the_cap(self):
        assert chi((CHI_CAP,), (1,) * CHI_CAP) == 1
        assert chi((1,) * CHI_CAP, (1,) * CHI_CAP) == 1
        # no tail of 1s, so this walks one level per part
        half = CHI_CAP // 2
        assert chi((CHI_CAP,), (2,) * half) == 1
        assert chi((1,) * CHI_CAP, (2,) * half) == (-1) ** half

    def test_state_budget_counts_every_mask_reached(self, monkeypatch):
        # (k, k) on 2^k walks three parts before CHI_TAIL cells remain.  A
        # 2-strip of a two-row shape (a, b) leaves (a - 2, b) when a - 2 >= b,
        # (a, b - 2) when b >= 2, and (a - 1, b - 1) when a == b, so after
        # j parts the walk holds the j + 1 rows (k - i, k - 2j + i), 0 <= i <= j:
        # 1 + 2 + 3 + 4 = 10 masks in all
        k = CHI_TAIL // 2 + 3
        lam, mu = (k, k), (2,) * k
        assert sum(mu) - 6 == CHI_TAIL
        monkeypatch.setattr(characters, "CHI_STATES", 10)
        assert chi(lam, mu) == oracles.chi_walk(lam, mu)
        monkeypatch.setattr(characters, "CHI_STATES", 9)
        with pytest.raises(SizeCapError, match="9 bead-mask states, exceeded on part 3"):
            chi(lam, mu)

    def test_one_check_per_partition(self, monkeypatch):
        # the first read of a size's row table encodes, and so checks, each of
        # its rows once per process
        chi((3, 2, 1), (3, 1, 1, 1))
        check, calls = partitions.check_partition, []

        def counted(parts):
            calls.append(parts)
            return check(parts)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "charcore" and hasattr(module, "check_partition"):
                monkeypatch.setattr(module, "check_partition", counted)
        assert chi((3, 2, 1), (3, 1, 1, 1)) == -2
        assert calls == [(3, 2, 1), (3, 1, 1, 1)]

    def test_deep_and_tail_queries_stay_far_under_the_budget(self, monkeypatch):
        # one part in a hundred of the budget is enough for each of these
        monkeypatch.setattr(characters, "CHI_STATES", CHI_STATES // 100)
        staircase = tuple(range(20, 0, -1))
        assert chi(staircase, (1,) * 210) == count_syt(staircase)
        half = CHI_CAP // 2
        assert chi((CHI_CAP,), (2,) * half) == 1
        assert chi((1,) * CHI_CAP, (2,) * half) == (-1) ** half

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.sampled_from(partitions_of(n)),
                st.integers(1, n).flatmap(
                    lambda k: st.sampled_from(partitions_of(n - k)).map(
                        lambda head: head + (1,) * k
                    )
                ),
            )
        )
    )
    def test_tail_of_ones_against_diagram_recursion(self, pair):
        lam, mu = pair
        assert chi(lam, mu) == mn_reference(lam, mu)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.sampled_from(partitions_of(n)), st.sampled_from(short_classes(n))
            )
        )
    )
    def test_against_the_uncut_walk(self, pair):
        lam, mu = pair
        assert chi(lam, mu) == oracles.chi_walk(lam, mu)

    def test_cached_levels_stay_within_their_bound(self):
        for n in range(1, 17):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    chi(lam, mu)
        build_table(18)
        sizes = range(CHI_TAIL + 1)
        tails = {mu[::-1] for s in sizes[1:] for mu in partitions_of(s)}
        assert set(characters._LEVELS) == tails
        assert len(tails) < sum(map(partition_count, sizes))
        assert sum(map(len, characters._LEVELS.values())) <= sum(
            partition_count(s) ** 2 for s in sizes
        )

    def test_non_integral_parts_are_refused(self):
        with pytest.raises(ValueError, match="got 2.9"):
            chi((2.9, 1), (3,))
        with pytest.raises(ValueError, match="got 1.5"):
            chi((3,), (1.5, 1.5))
        assert chi([2.0, 1.0], (3,)) == -1

    def test_all_ones_class_is_the_hook_length_degree(self):
        staircase = tuple(range(20, 0, -1))
        hooks = math.prod(h for row in hook_lengths(staircase) for h in row)
        assert chi(staircase, (1,) * 210) == math.factorial(210) // hooks

    def test_table_matches_single_values(self, tables):
        # chi never fills a row from its conjugate, so this checks the fill
        for n in range(1, 13):
            table = tables.get(n)
            for lam, row in zip(table.partitions, table.rows):
                assert row == tuple(chi(lam, mu) for mu in table.partitions)

    def test_conjugation_symmetry(self, tables):
        for n in range(1, 13):
            table = tables.get(n)
            idx = {lam: i for i, lam in enumerate(table.partitions)}
            for i, lam in enumerate(table.partitions):
                ci = idx[conjugate(lam)]
                for j, mu in enumerate(table.partitions):
                    assert table.rows[ci][j] == class_sign(mu) * table.rows[i][j]


row_picks = st.integers(1, 20).flatmap(
    lambda n: st.tuples(
        st.sampled_from(partitions_of(n)),
        st.lists(st.integers(0, len(partitions_of(n)) - 1), max_size=40),
    )
)


class TestColumns:
    def test_columns_match_diagram_recursion(self, monkeypatch):
        # the oracle recurses through its module binding, so caching that
        # binding memoises the whole recursion for this test
        monkeypatch.setattr(oracles, "mn_reference", functools.cache(mn_reference))
        for n in range(1, 13):
            rows = partitions_of(n)
            for mu in rows:
                assert chi_column(mu) == [oracles.mn_reference(lam, mu) for lam in rows]

    def test_empty_class(self):
        assert chi_column(()) == [1]
        assert characters._chi_values([0], ()) == [1]

    @settings(max_examples=100, deadline=None)
    @given(row_picks)
    def test_chosen_rows_match_the_column(self, case):
        mu, picks = case
        rows = partitions_of(sum(mu))
        column = chi_column(mu)
        got = characters._chi_values([_partition_mask(rows[i]) for i in picks], mu)
        assert got == [column[i] for i in picks]

    def test_table_equals_its_columns_in_table_order(self, tables):
        for n in range(1, 15):
            parts = partitions_of(n)
            rows = tables.get(n).rows
            assert rows == tuple(zip(*[chi_column(mu) for mu in parts]))


class TestFlatTransfers:
    def test_some_rows_have_no_strip(self):
        assert any(not row for n, t in STRIP_PAIRS for row in per_row_lists(n, t))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_flat_apply_equals_the_per_row_sums(self, data):
        for n, t in STRIP_PAIRS:
            size = partition_count(n - t)
            values = data.draw(st.lists(st.integers(), min_size=size, max_size=size))
            rows = data.draw(st.integers(0, partition_count(n)))
            per_row = oracles.apply_per_row(per_row_lists(n, t), values)
            lists = characters._transfers(n, t)
            assert characters._apply(lists, values) == per_row
            assert characters._apply(lists, values, rows) == per_row[:rows]

    def test_half_column_fills_the_full_column(self):
        for n in range(1, 15):
            masks = characters._row_table(n)[0]
            in_table_order = [_partition_mask(lam) for lam in partitions_of(n)]
            for mu in partitions_of(n):
                below = characters._level(mu[:0:-1])
                full = oracles.apply_per_row(per_row_lists(n, mu[0]), below)
                value = dict(zip(masks, full))
                assert chi_column(mu) == [value[w] for w in in_table_order]

    def test_a_row_left_outside_the_row_table_fails_loudly(
        self, monkeypatch, cold_characters
    ):
        # one extra 2-strip of [6] leaves [5], no row of 4: the transfer list
        # must not number it into the cached row index of size 4
        real = characters.strip_removals
        six, foreign = _partition_mask((6,)), _partition_mask((5,))

        def one_extra_strip(w, t):
            out = real(w, t)
            return out + [(0, 0, foreign)] if (w, t) == (six, 2) else out

        monkeypatch.setattr(characters, "strip_removals", one_extra_strip)
        with pytest.raises(KeyError):
            chi_column((2, 2, 1, 1))
        assert len(characters._row_table(4)[3]) == 5


class TestDegree:
    def test_examples(self):
        assert count_syt((5,)) == 1
        assert count_syt((2, 1)) == 2
        assert count_syt((6, 5, 3, 1, 1, 1)) == 2475200

    def test_matches_identity_column(self):
        for n in range(1, 17):
            column = chi_column((1,) * n)
            for lam, value in zip(partitions_of(n), column):
                assert value == count_syt(lam)


class TestCentralizer:
    def test_example(self):
        assert centralizer_order((2, 1, 1)) == 4

    def test_class_equation(self):
        for n in range(1, 9):
            assert sum(
                math.factorial(n) // centralizer_order(mu)
                for mu in partitions_of(n)
            ) == math.factorial(n)


class TestTable:
    def test_n1(self, tables):
        assert tables.get(1).rows == ((1,),)

    def test_n3_fixture(self, tables):
        # classes in increasing order (1^3), (2,1), (3) for comparison
        table = tables.get(3)
        assert table.partitions == ((3,), (2, 1), (1, 1, 1))
        in_class_order = [tuple(reversed(row)) for row in table.rows]
        assert in_class_order == [(1, 1, 1), (2, 0, -1), (1, -1, 1)]

    def test_degree_squares(self, tables):
        table = tables.get(5)
        identity = table.partitions.index((1, 1, 1, 1, 1))
        assert sum(row[identity] ** 2 for row in table.rows) == 120

    def test_cap(self):
        with pytest.raises(SizeCapError):
            build_table(27)

    def test_build_table_takes_only_n(self):
        # every table is built in one process, so there is no worker count
        assert list(inspect.signature(build_table).parameters) == ["n"]

    def test_rows_encoded_once_per_size(self, monkeypatch, cold_characters):
        encode, calls = characters.from_partition, []

        def counted(parts):
            calls.append(parts)
            return encode(parts)

        monkeypatch.setattr(characters, "from_partition", counted)
        build_table(9)
        # the transfer lists reach every size below 9 through the class 1^9
        assert sorted(calls) == sorted(lam for k in range(10) for lam in partitions_of(k))


class TestTableIdentities:
    def test_square_root_count_matches_brute_force(self):
        for n in range(8):
            for mu in partitions_of(n):
                expect = oracles.brute_square_root_count(mu)
                assert oracles.square_root_count(mu) == expect, mu

    @pytest.mark.parametrize("n", range(1, 23))
    def test_table_meets_the_identities(self, tables, n):
        assert oracles.table_identities(tables.get(n)) == []

    def test_unsigned_conjugate_mirror_fails_the_column_sums(self, tables):
        # a fill that copies each conjugate row without its sign (-1)**(n - len mu)
        table = tables.get(12)
        index = {lam: i for i, lam in enumerate(table.partitions)}
        rows = list(table.rows)
        for i, lam in enumerate(table.partitions):
            if index[conjugate(lam)] > i:
                rows[index[conjugate(lam)]] = rows[i]
        failed = oracles.table_identities(CharacterTable(12, table.partitions, rows))
        kinds = {kind for kind, _ in failed}
        assert "column sum" in kinds and "row norm" not in kinds


class TestOrthogonality:
    def test_centralizer_diagonal(self, tables):
        table = tables.get(4)
        j = table.partitions.index((2, 1, 1))
        dot = sum(row[j] * row[j] for row in table.rows)
        assert dot == 4

    def test_distinct_columns_orthogonal(self, tables):
        table = tables.get(4)
        for j in range(len(table.partitions)):
            for l in range(j + 1, len(table.partitions)):
                assert sum(row[j] * row[l] for row in table.rows) == 0

    def test_full_verification(self, tables):
        for n in range(1, 11):
            ok, witness = verify_orthogonality(tables.get(n))
            assert ok, witness

    def test_witness_on_corruption(self, tables):
        table = tables.get(4)
        rows = [list(r) for r in table.rows]
        rows[0][0] += 1
        bad = CharacterTable(4, table.partitions, tuple(tuple(r) for r in rows))
        ok, witness = verify_orthogonality(bad)
        assert not ok and witness is not None


class TestExports:
    def test_csv_golden(self, tables):
        out = io.StringIO()
        write_table_csv(tables.get(3), out)
        assert out.getvalue() == (
            "partition,[3],[2,1],[1,1,1]\n"
            "[3],1,1,1\n"
            "[2,1],-1,0,2\n"
            "[1,1,1],1,-1,1\n"
        )

    def test_json_round_trip(self, tables):
        out = io.StringIO()
        write_table_json(tables.get(4), out)
        data = json.loads(out.getvalue())
        assert data["n"] == 4
        assert data["classes"][0] == "[4]"
        assert data["rows"][0]["values"] == [1, 1, 1, 1, 1]

    def test_json_big_values_become_strings(self):
        huge = 2**80
        table = CharacterTable(1, ((1,),), ((huge,),))
        out = io.StringIO()
        write_table_json(table, out)
        assert json.loads(out.getvalue())["rows"][0]["values"] == [str(huge)]
