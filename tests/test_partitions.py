"""Partitions, hooks, tuple enumeration, and the combinatorial spectrum route.

Independent oracles: brute-force standard tableau fillings, exact integer
polynomial expansion for the derivative at 1, and the squared-dimension sum
against the group order.
"""

import logging
import re
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflectra import partitions as partitions_module
from reflectra.errors import ParameterError, SizeLimitError
from reflectra.partitions import (
    DEFAULT_TUPLE_CAP,
    _grow,
    _hook_derivative,
    _slot_zero_pairs,
    character_dimension,
    closed_form_reference,
    codim_spectrum_combinatorial,
    codim_spectrum_entries,
    conjugate_partition,
    contents,
    count_partition_tuples,
    enumerate_partition_tuples,
    format_partition_tuple,
    hook_lengths,
    parse_partition_tuple,
    partition_counts,
    partitions_of,
    poincare_star_roots,
    validate_partition,
    xi_from_roots,
)

partitions = st.integers(0, 7).map(partitions_of).flatmap(st.sampled_from)

# Every (r, n) with 1 <= r <= 8 and at most 2,000 partition tuples.
SMALL_RANKS = [
    (r, n)
    for r in range(1, 9)
    for n in range(40)
    if count_partition_tuples(r, n) <= 2000
]


# the tuple-exact benchmark's three largest folds: 5,822, 7,868 and 10,108
# tuples
BENCHMARK_FOLDS = [(2, 16), (3, 12), (4, 10)]

# folds with many later slots, which the collapsed fold reads as r - 1 alike
MANY_SLOT_FOLDS = [(12, 3), (16, 3), (30, 2), (100, 2)]

# the partitions of size at most 14, the empty one first, and the ranks the
# slot facts are checked on
SLOT_PARTITIONS = [p for k in range(15) for p in partitions_of(k)]
SLOT_RANKS = [*range(1, 9), 12, 30]


def lattice_cells(n: int) -> int:
    """Boxes added walking Young's lattice up to level n: a partition gains
    one at the end of each row longer than the next, and one in a new row."""
    return sum(len(set(p)) + 1 for k in range(n) for p in partitions_of(k))


def fold_steps(r: int, n: int) -> int:
    """The fold's work: the lattice cells up to level n, the partitions of
    n, and with later slots one closed-form term per row size and hook leg
    and one eigenvalue-0 term per row size."""
    terms = sum(m + 1 for m in range(1, n + 1)) if r > 1 else 0
    return lattice_cells(n) + len(partitions_of(n)) + terms


def brute_standard_tableaux(shape) -> int:
    """Count fillings of the diagram with 1..n increasing along rows and
    columns, by placing labels in order."""
    if not shape:
        return 1
    filled = [0] * len(shape)

    def place(label: int) -> int:
        if label > sum(shape):
            return 1
        total = 0
        for row in range(len(shape)):
            if filled[row] < shape[row] and (row == 0 or filled[row - 1] > filled[row]):
                filled[row] += 1
                total += place(label + 1)
                filled[row] -= 1
        return total

    return place(1)


def boundary_word(p, n: int) -> int:
    """The outline of p in an n x n box from bottom left to top right as
    bits, first step highest: 1 east, 0 north."""
    letters, east = "", 0
    for part in reversed(p + (0,) * (n - len(p))):
        letters += "1" * (part - east) + "0"
        east = part
    return int(letters + "1" * (n - east), 2)


def lattice_tableaux(n: int) -> dict:
    """Each partition of size at most n with the f the fold's lattice gives
    it, checking that every level holds exactly the partitions of its size."""
    found, level = {}, {(1 << n) - 1: 1}
    for k in range(n + 1):
        if k:
            level, _ = _grow(level)
        assert len(level) == len(partitions_of(k))
        found.update((p, level[boundary_word(p, n)]) for p in partitions_of(k))
    return found


def pair_of(roots) -> tuple[int, int]:
    """(value, derivative) at t = 1 of the product of (1 + alpha t)."""
    return prod(1 + alpha for alpha in roots), xi_from_roots(roots)


def poly_from_roots(roots) -> list[int]:
    """Exact coefficients of prod (1 + alpha t)."""
    coefficients = [1]
    for alpha in roots:
        coefficients = [
            c + alpha * (coefficients[k - 1] if k else 0)
            for k, c in enumerate(coefficients)
        ] + [alpha * coefficients[-1]]
    return coefficients


class TestPartitions:
    def test_counts_match_reference(self):
        assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    @pytest.mark.parametrize("n", range(8))
    def test_enumeration_matches_count(self, n):
        parts = partitions_of(n)
        assert len(parts) == partition_counts(n)[n]
        assert len(set(parts)) == len(parts)
        for p in parts:
            validate_partition(p)
            assert sum(p) == n

    def test_validate_rejects_increasing(self):
        with pytest.raises(ParameterError):
            validate_partition((1, 2))
        with pytest.raises(ParameterError):
            validate_partition((2, 0))

    @given(partitions)
    def test_conjugate_is_involution(self, p):
        assert conjugate_partition(conjugate_partition(p)) == p
        assert sum(conjugate_partition(p)) == sum(p)

    @given(partitions)
    def test_conjugate_counts_the_rows_of_each_column(self, p):
        width = p[0] if p else 0
        assert conjugate_partition(p) == tuple(
            sum(1 for row in p if row > col) for col in range(width)
        )

    def test_conjugate_example(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)

    def test_conjugate_rejects_non_partitions(self):
        for p in [(1, 2), (2, 0)]:
            with pytest.raises(ParameterError):
                conjugate_partition(p)
        with pytest.raises(ParameterError):
            hook_lengths((1, 2))


class TestBoxStatistics:
    def test_contents_examples(self):
        assert contents(()) == ()
        assert contents((4,)) == (0, 1, 2, 3)
        assert sorted(contents((3, 1))) == [-1, 0, 1, 2]

    def test_hooks_example(self):
        assert sorted(hook_lengths((3, 1))) == [1, 1, 2, 4]

    @given(partitions)
    def test_hooks_count_boxes(self, p):
        assert len(hook_lengths(p)) == sum(p)

    def test_tableaux_count_against_brute_force(self):
        # the counts f the fold weights each partition with
        for p, f in lattice_tableaux(7).items():
            assert f == brute_standard_tableaux(p)

    def test_tableaux_count_against_hook_lengths(self):
        for p, f in lattice_tableaux(14).items():
            assert f == character_dimension((p,))

    def test_tableaux_count_example(self):
        assert lattice_tableaux(4)[(3, 1)] == 3


class TestTupleEnumeration:
    def test_counts(self):
        assert count_partition_tuples(2, 2) == 5
        assert count_partition_tuples(3, 2) == 9
        assert count_partition_tuples(2, 1) == 2
        for n in range(6):
            assert count_partition_tuples(1, n) == partition_counts(n)[n]

    @pytest.mark.parametrize("r,n", [(1, 4), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_enumeration_matches_count(self, r, n):
        tuples = enumerate_partition_tuples(r, n)
        assert len(tuples) == count_partition_tuples(r, n)
        assert len(set(tuples)) == len(tuples)
        for tpl in tuples:
            assert len(tpl) == r
            assert sum(sum(p) for p in tpl) == n

    def test_trivial_tuple_first(self):
        tuples = enumerate_partition_tuples(3, 2)
        assert tuples[0] == ((2,), (), ())

    def test_cap(self):
        # 9,035,539 tuples, above the default cap
        assert count_partition_tuples(2, 40) == 9035539 > DEFAULT_TUPLE_CAP
        with pytest.raises(SizeLimitError, match="9035539 partition tuples"):
            enumerate_partition_tuples(2, 40)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_squared_dimensions_sum_to_group_order(self, r, n):
        total = sum(
            character_dimension(tpl) ** 2
            for tpl in enumerate_partition_tuples(r, n)
        )
        assert total == r**n * factorial(n)

    def test_dimension_example(self):
        assert character_dimension(((1,), (1,))) == 2
        assert character_dimension(((2,), ())) == 1
        assert character_dimension(((1, 1), ())) == 1


class TestPoincareRoots:
    def test_first_slot_row(self):
        for r in (2, 5):
            roots = poincare_star_roots(((2,), ()) + ((),) * (r - 2), r)
            assert sorted(roots) == sorted([r - 1, 2 * r - 1])

    def test_later_slot_column(self):
        roots = poincare_star_roots(((), (1, 1), ()), 3)
        assert sorted(roots) == [-4, -1]

    def test_r1_specializes_to_contents(self):
        assert sorted(poincare_star_roots(((3, 1),), 1)) == [-1, 0, 1, 2]

    def test_slot_count_must_match_r(self):
        with pytest.raises(ParameterError):
            poincare_star_roots(((1,), ()), 3)

    @given(
        st.lists(partitions, min_size=2, max_size=4).filter(
            lambda parts: 0 < sum(sum(p) for p in parts) <= 6
        ),
        st.randoms(use_true_random=False),
    )
    def test_permuting_later_slots_preserves_roots_and_dimension(self, parts, rng):
        tpl = tuple(parts)
        r = len(tpl)
        tail = list(tpl[1:])
        rng.shuffle(tail)
        permuted = (tpl[0],) + tuple(tail)
        assert sorted(poincare_star_roots(tpl, r)) == sorted(
            poincare_star_roots(permuted, r)
        )
        assert character_dimension(tpl) == character_dimension(permuted)


class TestXi:
    def test_hand_expanded_example(self):
        assert xi_from_roots((0, 1, 2, -1)) == -6

    def test_empty(self):
        assert xi_from_roots(()) == 0

    @given(st.lists(st.integers(-6, 6), max_size=6).map(tuple))
    def test_against_polynomial_expansion(self, roots):
        coefficients = poly_from_roots(roots)
        derivative_at_one = sum(k * c for k, c in enumerate(coefficients))
        assert xi_from_roots(roots) == derivative_at_one


def is_hook(p) -> bool:
    return bool(p) and p[0] + len(p) - 1 == sum(p)


class TestSlotFacts:
    """The three facts the fold's closed forms rest on, against each
    partition's own pair."""

    @pytest.mark.parametrize("r", SLOT_RANKS)
    def test_a_nonempty_later_slot_has_value_zero(self, r):
        for p in SLOT_PARTITIONS[1:]:
            assert pair_of([-1 + r * c for c in contents(p)])[0] == 0

    @pytest.mark.parametrize("r", SLOT_RANKS)
    def test_a_later_slot_derivative_is_nonzero_exactly_on_hooks(self, r):
        for p in SLOT_PARTITIONS[1:]:
            _, derivative = pair_of([-1 + r * c for c in contents(p)])
            assert (derivative != 0) == is_hook(p)
            if is_hook(p):
                assert derivative == _hook_derivative(r, sum(p), len(p) - 1)

    @pytest.mark.parametrize("r", SLOT_RANKS)
    def test_slot_zero_value_is_nonzero_exactly_on_rows(self, r):
        for p in SLOT_PARTITIONS:
            value, _ = pair_of([r - 1 + r * c for c in contents(p)])
            k = sum(p)
            assert value == (r**k * factorial(k) if len(p) <= 1 else 0)

    @pytest.mark.parametrize("r,n", [(1, 0), (1, 9), (2, 1), (3, 8), (30, 6)])
    def test_slot_zero_pairs_group_the_partitions_of_n(self, r, n):
        expected: dict = {}
        for p in partitions_of(n):
            key = pair_of([r - 1 + r * c for c in contents(p)])
            expected[key] = expected.get(key, 0) + character_dimension((p,)) ** 2
        pairs, _, listed = _slot_zero_pairs(r, n)
        assert pairs == expected
        assert listed == len(partitions_of(n))


class TestCodimSpectrum:
    def test_g212(self):
        assert codim_spectrum_combinatorial(2, 2) == ((10, 1), (2, 1), (-2, 6))

    def test_g312(self):
        assert dict(codim_spectrum_combinatorial(3, 2)) == {
            27: 1, 3: 2, 0: 4, -3: 11,
        }

    def test_g213(self):
        assert dict(codim_spectrum_combinatorial(2, 3)) == {
            100: 1, 4: 14, 0: 9, -4: 9, -8: 15,
        }

    def test_entries_carry_sources(self):
        entries = codim_spectrum_entries(2, 2)
        assert len(entries) == 5
        _, _, top = max(entries)
        assert top == ((2,), ())
        for r, n in SMALL_RANKS:
            if count_partition_tuples(r, n) <= 300:
                sources = [source for _, _, source in codim_spectrum_entries(r, n)]
                assert sources == list(enumerate_partition_tuples(r, n))

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("r", range(2, 9))
    def test_matches_closed_form(self, r, n):
        reference = closed_form_reference(r, n)
        assert reference == tuple(sorted(reference, reverse=True))
        assert dict(codim_spectrum_combinatorial(r, n)) == dict(reference)

    def test_closed_form_domain(self):
        with pytest.raises(ParameterError):
            closed_form_reference(2, 4)
        with pytest.raises(ParameterError):
            closed_form_reference(1, 2)

    def test_entries_sorted_descending(self):
        eigenvalues = [value for value, _ in codim_spectrum_combinatorial(3, 3)]
        assert eigenvalues == sorted(eigenvalues, reverse=True)

    @pytest.mark.parametrize("r,n", SMALL_RANKS + BENCHMARK_FOLDS + MANY_SLOT_FOLDS)
    def test_fold_matches_aggregated_entries(self, r, n):
        aggregated: dict[int, int] = {}
        for eigenvalue, multiplicity, _ in codim_spectrum_entries(r, n):
            aggregated[eigenvalue] = aggregated.get(eigenvalue, 0) + multiplicity
        expected = tuple(sorted(aggregated.items(), reverse=True))
        assert codim_spectrum_combinatorial(r, n) == expected

    def test_n0_gives_the_trivial_group(self):
        assert codim_spectrum_combinatorial(1, 0) == ((0, 1),)
        assert codim_spectrum_combinatorial(3, 0) == ((0, 1),)

    def test_cap_fails_before_any_partition_is_listed(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("partition table built before the cap check")

        for name in ("partitions_of", "_slot_zero_pairs", "_grow"):
            monkeypatch.setattr(partitions_module, name, unreachable)
        for fn in (codim_spectrum_entries, enumerate_partition_tuples):
            with pytest.raises(SizeLimitError, match="9035539 partition tuples"):
                fn(2, 40)
        # the fold lists no tuple: it is capped by its steps.  G(1,1,60) has
        # 966,467 tuples but walks the 60 boxes of each
        with pytest.raises(SizeLimitError, match="up to 58954487 steps"):
            codim_spectrum_combinatorial(1, 60)
        with pytest.raises(SizeLimitError, match="up to 16899847 steps"):
            codim_spectrum_combinatorial(2, 40)

    def test_cap_at_the_tuple_count_passes(self, monkeypatch):
        total = count_partition_tuples(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_TUPLE_CAP", total)
        assert enumerate_partition_tuples(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_TUPLE_CAP", total - 1)
        with pytest.raises(SizeLimitError):
            enumerate_partition_tuples(3, 4)

    def test_fold_cap_at_the_step_bound_passes(self, monkeypatch):
        # G(3,1,4): 34 table boxes, 1 + 10 + 39 pairings over the first two
        # slots (the 1- and 2-tuples of total at most 4), 51 in the last
        monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", 135)
        assert codim_spectrum_combinatorial(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", 134)
        with pytest.raises(SizeLimitError, match="up to 135 steps"):
            codim_spectrum_combinatorial(3, 4)

    @pytest.mark.parametrize(
        "r,n", [(1, 12), (2, 9), (3, 6), (5, 4), (7, 2), (40, 1), (6, 0)]
    )
    def test_fold_cap_refuses_exactly_above_the_whole_bound(self, r, n, monkeypatch):
        # the whole step bound, every level and every slot summed
        counts = partition_counts(n)
        *earlier, last = partitions_module._tuple_counts(r, counts)
        bound = sum(k * counts[k] for k in (range(n + 1) if r > 1 else (n,)))
        bound += sum(map(sum, earlier)) + last[n]
        for cap in sorted({1, bound // 3, bound // 2, bound - 1, bound}):
            monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", cap)
            if cap >= bound:
                assert codim_spectrum_combinatorial(r, n)
                continue
            with pytest.raises(SizeLimitError) as refused:
                codim_spectrum_combinatorial(r, n)
            steps = re.search(
                r"takes up to (more than )?(\d+) steps", str(refused.value)
            )
            if steps[1]:
                assert cap < int(steps[2]) <= bound
            else:
                assert int(steps[2]) == bound

    def test_fold_cap_refuses_huge_ranks_after_a_few_levels_and_slots(
        self, monkeypatch
    ):
        # the whole bound of r = 10^9, n = 1 sums 10^9 slots, and that of
        # r = 1, n = 10^5 needs p(10^5), about 10^346
        def few(generator):
            def at_most_300(*args):
                for step, value in enumerate(generator(*args)):
                    assert step < 300, f"{generator.__name__} ran past 300 steps"
                    yield value

            return at_most_300

        for name in ("_partition_numbers", "_tuple_counts"):
            monkeypatch.setattr(
                partitions_module, name, few(getattr(partitions_module, name))
            )
        for r, n, steps in ((10**9, 1, 2000000000), (1, 10**5, 10619863)):
            with pytest.raises(SizeLimitError) as refused:
                codim_spectrum_combinatorial(r, n)
            assert str(refused.value) == (
                f"the partition-tuple fold for r={r}, n={n} takes up to more "
                f"than {steps} steps, above the cap 10000000"
            )

    @pytest.mark.parametrize("r,n", [(1, 12), (3, 6)])
    def test_fold_takes_the_partition_numbers_once(self, r, n, monkeypatch):
        # the cap's level loop and its slot loop share one run of p(0..n)
        runs = []
        numbers = partitions_module._partition_numbers

        def counted():
            runs.append(1)
            return numbers()

        monkeypatch.setattr(partitions_module, "_partition_numbers", counted)
        assert codim_spectrum_combinatorial(r, n)
        assert len(runs) == 1

    @pytest.mark.parametrize(
        "r,n", [(1, 12), (2, 9), (3, 6), (5, 4), (2, 1), (2, 2), (3, 3)]
    )
    def test_fold_cap_bounds_the_fold_steps(self, r, n, monkeypatch):
        # the bound is never below the steps the fold really takes
        monkeypatch.setattr(
            partitions_module, "DEFAULT_FOLD_CAP", fold_steps(r, n) - 1
        )
        with pytest.raises(SizeLimitError):
            codim_spectrum_combinatorial(r, n)

    @pytest.mark.parametrize(
        "r,n", [(4, 10), (6, 8), (8, 7), (2, 16), (3, 12), (2, 30), (2, 36)]
    )
    def test_fold_cap_admits_the_fast_folds(self, r, n, monkeypatch):
        # the benchmark's exact spectra, and G(2,1,30) and G(2,1,36), whose
        # folds take about 0.06 s and 0.2 s: the fold gets past its cap and
        # on to its lattice
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(partitions_module, "_slot_zero_pairs", admitted)
        with pytest.raises(Admitted):
            codim_spectrum_combinatorial(r, n)

    @pytest.mark.parametrize("r,n", [(1, 3), (2, 3)])
    def test_tableau_squares_are_checked_per_level(self, r, n, monkeypatch):
        grow = partitions_module._grow

        def corrupted(level):
            above, cells = grow(level)
            above[next(iter(above))] += 1
            return above, cells

        monkeypatch.setattr(partitions_module, "_grow", corrupted)
        # one slot checks only level n; more slots check level 1 first,
        # whose one partition now has f = 2
        match = "partitions of 3 sum to" if r == 1 else "partitions of 1 sum to 4,"
        with pytest.raises(ParameterError, match=match):
            codim_spectrum_combinatorial(r, n)

    def test_fold_logs_its_work(self, caplog):
        r, n = 2, 16
        with caplog.at_level(logging.DEBUG, logger="reflectra.partitions"):
            codim_spectrum_combinatorial(r, n)
        records = [
            rec.getMessage() for rec in caplog.records
            if rec.name == "reflectra.partitions"
        ]
        assert len(records) == 1
        slot_zero = {
            pair_of([r - 1 + r * c for c in contents(p)]) for p in partitions_of(n)
        }
        # a hook is a partition with one box of content 0
        row_hooks = sum(
            contents(p).count(0) == 1
            for k in range(n) for p in partitions_of(n - k)
        )
        eigenvalues = {
            pair_of(poincare_star_roots(tpl, r))[1]
            for tpl in enumerate_partition_tuples(r, n)
        }
        assert records[0].startswith(
            f"codimension fold of G(2,1,16): {lattice_cells(n)} lattice "
            f"cells, {len(partitions_of(n))} partitions of 16, "
            f"{len(slot_zero)} distinct slot-0 pairs, {row_hooks} row x hook "
            f"terms, {len(eigenvalues)} distinct eigenvalues, "
        )


class TestTupleText:
    def test_format_example(self):
        assert format_partition_tuple(((3, 1), (), (2,))) == "3,1||2"

    def test_parse_example(self):
        assert parse_partition_tuple("3,1||2") == ((3, 1), (), (2,))

    @given(
        st.lists(partitions, min_size=1, max_size=4).map(tuple)
    )
    def test_roundtrip(self, tpl):
        assert parse_partition_tuple(format_partition_tuple(tpl)) == tpl

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_partition_tuple("1,2")
        with pytest.raises(ParameterError):
            parse_partition_tuple("a|b")
