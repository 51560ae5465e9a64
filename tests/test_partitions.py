"""Partitions, hooks, tuple enumeration, and the combinatorial spectrum route.

Independent oracles: brute-force standard tableau fillings, exact integer
polynomial expansion for the derivative at 1, and the squared-dimension sum
against the group order.
"""

import logging
import math
import operator
import re
import sys
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflectra import partitions as partitions_module
from reflectra.errors import ConsistencyError, ParameterError, SizeLimitError
from reflectra.groups import Group, GroupParams
from reflectra.partitions import (
    DEFAULT_FOLD_CAP,
    DEFAULT_TUPLE_CAP,
    _codimension_moments,
    _fold_bound,
    _slot_zero_shapes,
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
    hook_product,
    parse_partition_tuple,
    partition_counts,
    partitions_of,
    poincare_star_roots,
    validate_partition,
    xi_from_roots,
)

from oracles import (
    grow_young_level,
    lattice_codim_fold,
    lattice_slot_zero_pairs,
    outline_partition,
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


# the grid the closed-form fold is checked on against the lattice reference
LATTICE_FOLDS = (
    [(r, n) for r in (1, 2, 3, 4, 5, 6, 8, 12) for n in range(23)]
    + [(r, n) for r in (30, 100) for n in range(8)]
    + [(2, 36), (2, 40), (1, 40), (3, 18), (12, 5), (7, 9), (16, 4), (100, 2)]
)


def one_zero_shapes(n: int):
    """The shapes (a, b, 1^j) of n boxes, a >= b >= 1, in the fold's order:
    j ascending, then b."""
    return [
        (n - j - b, b) + (1,) * j
        for j in range(n - 1) for b in range(1, (n - j) // 2 + 1)
    ]


def fold_terms(r: int, n: int) -> int:
    """The fold's exact integer terms: the row, the partitions of n with one
    box of content -1, and with later slots one term per row size and hook
    leg and one eigenvalue-0 term per row size."""
    shapes = sum(contents(p).count(-1) == 1 for p in partitions_of(n))
    hooks = sum(m + 1 for m in range(1, n + 1)) if r > 1 else 0
    return 1 + shapes + hooks


def order_words(r: int, n: int) -> int:
    """The 64-bit words of r^n n!."""
    return -(-(r**n * factorial(n)).bit_length() // 64)


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


def lattice_tableaux(n: int) -> dict:
    """Each partition of size at most n with the f Young's lattice gives it,
    checking that every level holds exactly the partitions of its size."""
    found, level = {}, {(1 << n) - 1: 1}
    for k in range(n + 1):
        if k:
            level = grow_young_level(level)
        shapes = {outline_partition(word, n): f for word, f in level.items()}
        assert sorted(shapes, reverse=True) == list(partitions_of(k))
        found.update(shapes)
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
        # the counts f the lattice reference weights each partition with
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

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=40))
    def test_tree_fold_equals_the_sequential_fold(self, pairs):
        # the product rule is associative, so the balanced tree of the pairs
        # and of their values folds to what one running product gives
        value, derivative = 1, 0
        for v, d in pairs:
            value, derivative = value * v, derivative * v + value * d
        assert partitions_module._product(pairs) == (value, derivative)
        assert partitions_module._product(iter(pairs)) == (value, derivative)
        values = [v for v, _ in pairs]
        assert partitions_module._balanced(values, operator.mul, 1) == prod(values)


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
                m, leg = sum(p), len(p) - 1
                assert derivative == (
                    (-1) ** (leg + 1) * r ** (m - 1) * factorial(m - 1 - leg)
                    * factorial(leg)
                )

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
        assert lattice_slot_zero_pairs(r, n) == expected

    @pytest.mark.parametrize("r", SLOT_RANKS)
    def test_slot_zero_pair_is_nonzero_exactly_on_rows_and_one_zero_shapes(self, r):
        # no box of content -1 on a row, one on (a, b, 1^j), two otherwise
        for p in SLOT_PARTITIONS:
            value, derivative = pair_of([r - 1 + r * c for c in contents(p)])
            one_zero = p in one_zero_shapes(sum(p))
            assert one_zero == (contents(p).count(-1) == 1)
            nonzero = len(p) <= 1 or one_zero
            assert (value != 0 or derivative != 0) == nonzero
            if len(p) <= 1:
                n = sum(p)
                assert _codimension_moments(r, n)[:2] == (value, derivative)
                assert derivative == sum(
                    (r * k - 1) * r ** (n - 1) * factorial(n) // k
                    for k in range(1, n + 1)
                )

    @pytest.mark.parametrize("r", SLOT_RANKS)
    def test_slot_zero_shapes_match_their_pairs_and_hook_lengths(self, r):
        for n in range(15):
            expected = []
            for a, b, *leg in one_zero_shapes(n):
                p = (a, b, *leg)
                value, derivative = pair_of([r - 1 + r * c for c in contents(p)])
                j = len(leg)
                assert value == 0
                assert derivative == (
                    -((-1) ** j) * r ** (n - 1) * factorial(a) * factorial(b - 1)
                    * factorial(j)
                )
                expected.append((derivative, factorial(n) // hook_product(p)))
            assert list(_slot_zero_shapes(r, n)) == expected

    @pytest.mark.parametrize(
        "r,n", [(1, 1), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 4)]
    )
    def test_codimension_moments_count_the_elements(self, r, n):
        # P(1), P'(1) and P''(1) against the codimensions of every element
        codims = Group(GroupParams(r, 1, n)).codims.tolist()
        order, first, second = _codimension_moments(r, n)
        assert order == len(codims)
        assert first == sum(codims)
        assert second == sum(c * (c - 1) for c in codims)


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

    @pytest.mark.parametrize("r,n", LATTICE_FOLDS)
    def test_fold_matches_the_lattice_reference(self, r, n):
        assert codim_spectrum_combinatorial(r, n) == lattice_codim_fold(r, n)

    def test_cap_fails_before_any_partition_is_listed(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("partition or term formed before the cap check")

        for name in ("partitions_of", "_codimension_moments", "_slot_zero_shapes"):
            monkeypatch.setattr(partitions_module, name, unreachable)
        for fn in (codim_spectrum_entries, enumerate_partition_tuples):
            with pytest.raises(SizeLimitError, match="9035539 partition tuples"):
                fn(2, 40)
        monkeypatch.setattr(partitions_module, "_partition_numbers", unreachable)
        # the fold lists no tuple and no partition: it is capped by its terms
        # times the words of r^n n!, 250,001 x 134 for G(1,1,1000) and
        # 751,501 x 149 for G(2,1,1000)
        with pytest.raises(SizeLimitError, match="up to 33500134 steps"):
            codim_spectrum_combinatorial(1, 1000)
        with pytest.raises(SizeLimitError, match="up to 111973649 steps"):
            codim_spectrum_combinatorial(2, 1000)

    def test_cap_at_the_tuple_count_passes(self, monkeypatch):
        total = count_partition_tuples(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_TUPLE_CAP", total)
        assert enumerate_partition_tuples(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_TUPLE_CAP", total - 1)
        with pytest.raises(SizeLimitError):
            enumerate_partition_tuples(3, 4)

    def test_fold_cap_at_the_step_bound_passes(self, monkeypatch):
        # G(3,1,4): the row, the shapes (3, 1), (2, 2), (2, 1, 1) and
        # (1, 1, 1, 1), 10 row x hook terms and 4 zero terms, times the one
        # word of 3^4 4! = 1,944
        assert fold_terms(3, 4) == 1 + 4 + 14
        monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", 19)
        assert codim_spectrum_combinatorial(3, 4)
        monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", 18)
        with pytest.raises(SizeLimitError, match="up to 19 steps"):
            codim_spectrum_combinatorial(3, 4)

    @pytest.mark.parametrize(
        "r,n", [(1, 12), (2, 9), (3, 6), (5, 4), (7, 2), (40, 1), (6, 0)]
    )
    def test_fold_cap_refuses_exactly_above_the_whole_bound(self, r, n, monkeypatch):
        # the whole bound: the fold's terms times the words of r^n n!
        bound = fold_terms(r, n) * order_words(r, n)
        assert _fold_bound(r, n) == bound
        for cap in sorted({1, bound // 3, bound // 2, bound - 1, bound}):
            monkeypatch.setattr(partitions_module, "DEFAULT_FOLD_CAP", cap)
            if cap >= bound:
                assert codim_spectrum_combinatorial(r, n)
                continue
            with pytest.raises(SizeLimitError) as refused:
                codim_spectrum_combinatorial(r, n)
            steps = re.search(r"takes up to (\d+) steps", str(refused.value))
            assert int(steps[1]) == bound

    def test_fold_cap_refuses_huge_ranks_before_any_term(self, monkeypatch):
        # r = 10^9, n = 1 is refused on the size of its roots before the
        # bound is taken, and r = 1, n = 10^5 or 10^6 on a bound taken from
        # (r, n) alone
        def unreachable(*args):
            raise AssertionError("term formed before the cap check")

        for name in ("_codimension_moments", "_slot_zero_shapes", "factorial"):
            monkeypatch.setattr(partitions_module, name, unreachable)
        with pytest.raises(SizeLimitError) as refused:
            codim_spectrum_combinatorial(10**9, 1)
        assert str(refused.value) == (
            "the partition-tuple fold for r=1000000000, n=1 has roots of size "
            "up to r n = 1000000000, above the cap 1000000"
        )
        with pytest.raises(SizeLimitError) as refused:
            codim_spectrum_combinatorial(1, 10**5)
        assert str(refused.value) == (
            "the partition-tuple fold for r=1, n=100000 takes up to "
            "59247500023699 steps, above the cap 3000000"
        )
        with pytest.raises(
            SizeLimitError, match="n=1000000 takes up to 72222250000288889 steps"
        ):
            codim_spectrum_combinatorial(1, 10**6)

    def test_fold_refuses_roots_above_the_cap(self, monkeypatch):
        # every root has size below r n; the cap holds r n, so (10^5, 10)
        # passes and one more slot does not, before the bound is taken
        def unreachable(*args):
            raise AssertionError("fold bound taken before the root cap")

        assert codim_spectrum_combinatorial(10**5, 2)
        monkeypatch.setattr(partitions_module, "_fold_bound", unreachable)
        with pytest.raises(SizeLimitError, match="roots of size up to r n = 1000010,"):
            codim_spectrum_combinatorial(10**5 + 1, 10)

    @pytest.mark.parametrize("r,n", [(1, 12), (3, 6)])
    def test_fold_lists_no_partition(self, r, n, monkeypatch):
        # the fold takes neither the partition numbers nor any partition
        def unreachable(*args):
            raise AssertionError("partition listed by the fold")

        for name in ("partitions_of", "_partition_numbers", "partition_counts"):
            monkeypatch.setattr(partitions_module, name, unreachable)
        assert codim_spectrum_combinatorial(r, n)

    @pytest.mark.parametrize(
        "r,n", [(1, 12), (2, 9), (3, 6), (5, 4), (2, 1), (2, 2), (3, 3)]
    )
    def test_fold_cap_bounds_the_fold_steps(self, r, n, monkeypatch):
        # the bound is never below the terms the fold forms times the words
        # of the order
        monkeypatch.setattr(
            partitions_module, "DEFAULT_FOLD_CAP",
            fold_terms(r, n) * order_words(r, n) - 1,
        )
        with pytest.raises(SizeLimitError):
            codim_spectrum_combinatorial(r, n)

    @pytest.mark.parametrize(
        "r,n",
        [(4, 10), (6, 8), (8, 7), (2, 16), (3, 12), (2, 30), (2, 36), (2, 40),
         (10**5, 10), (1, 60), (2, 60), (2, 100), (2, 200)],
    )
    def test_fold_cap_admits_the_fast_folds(self, r, n, monkeypatch):
        # the benchmark's exact spectra and larger folds up to G(2,1,200),
        # each in under 0.1 s: the fold gets past its cap and on to its terms
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(partitions_module, "_codimension_moments", admitted)
        with pytest.raises(Admitted):
            codim_spectrum_combinatorial(r, n)

    def test_no_admitted_fold_prints_past_the_digit_limit(self):
        # every printed integer is at most n r^n n! (the row's eigenvalue,
        # the sum of codim(g), is the largest); for each n the largest r the
        # caps admit keeps it below Python's limit for int-to-text
        limit = sys.get_int_max_str_digits()
        n = 1
        while _fold_bound(1, n) <= DEFAULT_FOLD_CAP:
            low, high = 1, partitions_module.DEFAULT_ROOT_CAP // n
            while low < high:  # the largest admitted r, the bound rising in r
                mid = (low + high + 1) // 2
                if _fold_bound(mid, n) <= DEFAULT_FOLD_CAP:
                    low = mid
                else:
                    high = mid - 1
            log_integer = math.log(n) + n * math.log(low) + math.lgamma(n + 1)
            assert log_integer / math.log(10) + 1 < limit, (low, n)
            n += 1

    @pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (2, 8), (3, 5)])
    def test_a_wrong_family_weight_fails_the_certificate(self, r, n, monkeypatch):
        # the zero weight of (a) is n! - 1 - sum f^2, so the total cannot see
        # a wrong f; the trace can
        shapes = partitions_module._slot_zero_shapes

        def corrupted(*args):
            (d, f), *rest = shapes(*args)
            return [(d, f + 1), *rest]

        monkeypatch.setattr(partitions_module, "_slot_zero_shapes", corrupted)
        with pytest.raises(ConsistencyError, match="trace of the codimension fold"):
            codim_spectrum_combinatorial(r, n)

    def test_a_wrong_codimension_sum_fails_the_frobenius_moment(self, monkeypatch):
        # a sum of codim(g)^2 off by one leaves the total and the trace alone
        moments = partitions_module._codimension_moments

        def shifted(r, n):
            order, first, second = moments(r, n)
            return order, first, second + 1

        monkeypatch.setattr(partitions_module, "_codimension_moments", shifted)
        with pytest.raises(ConsistencyError, match="sum of m theta\\^2"):
            codim_spectrum_combinatorial(2, 5)

    def test_fold_logs_its_work(self, caplog):
        r, n = 2, 16
        with caplog.at_level(logging.DEBUG, logger="reflectra.partitions"):
            codim_spectrum_combinatorial(r, n)
        records = [
            rec.getMessage() for rec in caplog.records
            if rec.name == "reflectra.partitions"
        ]
        assert len(records) == 1
        # the shapes with one box of content -1; a hook is a partition with
        # one box of content 0
        shapes = sum(contents(p).count(-1) == 1 for p in partitions_of(n))
        row_hooks = sum(
            contents(p).count(0) == 1
            for k in range(n) for p in partitions_of(n - k)
        )
        eigenvalues = {
            pair_of(poincare_star_roots(tpl, r))[1]
            for tpl in enumerate_partition_tuples(r, n)
        }
        assert records[0].startswith(
            f"codimension fold of G(2,1,16): {shapes} (a, b, 1^j) shapes, "
            f"{row_hooks} row x hook terms, {len(eigenvalues)} distinct "
            "eigenvalues, exact checks: integral f, sum m, trace, "
            "sum m theta^2, "
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
