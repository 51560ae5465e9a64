"""Element algebra, enumeration, conjugacy, and Galois exponents.

Independent oracles: brute-force enumeration from the membership constraint,
complex monomial matrices for the multiplication law, conjugation orbits over
the full group, and repeated multiplication for element orders.
"""

import functools
import itertools
import logging
import tracemalloc
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflectra import groups
from reflectra.errors import ParameterError, SizeLimitError
from reflectra.groups import (
    Group,
    GroupElement,
    GroupParams,
    cycle_type,
    element_order,
    element_power,
    find_galois_exponent,
    format_element,
    galois_apply,
    identity_element,
    multiply,
    standard_generators,
)
from reflectra.spectra import _class_sum_order
from reflectra.verify import desk_scale_params

from oracles import (
    ORACLE_GROUPS,
    FlatIndexMaps,
    class_members,
    conjugation_indices,
    conjugation_orbits,
    element_texts,
    flat_arrays,
    flat_cycle_walk,
    monomial_matrix,
    power_scan_rational,
    right_mult_indices,
)


def size_sequence(perm) -> tuple[int, ...]:
    """The sizes of the cycles of a permutation, listed by least position."""
    sizes, seen = [], set()
    for start in range(len(perm)):
        i, size = start, 0
        while i not in seen:
            seen.add(i)
            i, size = perm[i], size + 1
        if size:
            sizes.append(size)
    return tuple(sizes)


def type_representatives(group) -> list[GroupElement]:
    """The least member of each cycle type, that of its first class."""
    classes = group.conjugacy
    heads = np.unique(classes.types, return_index=True)[1]
    return [group.element(classes.representatives[i]) for i in heads]


def elements_strategy(max_r: int = 6, max_n: int = 4):
    def build(r, n, exponents, shuffled):
        return GroupElement(r=r, exponents=tuple(e % r for e in exponents), perm=shuffled)

    return st.integers(1, max_r).flatmap(
        lambda r: st.integers(1, max_n).flatmap(
            lambda n: st.builds(
                build,
                st.just(r),
                st.just(n),
                st.tuples(*[st.integers(0, r - 1)] * n),
                st.permutations(range(n)).map(tuple),
            )
        )
    )


def paired_elements(max_r: int = 6, max_n: int = 4):
    def pair(r, n, e1, p1, e2, p2):
        return (
            GroupElement(r=r, exponents=tuple(e1), perm=p1),
            GroupElement(r=r, exponents=tuple(e2), perm=p2),
        )

    return st.integers(1, max_r).flatmap(
        lambda r: st.integers(1, max_n).flatmap(
            lambda n: st.builds(
                pair,
                st.just(r),
                st.just(n),
                st.tuples(*[st.integers(0, r - 1)] * n),
                st.permutations(range(n)).map(tuple),
                st.tuples(*[st.integers(0, r - 1)] * n),
                st.permutations(range(n)).map(tuple),
            )
        )
    )


class TestParams:
    def test_order_formula(self):
        assert GroupParams(3, 1, 2).order == 18
        assert GroupParams(4, 2, 2).order == 16
        assert GroupParams(2, 1, 3).order == 48
        assert GroupParams(1, 1, 4).order == 24

    def test_p_must_divide_r(self):
        with pytest.raises(ParameterError):
            GroupParams(4, 3, 2)

    def test_positive(self):
        with pytest.raises(ParameterError):
            GroupParams(0, 1, 2)
        with pytest.raises(ParameterError):
            GroupParams(2, 1, 0)

    def test_str(self):
        assert str(GroupParams(6, 2, 3)) == "G(6,2,3)"


class TestElementAlgebra:
    @given(paired_elements())
    def test_multiplication_matches_monomial_matrices(self, pair):
        x, y = pair
        product = multiply(x, y)
        expected = monomial_matrix(x) @ monomial_matrix(y)
        assert np.allclose(monomial_matrix(product), expected)

    @given(elements_strategy())
    def test_inverse(self, x):
        e = identity_element(x.r, x.n)
        assert multiply(x, x.inverse()) == e
        assert multiply(x.inverse(), x) == e

    @given(elements_strategy())
    def test_identity_is_neutral(self, x):
        e = identity_element(x.r, x.n)
        assert multiply(x, e) == x
        assert multiply(e, x) == x

    @given(elements_strategy(max_r=5, max_n=3))
    def test_order_by_repeated_multiplication(self, x):
        order = element_order(x)
        assert order >= 1
        e = identity_element(x.r, x.n)
        power = x
        for step in range(1, order):
            assert power != e
            power = multiply(power, x)
        assert power == e

    @given(elements_strategy())
    def test_power_against_naive_product(self, x):
        power = identity_element(x.r, x.n)
        for m in range(5):
            assert element_power(x, m) == power
            power = multiply(power, x)

    def test_mismatched_elements_rejected(self):
        x = identity_element(2, 2)
        y = identity_element(3, 2)
        with pytest.raises(ParameterError):
            multiply(x, y)

    def test_format_example(self):
        x = GroupElement(r=3, exponents=(1, 0), perm=(1, 0))
        assert format_element(x) == "1,0|2 1"


class TestCycleType:
    @given(paired_elements(max_r=5, max_n=4))
    def test_conjugation_invariance(self, pair):
        x, g = pair
        conjugate = multiply(multiply(g, x), g.inverse())
        assert cycle_type(conjugate) == cycle_type(x)

    def test_identity(self):
        assert cycle_type(identity_element(3, 2)) == ((1, 0), (1, 0))

    def test_mixed(self):
        x = GroupElement(r=4, exponents=(1, 2, 3), perm=(1, 0, 2))
        assert cycle_type(x) == ((1, 3), (2, 3))


class TestEnumeration:
    def test_brute_force_set_equality(self):
        brute = {
            (exponents, perm)
            for perm in itertools.permutations(range(2))
            for exponents in itertools.product(range(4), repeat=2)
            if sum(exponents) % 2 == 0
        }
        group = Group(GroupParams(4, 2, 2))
        assert group.order == 16
        assert {(x.exponents, x.perm) for x in group.elements} == brute

    @pytest.mark.parametrize(
        "r,p,n", [(1, 1, 1), (1, 1, 4), (2, 1, 3), (3, 3, 2), (6, 3, 2), (2, 2, 4)]
    )
    def test_order_and_membership(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        assert group.order == GroupParams(r, p, n).order
        for x in group.elements:
            assert sum(x.exponents) % p == 0
        assert len({(x.exponents, x.perm) for x in group.elements}) == group.order

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_arrays_match_lex_enumeration(self, params):
        r, p, n = params.r, params.p, params.n
        brute = [
            (perm, exponents)
            for perm in itertools.permutations(range(n))
            for exponents in itertools.product(range(r), repeat=n)
            if sum(exponents) % p == 0
        ]
        group = Group(params)
        perms, exps = flat_arrays(group)
        assert perms.tolist() == [list(perm) for perm, _ in brute]
        assert exps.tolist() == [list(row) for _, row in brute]
        assert (np.diff(FlatIndexMaps(group).keys) > 0).all()
        identity = np.take_along_axis(group._perm_block, group._inv_block, axis=1)
        assert (identity == np.arange(n)).all()
        # every flat row ranks to its own index
        ranks = group._perm_rank(perms) * len(group._exp_block) + group._exp_rank(exps)
        assert np.array_equal(ranks, np.arange(group.order))
        assert [(x.perm, x.exponents) for x in group.elements] == brute
        assert all(group.index_of(x) == i for i, x in enumerate(group.elements))

    def test_element_index_out_of_range(self):
        group = Group(GroupParams(2, 1, 2))
        assert format_element(group.element(7)) == "1,1|2 1"
        for i in (-1, -8, 8, 100):
            expected = rf"index {i} .*G\(2,1,2\) of order 8"
            with pytest.raises(ParameterError, match=expected):
                group.element(i)

    def test_index_roundtrip(self):
        group = Group(GroupParams(3, 1, 2))
        for i, x in enumerate(group.elements):
            assert group.index_of(x) == i

    def test_foreign_element_rejected(self):
        group = Group(GroupParams(4, 2, 2))
        outside = GroupElement(r=4, exponents=(1, 0), perm=(0, 1))
        with pytest.raises(ParameterError):
            group.index_of(outside)

    def test_wrong_r_or_n_rejected(self):
        group = Group(GroupParams(4, 2, 2))
        wrong_r = GroupElement(r=8, exponents=(1, 1), perm=(0, 1))
        wrong_n = GroupElement(r=4, exponents=(0, 0, 0), perm=(0, 1, 2))
        for outside in (wrong_r, wrong_n):
            with pytest.raises(ParameterError):
                group.index_of(outside)
        assert [group.index_of(x) for x in group.elements] == list(range(group.order))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError) as excinfo:
            Group(GroupParams(2, 1, 5), max_order=1000)
        assert "REFLECTRA_MAX_ORDER" in str(excinfo.value)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REFLECTRA_MAX_ORDER", "5")
        with pytest.raises(SizeLimitError):
            Group(GroupParams(2, 1, 2))
        monkeypatch.setenv("REFLECTRA_MAX_ORDER", "8")
        assert Group(GroupParams(2, 1, 2)).order == 8

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap, monkeypatch):
        with pytest.raises(ParameterError, match="at least 1"):
            Group(GroupParams(2, 1, 2), max_order=cap)
        monkeypatch.setenv("REFLECTRA_MAX_ORDER", str(cap))
        with pytest.raises(ParameterError, match="at least 1"):
            Group(GroupParams(2, 1, 2))

    def test_key_overflow_fails_before_enumeration(self, monkeypatch):
        class NoEnumeration:
            @staticmethod
            def permutations(*args):
                raise AssertionError("enumeration started")

        monkeypatch.setattr(groups, "itertools", NoEnumeration)
        # 16^16 > 2^62: the class walk's cycle-type keys, n digits base n r,
        # would overflow int64; the check runs before the blocks and the
        # popcount table are built
        with pytest.raises(SizeLimitError, match="overflow int64"):
            Group(GroupParams(1, 1, 16), max_order=10**20)


class TestIndexMaps:
    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (2, 2, 3)])
    def test_multiplication_maps(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        for g in (1, group.order // 2, group.order - 1):
            left = group.left_mult_indices(g)
            right = right_mult_indices(group, g)
            for k in (0, 1, group.order // 3, group.order - 1):
                assert left[k] == group.index_of(
                    multiply(group.elements[g], group.elements[k])
                )
                assert right[k] == group.index_of(
                    multiply(group.elements[k], group.elements[g])
                )

    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (2, 2, 3)])
    def test_product_indices(self, r, p, n):
        # the products of class_sum_matrix, over all columns, against
        # counts of products formed element by element with multiply
        group = Group(GroupParams(r, p, n))
        classes = group.conjugacy
        k = len(classes)
        reps = [group.elements[i] for i in classes.representatives]
        for c, members in enumerate(class_members(group)):
            expected = np.zeros((k, k))
            for u in members:
                inverse = group.elements[u].inverse()
                for j, rep in enumerate(reps):
                    product = group.index_of(multiply(inverse, rep))
                    expected[group.class_of[product], j] += 1
            assert np.array_equal(group.class_sum_matrix(c, np.arange(k)), expected)

    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2)])
    def test_inverse_indices(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        for i, x in enumerate(group.elements):
            assert group.inverse_indices[i] == group.index_of(x.inverse())

    def test_conjugation_map(self):
        group = Group(GroupParams(4, 2, 2))
        g = 5
        conj = conjugation_indices(group, g)
        gx = group.elements[g]
        for k, x in enumerate(group.elements):
            expected = multiply(multiply(gx, x), gx.inverse())
            assert conj[k] == group.index_of(expected)


class TestRankArithmetic:
    """The index maps rank products on the permutation and exponent blocks;
    each must match the flat |G| x n arrays with their binary-searched
    keys."""

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_product_indices_match_flat_lookup(self, params):
        # class_sum_matrix, the product path of the class-algebra route,
        # for the first class sums that route takes: M[l, j] counts the
        # members u of C_c with u^-1 rep_j in C_l, here from the flat
        # inverse and product lookups
        group = Group(params, max_order=50000)
        flat = FlatIndexMaps(group)
        reps = np.array(group.conjugacy.representatives)
        k = len(reps)
        for c in _class_sum_order(group)[:3]:
            members = np.flatnonzero(group.class_of == c)
            inverses = flat.inverse_indices()[members]
            products = flat.product_indices(inverses[:, None], reps[None, :])
            expected = np.zeros((k, k))
            np.add.at(expected, (group.class_of[products], np.arange(k)), 1)
            assert np.array_equal(group.class_sum_matrix(c, np.arange(k)), expected)

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_mult_maps_match_flat_lookup(self, params):
        group = Group(params, max_order=50000)
        flat = FlatIndexMaps(group)
        gens = [flat.index_of(g) for g in standard_generators(params)]
        picked = np.random.default_rng(group.order).integers(group.order, size=3)
        for g in gens + picked.tolist():
            maps = {
                "left_mult_indices": group.left_mult_indices(g),
                # the oracles' right multiplication and conjugation maps,
                # over the group's left and inverse maps
                "right_mult_indices": right_mult_indices(group, g),
                "conjugation_indices": conjugation_indices(group, g),
            }
            for name, got in maps.items():
                expected = getattr(flat, name)(g)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (name, g)

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_quotient_blocks_match_flat_lookup(self, params):
        # rows: a run of exponent rows of a few left permutations, taken in
        # any order; columns: x_j^{-1} for a sample of j, all of them on
        # small groups
        group = Group(params, max_order=50000)
        flat = FlatIndexMaps(group)
        rng = np.random.default_rng(group.order)
        perms = factorial(params.n)
        m = group.order // perms
        count = max(1, min(perms, (1 << 20) // (m * group.order)))
        qs = rng.permutation(perms)[:count]
        first = int(rng.integers(m))
        exps = np.arange(first, int(rng.integers(first, m)) + 1)
        inverse_exps = group.inverse_indices.reshape(perms, m) % m
        table = group._quotient_block(
            qs, slice(exps[0], exps[-1] + 1), inverse_exps
        )
        assert table.shape == (count * len(exps), group.order)
        rows = (qs[:, None] * m + exps).ravel()
        columns = np.arange(group.order)
        if group.order > 400:
            columns = np.unique(rng.integers(group.order, size=500))
        expected = flat.product_indices(
            rows[:, None], flat.inverse_indices()[columns][None, :]
        )
        assert table.dtype == expected.dtype
        assert np.array_equal(table[:, columns], expected)

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_inverse_and_index_of_match_flat_lookup(self, params):
        group = Group(params, max_order=50000)
        flat = FlatIndexMaps(group)
        got, expected = group.inverse_indices, flat.inverse_indices()
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        picked = np.random.default_rng(group.order).integers(group.order, size=300)
        for i in sorted({0, group.order - 1, *picked.tolist()}):
            x = group.element(i)
            assert group.index_of(x) == flat.index_of(x) == i

    @pytest.mark.parametrize(
        "params", [q for q in desk_scale_params() if q.p > 1], ids=str
    )
    def test_member_iff_exponent_sum_divisible_by_p(self, params):
        group = Group(params)
        inside = []
        for x in Group(GroupParams(params.r, 1, params.n)).elements:
            if sum(x.exponents) % params.p == 0:
                inside.append(group.index_of(x))
            else:
                with pytest.raises(ParameterError, match="is not in"):
                    group.index_of(x)
        # G(r, p, n) keeps the lex order of G(r, 1, n)
        assert inside == list(range(group.order))

    def test_fresh_group_holds_no_per_element_array(self):
        group = Group(GroupParams(2, 1, 6), max_order=50000)
        sizes = {
            name: value.size
            for name, value in vars(group).items()
            if isinstance(value, np.ndarray)
        }
        assert sizes
        assert max(sizes.values()) < group.order, sizes


def brute_force_classes(group: Group) -> set[frozenset[int]]:
    """Conjugation orbits computed with plain element algebra."""
    orbits = []
    seen: set[int] = set()
    for seed in range(group.order):
        if seed in seen:
            continue
        x = group.elements[seed]
        orbit = {
            group.index_of(multiply(multiply(g, x), g.inverse()))
            for g in group.elements
        }
        seen |= orbit
        orbits.append(frozenset(orbit))
    return set(orbits)


class TestConjugacy:
    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (1, 1, 4), (4, 2, 2), (3, 3, 2), (2, 2, 3)])
    def test_against_brute_force(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        computed = {frozenset(members) for members in class_members(group)}
        assert computed == brute_force_classes(group)

    def test_class_count_g312(self):
        assert len(Group(GroupParams(3, 1, 2)).conjugacy) == 9

    def test_sizes_and_partition(self):
        group = Group(GroupParams(4, 2, 2))
        classes = group.conjugacy
        assert sum(classes.sizes) == group.order
        for index, members in enumerate(class_members(group)):
            assert classes.sizes[index] == len(members)
            assert classes.representatives[index] == members[0]
            for member in members:
                assert group.class_of[member] == index

    @pytest.mark.parametrize(
        "params", desk_scale_params() + (GroupParams(2, 2, 6),), ids=str
    )
    def test_identity_is_class_zero(self, params):
        # the class-algebra route and verify take the identity's class as 0
        group = Group(params, max_order=50000)
        assert group.element(group.identity_index) == identity_element(
            params.r, params.n
        )
        assert group.class_of[group.identity_index] == 0

    @pytest.mark.parametrize(
        "params", [q for q in desk_scale_params() if q.p == 1], ids=str
    )
    def test_p1_classes_are_cycle_type_fibres(self, params):
        group = Group(params)
        fibers: dict = {}
        for i, x in enumerate(group.elements):
            fibers.setdefault(cycle_type(x), []).append(i)
        orbits = sorted(fibers.values(), key=lambda orbit: orbit[0])
        class_of = [0] * group.order
        for c, orbit in enumerate(orbits):
            for i in orbit:
                class_of[i] = c
        classes = group.conjugacy
        assert group.class_of.tolist() == class_of
        assert class_members(group) == tuple(tuple(orbit) for orbit in orbits)
        assert classes.representatives == tuple(orbit[0] for orbit in orbits)
        assert classes.sizes == tuple(len(orbit) for orbit in orbits)

    @pytest.mark.parametrize(
        "params",
        [q for q in desk_scale_params() if q.p > 1] + [
            GroupParams(*t)
            # G(2,2,6) and groups whose cycle types split into up to d = 4
            for t in [(2, 2, 6), (4, 4, 4), (8, 4, 3), (12, 3, 3), (6, 2, 4),
                      (3, 3, 5)]
        ],
        ids=str,
    )
    def test_classes_match_orbit_search(self, params):
        group = Group(params, max_order=50000)
        orbits = conjugation_orbits(group)
        class_of = np.empty(group.order, dtype=np.int64)
        for c, orbit in enumerate(orbits):
            class_of[orbit] = c
        classes = group.conjugacy
        assert group.class_of.tolist() == class_of.tolist()
        assert class_members(group) == tuple(tuple(orbit) for orbit in orbits)
        assert classes.representatives == tuple(orbit[0] for orbit in orbits)
        assert classes.sizes == tuple(len(orbit) for orbit in orbits)

    @pytest.mark.parametrize(
        "params",
        desk_scale_params() + tuple(
            GroupParams(*t) for t in [(2, 2, 6), (6, 2, 4), (2, 2, 7), (4, 2, 5)]
        ),
        ids=str,
    )
    def test_sizes_are_a_count_of_the_labels(self, params):
        # the sizes n! r^n / (z d) come from the cycle types alone
        group = Group(params, max_order=10**6)
        classes = group.conjugacy
        counted = np.bincount(group.class_of, minlength=len(classes))
        assert classes.sizes == tuple(counted.tolist())

    def test_conjugacy_allocates_nothing_group_long(self):
        # the class records come from the cycle-type table and a few rows;
        # |G| int64 labels would take 8 |G| bytes
        group = Group(GroupParams(2, 1, 7), max_order=10**6)
        tracemalloc.start()
        try:
            group.conjugacy, group.rational
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < group.order

    @pytest.mark.parametrize("n", range(1, 8))
    def test_firsts_are_the_least_permutation_of_each_size_sequence(self, n):
        # the closed form, the rows the class records walk, against a
        # minimum over all n! permutations
        least: dict = {}
        for q, perm in enumerate(itertools.permutations(range(n))):
            least.setdefault(size_sequence(perm), q)
        group = Group(GroupParams(2, 1, n), max_order=10**6)
        rotations = group._cycle_data[1][0].tolist()
        m, zero = len(group._exp_block), (0,) * n
        ranks = [group.index_of(GroupElement(2, zero, tuple(s))) // m for s in rotations]
        assert len(ranks) == 2 ** (n - 1) == len(least)
        assert ranks == sorted(ranks)
        assert dict(zip(map(size_sequence, rotations), ranks)) == least

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_diagonal_types_are_those_with_identity_permutation(self, params):
        group = Group(params)
        reps = type_representatives(group)
        expected = [x.perm == tuple(range(params.n)) for x in reps]
        assert group.type_diagonal.tolist() == expected
        assert not group.type_diagonal.flags.writeable

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_exponent_sums_are_those_of_the_least_members(self, params):
        group = Group(params)
        reps = type_representatives(group)
        expected = [sum(x.exponents) % params.r for x in reps]
        assert group.type_exponent_sums.tolist() == expected
        assert not group.type_exponent_sums.flags.writeable

    def test_one_cycle_walk_feeds_codims_and_classes(self, monkeypatch):
        # the bulk walk, `_classes_of` over all n! permutations, runs at
        # most once per group, and the class records never run it
        classify, bulk = Group._classes_of, []

        def counting(self, perms, *args):
            if perms is vars(self).get("_perm_block"):
                bulk.append(self)
            return classify(self, perms, *args)

        monkeypatch.setattr(Group, "_classes_of", counting)
        # the cycle type (3, 0) of G(3,3,3) splits, so its classes read L
        for params in (GroupParams(3, 1, 3), GroupParams(3, 3, 3)):
            group = Group(params)
            group.conjugacy, group.rational, group.scalar_shift
            assert bulk == [] and "_perm_block" not in vars(group)
            assert group.codims.size == group.order
            assert group.reflection_lengths.size == group.order
            group.class_of, group.type_of, group.codims
            assert bulk == [group]
            bulk.clear()
        assert len(group.conjugacy) > len(group.type_codims)

    @pytest.mark.parametrize(
        "params", [GroupParams(2, 1, 6), GroupParams(2, 2, 6)], ids=str
    )
    def test_no_unique_over_the_whole_group(self, params, monkeypatch):
        # the cycle types come from a table far smaller than the group, and
        # the classes are numbered and listed without sorting |G| keys
        sizes = []
        unique = np.unique

        def spy(values, *args, **kwargs):
            sizes.append(np.size(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(groups.np, "unique", spy)
        group = Group(params, max_order=50000)
        group.codims, group.conjugacy, group.reflection_lengths
        assert sizes and max(sizes) < group.order

    def test_cycle_type_table_logged_once(self, caplog):
        group = Group(GroupParams(3, 3, 3))
        with caplog.at_level(logging.DEBUG, logger="reflectra.groups"):
            group.codims, group.conjugacy, group.reflection_lengths
            group.codims
        records = [
            r.getMessage() for r in caplog.records
            if r.name == "reflectra.groups" and "cycle-type table" in r.getMessage()
        ]
        assert len(records) == 1
        # the size sequences 111, 12, 21 and 3 have blocks of 3 * 3 * 3,
        # 3 * 5, 5 * 3 and 7 entries: base k (r - 1) + 1 per cycle of size k
        types = len(group.type_codims)
        assert records[0].startswith(
            f"cycle-type table of G(3,3,3): |G| = 54, 4 size sequences, "
            f"64 table entries, {types} cycle types, "
        )

    def test_p1_conjugacy_builds_no_elements(self, monkeypatch):
        built = []
        check = GroupElement.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(GroupElement, "__post_init__", counting)
        group = Group(GroupParams(3, 1, 5), max_order=30000)
        assert len(group.conjugacy) > 0
        assert built == []
        group.element(0)
        assert len(built) == 1

    def test_cycle_type_constant_on_classes_p1(self):
        group = Group(GroupParams(3, 1, 2))
        for members in class_members(group):
            types = {cycle_type(group.elements[i]) for i in members}
            assert len(types) == 1


class TestFactoredPerElementData:
    """Cycle data, element text and rational classes are computed on the
    permutation and exponent blocks; each must match a flat per-element
    oracle."""

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_cycle_walk_matches_flat_walk(self, params):
        group = Group(params, max_order=50000)
        type_of, type_codims = group.type_of, group.type_codims
        codes, _, splits, _ = group._cycle_data[3]
        flat_codims, flat_keys, flat_labels = flat_cycle_walk(group)
        # each element's type key: its type's sorted codes as base-nr digits
        n, r = params.n, params.r
        keys = np.ravel_multi_index(tuple(codes[type_of].T), (n * r,) * n)
        assert type_codims.dtype == flat_codims.dtype
        assert np.array_equal(type_codims[type_of], flat_codims)
        assert np.array_equal(group.codims, flat_codims)
        assert np.array_equal(keys, flat_keys)
        # each type's representative is the least element with its key
        _, least = np.unique(flat_keys, return_index=True)
        reps = [group.index_of(x) for x in type_representatives(group)]
        assert reps == sorted(least.tolist())
        # the classes are the pairs (type, L mod d)
        pairs = np.stack([type_of, flat_labels % splits[type_of]])
        by_pair = np.unique(pairs, axis=1, return_inverse=True)[1].ravel()
        both = np.unique(np.stack([by_pair, group.class_of]), axis=1)
        assert both.shape[1] == by_pair.max() + 1 == len(group.conjugacy)

    @pytest.mark.parametrize(
        "params",
        ORACLE_GROUPS + tuple(
            GroupParams(*t) for t in [(4, 4, 4), (3, 3, 5), (12, 3, 3)]
        ),
        ids=str,
    )
    def test_class_record_matches_per_element_data(self, params):
        group = Group(params, max_order=50000)
        classes = group.conjugacy
        type_of, codes = group.type_of, group._cycle_data[3][0]
        reps = np.array(classes.representatives)
        assert np.array_equal(classes.types, type_of[reps])
        assert np.array_equal(
            classes.inverse, group.class_of[group.inverse_indices[reps]]
        )
        # against the flat walk's keys and each representative's own inverse
        _, flat_keys, _ = flat_cycle_walk(group)
        n, r = params.n, params.r
        keys = np.ravel_multi_index(tuple(codes[classes.types].T), (n * r,) * n)
        assert np.array_equal(keys, flat_keys[reps])
        inverses = [
            int(group.class_of[group.index_of(group.element(i).inverse())])
            for i in classes.representatives
        ]
        assert classes.inverse.tolist() == inverses

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_element_texts_match_format_element(self, params):
        group = Group(params, max_order=50000)
        exp_texts, perm_texts = group.text_blocks()
        assert [e + s for s in perm_texts for e in exp_texts] == element_texts(group)

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
    def test_rational_matches_power_scan(self, params):
        group = Group(params, max_order=50000)
        expected = power_scan_rational(group)
        assert group.rational.class_to_rational == expected.class_to_rational
        assert group.rational.orders == expected.orders

    @pytest.mark.parametrize(
        "params", [GroupParams(2, 2, 6), GroupParams(3, 1, 5)], ids=str
    )
    def test_per_element_data_builds_no_elements(self, params, monkeypatch):
        def no_elements(*args, **kwargs):
            raise AssertionError("an element was built on a per-element path")

        group = Group(params, max_order=50000)
        monkeypatch.setattr(GroupElement, "__init__", no_elements)
        monkeypatch.setattr(Group, "element", no_elements)
        exp_texts, perm_texts = group.text_blocks()
        assert len(exp_texts) * len(perm_texts) == group.order
        assert len(group.conjugacy) > 0
        assert len(group.rational) > 0
        assert group.codims.size == group.order
        assert group.reflection_lengths.size == group.order


class TestRationalClasses:
    def test_symmetric_group_rational_equals_ordinary(self):
        group = Group(GroupParams(1, 1, 4))
        k = len(group.conjugacy)
        assert len(group.rational) == k
        assert group.rational.class_to_rational == tuple(range(k))

    def test_cyclic_four(self):
        group = Group(GroupParams(4, 1, 1))
        assert len(group.conjugacy) == 4
        assert len(group.rational) == 3

    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (6, 1, 1)])
    def test_closed_under_coprime_powers(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        classes = group.conjugacy
        rational_of = group.rational.class_to_rational
        for members in class_members(group):
            x = group.elements[members[0]]
            order = element_order(x)
            for d in range(1, order + 1):
                if gcd(d, order) != 1:
                    continue
                power_class = group.class_of[group.index_of(element_power(x, d))]
                assert rational_of[power_class] == rational_of[group.class_of[members[0]]]

    def test_partition_structure(self):
        group = Group(GroupParams(6, 1, 1))
        labels = group.rational.class_to_rational
        assert len(labels) == len(group.conjugacy)
        assert sorted(set(labels)) == list(range(len(group.rational)))


class TestGalois:
    def test_crt_example(self):
        x = GroupElement(r=6, exponents=(2,), perm=(0,))
        assert element_order(x) == 3
        assert find_galois_exponent(x, 2) == 5
        assert cycle_type(galois_apply(x, 5)) == cycle_type(element_power(x, 2))

    def test_apply_requires_coprime_exponent(self):
        x = GroupElement(r=6, exponents=(1,), perm=(0,))
        with pytest.raises(ParameterError):
            galois_apply(x, 2)

    def test_power_must_be_coprime_to_order(self):
        x = GroupElement(r=6, exponents=(1,), perm=(0,))
        with pytest.raises(ParameterError):
            find_galois_exponent(x, 2)

    @pytest.mark.parametrize("r,p,n", [(4, 1, 2), (4, 2, 2), (6, 2, 2)])
    def test_postcondition_exhaustive(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        for x in group.elements:
            order = element_order(x)
            for d in range(1, order + 1):
                if gcd(d, order) != 1:
                    continue
                e = find_galois_exponent(x, d)
                assert 1 <= e <= x.r * order
                assert gcd(e, x.r) == 1
                assert cycle_type(galois_apply(x, e)) == cycle_type(element_power(x, d))


class TestGenerators:
    @pytest.mark.parametrize(
        "r,p,n", [(1, 1, 3), (2, 1, 2), (3, 1, 2), (4, 2, 2), (3, 3, 3), (6, 3, 2)]
    )
    def test_generate_whole_group(self, r, p, n):
        params = GroupParams(r, p, n)
        generators = standard_generators(params)
        frontier = [identity_element(r, n)]
        seen = {(x.exponents, x.perm) for x in frontier}
        while frontier:
            fresh = []
            for x in frontier:
                for g in generators:
                    y = multiply(g, x)
                    key = (y.exponents, y.perm)
                    if key not in seen:
                        seen.add(key)
                        fresh.append(y)
            frontier = fresh
        assert len(seen) == params.order

    def test_generators_are_members(self):
        params = GroupParams(6, 2, 3)
        group = Group(params)
        for g in standard_generators(params):
            assert group.element(group.index_of(g)) == g


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_scalar_shift_is_the_class_of_z_times_each_representative(params):
    # z = zeta^c0 I, c0 = p / gcd(n, p), generates the scalar matrices of
    # the group and has order h = r gcd(n, p) / p
    r, p, n = params.r, params.p, params.n
    group = Group(params)
    z = GroupElement(r, (p // gcd(n, p) % r,) * n, tuple(range(n)))
    assert group.element(group.index_of(z)) == z
    assert element_order(z) == r * gcd(n, p) // p
    scalars = [c * p // gcd(n, p) % r for c in range(r)]
    for c in range(r):
        scalar = GroupElement(r, (c,) * n, tuple(range(n)))
        if c in scalars:
            assert group.element(group.index_of(scalar)) == scalar
        else:
            with pytest.raises(ParameterError, match="is not in"):
                group.index_of(scalar)
    classes = group.conjugacy
    expected = [
        int(group.class_of[group.index_of(multiply(z, group.element(rep)))])
        for rep in classes.representatives
    ]
    assert group.scalar_shift.tolist() == expected
    assert not group.scalar_shift.flags.writeable


@pytest.mark.parametrize(
    "r,p,n", [(3, 1, 2), (4, 2, 2), (2, 2, 3), (3, 3, 3), (6, 2, 3)]
)
def test_class_sum_columns_are_columns_of_the_whole_matrix(r, p, n):
    group = Group(GroupParams(r, p, n))
    k = len(group.conjugacy)
    chosen = [np.arange(k), np.arange(0, k, 2), np.array([k - 1, 0]), np.arange(0)]
    for c in range(k):
        whole = group.class_sum_matrix(c, np.arange(k))
        assert whole.shape == (k, k) and whole.dtype == np.float64
        for columns in chosen:
            assert np.array_equal(group.class_sum_matrix(c, columns), whole[:, columns])
