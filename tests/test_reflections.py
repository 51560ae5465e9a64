"""Reflections, codimension, reflection lengths against BFS, and degree data.

Independent oracles: fixed-space dimension from the complex monomial matrix,
explicit short products of reflections, and exact polynomial expansion of
the codimension generating function.
"""

import importlib
import itertools
import logging
from collections import Counter

import numpy as np
import pytest

from reflectra import groups
from reflectra.errors import ConsistencyError
from reflectra.groups import Group, GroupElement, GroupParams, multiply
from reflectra.reflections import (
    all_reflections_order_two,
    bfs_word_lengths,
    codim,
    degree_data,
    eta1_closed_form,
    reflection_length_table,
    reflections,
    xi1_closed_form,
)
from reflectra.spectra import bipartite_check, distance_function
from reflectra.verify import desk_scale_params

from oracles import conjugation_indices, monomial_matrix


# p > 1 groups above the desk-scale orders, for the formula against BFS
BEYOND_DESK_SCALE = tuple(
    GroupParams(*t)
    for t in [(4, 2, 4), (6, 2, 4), (4, 4, 4), (12, 3, 3), (3, 3, 5), (8, 2, 4)]
)


def test_package_attribute_is_the_module():
    import reflectra

    module = importlib.import_module("reflectra.reflections")
    assert reflectra.reflections is module
    assert reflectra.reflections.bfs_word_lengths is bfs_word_lengths
    assert reflectra.reflections.reflections is reflections


def fixed_space_codim(x: GroupElement) -> int:
    """Geometric oracle: n minus the dimension of the fixed space."""
    matrix = monomial_matrix(x) - np.eye(x.n)
    return int(np.linalg.matrix_rank(matrix, tol=1e-9))


class TestCodim:
    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (2, 2, 3), (1, 1, 4)])
    def test_against_fixed_space_oracle(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        for x in group.elements:
            assert codim(x) == fixed_space_codim(x)

    def test_identity_is_zero(self):
        group = Group(GroupParams(4, 1, 2))
        assert codim(group.elements[group.identity_index]) == 0


class TestReflectionSet:
    @pytest.mark.parametrize("params", desk_scale_params(max_order=100))
    def test_count_formula(self, params):
        group = Group(params)
        r, p, n = params.r, params.p, params.n
        expected = n * (r // p - 1) + r * n * (n - 1) // 2
        assert len(reflections(group)) == expected

    def test_g422_reflections(self):
        group = Group(GroupParams(4, 2, 2))
        refl = reflections(group)
        assert len(refl) == 6
        for t in refl:
            x = group.elements[t]
            assert codim(x) == 1
            assert multiply(x, x) == group.element(group.identity_index)

    def test_order_two_flags(self):
        assert all_reflections_order_two(Group(GroupParams(4, 2, 2)))
        assert all_reflections_order_two(Group(GroupParams(2, 1, 3)))
        assert not all_reflections_order_two(Group(GroupParams(3, 1, 2)))

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_order_two_flag_matches_products(self, params):
        group = Group(params)
        identity = group.element(group.identity_index)
        expected = all(
            multiply(group.element(t), group.element(t)) == identity
            for t in reflections(group)
        )
        assert all_reflections_order_two(group) == expected

    def test_closed_under_inversion_and_conjugation(self):
        group = Group(GroupParams(3, 1, 2))
        refl = set(reflections(group))
        for t in refl:
            assert int(group.inverse_indices[t]) in refl
        for g in range(group.order):
            conj = conjugation_indices(group, g)
            assert {int(conj[t]) for t in refl} == refl


class TestWordLengths:
    def test_symmetric_group_total(self):
        assert Group(GroupParams(1, 1, 3)).reflection_lengths.sum() == 7

    def test_hyperoctahedral_total(self):
        assert Group(GroupParams(2, 1, 2)).reflection_lengths.sum() == 10

    def test_length_equals_codim_for_p1(self):
        lengths, codims = reflection_length_table(Group(GroupParams(3, 1, 2)))
        assert (lengths == codims).all()

    def test_g422_witness_by_explicit_products(self):
        group = Group(GroupParams(4, 2, 2))
        witness = GroupElement(r=4, exponents=(1, 1), perm=(0, 1))
        assert codim(witness) == 2
        refl = [group.elements[t] for t in reflections(group)]
        products_two = {
            (multiply(a, b).exponents, multiply(a, b).perm)
            for a, b in itertools.product(refl, repeat=2)
        }
        assert (witness.exponents, witness.perm) not in products_two
        products_three = {
            (multiply(multiply(a, b), c).exponents, multiply(multiply(a, b), c).perm)
            for a, b, c in itertools.product(refl, repeat=3)
        }
        assert (witness.exponents, witness.perm) in products_three
        lengths, _ = reflection_length_table(group)
        assert lengths[group.index_of(witness)] == 3

    def test_bfs_marks_unreachable(self):
        group = Group(GroupParams(4, 1, 1))
        half_turn = group.index_of(GroupElement(r=4, exponents=(2,), perm=(0,)))
        lengths = bfs_word_lengths(group, [half_turn])
        assert lengths[group.identity_index] == 0
        assert lengths[half_turn] == 1
        assert (lengths < 0).sum() == 2

    def test_reflection_lengths_read_only(self):
        lengths = Group(GroupParams(4, 2, 2)).reflection_lengths
        with pytest.raises(ValueError):
            lengths[0] = 1

    @pytest.mark.parametrize(
        "params", desk_scale_params() + BEYOND_DESK_SCALE, ids=str
    )
    def test_reflection_lengths_are_bfs_over_reflections(self, params):
        group = Group(params, max_order=params.order)
        expected = bfs_word_lengths(group, reflections(group))
        assert group.reflection_lengths.tolist() == expected.tolist()

    def test_no_bfs_on_the_lengths_path(self, monkeypatch):
        def no_bfs(group, generator_indices):
            raise AssertionError("breadth-first search on the lengths path")

        for module in ("groups", "reflections", "spectra"):
            home = importlib.import_module(f"reflectra.{module}")
            monkeypatch.setattr(home, "bfs_word_lengths", no_bfs)
        group = Group(GroupParams(4, 2, 3))
        assert group.reflection_lengths.max() == 4
        reflection_length_table(group)
        distance_function(group)
        assert bipartite_check(group)

    def test_g424_witness(self):
        group = Group(GroupParams(4, 2, 4))
        witness = GroupElement(r=4, exponents=(1, 1, 0, 0), perm=(0, 1, 2, 3))
        index = group.index_of(witness)
        assert group.codims[index] == 2
        assert group.reflection_lengths[index] == 3

    def test_lengths_logged_once(self, caplog):
        # for p = 1 the cycle types are the conjugacy classes
        group = Group(GroupParams(3, 1, 3))
        # the cycle-type table logs its own record on first use
        group.codims
        with caplog.at_level(logging.DEBUG, logger="reflectra.groups"):
            group.reflection_lengths
            group.reflection_lengths
        records = [r for r in caplog.records if r.name == "reflectra.groups"]
        assert len(records) == 1
        expected = f"|G| = 162, {len(group.conjugacy)} cycle types"
        assert expected in records[0].getMessage()

    @pytest.mark.parametrize(
        "caller",
        [
            lambda g: g.reflection_lengths,
            reflection_length_table,
            distance_function,
            bipartite_check,
        ],
        ids=["property", "table", "distance", "bipartite"],
    )
    def test_unreachable_element_is_inconsistent(self, caller, monkeypatch):
        formula = groups.cycle_type_length

        def below_codim(ctype, r, p):
            return max(formula(ctype, r, p) - 1, 0)

        monkeypatch.setattr(groups, "cycle_type_length", below_codim)
        with pytest.raises(ConsistencyError, match="fail the certificate"):
            caller(Group(GroupParams(3, 1, 2)))

    @pytest.mark.parametrize(
        "shift, message",
        [
            (lambda length: 1 if length == 0 else length,
             "identity length 1, 0 reflection types not of length 1, 0 types"),
            (lambda length: 2 if length == 1 else length,
             r"identity length 0, [1-9]\d* reflection types not of length 1, 0 "),
            (lambda length: length - (length > 1),
             r"identity length 0, 0 reflection types not of length 1, [1-9]"),
        ],
        ids=["identity", "reflections", "below-codim"],
    )
    def test_each_certificate_condition_is_checked(self, shift, message, monkeypatch):
        # each broken formula breaks one condition of the certificate on the
        # cycle types of G(3,1,2) and keeps the other two
        formula = groups.cycle_type_length
        monkeypatch.setattr(
            groups, "cycle_type_length", lambda *args: shift(formula(*args))
        )
        with pytest.raises(ConsistencyError, match=message):
            Group(GroupParams(3, 1, 2)).type_lengths

    def test_lengths_bounded_by_rank_plus_one(self):
        for params in [GroupParams(3, 1, 2), GroupParams(4, 2, 2), GroupParams(3, 3, 3)]:
            lengths, codims = reflection_length_table(Group(params))
            assert lengths.max() <= params.n + 1
            assert (lengths >= codims).all()


class TestDegrees:
    @pytest.mark.parametrize("params", desk_scale_params(max_order=200))
    def test_product_is_group_order(self, params):
        product = 1
        for d in degree_data(params):
            product *= d
        assert product == params.order

    def test_g422_degrees(self):
        assert degree_data(GroupParams(4, 2, 2)) == (4, 4)

    def test_g313_degrees(self):
        assert degree_data(GroupParams(3, 1, 3)) == (3, 6, 9)

    @pytest.mark.parametrize("params", desk_scale_params(max_order=200))
    def test_codim_generating_function(self, params):
        group = Group(params)
        counts = Counter(codim(x) for x in group.elements)
        coefficients = [1]
        for m in (d - 1 for d in degree_data(params)):
            coefficients = [
                c + m * (coefficients[k - 1] if k else 0)
                for k, c in enumerate(coefficients)
            ] + [m * coefficients[-1]]
        assert counts == {
            k: c for k, c in enumerate(coefficients) if c
        }


class TestMomentFormulas:
    def test_xi1_examples(self):
        assert xi1_closed_form(GroupParams(2, 1, 2)) == 10
        assert xi1_closed_form(GroupParams(3, 1, 3)) == 387

    def test_eta1_examples(self):
        assert eta1_closed_form(GroupParams(2, 1, 2)) == 10
        assert eta1_closed_form(GroupParams(6, 1, 2)) == 126

    @pytest.mark.parametrize("params", desk_scale_params(max_order=100))
    def test_xi1_equals_codim_sum(self, params):
        _, codims = reflection_length_table(Group(params))
        assert xi1_closed_form(params) == int(codims.sum())
