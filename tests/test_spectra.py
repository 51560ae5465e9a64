"""Group matrices, the eigensolver, and the two spectrum routes.

Independent oracles: the class-algebra route for the numeric route (and the
other way round), counting identities for class-sum structure constants, and
the trace and Frobenius moment identities for whole spectra.
"""

import numpy as np
import pytest

from reflectra.errors import (
    ConnectivityError,
    ParameterError,
    SizeLimitError,
)
from reflectra.groups import Group, GroupElement, GroupParams
from reflectra.reflections import reflections
from reflectra.spectra import (
    ClassFunction,
    _cluster,
    adjacency_function,
    adjacency_matrix,
    all_reflections_connection,
    bipartite_check,
    build_matrix,
    class_algebra_data,
    class_structure_constants,
    codimension_function,
    connection_set,
    distance_function,
    distance_matrix_bfs,
    jacobi_eigenvalues,
    matrix_from_element_values,
    spectral_radius_check,
    spectrum_class_algebra,
    spectrum_numeric,
    standard_connection,
)


class TestJacobi:
    def test_diagonal_fast_path(self):
        assert jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])).tolist() == [-1.0, 2.0, 3.0]

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            jacobi_eigenvalues(np.zeros((2, 3)))

    def test_one_by_one(self):
        assert jacobi_eigenvalues(np.array([[4.0]])).tolist() == [4.0]


class TestClassFunction:
    def test_rejects_non_class_function(self):
        group = Group(GroupParams(3, 1, 2))
        values = np.zeros(group.order, dtype=np.int64)
        target = next(
            members[0] for members in group.conjugacy.members if len(members) > 1
        )
        values[target] = 1
        with pytest.raises(ParameterError):
            ClassFunction.from_element_values(group, values, "broken")

    def test_rejects_wrong_length(self):
        group = Group(GroupParams(3, 1, 2))
        with pytest.raises(ParameterError):
            ClassFunction.from_element_values(group, [0, 1], "short")

    def test_roundtrip_through_classes(self):
        group = Group(GroupParams(4, 2, 2))
        f = codimension_function(group)
        values = f.element_values(group)
        for i, x in enumerate(group.elements):
            assert values[i] == group.conjugacy.class_of[i] >= 0
            break
        rebuilt = ClassFunction.from_element_values(group, values, f.kind)
        assert rebuilt == f


class TestConnectionSets:
    def test_rejects_identity(self):
        group = Group(GroupParams(3, 1, 2))
        with pytest.raises(ParameterError):
            connection_set(group, [group.identity_index], "bad")

    def test_rejects_inversion_asymmetry(self):
        group = Group(GroupParams(4, 1, 1))
        zeta = group.index_of(GroupElement(r=4, exponents=(1,), perm=(0,)))
        with pytest.raises(ParameterError):
            connection_set(group, [zeta], "half")

    def test_all_reflections(self):
        group = Group(GroupParams(3, 1, 2))
        conn = all_reflections_connection(group)
        assert conn.indices == reflections(group)

    def test_standard_contains_generator_inverses(self):
        group = Group(GroupParams(3, 1, 2))
        conn = standard_connection(group)
        for i in conn.indices:
            assert int(group.inverse_indices[i]) in conn.indices


class TestMatrices:
    def test_complete_graph(self):
        group = Group(GroupParams(5, 1, 1))
        conn = connection_set(group, range(1, 5), "complete")
        adjacency = adjacency_matrix(group, conn)
        expected = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
        assert np.array_equal(adjacency.entries, expected)
        distance = distance_matrix_bfs(group, conn)
        assert np.array_equal(distance.entries, expected)
        spectrum = spectrum_numeric(adjacency)
        assert spectrum.entries == ((4, 1), (-1, 4))

    @pytest.mark.parametrize("r,p,n", [(2, 1, 2), (3, 1, 2), (4, 2, 2)])
    def test_distance_bfs_equals_class_function_matrix(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        via_bfs = distance_matrix_bfs(group, all_reflections_connection(group))
        via_class_function = build_matrix(group, distance_function(group))
        assert np.array_equal(via_bfs.entries, via_class_function.entries)

    def test_group_matrix_row_column_structure(self):
        group = Group(GroupParams(3, 1, 2))
        f = codimension_function(group)
        matrix = build_matrix(group, f)
        values = f.element_values(group)
        for i in (0, 3, 7):
            for j in (0, 5, 11):
                x = group.elements[i]
                y = group.elements[j]
                product = x * y.inverse()
                assert matrix.entries[i, j] == values[group.index_of(product)]

    def test_matrix_cap(self):
        group = Group(GroupParams(3, 1, 2))
        with pytest.raises(SizeLimitError) as excinfo:
            build_matrix(group, codimension_function(group), max_size=10)
        assert "class-algebra" in str(excinfo.value)

    def test_non_generating_connection(self):
        group = Group(GroupParams(4, 1, 1))
        half_turn = group.index_of(GroupElement(r=4, exponents=(2,), perm=(0,)))
        conn = connection_set(group, [half_turn], "subgroup")
        with pytest.raises(ConnectivityError):
            distance_matrix_bfs(group, conn)


class TestSpectrumNumeric:
    def test_pinned_distance_g312(self):
        group = Group(GroupParams(3, 1, 2))
        spectrum = spectrum_numeric(build_matrix(group, distance_function(group)))
        assert spectrum.entries == ((27, 1), (3, 2), (0, 4), (-3, 11))
        assert spectrum.integral
        assert spectrum.raw is None
        assert spectrum.max_residual < 1e-8
        assert spectrum.total_multiplicity() == group.order

    def test_rejects_asymmetric(self):
        group = Group(GroupParams(3, 1, 2))
        values = np.arange(group.order, dtype=np.int64)
        matrix = matrix_from_element_values(group, values, "index")
        with pytest.raises(ParameterError):
            spectrum_numeric(matrix)

    def test_rejects_bad_tolerance(self):
        group = Group(GroupParams(2, 1, 2))
        matrix = build_matrix(group, adjacency_function(group))
        with pytest.raises(ParameterError):
            spectrum_numeric(matrix, tolerance=0)

    def test_non_integral_flagging(self):
        group = Group(GroupParams(3, 1, 2))
        matrix = distance_matrix_bfs(group, standard_connection(group))
        spectrum = spectrum_numeric(matrix)
        assert not spectrum.integral
        assert spectrum.raw is not None
        assert len(spectrum.raw) == group.order
        assert spectrum.total_multiplicity() == group.order
        assert any(abs(x - round(x)) > 1e-3 for x in spectrum.raw)

    def test_cluster_widths(self):
        clusters = _cluster(np.array([1.0, 1.0 + 5e-7, 5.0]))
        assert [len(c) for c in clusters] == [2, 1]
        clusters = _cluster(np.array([1.0, 1.0 + 5e-6, 5.0]))
        assert [len(c) for c in clusters] == [1, 1, 1]


class TestStructureConstants:
    def test_identity_class_row(self):
        group = Group(GroupParams(3, 1, 2))
        a = class_structure_constants(group)
        identity_class = int(group.conjugacy.class_of[group.identity_index])
        k = a.shape[0]
        assert np.array_equal(a[identity_class], np.eye(k, dtype=np.int64))

    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2)])
    def test_pair_counting(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        a = class_structure_constants(group)
        sizes = np.array(group.conjugacy.sizes, dtype=np.int64)
        k = len(sizes)
        for i in range(k):
            for j in range(k):
                assert int((a[i, j] * sizes).sum()) == sizes[i] * sizes[j]

    def test_class_sum_matrices_commute(self):
        group = Group(GroupParams(3, 1, 2))
        a = class_structure_constants(group)
        k = a.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert np.array_equal(a[i] @ a[j], a[j] @ a[i])


class TestClassAlgebraRoute:
    def test_degrees_g312(self):
        group = Group(GroupParams(3, 1, 2))
        data = class_algebra_data(group)
        assert sorted(data.degrees) == [1, 1, 1, 1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize(
        "r,p,n",
        [(3, 1, 2), (2, 1, 3), (4, 2, 2), (3, 1, 3), (4, 2, 3), (3, 3, 3), (4, 4, 3)],
    )
    @pytest.mark.parametrize("kind", ["adjacency", "distance", "codimension"])
    def test_agrees_with_numeric(self, r, p, n, kind):
        group = Group(GroupParams(r, p, n))
        builder = {
            "adjacency": adjacency_function,
            "distance": distance_function,
            "codimension": codimension_function,
        }[kind]
        f = builder(group)
        algebraic = spectrum_class_algebra(group, f)
        numeric = spectrum_numeric(build_matrix(group, f))
        assert algebraic.integral and numeric.integral
        assert algebraic.entries == numeric.entries
        assert algebraic.method == "class-algebra"

    def test_pinned_codimension_g213(self):
        group = Group(GroupParams(2, 1, 3))
        spectrum = spectrum_class_algebra(group, codimension_function(group))
        assert spectrum.entries == ((100, 1), (4, 14), (0, 9), (-4, 9), (-8, 15))

    @pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (2, 1, 3)])
    @pytest.mark.parametrize("kind", ["distance", "codimension"])
    def test_moment_identities(self, r, p, n, kind):
        group = Group(GroupParams(r, p, n))
        builder = {"distance": distance_function, "codimension": codimension_function}[kind]
        f = builder(group)
        spectrum = spectrum_class_algebra(group, f)
        classes = group.conjugacy
        identity_class = int(classes.class_of[group.identity_index])
        trace = sum(value * mult for value, mult in spectrum.entries)
        assert trace == group.order * f.values[identity_class]
        reps = np.array(classes.representatives)
        inverse_class = classes.class_of[group.inverse_indices[reps]]
        frobenius = sum(
            classes.sizes[c] * f.values[c] * f.values[int(inverse_class[c])]
            for c in range(len(classes))
        )
        second_moment = sum(value**2 * mult for value, mult in spectrum.entries)
        assert second_moment == group.order * frobenius


class TestSpectralRadius:
    def test_adjacency_radius_is_reflection_count(self):
        group = Group(GroupParams(5, 5, 2))
        f = adjacency_function(group)
        spectrum = spectrum_numeric(build_matrix(group, f))
        assert spectrum.entries[0] == (5, 1)
        assert spectral_radius_check(group, f, spectrum)

    def test_distance_radius_is_length_sum(self):
        group = Group(GroupParams(3, 1, 2))
        f = distance_function(group)
        spectrum = spectrum_numeric(build_matrix(group, f))
        assert spectrum.entries[0] == (27, 1)
        assert spectral_radius_check(group, f, spectrum)

    def test_zero_function_skips_strictness(self):
        group = Group(GroupParams(1, 1, 1))
        f = adjacency_function(group)
        spectrum = spectrum_numeric(build_matrix(group, f))
        assert spectrum.entries == ((0, 1),)
        assert spectral_radius_check(group, f, spectrum)

    def test_mismatch_returns_false(self):
        group = Group(GroupParams(3, 1, 2))
        adjacency = adjacency_function(group)
        distance_spectrum = spectrum_numeric(
            build_matrix(group, distance_function(group))
        )
        assert not spectral_radius_check(group, adjacency, distance_spectrum)

    def test_rejects_negative_function(self):
        group = Group(GroupParams(2, 1, 2))
        f = ClassFunction(
            kind="signed",
            values=tuple(-1 for _ in range(len(group.conjugacy))),
        )
        spectrum = spectrum_numeric(build_matrix(group, adjacency_function(group)))
        with pytest.raises(ParameterError):
            spectral_radius_check(group, f, spectrum)


class TestBipartite:
    def test_real_rank_two_cases(self):
        assert bipartite_check(Group(GroupParams(2, 1, 2)))
        assert bipartite_check(Group(GroupParams(5, 5, 2)))

    def test_complete_graph_case(self):
        assert not bipartite_check(Group(GroupParams(3, 1, 1)))

    def test_g422(self):
        assert bipartite_check(Group(GroupParams(4, 2, 2)))

    def test_g333_is_bipartite(self):
        # No exponent vector with a single nonzero entry sums to 0 mod 3, so
        # G(3,3,3) has no diagonal reflections; all nine reflections are
        # order-2 transposition types and permutation parity 2-colors the
        # Cayley graph.  All three bipartiteness tests agree on True.
        group = Group(GroupParams(3, 3, 3))
        refl = reflections(group)
        assert len(refl) == 9
        for t in refl:
            x = group.elements[t]
            assert (x * x).is_identity()
        assert bipartite_check(group)

    def test_spectrum_symmetry_matches(self):
        group = Group(GroupParams(2, 2, 3))
        spectrum = spectrum_numeric(build_matrix(group, adjacency_function(group)))
        eigs = spectrum.as_dict()
        assert all(eigs.get(-value) == mult for value, mult in eigs.items())
        assert bipartite_check(group, spectrum)
