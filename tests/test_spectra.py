"""Group matrices, the eigensolver, and the two spectrum routes.

Independent oracles: the class-algebra route for the numeric route (and the
other way round), counting identities for class-sum structure constants, the
full structure-constant tensor for the class-sum matrices and central
characters, and the trace and Frobenius moment identities for whole spectra.
"""

import dataclasses
import logging
import re
from math import gcd

import numpy as np
import pytest

from reflectra import spectra
from reflectra.errors import (
    ConnectivityError,
    NumericError,
    ParameterError,
    SizeLimitError,
)
from reflectra.groups import (
    Group,
    GroupElement,
    GroupParams,
    bfs_word_lengths,
    multiply,
)
from reflectra.partitions import codim_spectrum_combinatorial, partition_counts
from reflectra.reflections import codim, reflections
from reflectra.spectra import (
    KINDS,
    _class_sum_order,
    _certify,
    _cluster,
    _eigenvalue_gap,
    _scalar_orbits,
    _separate_characters,
    _round_spectrum,
    adjacency_function,
    adjacency_matrix,
    all_reflections_connection,
    bipartite_check,
    build_matrix,
    character_degrees,
    class_algebra_data,
    class_function,
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
from reflectra.verify import desk_scale_params, tensor_central_characters

from oracles import (
    character_degrees_by_rows,
    class_members,
    class_function_from_element_values,
    matrix_by_columns,
)


class TestJacobi:
    def test_diagonal_fast_path(self):
        assert jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])).tolist() == [-1.0, 2.0, 3.0]

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            jacobi_eigenvalues(np.zeros((2, 3)))

    def test_one_by_one(self):
        assert jacobi_eigenvalues(np.array([[4.0]])).tolist() == [4.0]


class TestPerClassValues:
    def test_kind_table(self):
        group = Group(GroupParams(4, 2, 2))
        builders = {
            "adjacency": adjacency_function,
            "distance": distance_function,
            "codimension": codimension_function,
        }
        for kind, builder in builders.items():
            values = class_function(group, kind)
            assert values.dtype == np.int64
            assert values.shape == (len(group.conjugacy),)
            assert np.array_equal(values, builder(group))
        with pytest.raises(ParameterError, match="unknown kind"):
            class_function(group, "laplacian")

    @pytest.mark.parametrize("count", [0, 2, 7])
    def test_caller_values_need_one_per_class(self, count):
        group = Group(GroupParams(3, 1, 2))
        k = len(group.conjugacy)
        values = [0] * count
        message = f"class function has {count} values, group has {k} classes"
        for call in (
            lambda: build_matrix(group, values),
            lambda: spectrum_class_algebra(group, values),
            lambda: spectral_radius_check(
                group, values, spectrum_numeric(np.zeros((1, 1)))
            ),
        ):
            with pytest.raises(ParameterError, match=f"^{message}$"):
                call()

    def test_rejects_non_class_function(self):
        group = Group(GroupParams(3, 1, 2))
        values = np.zeros(group.order, dtype=np.int64)
        target = next(
            members[0] for members in class_members(group) if len(members) > 1
        )
        values[target] = 1
        with pytest.raises(ParameterError):
            class_function_from_element_values(group, values)

    def test_error_names_first_non_constant_class(self):
        group = Group(GroupParams(3, 1, 2))
        members = class_members(group)
        big = [c for c, m in enumerate(members) if len(m) > 1]
        values = np.zeros(group.order, dtype=np.int64)
        values[members[big[-1]][0]] = 1
        values[members[big[1]][-1]] = 2
        with pytest.raises(ParameterError, match=f"conjugacy class {big[1]}$"):
            class_function_from_element_values(group, values)

    def test_rejects_wrong_length(self):
        group = Group(GroupParams(3, 1, 2))
        with pytest.raises(ParameterError):
            class_function_from_element_values(group, [0, 1])

    def test_roundtrip_through_classes(self):
        group = Group(GroupParams(4, 2, 2))
        f = codimension_function(group)
        values = f[group.conjugacy.class_of]
        assert values[0] == group.conjugacy.class_of[0] == 0
        rebuilt = class_function_from_element_values(group, values)
        assert np.array_equal(rebuilt, f)

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_per_class_values_match_the_constancy_oracle(self, params):
        # each kind reads one value per class through the cycle types; the
        # oracle checks element values found independently on every class:
        # codimensions one element at a time, lengths by BFS
        group = Group(params)
        codims = np.array([codim(x) for x in group.elements])
        element_values = {
            "adjacency": (codims == 1).astype(np.int64),
            "distance": bfs_word_lengths(group, reflections(group)),
            "codimension": codims,
        }
        for kind in KINDS:
            expected = class_function_from_element_values(group, element_values[kind])
            assert np.array_equal(class_function(group, kind), expected)


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


def _matrix_builders(group: Group) -> dict:
    """Each dense matrix builder on the group."""
    f = codimension_function(group)
    conn = all_reflections_connection(group)
    return {
        "build": lambda: build_matrix(group, f),
        "values": lambda: matrix_from_element_values(group, group.codims),
        "adjacency": lambda: adjacency_matrix(group, conn),
        "distance": lambda: distance_matrix_bfs(group, conn),
    }


class TestMatrices:
    def test_complete_graph(self):
        group = Group(GroupParams(5, 1, 1))
        conn = connection_set(group, range(1, 5), "complete")
        adjacency = adjacency_matrix(group, conn)
        expected = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
        assert np.array_equal(adjacency, expected)
        assert np.array_equal(distance_matrix_bfs(group, conn), expected)
        spectrum = spectrum_numeric(adjacency)
        assert spectrum.entries == ((4, 1), (-1, 4))

    @pytest.mark.parametrize("r,p,n", [(2, 1, 2), (3, 1, 2), (4, 2, 2)])
    def test_distance_bfs_equals_class_function_matrix(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        via_bfs = distance_matrix_bfs(group, all_reflections_connection(group))
        via_class_function = build_matrix(group, distance_function(group))
        assert np.array_equal(via_bfs, via_class_function)

    def test_group_matrix_row_column_structure(self):
        group = Group(GroupParams(3, 1, 2))
        f = codimension_function(group)
        matrix = build_matrix(group, f)
        values = f[group.conjugacy.class_of]
        for i in (0, 3, 7):
            for j in (0, 5, 11):
                x = group.elements[i]
                y = group.elements[j]
                product = multiply(x, y.inverse())
                assert matrix[i, j] == values[group.index_of(product)]

    def test_matrix_cap(self, monkeypatch):
        group = Group(GroupParams(3, 1, 2))
        monkeypatch.setattr(spectra, "DEFAULT_MATRIX_CAP", 10)
        with pytest.raises(SizeLimitError) as excinfo:
            build_matrix(group, codimension_function(group))
        assert "class-algebra" in str(excinfo.value)

    @pytest.mark.parametrize(
        "builder", ["build", "values", "adjacency", "distance"]
    )
    def test_over_cap_rejected_before_any_table(self, builder, monkeypatch):
        def no_work(*args):
            raise AssertionError("a table was built before the cap was checked")

        group = Group(GroupParams(3, 1, 2))
        calls = _matrix_builders(group)
        monkeypatch.setattr(spectra, "DEFAULT_MATRIX_CAP", group.order - 1)
        monkeypatch.setattr(spectra, "bfs_word_lengths", no_work)
        monkeypatch.setattr(spectra, "class_structure_constants", no_work)
        monkeypatch.setattr(Group, "quotient_row_chunks", no_work)
        with pytest.raises(SizeLimitError, match="exceeds the dense matrix cap"):
            calls[builder]()

    def test_non_generating_connection(self):
        group = Group(GroupParams(4, 1, 1))
        half_turn = group.index_of(GroupElement(r=4, exponents=(2,), perm=(0,)))
        conn = connection_set(group, [half_turn], "subgroup")
        with pytest.raises(ConnectivityError):
            distance_matrix_bfs(group, conn)


# the desk-scale groups (n = 1 among them: one permutation, one chunk),
# G(1,1,6): one exponent row, 720 permutations in chunks that do not divide
# 720, and G(1200,1,1): one permutation whose 1200 rows are split in chunks
BLOCK_GROUPS = desk_scale_params() + (GroupParams(1, 1, 6), GroupParams(1200, 1, 1))


class TestBlockBuild:
    """matrix_from_element_values builds its rows a chunk at a time; every
    matrix must equal the per-column build."""

    @pytest.mark.parametrize("params", BLOCK_GROUPS, ids=str)
    def test_every_kind_and_non_class_values_match_the_column_build(self, params):
        group = Group(params)
        for kind in KINDS:
            f = class_function(group, kind)
            expected = matrix_by_columns(group, f[group.conjugacy.class_of])
            assert np.array_equal(build_matrix(group, f), expected), kind
        values = np.arange(group.order)
        built = matrix_from_element_values(group, values)
        assert built.dtype == np.int64
        assert np.array_equal(built, matrix_by_columns(group, values))

    @pytest.mark.parametrize("params", BLOCK_GROUPS, ids=str)
    def test_standard_set_distance_matches_the_column_build(self, params):
        group = Group(params)
        conn = standard_connection(group)
        lengths = bfs_word_lengths(group, conn.indices)
        built = distance_matrix_bfs(group, conn)
        assert np.array_equal(built, matrix_by_columns(group, lengths))

    @pytest.mark.parametrize(
        "r,n,rows,longest",
        [(2, 4, 1, 1), (2, 4, 5, 5), (2, 4, 16, 16), (2, 4, 20, 16),
         (2, 4, 80, 80), (2, 4, 112, 112), (2, 4, 384, 384),
         (24, 1, 5, 5), (24, 1, 24, 24)],
    )
    def test_chunks_cover_the_rows_in_order(self, r, n, rows, longest, monkeypatch):
        # G(2,1,4): 24 permutations of 16 rows each.  Room for 5 rows splits
        # each permutation 5 + 5 + 5 + 1, for 20 rows holds one permutation,
        # for 80 and 112 rows (5 and 7 permutations) leaves a short last
        # chunk; G(24,1,1) is one permutation of 24 rows
        group = Group(GroupParams(r, 1, n))
        monkeypatch.setattr(spectra, "_CHUNK_ENTRIES", rows * group.order)
        seen = []
        original = Group.quotient_row_chunks

        def recording(self, max_entries):
            for chunk, table in original(self, max_entries):
                seen.append((chunk.start, chunk.stop))
                yield chunk, table

        monkeypatch.setattr(Group, "quotient_row_chunks", recording)
        values = np.arange(group.order)
        built = matrix_from_element_values(group, values)
        assert np.array_equal(built, matrix_by_columns(group, values))
        starts, stops = zip(*seen)
        assert starts == (0,) + stops[:-1] and stops[-1] == group.order
        assert max(stop - start for start, stop in seen) == longest


class TestSpectrumNumeric:
    def test_pinned_distance_g312(self):
        group = Group(GroupParams(3, 1, 2))
        spectrum = spectrum_numeric(build_matrix(group, distance_function(group)))
        assert spectrum.entries == ((27, 1), (3, 2), (0, 4), (-3, 11))
        assert spectrum.integral
        assert spectrum.raw is None
        assert spectrum.max_residual < 1e-8
        assert sum(m for _, m in spectrum.entries) == group.order

    def test_rejects_asymmetric(self):
        group = Group(GroupParams(3, 1, 2))
        values = np.arange(group.order, dtype=np.int64)
        matrix = matrix_from_element_values(group, values)
        with pytest.raises(ParameterError, match="not symmetric"):
            spectrum_numeric(matrix)

    def test_rejects_bad_tolerance(self):
        group = Group(GroupParams(2, 1, 2))
        matrix = build_matrix(group, adjacency_function(group))
        with pytest.raises(ParameterError):
            spectrum_numeric(matrix, tolerance=0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        # nan would make every residual comparison False and report any
        # spectrum as integral; inf would accept any residual.
        group = Group(GroupParams(2, 1, 2))
        f = adjacency_function(group)
        with pytest.raises(ParameterError):
            spectrum_numeric(build_matrix(group, f), tolerance=tolerance)
        with pytest.raises(ParameterError):
            spectrum_class_algebra(group, f, tolerance=tolerance)

    def test_non_integral_flagging(self):
        group = Group(GroupParams(3, 1, 2))
        matrix = distance_matrix_bfs(group, standard_connection(group))
        spectrum = spectrum_numeric(matrix)
        assert not spectrum.integral
        assert spectrum.raw is not None
        assert len(spectrum.raw) == group.order
        assert sum(m for _, m in spectrum.entries) == group.order
        assert any(abs(x - round(x)) > 1e-3 for x in spectrum.raw)

    def test_cluster_widths(self):
        clusters = _cluster(np.array([1.0, 1.0 + 5e-7, 5.0]))
        assert [len(c) for c in clusters] == [2, 1]
        clusters = _cluster(np.array([1.0, 1.0 + 5e-6, 5.0]))
        assert [len(c) for c in clusters] == [1, 1, 1]


def _expanded_rounding(raw, threshold):
    """The rounding rule applied to the fully expanded eigenvalue list: one
    list entry per eigenvalue, clustered and rounded in Python."""
    clusters: list[list[float]] = []
    for value in np.sort(raw):
        if clusters and value - clusters[-1][-1] <= 1e-6:
            clusters[-1].append(float(value))
        else:
            clusters.append([float(value)])
    max_residual = 0.0
    integral = True
    rounded: dict[int, int] = {}
    for cluster in clusters:
        nearest = round(sum(cluster) / len(cluster))
        residual = max(abs(x - nearest) for x in cluster)
        max_residual = max(max_residual, residual)
        integral = integral and residual <= threshold
        rounded[nearest] = rounded.get(nearest, 0) + len(cluster)
    if integral:
        return tuple(sorted(rounded.items(), reverse=True)), max_residual, True, None
    means = sorted(((sum(c) / len(c), len(c)) for c in clusters), reverse=True)
    return tuple(means), max_residual, False, tuple(float(x) for x in np.sort(raw))


class TestWeightedRounding:
    """Rounding k weighted values must agree with rounding the |G|-long list
    in which each value is repeated by its weight."""

    def _compare(self, values, weights, threshold):
        got = _round_spectrum(values, weights, threshold, "test")
        entries, max_residual, integral, raw = _expanded_rounding(
            np.repeat(values, weights), threshold
        )
        assert got.integral is integral
        assert got.max_residual == max_residual
        assert got.raw == raw
        assert [m for _, m in got.entries] == [m for _, m in entries]
        if integral:
            assert got.entries == entries
        else:
            # a weighted mean sums in a different order than the repeated
            # list, so cluster means may differ in the last few bits
            np.testing.assert_allclose(
                [e for e, _ in got.entries], [e for e, _ in entries],
                rtol=1e-12, atol=1e-12,
            )
        return got

    def test_integral_class_algebra_values(self):
        group = Group(GroupParams(3, 1, 3))
        data = class_algebra_data(group)
        thetas = data.central_characters @ distance_function(group).astype(np.float64)
        weights = [d * d for d in data.degrees]
        got = self._compare(thetas.real, weights, 1e-8 * np.abs(thetas).max())
        assert got.integral and sum(m for _, m in got.entries) == group.order

    def test_non_integral_values(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.normal(0.0, 5.0, size=12),
            [3.0, 3.0 + 4e-7, 3.0 + 7e-7, -2.0, -2.0 + 1e-11],
        ])
        weights = rng.integers(1, 40, size=values.size).tolist()
        got = self._compare(values, weights, 1e-8)
        assert not got.integral
        assert len(got.raw) == sum(weights)


CHECKED_GROUPS = [(3, 3, 3), (4, 2, 3), (6, 1, 3)]


def head_columns(group, classes):
    """The class sums of the given classes at the heads of the z-orbits,
    the columns that _certify reads."""
    heads = _scalar_orbits(group).heads
    return [group.class_sum_matrix(c, heads) for c in classes]


def blocks_of_rows(group, omegas):
    """The block t of each row: the eps_t = e^(2 pi i t / h) nearest the
    row's value at the class of z."""
    h = len(_scalar_orbits(group).phases)
    angles = np.angle(omegas[:, group.scalar_shift[0]])
    return np.rint(angles * h / (2 * np.pi)).astype(np.int64) % h


def certificate_figures(error):
    """(value, bound) of the shift residual, the eigenvector residual and
    the smallest gap in a certificate failure."""
    number = r"(\S+) \(bound (\S+)\)"
    message = str(error.value)
    return {
        name: tuple(float(x) for x in re.search(f"{name} {number}", message).groups())
        for name in ("shift residual", "eigenvector residual", "smallest gap")
    }


class TestCharacterChecks:
    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    def test_every_perturbed_entry_fails_the_certificate(self, r, p, n):
        # +1e-3 on one entry of a middle row breaks the shift relation
        # unless the entry is a head of the row's block fixed by z; there
        # only the block residual can see it
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        omegas, kept = data.central_characters, list(data.class_sums)
        columns = head_columns(group, kept)
        orbits = _scalar_orbits(group)
        _certify(group, orbits, omegas, kept, columns)
        row = omegas.shape[0] // 2
        block = orbits.blocks[blocks_of_rows(group, omegas)[row]]
        fixed = set(orbits.heads[block[orbits.lengths[block] == 1]].tolist())
        for column in range(omegas.shape[1]):
            perturbed = omegas.copy()
            perturbed[row, column] += 1e-3
            with pytest.raises(NumericError) as caught:
                _certify(group, orbits, perturbed, kept, columns)
            failed = "eigenvector residual" if column in fixed else "shift residual"
            value, bound = certificate_figures(caught)[failed]
            assert value > bound

    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    def test_one_perturbed_entry_fails_the_certificate(self, r, p, n):
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        kept = list(data.class_sums)
        columns = head_columns(group, kept)
        omegas = data.central_characters
        row = len(omegas) // 2
        perturbed = omegas.copy()
        perturbed[row, -1] += 1e-3
        with pytest.raises(NumericError):
            _certify(group, _scalar_orbits(group), perturbed, kept, columns)
        # +1e-3 eps^i on each class z^i of the identity's orbit keeps the
        # shift relation, so the block residual alone must see it
        t = blocks_of_rows(group, omegas)[row]
        orbits = _scalar_orbits(group)
        on_orbit = orbits.orbit_of == 0
        perturbed = omegas.copy()
        perturbed[row, on_orbit] += 1e-3 * orbits.phases[t, orbits.offset[on_orbit]]
        with pytest.raises(NumericError) as caught:
            _certify(group, _scalar_orbits(group), perturbed, kept, columns)
        figures = certificate_figures(caught)
        assert figures["shift residual"][0] <= figures["shift residual"][1]
        assert figures["eigenvector residual"][0] > figures["eigenvector residual"][1]

    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    @pytest.mark.parametrize("factor", [2.0, 1.001, 1.0 + 1e-5])
    def test_one_scaled_row_fails_the_degree_or_orthogonality_check(
        self, r, p, n, factor
    ):
        group = Group(GroupParams(r, p, n))
        omegas = class_algebra_data(group).central_characters
        character_degrees(group, omegas)
        scaled = omegas.copy()
        scaled[omegas.shape[0] // 2] *= factor
        with pytest.raises(NumericError, match="degree|orthogonality"):
            character_degrees(group, scaled)

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_degrees_match_the_row_by_row_reference(self, params):
        group = Group(params)
        omegas = class_algebra_data(group).central_characters
        degrees, _ = character_degrees(group, omegas)
        assert list(degrees) == character_degrees_by_rows(group, omegas)

    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    @pytest.mark.parametrize(
        "edits",
        [[(1, 0.0)], [(1, 1j)], [(1, 1.001)], [(1, 1.001), (2, 0.0)],
         [(1, 0.0), (2, 1.001)]],
        ids=["zero", "rotated", "scaled", "scaled-then-zero", "zero-then-scaled"],
    )
    def test_the_first_bad_row_raises_as_in_the_row_by_row_reference(
        self, r, p, n, edits
    ):
        # a zero or rotated row (norm times -1) has no positive norm, a
        # scaled row no square degree; the first bad row names the error
        group = Group(GroupParams(r, p, n))
        omegas = class_algebra_data(group).central_characters.copy()
        for row, factor in edits:
            omegas[row] *= factor
        with pytest.raises(NumericError) as expected:
            character_degrees_by_rows(group, omegas)
        with pytest.raises(NumericError) as got:
            character_degrees(group, omegas)
        number = r"-?[\d.]+(?:e[-+]\d+)?"
        assert re.sub(number, "#", str(got.value)) == re.sub(
            number, "#", str(expected.value)
        )
        got_numbers = [float(x) for x in re.findall(number, str(got.value))]
        expected_numbers = [float(x) for x in re.findall(number, str(expected.value))]
        assert got_numbers == pytest.approx(expected_numbers, rel=1e-12)

    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    def test_a_repeated_character_fails_orthogonality(self, r, p, n):
        # two characters of equal degree: repeating one keeps every degree
        # and the sum of squares, so only orthogonality can notice on the
        # k-wide reference; the certificate sees the copy sooner, by the
        # shift relation if the copy sits in another block, by the gap if not
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        degrees = np.array(data.degrees)
        first, second = np.flatnonzero(degrees == degrees[-1])[:2]
        repeated = data.central_characters.copy()
        repeated[second] = repeated[first]
        with pytest.raises(NumericError, match="orthogonality"):
            character_degrees(group, repeated)
        kept = list(data.class_sums)
        with pytest.raises(NumericError, match="fail the certificate"):
            _certify(
                group, _scalar_orbits(group), repeated, kept, head_columns(group, kept)
            )

    @pytest.mark.parametrize(
        "params",
        [*desk_scale_params(), GroupParams(6, 1, 3), GroupParams(6, 2, 4)],
        ids=str,
    )
    def test_the_certificate_matches_the_k_wide_reference(self, params):
        # on rows with the shift relation each orbit adds L_o times its
        # head's term to a norm and a Gram entry, and the Gram entries
        # across blocks are 0, so the heads and the blocks give the degrees
        # and the orthogonality error of every class and every row
        group = Group(params)
        data = class_algebra_data(group)
        kept = list(data.class_sums)
        degrees, _, error = _certify(
            group, _scalar_orbits(group), data.central_characters, kept,
            head_columns(group, kept),
        )
        whole_degrees, whole = character_degrees(group, data.central_characters)
        assert degrees == whole_degrees == data.degrees
        assert error == pytest.approx(whole, abs=1e-12)

    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_rows_sit_in_their_blocks(self, params):
        # _certify reads block t as the next len(orbits.blocks[t]) rows, so
        # omega(z) = eps_t omega(1) = eps_t on each of them, and two rows of
        # different blocks swapped break the shift relation
        group = Group(params)
        data = class_algebra_data(group)
        omegas, kept = data.central_characters, list(data.class_sums)
        orbits = _scalar_orbits(group)
        h = len(orbits.phases)
        counts = [len(block) for block in orbits.blocks]
        eps = np.exp(2j * np.pi / h * np.repeat(np.arange(h), counts))
        np.testing.assert_allclose(
            omegas[:, group.scalar_shift[0]], eps, rtol=0, atol=1e-12
        )
        if h == 1:
            return
        swapped = omegas.copy()
        swapped[[counts[0] - 1, counts[0]]] = omegas[[counts[0], counts[0] - 1]]
        with pytest.raises(NumericError) as caught:
            _certify(group, orbits, swapped, kept, head_columns(group, kept))
        value, bound = certificate_figures(caught)["shift residual"]
        assert value > bound

    @pytest.mark.parametrize("r,p,n", CHECKED_GROUPS)
    def test_degrees_on_the_wrong_rows_fail_orthogonality(self, r, p, n, monkeypatch):
        # the degrees reversed keep the sum of squares, and the rows pass
        # the certificate, so only the blockwise Gram matrix can notice
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        kept = list(data.class_sums)
        assert data.degrees != data.degrees[::-1]
        degrees = spectra._degrees
        monkeypatch.setattr(
            spectra, "_degrees", lambda group, norms: degrees(group, norms)[::-1]
        )
        with pytest.raises(NumericError, match="orthogonality"):
            _certify(
                group, _scalar_orbits(group), data.central_characters, kept,
                head_columns(group, kept),
            )


class TestSeparation:
    def test_all_pairs_gap_sees_repeats_that_neighbours_miss(self):
        # On G(8,4,2) (h = 4) four characters vanish on the first three kept
        # class sums and take +-1.414i, each twice, on the fourth.  The
        # characters of a repeated pair lie in the blocks of i and -i, so
        # no kept class sum, nor all of them, separates every row: only
        # their joint values with the class of z do.
        group = Group(GroupParams(8, 4, 2))
        data = class_algebra_data(group)
        omegas, kept = data.central_characters, list(data.class_sums)
        z = int(group.scalar_shift[0])
        pure = np.flatnonzero(np.abs(omegas[:, kept[3]].imag) > 0.5)
        np.testing.assert_allclose(omegas[pure][:, kept[:3]], 0, atol=1e-12)
        values = omegas[pure, kept[3]]
        imaginary = sorted(np.round(values.imag, 3).tolist())
        assert imaginary == [-1.414, -1.414, 1.414, 1.414]
        assert sorted(np.round(omegas[pure, z].imag).tolist()) == [-1, -1, 1, 1]
        assert _eigenvalue_gap(values) < 1e-8
        assert all(_eigenvalue_gap(omegas[:, c]) < 1e-8 for c in kept)
        assert _eigenvalue_gap(omegas[:, kept]) < 1e-8
        assert _eigenvalue_gap(omegas[:, [*kept, z]]) > 1.0
        assert_matches_the_tensor_route(group, data)
        # roundoff in a zero real part can sort the repeats of a value apart,
        # so the gap is taken over all pairs, not between sorted neighbours
        noisy = np.array([-3e-16 + 1j, -2e-16 - 1j, 1e-16 + 1j, 4e-16 - 1j])
        ordered = noisy[np.lexsort((noisy.imag, noisy.real))]
        assert np.abs(np.diff(ordered)).min() > 1.0
        assert _eigenvalue_gap(noisy) < 1e-15

    def test_eigenvalue_gap(self):
        assert _eigenvalue_gap(np.array([3.0, 1.0, 2.5])) == 0.5
        assert _eigenvalue_gap(np.array([1j, -1j, 1j])) == 0.0
        assert _eigenvalue_gap(np.array([7.0])) == float("inf")

    def test_eigenvalue_gap_of_rows_is_the_largest_entrywise_difference(self):
        rows = np.array([[1.0, 5.0], [1.0, 2.0], [1.5, 5.0]])
        assert _eigenvalue_gap(rows) == 0.5
        assert _eigenvalue_gap(rows[:, :1]) == 0.0
        assert _eigenvalue_gap(rows[:1]) == float("inf")

    @pytest.mark.parametrize("r,p,n", [(8, 4, 2), (4, 2, 3), (6, 1, 3)])
    @pytest.mark.parametrize("source,target", [(0, 1), (-1, -2)])
    def test_a_duplicated_row_fails_joint_separation(self, r, p, n, source, target):
        # the copy is still an eigenvector of every kept class sum, so only
        # the joint separation of the rows can notice it; it falls in the
        # block of the row it copies, the first block or the last
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        kept = list(data.class_sums)
        columns = head_columns(group, kept)
        omegas = data.central_characters
        _certify(group, _scalar_orbits(group), omegas, kept, columns)
        duplicated = omegas.copy()
        duplicated[target] = duplicated[source]
        with pytest.raises(NumericError, match="smallest gap 0.000e"):
            _certify(group, _scalar_orbits(group), duplicated, kept, columns)

    @pytest.mark.parametrize("r,p,n", [(8, 4, 2), (6, 2, 4)])
    def test_every_kept_class_sum_splits_a_space(self, r, p, n):
        # every class sum splits the spaces of each block by Re(e^-i omega):
        # the characters, which start in their h blocks, fall into more
        # groups of equal block and split values with each kept class sum,
        # and into k groups on all of them
        group = Group(GroupParams(r, p, n))
        data = class_algebra_data(group)
        omegas, kept = data.central_characters, list(data.class_sums)
        blocks = blocks_of_rows(group, omegas)
        split = (np.exp(-1j) * omegas[:, kept]).real

        def groups(count):
            rows = np.round(split[:, :count], 6).tolist()
            return len({(t, *row) for t, row in zip(blocks.tolist(), rows)})

        counts = [groups(count) for count in range(len(kept) + 1)]
        assert counts == sorted(set(counts))
        assert counts[0] == len(_scalar_orbits(group).phases)
        assert counts[-1] == len(omegas)

    def test_unseparated_characters_name_group_classes_and_gap(self, monkeypatch):
        # class sums that split nothing leave every block open until the
        # class order runs out; the first one may split the identity's
        # orbit off each block
        group = Group(GroupParams(3, 1, 3))
        k = len(group.conjugacy)
        order = _class_sum_order(group)
        first = order[0]
        widest = max(len(block) for block in _scalar_orbits(group).blocks)
        for split_first, open_size in ((False, widest), (True, widest - 1)):
            def class_sum(group, c, columns, split=split_first):
                matrix = np.diag(np.eye(k)[0]) if split and c == first else np.eye(k)
                return matrix[:, columns]

            monkeypatch.setattr(Group, "class_sum_matrix", class_sum)
            with pytest.raises(NumericError) as caught:
                _separate_characters(group, _scalar_orbits(group))
            message = str(caught.value)
            assert "G(3,1,3)" in message
            assert f"all {len(order)} class sums taken" in message
            assert f"a space of size {open_size} still open" in message

    def test_class_order_is_codimension_then_size(self):
        # listed by (codimension, size, index); a class is left out exactly
        # when its inverse class is listed before it or it is diagonal with
        # codimension above p.  G(4,2,3) has diagonal classes of
        # codimension 2 = p, which are listed, and 3, which are not
        group = Group(GroupParams(4, 2, 3))
        classes = group.conjugacy
        order = _class_sum_order(group)
        identity_class = int(classes.class_of[group.identity_index])
        keys = [
            (int(group.codims[classes.representatives[c]]), classes.sizes[c], c)
            for c in range(len(classes))
        ]
        assert [keys[c] for c in order] == sorted(keys[c] for c in order)
        dropped = set(range(len(classes))) - set(order) - {identity_class}
        assert dropped and identity_class not in order
        past = {c for c in dropped if diagonal_past_p(group, c)}
        assert past and past != dropped
        assert any(is_diagonal(group, c) and keys[c][0] == 2 for c in order)
        assert any(keys[c][0] == 3 for c in order)
        for c in range(len(classes)):
            if c == identity_class:
                continue
            inverse = inverse_class(group, c)
            listed_before = inverse in order and keys[inverse] < keys[c]
            assert (c in dropped) == (listed_before or diagonal_past_p(group, c))
            if c in order and inverse != c:
                assert inverse not in order


def inverse_class(group, c):
    """The class of the inverse of class c's representative, from the
    element's own inverse."""
    classes = group.conjugacy
    rep = group.element(classes.representatives[c])
    return int(classes.class_of[group.index_of(rep.inverse())])


def is_diagonal(group, c):
    """Whether class c's representative has the identity permutation."""
    rep = group.element(group.conjugacy.representatives[c])
    return rep.perm == tuple(range(group.params.n))


def diagonal_past_p(group, c):
    """Whether class c is diagonal with codimension above p, read off its
    representative: its number of nonzero exponents."""
    rep = group.element(group.conjugacy.representatives[c])
    return is_diagonal(group, c) and codim(rep) > group.params.p


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_dropped_classes_are_inverses_with_conjugate_characters(params):
    # omega(C^-1) = conj omega(C): a class dropped as an inverse has the
    # conjugate of the column of its inverse class, which is listed; every
    # other dropped class is diagonal with codimension above p
    group = Group(params)
    classes = group.conjugacy
    order = _class_sum_order(group)
    omegas = class_algebra_data(group).central_characters
    scale = max(1.0, float(np.abs(omegas).max()))
    identity_class = int(classes.class_of[group.identity_index])
    for c in set(range(len(classes))) - set(order) - {identity_class}:
        inverse = inverse_class(group, c)
        if diagonal_past_p(group, c):
            assert inverse not in order
            continue
        assert inverse in order
        np.testing.assert_allclose(
            omegas[:, c], omegas[:, inverse].conj(), rtol=0, atol=1e-9 * scale
        )


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_diagonal_classes_past_p_separate_no_characters(params):
    # the diagonal class sums of codimension at most p generate those of
    # every diagonal class, so two characters that agree on the former
    # agree on the latter (reference characters from the tensor)
    group = Group(params)
    omegas = tensor_central_characters(group)
    diagonal = [c for c in range(1, len(omegas)) if is_diagonal(group, c)]
    past = [c for c in diagonal if diagonal_past_p(group, c)]
    low = [c for c in diagonal if c not in past]
    if params.r > params.p and params.n > params.p:
        # p entries 1 and one entry p: a diagonal element of support p + 1
        assert past
    scale = max(1.0, float(np.abs(omegas).max()))

    def apart(columns):
        values = omegas[:, columns]
        return np.abs(values[:, None] - values[None, :]).max(axis=2, initial=0.0)

    agree = apart(low) <= 1e-6 * scale
    assert (apart(past)[agree] <= 1e-6 * scale).all()


def multipartition_counts_by_weight(r, n):
    """For each t mod r, the number of r-tuples of partitions lambda of
    total size n with sum_j j |lambda^(j)| = t (mod r)."""
    counts = partition_counts(n)
    # states[size][weight mod r]: tuples filled so far
    states = [[1] + [0] * (r - 1)] + [[0] * r for _ in range(n)]
    for j in range(r):
        grown = [[0] * r for _ in range(n + 1)]
        for size in range(n + 1):
            for weight in range(r):
                if states[size][weight]:
                    for m in range(n - size + 1):
                        grown[size + m][(weight + j * m) % r] += (
                            states[size][weight] * counts[m]
                        )
        states = grown
    return states[n]


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_blocks_share_the_group_equally(params):
    # chi(z g) = eps_t chi(g) on block t, and the characters of block t
    # restrict to <z> as chi(1) times the linear character z -> eps_t, so
    # sum chi(1)^2 over the block is |G| / h.  For p = 1, z = zeta I acts on
    # the character of lambda by zeta^(sum_j j |lambda^(j)|)
    group = Group(params)
    data = class_algebra_data(group)
    orbits = _scalar_orbits(group)
    h = len(orbits.phases)
    assert h == params.r * gcd(params.n, params.p) // params.p
    blocks = blocks_of_rows(group, data.central_characters)
    squares = np.array(data.degrees) ** 2
    sizes = np.bincount(blocks, minlength=h)
    assert sizes.tolist() == [len(block) for block in orbits.blocks]
    for t in range(h):
        assert int(squares[blocks == t].sum()) * h == group.order
    if params.p == 1:
        assert sizes.tolist() == multipartition_counts_by_weight(params.r, params.n)


@pytest.mark.parametrize("r,p,n", [(3, 1, 2), (4, 2, 2), (2, 2, 3), (3, 3, 3)])
def test_class_sum_matrices_are_tensor_slices(r, p, n):
    group = Group(GroupParams(r, p, n))
    a = class_structure_constants(group)
    for c in range(len(a)):
        assert np.array_equal(group.class_sum_matrix(c, np.arange(len(a))), a[c])


def by_projection(rows):
    """The order of the rows by the real part of one random complex
    projection, which separates distinct rows (complex conjugate ones
    included) by far more than rounding error."""
    rng = np.random.default_rng(11)
    k = rows.shape[1]
    weights = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return np.argsort((rows @ weights).real)


def assert_matches_the_tensor_route(group, data):
    reference = tensor_central_characters(group)
    reference_degrees, _ = character_degrees(group, reference)
    ours = by_projection(data.central_characters)
    theirs = by_projection(reference)
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(
        data.central_characters[ours], reference[theirs], rtol=0, atol=1e-6 * scale
    )
    assert np.array_equal(
        np.array(data.degrees)[ours], np.array(reference_degrees)[theirs]
    )


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_class_sums_agree_with_the_tensor_route(params):
    group = Group(params)
    assert_matches_the_tensor_route(group, class_algebra_data(group))


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_mirrored_blocks_hold_the_conjugate_characters(params):
    # conj chi lies in block h - t when chi lies in block t: the rows of
    # block h - t are the conjugates of block t's, in ours and in the
    # tensor route's characters alike
    group = Group(params)
    omegas = class_algebra_data(group).central_characters
    reference = tensor_central_characters(group)
    h = len(_scalar_orbits(group).phases)
    ours, theirs = blocks_of_rows(group, omegas), blocks_of_rows(group, reference)
    scale = max(1.0, float(np.abs(reference).max()))
    for t in range(h):
        conjugates = omegas[ours == t].conj()
        for rows in (omegas[ours == (h - t) % h], reference[theirs == (h - t) % h]):
            assert rows.shape == conjugates.shape
            np.testing.assert_allclose(
                rows[by_projection(rows)],
                conjugates[by_projection(conjugates)],
                rtol=0,
                atol=1e-6 * scale,
            )


def det_twist(group, omegas):
    """The rows times det(C) = zeta^(exponent sum of C's representative),
    read off each representative element."""
    classes, r = group.conjugacy, group.params.r
    sums = [sum(group.element(rep).exponents) for rep in classes.representatives]
    return omegas * np.exp(2j * np.pi / r * (np.array(sums) % r))


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_the_det_twist_permutes_the_characters(params):
    # det: (a | s) -> zeta^(sum a) is a linear character, so chi det is
    # irreducible and omega_(chi det) = det omega_chi; det(z) = eps_n moves
    # block t to block t + n.  The tensor route's characters are closed
    # under the twist, and ours are the same set
    group = Group(params)
    h = len(_scalar_orbits(group).phases)
    reference = tensor_central_characters(group)
    scale = max(1.0, float(np.abs(reference).max()))
    for rows in (reference, class_algebra_data(group).central_characters):
        twisted = det_twist(group, rows)
        moved = (blocks_of_rows(group, rows) + params.n) % h
        assert np.array_equal(blocks_of_rows(group, twisted), moved)
        np.testing.assert_allclose(
            twisted[by_projection(twisted)],
            reference[by_projection(reference)],
            rtol=0,
            atol=1e-6 * scale,
        )


@pytest.mark.parametrize(
    "r,p,n,split",
    [(6, 2, 4, 2), (6, 1, 3, 2), (3, 1, 5, 1), (5, 1, 4, 1), (4, 1, 4, 3),
     (2, 1, 6, 2)],
)
def test_one_block_per_orbit_of_the_twist_is_split(r, p, n, split, caplog):
    # t -> -t and t -> t + n generate the orbits {u : u = +-s mod gcd(n, h)}
    # on Z_h, one split block s <= gcd(n, h) / 2 for each
    group = Group(GroupParams(r, p, n), max_order=10**5)
    h = len(_scalar_orbits(group).phases)
    assert split == gcd(n, h) // 2 + 1
    with caplog.at_level(logging.DEBUG, logger="reflectra.spectra"):
        class_algebra_data(group)
    records = [r for r in caplog.records if r.name == "reflectra.spectra"]
    (message,) = [r.getMessage() for r in records]
    assert f"h = {h} blocks (" in message
    assert f", {split} split, {h - split} twisted), " in message


@pytest.mark.parametrize("r,p,n", [(3, 1, 3), (4, 2, 3)])
def test_spectrum_route_never_builds_the_tensor(r, p, n, monkeypatch):
    def refuse(group):
        raise AssertionError("the structure-constant tensor was built")

    monkeypatch.setattr(spectra, "class_structure_constants", refuse)
    group = Group(GroupParams(r, p, n))
    for kind in ("adjacency", "distance", "codimension"):
        spectrum = spectrum_class_algebra(group, class_function(group, kind))
        assert spectrum.integral
        assert sum(m for _, m in spectrum.entries) == group.order


def test_class_algebra_data_logs_one_debug_record(caplog):
    group = Group(GroupParams(3, 1, 3))
    with caplog.at_level(logging.DEBUG, logger="reflectra.spectra"):
        data = class_algebra_data(group)
    records = [r for r in caplog.records if r.name == "reflectra.spectra"]
    assert len(records) == 1
    message = records[0].getMessage()
    used = data.class_sums
    elements = sum(group.conjugacy.sizes[c] for c in used)
    k = len(group.conjugacy)
    # splitting stops at the class sum that leaves only lines, a kept one;
    # the classes left out of the order are the non-identity ones not
    # listed: the diagonal ones of codimension above p = 1, and inverses
    order = _class_sum_order(group)
    taken = order.index(used[-1]) + 1
    diagonal = sum(diagonal_past_p(group, c) for c in range(1, k))
    inverse = k - 1 - len(order) - diagonal
    assert inverse > 0 and diagonal > 0
    # z = zeta I has order 3 = n; the blocks hold 10, 6 and 6 characters,
    # and blocks 0 and 1 are split, block 2 is the conjugate of block 1
    widest = max(len(block) for block in _scalar_orbits(group).blocks)
    assert widest == 10
    assert message.startswith(
        f"class algebra of G(3,1,3): |G| = 162, k = {k}, h = 3 blocks "
        f"(widest {widest}, 2 split, 1 twisted), "
    )
    kept = (
        f"{taken} class sums taken, {len(used)} kept ({elements} elements), "
        f"classes left out: {inverse} inverse, {diagonal} diagonal past "
        "codimension 1; "
    )
    assert kept in message
    assert re.search(r"; \d+ restricted eigenproblems \(widest \d+\), ", message)
    assert "attempts" not in message
    assert "eigenvector residual" in message and "orthogonality error" in message


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

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("params", desk_scale_params(), ids=str)
    def test_agrees_with_numeric_on_every_desk_group(self, params, kind):
        group = Group(params)
        f = class_function(group, kind)
        algebraic = spectrum_class_algebra(group, f)
        numeric = spectrum_numeric(build_matrix(group, f))
        assert algebraic.integral and numeric.integral
        assert algebraic.entries == numeric.entries

    def test_non_symmetric_class_function_is_rejected_exactly(self, monkeypatch):
        # the indicator of one non-real class: f(C) != f(C^-1), decided on the
        # integer values before any eigenproblem is solved
        group = Group(GroupParams(3, 1, 2))
        classes = group.conjugacy
        reps = np.array(classes.representatives)
        inverse_class = classes.class_of[group.inverse_indices[reps]]
        c = next(c for c in range(len(classes)) if inverse_class[c] != c)
        values = tuple(int(i == c) for i in range(len(classes)))
        monkeypatch.setattr(spectra, "class_algebra_data", None)
        with pytest.raises(ParameterError, match="not symmetric"):
            spectrum_class_algebra(group, values)
        symmetric = tuple(int(i in (c, inverse_class[c])) for i in range(len(classes)))
        monkeypatch.undo()
        spectrum = spectrum_class_algebra(group, symmetric)
        assert spectrum.integral and sum(m for _, m in spectrum.entries) == group.order

    @pytest.mark.parametrize("tolerance", [1e-16, 1e-300])
    def test_tiny_tolerance_rounds_instead_of_failing(self, tolerance):
        # the imaginary parts are bounded at the certificate's scale, so a
        # tolerance below roundoff only makes the rounding stricter
        group = Group(GroupParams(3, 1, 3))
        spectrum = spectrum_class_algebra(group, adjacency_function(group), tolerance)
        scale = len(reflections(group))  # the largest eigenvalue
        assert spectrum.integral == (spectrum.max_residual <= tolerance * scale)
        assert sum(m for _, m in spectrum.entries) == group.order

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
        assert trace == group.order * f[identity_class]
        reps = np.array(classes.representatives)
        inverse_class = classes.class_of[group.inverse_indices[reps]]
        frobenius = sum(
            classes.sizes[c] * int(f[c]) * int(f[inverse_class[c]])
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
        f = np.full(len(group.conjugacy), -1)
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
            assert multiply(x, x) == group.element(group.identity_index)
        assert bipartite_check(group)

    def test_spectrum_symmetry_matches(self):
        group = Group(GroupParams(2, 2, 3))
        spectrum = spectrum_numeric(build_matrix(group, adjacency_function(group)))
        eigs = dict(spectrum.entries)
        assert all(eigs.get(-value) == mult for value, mult in eigs.items())
        assert bipartite_check(group, spectrum)


@pytest.mark.parametrize(
    "params", [GroupParams(2, 1, 6), GroupParams(2, 2, 6)], ids=str
)
def test_class_algebra_spectra_read_no_per_element_arrays(params):
    # the class functions and the class algebra read per-class records
    # only: no |G|-long inverse map, codimensions or lengths are built
    group = Group(params, max_order=50000)
    data = class_algebra_data(group)
    for kind in KINDS:
        spectrum = spectrum_class_algebra(group, class_function(group, kind), data=data)
        assert spectrum.integral
        assert sum(m for _, m in spectrum.entries) == group.order
    for name in ("inverse_indices", "codims", "reflection_lengths"):
        assert name not in vars(group)
    # and the class record keeps no member lists: only the labels are |G| long
    classes = group.conjugacy
    for field in dataclasses.fields(classes):
        # a tuple of tuples holds the entries of its rows
        value = getattr(classes, field.name)
        held = sum(len(x) if isinstance(x, tuple) else 1 for x in value)
        if field.name != "class_of":
            assert held <= len(classes), field.name


def test_numeric_spectra_never_build_the_scalar_shift():
    group = Group(GroupParams(4, 2, 3))
    for kind in KINDS:
        spectrum_numeric(build_matrix(group, class_function(group, kind)))
    assert "scalar_shift" not in vars(group)
    class_algebra_data(group)
    assert "scalar_shift" in vars(group)


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_group_codims_match_codim(params):
    group = Group(params)
    expected = [codim(x) for x in group.elements]
    assert group.codims.tolist() == expected
    assert not group.codims.flags.writeable


@pytest.mark.parametrize(
    "params, classes, listed",
    [
        (GroupParams(5, 1, 4), 190, 66),
        (GroupParams(2, 1, 6), 65, None),
        (GroupParams(3, 1, 5), 108, None),
        (GroupParams(2, 1, 7), 110, None),
    ],
    ids=str,
)
def test_class_algebra_matches_the_fold_at_190_classes(params, classes, listed):
    # the class-algebra route and the partition-tuple fold agree; k is the
    # number of r-multipartitions of n.  G(5,1,4): k = 190, and 123 classes
    # are left out of the order: 65 diagonal ones of codimension 2 to 4
    # (p = 1), then 58 inverses.  Reflection length equals
    # codimension on G(r, 1, n) (Shi)
    group = Group(params, max_order=params.order)
    assert len(group.conjugacy) == classes
    if listed is not None:
        assert len(_class_sum_order(group)) == listed
    data = class_algebra_data(group)
    fold = dict(codim_spectrum_combinatorial(params.r, params.n))
    for kind in ("codimension", "distance"):
        spectrum = spectrum_class_algebra(group, class_function(group, kind), data=data)
        assert spectrum.integral
        assert dict(spectrum.entries) == fold


def test_class_algebra_matches_the_codimension_fold_at_many_classes():
    # G(8,1,4): k = 726 classes, well past the desk-scale verify checks
    params = GroupParams(8, 1, 4)
    group = Group(params, max_order=params.order)
    assert len(group.conjugacy) == 726
    spectrum = spectrum_class_algebra(group, codimension_function(group))
    fold = dict(codim_spectrum_combinatorial(8, 4))
    assert spectrum.integral
    assert dict(spectrum.entries) == fold
