"""Cayley-graph matrices over a group and their spectra, three ways.

For a function f on the group, the group matrix is M[g, h] = f(g h^{-1}).
When f is a class function, Fourier analysis pins the whole spectrum: each
irreducible character chi contributes the eigenvalue

    theta_chi = (1/chi(1)) * sum_g f(g) chi(g)

with multiplicity chi(1)^2.  Three independent routes are implemented:

* numeric: build the dense matrix and take its eigenvalues with LAPACK
  (numpy's eigvalsh);
* class-algebra: recover the central characters from the class-sum structure
  constants and evaluate theta_chi directly, no |G| x |G| matrix;
* combinatorial (codimension matrices of G(r, 1, n) only): exact integer
  eigenvalues from partition tuples, in the partitions module.

Adjacency (f = indicator of a connection set) and shortest-path distance
matrices of Cayley graphs are the main instances.  Distance matrices work
for any inversion-closed generating connection set via breadth-first search,
including non-class-closed standard generating sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    ConnectivityError,
    ConsistencyError,
    NumericError,
    ParameterError,
    SizeLimitError,
)
from .groups import Group, GroupParams
from .reflections import bfs_word_lengths, codim, reflections

log = logging.getLogger(__name__)

DEFAULT_MATRIX_CAP = 1200
ELEMENT_ORDER_REFERENCE = "lex(perm,exponents)"

@dataclass(frozen=True)
class ClassFunction:
    """Integer values, one per conjugacy class of a fixed group."""

    kind: str
    values: tuple[int, ...]

    @classmethod
    def from_element_values(cls, group: Group, values, kind: str) -> "ClassFunction":
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (group.order,):
            raise ParameterError(
                f"need {group.order} element values, got shape {values.shape}"
            )
        classes = group.conjugacy
        per_class = []
        for c, members in enumerate(classes.members):
            member_values = values[np.array(members)]
            if (member_values != member_values[0]).any():
                raise ParameterError(
                    f"values are not constant on conjugacy class {c}"
                )
            per_class.append(int(member_values[0]))
        return cls(kind=kind, values=tuple(per_class))

    def element_values(self, group: Group) -> np.ndarray:
        if len(self.values) != len(group.conjugacy):
            raise ParameterError(
                f"class function has {len(self.values)} values, group has "
                f"{len(group.conjugacy)} classes"
            )
        return np.asarray(self.values, dtype=np.int64)[group.conjugacy.class_of]


def adjacency_function(group: Group) -> ClassFunction:
    """Indicator of the full reflection set."""
    flags = np.array(
        [1 if codim(x) == 1 else 0 for x in group.elements], dtype=np.int64
    )
    return ClassFunction.from_element_values(group, flags, "adjacency")


def distance_function(group: Group) -> ClassFunction:
    """Reflection length as a class function."""
    lengths = bfs_word_lengths(group, reflections(group))
    if (lengths < 0).any():
        raise ConnectivityError(f"reflections fail to generate {group.params}")
    return ClassFunction.from_element_values(group, lengths, "distance")


def codimension_function(group: Group) -> ClassFunction:
    codims = np.array([codim(x) for x in group.elements], dtype=np.int64)
    return ClassFunction.from_element_values(group, codims, "codimension")


@dataclass(frozen=True)
class ConnectionSet:
    """Vertex-connecting subset: no identity, closed under inversion."""

    name: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def connection_set(group: Group, indices, name: str) -> ConnectionSet:
    indices = tuple(sorted(set(int(i) for i in indices)))
    if any(i < 0 or i >= group.order for i in indices):
        raise ParameterError(f"connection indices out of range for {group.params}")
    if group.identity_index in indices:
        raise ParameterError("connection sets must not contain the identity")
    inverses = {int(group.inverse_indices[i]) for i in indices}
    if inverses != set(indices):
        raise ParameterError(f"connection set {name!r} is not inversion-closed")
    return ConnectionSet(name=name, indices=indices)


def all_reflections_connection(group: Group) -> ConnectionSet:
    return connection_set(group, reflections(group), "all-reflections")


def standard_connection(group: Group) -> ConnectionSet:
    """Standard generating set together with its inverses."""
    gens = [group.index_of(g) for g in group.generators()]
    gens += [int(group.inverse_indices[i]) for i in gens]
    return connection_set(group, gens, "standard")


@dataclass(frozen=True, eq=False)
class GroupMatrix:
    """Dense integer matrix M[i, j] = f(x_i * x_j^{-1}) over one enumeration."""

    kind: str
    params: GroupParams
    entries: np.ndarray
    element_order_reference: str = ELEMENT_ORDER_REFERENCE

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def _matrix_cap(explicit: int | None) -> int:
    return DEFAULT_MATRIX_CAP if explicit is None else explicit


def matrix_from_element_values(
    group: Group, values, kind: str, max_size: int | None = None
) -> GroupMatrix:
    """Group matrix for a per-element function (not necessarily a class
    function); values[k] is f of the k-th element."""
    cap = _matrix_cap(max_size)
    if group.order > cap:
        raise SizeLimitError(
            f"|{group.params}| = {group.order} exceeds the dense matrix cap {cap}; "
            "use the class-algebra or combinatorial route instead"
        )
    values = np.asarray(values, dtype=np.int64)
    inv = group.inverse_indices
    entries = np.empty((group.order, group.order), dtype=np.int64)
    for j in range(group.order):
        entries[:, j] = values[group.right_mult_indices(inv[j])]
    return GroupMatrix(kind=kind, params=group.params, entries=entries)


def build_matrix(
    group: Group, f: ClassFunction, max_size: int | None = None
) -> GroupMatrix:
    return matrix_from_element_values(group, f.element_values(group), f.kind, max_size)


def distance_matrix_bfs(
    group: Group, connection: ConnectionSet, max_size: int | None = None
) -> GroupMatrix:
    """Shortest-path distance matrix of the Cayley graph on the connection
    set; the set must generate the group."""
    lengths = bfs_word_lengths(group, connection.indices)
    if (lengths < 0).any():
        missing = int((lengths < 0).sum())
        raise ConnectivityError(
            f"connection set {connection.name!r} does not generate "
            f"{group.params}: {missing} unreachable elements"
        )
    return matrix_from_element_values(group, lengths, "distance", max_size)


def adjacency_matrix(
    group: Group, connection: ConnectionSet, max_size: int | None = None
) -> GroupMatrix:
    flags = np.zeros(group.order, dtype=np.int64)
    flags[np.array(connection.indices, dtype=np.int64)] = 1
    return matrix_from_element_values(group, flags, "adjacency", max_size)


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by LAPACK (eigvalsh).

    The name is historical: the benchmark tracer wraps this function by name
    to report the eigensolve layer, so it is kept until the tracer is updated
    in the same change that renames it."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"need a square matrix, got shape {a.shape}")
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, sorted descending by eigenvalue.

    When every clustered eigenvalue sits within tolerance of an integer the
    entries are exact integers; otherwise integral is False, entries hold the
    cluster means, and the raw eigenvalue list is preserved."""

    entries: tuple[tuple[int | float, int], ...]
    method: str
    max_residual: float
    integral: bool
    raw: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        return {e: m for e, m in self.entries}

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)


def _cluster(raw: np.ndarray, width: float = 1e-6) -> list[list[float]]:
    clusters: list[list[float]] = []
    for value in np.sort(raw):
        if clusters and value - clusters[-1][-1] <= width:
            clusters[-1].append(float(value))
        else:
            clusters.append([float(value)])
    return clusters


def spectrum_numeric(matrix: GroupMatrix, tolerance: float = 1e-8) -> Spectrum:
    """Cluster and round the LAPACK eigenvalues of a symmetric group matrix."""
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    entries = matrix.entries
    if not np.array_equal(entries, entries.T):
        raise ParameterError(f"{matrix.kind} matrix is not symmetric")
    raw = jacobi_eigenvalues(entries)
    clusters = _cluster(raw)
    max_residual = 0.0
    rounded: dict[int, int] = {}
    integral = True
    for cluster in clusters:
        mean = sum(cluster) / len(cluster)
        nearest = round(mean)
        residual = max(abs(x - nearest) for x in cluster)
        max_residual = max(max_residual, residual)
        if residual > tolerance:
            integral = False
        rounded[int(nearest)] = rounded.get(int(nearest), 0) + len(cluster)
    if integral:
        entries_out = tuple(sorted(rounded.items(), reverse=True))
        raw_out = None
    else:
        entries_out = tuple(
            sorted(
                ((sum(c) / len(c), len(c)) for c in clusters),
                reverse=True,
            )
        )
        raw_out = tuple(float(x) for x in raw)
    return Spectrum(
        entries=entries_out,
        method="numeric",
        max_residual=float(max_residual),
        integral=integral,
        raw=raw_out,
    )


def class_structure_constants(group: Group) -> np.ndarray:
    """a[i, j, k] counts pairs (u, v) in C_i x C_j with u*v equal to the
    representative of C_k; one pass of |G| products per representative."""
    classes = group.conjugacy
    k = len(classes)
    class_of = classes.class_of
    a = np.zeros((k, k, k), dtype=np.int64)
    inv = group.inverse_indices
    for target, rep in enumerate(classes.representatives):
        to_rep = group.right_mult_indices(rep)[inv]
        np.add.at(a, (class_of, class_of[to_rep], target), 1)
    return a


@dataclass(frozen=True, eq=False)
class ClassAlgebraData:
    """Structure constants, central character table, and recovered degrees."""

    structure_constants: np.ndarray
    central_characters: np.ndarray
    degrees: tuple[int, ...]


_SEED_BASE = 20260822


def _central_characters(group: Group, a: np.ndarray, attempts: int = 24) -> np.ndarray:
    """Rows are the central characters omega_chi over the classes, recovered
    as shared eigenvectors of the commuting class-sum matrices."""
    k = a.shape[0]
    id_class = int(group.conjugacy.class_of[group.identity_index])
    if k == 1:
        return np.ones((1, 1), dtype=np.complex128)
    last_gap = 0.0
    for attempt in range(attempts):
        rng = np.random.default_rng(_SEED_BASE + attempt)
        coeffs = rng.integers(1, 1 << 20, size=k)
        combo = np.tensordot(coeffs, a, axes=(0, 0)).astype(np.float64)
        eigvals, eigvecs = np.linalg.eig(combo)
        order = np.lexsort((eigvals.imag, eigvals.real))
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        scale = max(1.0, float(np.abs(eigvals).max()))
        gaps = np.abs(np.diff(eigvals))
        last_gap = float(gaps.min()) if gaps.size else scale
        if gaps.size and gaps.min() < 1e-8 * scale:
            continue
        anchors = eigvecs[id_class, :]
        if np.abs(anchors).min() < 1e-12:
            continue
        omegas = (eigvecs / anchors[None, :]).T
        # shared-eigenvector residual over every class-sum matrix
        residual = 0.0
        for row in omegas:
            products = np.tensordot(a, row, axes=(2, 0))
            residual = max(
                residual, float(np.abs(products - np.outer(row, row)).max())
            )
        if residual > 1e-6 * max(1.0, float(np.abs(omegas).max()) ** 2):
            continue
        return omegas
    raise NumericError(
        f"failed to separate central characters after {attempts} random "
        f"class-sum combinations (last eigenvalue gap {last_gap:.3e}); retry "
        "with a different seed base"
    )


def class_algebra_data(group: Group) -> ClassAlgebraData:
    a = class_structure_constants(group)
    omegas = _central_characters(group, a)
    classes = group.conjugacy
    sizes = np.array(classes.sizes, dtype=np.float64)
    reps = np.array(classes.representatives, dtype=np.int64)
    inverse_class = classes.class_of[group.inverse_indices[reps]]
    degrees = []
    for row in omegas:
        denom = float(np.real(np.sum(row * row[inverse_class] / sizes)))
        if denom <= 0:
            raise NumericError("nonpositive norm while recovering a degree")
        squared = group.order / denom
        degree = round(sqrt(squared))
        if degree < 1 or abs(degree * degree - squared) > 1e-4 * max(1.0, squared):
            raise NumericError(
                f"recovered squared degree {squared} is not a positive square"
            )
        degrees.append(int(degree))
    if sum(d * d for d in degrees) != group.order:
        raise NumericError(
            f"squared degrees sum to {sum(d * d for d in degrees)}, "
            f"expected {group.order}"
        )
    return ClassAlgebraData(
        structure_constants=a,
        central_characters=omegas,
        degrees=tuple(degrees),
    )


def spectrum_class_algebra(
    group: Group, f: ClassFunction, tolerance: float = 1e-8
) -> Spectrum:
    """Spectrum of the group matrix of f via central characters: eigenvalue
    sum_C f(C) omega_chi(C) with multiplicity chi(1)^2 per character."""
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if len(f.values) != len(group.conjugacy):
        raise ParameterError(
            f"class function has {len(f.values)} values, group has "
            f"{len(group.conjugacy)} classes"
        )
    data = class_algebra_data(group)
    values = np.asarray(f.values, dtype=np.float64)
    thetas = data.central_characters @ values
    scale = max(1.0, float(np.abs(thetas).max()))
    if float(np.abs(thetas.imag).max()) > tolerance * scale:
        raise NumericError(
            "complex eigenvalues from the class-algebra route; the group "
            "matrix of this class function is not symmetric"
        )
    raw = np.repeat(thetas.real, [d * d for d in data.degrees])
    clusters = _cluster(raw)
    max_residual = 0.0
    integral = True
    rounded: dict[int, int] = {}
    for cluster in clusters:
        mean = sum(cluster) / len(cluster)
        nearest = round(mean)
        residual = max(abs(x - nearest) for x in cluster)
        max_residual = max(max_residual, residual)
        if residual > tolerance * scale:
            integral = False
        rounded[int(nearest)] = rounded.get(int(nearest), 0) + len(cluster)
    if integral:
        entries = tuple(sorted(rounded.items(), reverse=True))
        raw_out = None
    else:
        entries = tuple(
            sorted(((sum(c) / len(c), len(c)) for c in clusters), reverse=True)
        )
        raw_out = tuple(float(x) for x in np.sort(raw))
    return Spectrum(
        entries=entries,
        method="class-algebra",
        max_residual=float(max_residual),
        integral=integral,
        raw=raw_out,
    )


def spectral_radius_check(group: Group, f: ClassFunction, spectrum: Spectrum) -> bool:
    """Largest eigenvalue of a nonnegative class function's group matrix must
    be sum_g f(g), simple and strictly dominant (trivially so for f = 0)."""
    if any(v < 0 for v in f.values):
        raise ParameterError("spectral radius check needs a nonnegative function")
    sizes = group.conjugacy.sizes
    expected = sum(s * v for s, v in zip(sizes, f.values))
    top_value, top_mult = spectrum.entries[0]
    if top_value != expected:
        log.warning(
            "spectral radius mismatch for %s/%s: top %s, expected %s",
            group.params, f.kind, top_value, expected,
        )
        return False
    if expected == 0:
        return True
    if top_mult != 1 or (len(spectrum.entries) > 1 and spectrum.entries[1][0] >= expected):
        log.warning(
            "spectral radius not strictly dominant for %s/%s: %s",
            group.params, f.kind, spectrum.entries[:2],
        )
        return False
    return True


def bipartite_check(group: Group, spectrum: Spectrum | None = None) -> bool:
    """2-colorability of the Cayley graph on all reflections, cross-checked
    against spectrum symmetry and reflection orders."""
    refl = reflections(group)
    lengths = bfs_word_lengths(group, refl)
    if (lengths < 0).any():
        raise ConnectivityError(f"reflections fail to generate {group.params}")
    colors = lengths % 2
    colorable = True
    for t in refl:
        images = group.left_mult_indices(t)
        if (colors == colors[images]).any():
            colorable = False
            break
    if spectrum is None:
        spectrum = spectrum_numeric(build_matrix(group, adjacency_function(group)))
    eigs = spectrum.as_dict()
    symmetric = all(eigs.get(-value) == mult for value, mult in eigs.items())
    orders_two = all(
        (group.elements[t] * group.elements[t]).is_identity() for t in refl
    )
    if not (colorable == symmetric == orders_two):
        raise ConsistencyError(
            f"bipartiteness tests disagree on {group.params}: "
            f"2-colorable={colorable}, symmetric spectrum={symmetric}, "
            f"all reflections order 2={orders_two}"
        )
    return colorable
