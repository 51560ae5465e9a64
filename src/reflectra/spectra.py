"""Cayley-graph matrices over a group and their spectra, three ways.

For a function f on the group, the group matrix is M[g, h] = f(g h^{-1}).
When f is a class function, Fourier analysis pins the whole spectrum: each
irreducible character chi contributes the eigenvalue

    theta_chi = (1/chi(1)) * sum_g f(g) chi(g)

with multiplicity chi(1)^2.  Three independent routes are implemented:

* numeric: build the dense matrix, an int64 (|G|, |G|) array, a chunk of
  rows at a time from the group's block rank tables
  (matrix_from_element_values), and take its eigenvalues with LAPACK
  (numpy's eigvalsh);
* class-algebra: the scalar matrices <z>, of order h, are central, so the
  characters fall into h blocks by their value at z, and the class algebra
  into h invariant blocks of about k / h coordinates, one per z-orbit of
  classes.  Each block is split into the common eigenlines of the class
  sums of low-codimension classes, one class sum at a time, in a scaled
  basis where they are normal; a class sum is built only at the columns of
  the orbit heads.  Only what can split is taken.  The class sum of an
  inverse class splits nothing, since omega(C^-1) = conj omega(C).  Neither
  does a diagonal class of codimension above p, since the diagonal classes
  of codimension at most p generate the algebra of all diagonal classes.
  And most blocks are not split but twisted from another: the conjugate of
  a character of block t lies in block -t, and its product with the linear
  character det: (a | s) -> zeta^(sum a), det(z) = eps_n, in block t + n.
  So only one block per orbit of t -> -t and t -> t + n on Z_h is split,
  floor(gcd(n, h) / 2) + 1 of the h.  One pass over the blocks certifies
  each line as a central character and finds its degree, as the k-wide
  character_degrees would, and theta_chi needs no |G| x |G| matrix and no
  (k, k, k) tensor;
* combinatorial (codimension matrices of G(r, 1, n) only): exact integer
  eigenvalues from partition tuples, in the partitions module.

The three kinds of class function depend on the cycle type alone; each is a
k-long int64 array, one gather of the group's per-type values, and every
route gives (eigenvalue, multiplicity) pairs.  The class-algebra route reads
k-long class records (sizes, cycle types, inverse classes, the class of z C
for each class C) and the class sums of a few classes at the orbit heads
(`Group.class_sum_matrix`), nothing else |G| long.

Adjacency (f = indicator of a connection set) and shortest-path distance
matrices of Cayley graphs are the main instances.  Distance matrices work
for any inversion-closed generating connection set via breadth-first search,
including non-class-closed standard generating sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import gcd, isfinite

import numpy as np

from .errors import (
    ConnectivityError,
    ConsistencyError,
    NumericError,
    ParameterError,
    SizeLimitError,
    format_size,
)
from .groups import Group, bfs_word_lengths, standard_generators
from .reflections import all_reflections_order_two, reflections

log = logging.getLogger(__name__)

DEFAULT_MATRIX_CAP = 1200
# Entries per chunk of rows in matrix_from_element_values.  Chosen from a
# sweep of 2^14 to 2^20 over the 14 groups of orders 32 to 3,840 in
# scripts/bench_matrix_build.py (1 BLAS thread, best of 7): 2^16 is within
# 17 % of the fastest size on every group of order 384 or more, 2^14 is
# 1.4-1.5x slower from order 1,920 on, and 2^17 or more make G(1,1,6) (one
# row per permutation, permutation-rank temporaries n times a chunk) 1.5-2x
# slower.  Matrices of order 32 to 72 are one chunk at every size tried.
_CHUNK_ENTRIES = 1 << 16
ELEMENT_ORDER_REFERENCE = "lex(perm,exponents)"
_CLUSTER_WIDTH = 1e-6

def _per_class(group: Group, per_type: np.ndarray) -> np.ndarray:
    return per_type[group.conjugacy.types].astype(np.int64)


def adjacency_function(group: Group) -> np.ndarray:
    """Indicator of the full reflection set, one value per class."""
    return _per_class(group, group.type_codims == 1)


def distance_function(group: Group) -> np.ndarray:
    """Reflection length, one value per class."""
    return _per_class(group, group.type_lengths)


def codimension_function(group: Group) -> np.ndarray:
    return _per_class(group, group.type_codims)


KINDS = ("adjacency", "distance", "codimension")


def class_function(group: Group, kind: str) -> np.ndarray:
    """The per-class values of one matrix kind, named as in KINDS."""
    if kind == "adjacency":
        return adjacency_function(group)
    if kind == "distance":
        return distance_function(group)
    if kind == "codimension":
        return codimension_function(group)
    raise ParameterError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")


@dataclass(frozen=True)
class ConnectionSet:
    """Vertex-connecting subset: no identity, closed under inversion."""

    name: str
    indices: tuple[int, ...]


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
    gens = [group.index_of(g) for g in standard_generators(group.params)]
    gens += [int(group.inverse_indices[i]) for i in gens]
    return connection_set(group, gens, "standard")


def _class_values(group: Group, values) -> np.ndarray:
    """Caller-supplied per-class values as int64, checked one per class."""
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (len(group.conjugacy),):
        raise ParameterError(
            f"class function has {values.size} values, group has "
            f"{len(group.conjugacy)} classes"
        )
    return values


def _check_matrix_cap(order: int) -> None:
    """Reject a group order above the dense matrix cap; every matrix builder
    calls this before it computes or allocates anything, and the CLI before
    it builds the group."""
    if order > DEFAULT_MATRIX_CAP:
        raise SizeLimitError(
            f"order {format_size(order)} exceeds the dense matrix cap "
            f"{DEFAULT_MATRIX_CAP}; use the class-algebra or combinatorial route "
            "instead"
        )


def matrix_from_element_values(group: Group, values) -> np.ndarray:
    """Group matrix M[i, j] = f(x_i * x_j^{-1}), an int64 (|G|, |G|) array
    over the group's enumeration, for a per-element function (not
    necessarily a class function); values[k] is f of the k-th element.

    The rows are built a chunk at a time: Group.quotient_row_chunks gives
    the index of x_i * x_j^{-1} for a chunk of rows against every column,
    and the chunk's entries are values read at those indices.  A chunk
    holds at most max(_CHUNK_ENTRIES, |G|) entries, so no temporary grows
    with |G|^2."""
    _check_matrix_cap(group.order)
    values = np.asarray(values, dtype=np.int64)
    entries = np.empty((group.order, group.order), dtype=np.int64)
    for rows, table in group.quotient_row_chunks(_CHUNK_ENTRIES):
        entries[rows] = values[table]
    return entries


def build_matrix(group: Group, values) -> np.ndarray:
    """Group matrix of a class function given by its per-class values."""
    _check_matrix_cap(group.order)
    values = _class_values(group, values)
    return matrix_from_element_values(group, values[group.class_of])


def distance_matrix_bfs(group: Group, connection: ConnectionSet) -> np.ndarray:
    """Shortest-path distance matrix of the Cayley graph on the connection
    set; the set must generate the group."""
    _check_matrix_cap(group.order)
    lengths = bfs_word_lengths(group, connection.indices)
    if (lengths < 0).any():
        missing = int((lengths < 0).sum())
        raise ConnectivityError(
            f"connection set {connection.name!r} does not generate "
            f"{group.params}: {missing} unreachable elements"
        )
    return matrix_from_element_values(group, lengths)


def adjacency_matrix(group: Group, connection: ConnectionSet) -> np.ndarray:
    _check_matrix_cap(group.order)
    flags = np.zeros(group.order, dtype=np.int64)
    flags[np.array(connection.indices, dtype=np.int64)] = 1
    return matrix_from_element_values(group, flags)


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

    Both matrix routes round the same way.  The eigenvalues, each with a
    weight (1 per numeric eigenvalue, chi(1)^2 per class-algebra value), are
    sorted and split into clusters wherever two neighbours differ by more
    than 1e-6; each cluster's weighted mean is rounded to the nearest
    integer, and the residual is the largest distance of a member from that
    integer.  The spectrum is integral when every residual is at most a
    threshold: the tolerance itself on the numeric route, and the tolerance
    times max(1, largest |eigenvalue|) on the class-algebra route.

    When integral, the entries are exact integers; otherwise integral is
    False, entries hold the cluster means, and raw keeps every eigenvalue,
    ascending, repeated by its multiplicity."""

    entries: tuple[tuple[int | float, int], ...]
    method: str
    max_residual: float
    integral: bool
    raw: tuple[float, ...] | None = None


def format_entries(entries) -> str:
    """(eigenvalue, multiplicity) pairs as "value^mult", largest first."""
    return " ".join(f"{value}^{mult}" for value, mult in sorted(entries, reverse=True))


def _cluster(values: np.ndarray) -> list[list[int]]:
    """Indices of values, ascending by value, split wherever neighbours
    differ by more than _CLUSTER_WIDTH."""
    order = np.argsort(values, kind="stable")
    breaks = np.flatnonzero(np.diff(values[order]) > _CLUSTER_WIDTH) + 1
    return [cluster.tolist() for cluster in np.split(order, breaks) if cluster.size]


def _round_spectrum(
    values: np.ndarray, weights: list[int], threshold: float, method: str
) -> Spectrum:
    """Cluster and round weighted real eigenvalues (see Spectrum); a value of
    weight w stands for w equal eigenvalues."""
    max_residual = 0.0
    integral = True
    rounded: dict[int, int] = {}
    means: list[tuple[float, int]] = []
    for cluster in _cluster(values):
        members = [float(values[i]) for i in cluster]
        count = sum(weights[i] for i in cluster)
        mean = sum(x * weights[i] for x, i in zip(members, cluster)) / count
        nearest = int(round(mean))
        residual = max(abs(x - nearest) for x in members)
        max_residual = max(max_residual, residual)
        if residual > threshold:
            integral = False
        rounded[nearest] = rounded.get(nearest, 0) + count
        means.append((mean, count))
    return Spectrum(
        entries=tuple(sorted(rounded.items() if integral else means, reverse=True)),
        method=method,
        max_residual=float(max_residual),
        integral=integral,
        raw=None if integral else tuple(np.sort(np.repeat(values, weights)).tolist()),
    )


def _check_tolerance(tolerance: float) -> None:
    if not (isfinite(tolerance) and tolerance > 0):
        raise ParameterError(
            f"tolerance must be positive and finite, got {tolerance}"
        )


def spectrum_numeric(matrix: np.ndarray, tolerance: float = 1e-8) -> Spectrum:
    """Cluster and round the LAPACK eigenvalues of a symmetric group matrix;
    the tolerance is absolute."""
    _check_tolerance(tolerance)
    if not np.array_equal(matrix, matrix.T):
        raise ParameterError("matrix is not symmetric")
    raw = jacobi_eigenvalues(matrix)
    return _round_spectrum(raw, [1] * raw.size, tolerance, "numeric")


def class_structure_constants(group: Group) -> np.ndarray:
    """a[i, j, k] counts pairs (u, v) in C_i x C_j with u*v equal to the
    representative of C_k; one pass of |G| products per representative.

    No spectrum route uses this (k, k, k) tensor: class_algebra_data builds
    only the slices a[C] of a few classes.  It is the reference that the
    tests and the verify checks compare those slices and characters with."""
    classes = group.conjugacy
    k = len(classes)
    class_of = group.class_of
    a = np.zeros((k, k, k), dtype=np.int64)
    inv = group.inverse_indices
    for target, rep in enumerate(classes.representatives):
        # u^-1 * rep = (rep^-1 * u)^-1 for every u
        to_rep = inv[group.left_mult_indices(inv[rep])]
        np.add.at(a, (class_of, class_of[to_rep], target), 1)
    return a


@dataclass(frozen=True, eq=False)
class ClassAlgebraData:
    """The central characters of a group and the degrees recovered from them.

    Row chi of central_characters holds omega_chi(C) = |C| chi(C) / chi(1)
    over the classes C.  The scalar matrices <z> of order h are central, so
    chi(z g) = eps chi(g) with eps = chi(z) / chi(1) an h-th root of unity
    (Schur), and the rows fall into h blocks, one per eps; the rows are
    listed block by block, eps = e^(2 pi i t / h) for t = 0, ..., h - 1.
    Within a block a row is fixed by its values at the heads of the z-orbits
    of the classes, omega(z^i C) = eps^i omega(C), so each block is found
    on its own by splitting eigenspaces of the class sums restricted to it,
    or as the twist of a split block s: block u = +-s + j n (mod h) holds
    det^j times the rows of block s, conjugated for the sign -, where
    omega_(chi det^j)(C) = det(C)^j omega_chi(C) and det(C) = zeta^e_C
    (`Group.type_exponent_sums`) (_separate_characters).  Block t is the
    next len(blocks[t]) rows, the layout that _certify checks in one pass,
    with the degrees and orthogonality of character_degrees, the k-wide
    reference, taken at the orbit heads.  class_sums lists the kept
    classes, those whose class sums split an eigenspace of some block, in
    the order taken."""

    central_characters: np.ndarray
    degrees: tuple[int, ...]
    class_sums: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class _ScalarOrbits:
    """The orbits of the classes under C -> z C (`Group.scalar_shift`), z of
    order h, numbered by their least class, the head c_o (the identity's
    class 0 heads orbit 0).  Class c is z^offset[c] c_o, o = orbit_of[c];
    lengths[o] = L_o divides h; rows[d, o] is the class of z^-d c_o for
    d < h; phases[t, d] = eps_t^d with eps_t = e^(2 pi i t / h); blocks[t]
    lists the orbits o with t L_o = 0 mod h, the coordinates of block t (a
    row of block t vanishes on the other orbits, since eps_t^L_o != 1
    there)."""

    heads: np.ndarray
    lengths: np.ndarray
    orbit_of: np.ndarray
    offset: np.ndarray
    rows: np.ndarray
    phases: np.ndarray
    blocks: tuple[np.ndarray, ...]


def _scalar_orbits(group: Group) -> _ScalarOrbits:
    """The z-orbits of the classes.  The classes z^i of the scalar matrices
    are distinct and each is its own class, so h is the length of the
    identity's orbit."""
    shift = group.scalar_shift
    k = len(shift)
    h, c = 1, int(shift[0])
    while c != 0:
        h, c = h + 1, int(shift[c])
    # powers[d, c] is the class of z^d C
    powers = [np.arange(k)]
    for _ in range(h - 1):
        powers.append(shift[powers[-1]])
    powers = np.stack(powers)
    head_of = powers.min(axis=0)
    heads = np.flatnonzero(head_of == np.arange(k))
    orbit_of = np.searchsorted(heads, head_of)
    lengths = np.bincount(orbit_of)
    steps = np.arange(h)
    return _ScalarOrbits(
        heads=heads,
        lengths=lengths,
        orbit_of=orbit_of,
        offset=(powers[:, head_of] == np.arange(k)).argmax(axis=0),
        rows=powers[-steps % h][:, heads],
        phases=np.exp(2j * np.pi / h * (np.outer(steps, steps) % h)),
        blocks=tuple(np.flatnonzero(t * lengths % h == 0) for t in range(h)),
    )


def _phase_sums(orbits: _ScalarOrbits, columns: np.ndarray, ts) -> np.ndarray:
    """F_t[o, o'] = sum_{d<h} eps_t^d M[z^-d c_o, c_o'] for each t of ts, from
    the columns M[:, c_o'] of a class sum at the orbit heads, with the
    (h x h) phase matrix.  M commutes with the class sum of z, so
    M[z C, z C'] = M[C, C'] and the heads' columns hold all of M."""
    h, n = orbits.phases.shape[0], len(orbits.heads)
    gathered = columns[orbits.rows].reshape(h, -1)
    return (orbits.phases[ts] @ gathered).reshape(len(ts), n, n)


def _diagonal_past_p(group: Group) -> np.ndarray:
    """Whether each class is diagonal (every cycle of size 1) with
    codimension above p; _class_sum_order leaves these out."""
    types = group.conjugacy.types
    return group.type_diagonal[types] & (group.type_codims[types] > group.params.p)


def _class_sum_order(group: Group) -> list[int]:
    """The order in which class_algebra_data takes class sums: the classes
    other than the identity's (class 0), by (codimension of the
    representative, class size, class index), leaving out each class whose
    inverse class is already listed and each diagonal class of codimension
    above p.  Neither can split a space that the classes listed before it
    leave open.

    Inverses: omega_chi(C^-1) = conj omega_chi(C), so a space on which
    omega(C) is constant has omega(C^-1) constant too.  Every class sum
    splits by Re(e^-i omega(C)), which is constant exactly where omega(C) is
    (see _separate_characters), so the class sum of C^-1 would split
    nothing.  A class that is its own inverse is always listed.

    Diagonal classes: G(r, p, n) = D x| S_n with D the diagonal elements,
    so a diagonal class is an S_n-orbit in D, and the diagonal class sums
    span C[D]^S_n, a central subalgebra; a diagonal element's codimension is
    its support.  C[Z_r^n]^S_n is generated by the power sums sum_i x_i^a,
    and C[D]^S_n is its part of degree 0 mod p.  Every zero-sum sequence
    over Z_p splits into zero-sum blocks of length at most p, so C[D]^S_n is
    generated by the orbit sums of support at most p.  The order runs by
    codimension, so when a diagonal class of codimension above p comes up,
    every open space is a common eigenspace of those generators, hence of
    every diagonal class sum, and the class splits nothing."""
    classes = group.conjugacy
    k = len(classes)
    inverse_class = classes.inverse.tolist()
    past = _diagonal_past_p(group).tolist()
    codims = group.type_codims[classes.types]
    order = np.lexsort((np.arange(k), np.array(classes.sizes), codims))
    listed: list[int] = []
    seen: set[int] = set()
    for c in order.tolist():
        if c != 0 and not past[c] and inverse_class[c] not in seen:
            seen.add(c)
            listed.append(c)
    return listed


def _eigenvalue_gap(values: np.ndarray) -> float:
    """Smallest distance between two entries of a vector, or between two rows
    of a matrix (their largest entrywise difference); inf for one."""
    gaps = np.zeros((len(values), len(values)))
    for column in values.reshape(len(values), -1).T:
        np.maximum(gaps, np.abs(column[:, None] - column[None, :]), out=gaps)
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


def _separate_characters(
    group: Group, orbits: _ScalarOrbits
) -> tuple[np.ndarray, list[int], list, dict]:
    """Central characters by eigenspace splitting (Dixon 1967, Schneider
    1990), block by block of the scalar subgroup, with the classes kept,
    their class sums at the orbit heads, and counts for the DEBUG record.

    Basis: S_C = D^-1/2 M_C D^1/2 with D = diag(|C|) satisfies
    S_C^T = S_{C^-1}, so every S_C is normal, and the central characters
    span orthogonal common eigenlines D^-1/2 omega_chi.  S_C commutes with
    the class sum of z, a permutation of the classes whose eps_t-eigenspace
    has the orthonormal basis e_o = L_o^-1/2 sum_{i<L_o} eps_t^i [z^i c_o]
    over the orbits o of block t.  On that invariant space S_C acts as

        B_t[o, o'] = sqrt(L_o L_o' |C_o'| / |C_o|) / h * F_t[o, o']

    (_phase_sums), normal again, with eigenvectors omega(c_o) sqrt(L_o /
    |C_o|) for the rows of block t.  So each block is split on its own, on
    about k / h coordinates, and only the heads' columns of a class sum are
    built (`Group.class_sum_matrix`).  The space is invariant, so the rows
    found are eigenvectors of the whole of S_C, and _certify may check them
    on the block alone.

    Splitting: each class sum splits every space V still wider than a line
    by the Hermitian A + A^H, A = e^-i V^H B_t V.  Its eigenvalues
    2 Re(e^-i omega(C)) differ wherever the algebraic numbers omega(C)
    differ, since tan 1 is transcendental.  Eigenvalues within
    1e-8 max(1, max |eigenvalue|) of each other stay together.  A class sum
    is kept when it splits a space of some block, and splitting ends when
    every space is a line.

    The open spaces of a block are held as one (b, k_t, w) stack of
    orthonormal bases per width w, so a class sum costs one product and
    one batched eigh per block and width.  eigh returns each space's
    eigenvalues ascending, so a space splits wherever two neighbours differ
    by more than the width above.  The spaces that do not split carry over
    as they are; only those that do are rotated into their eigenvectors and
    cut apart.  Each line is scaled to 1 at the identity's orbit and
    spread over the classes by omega(z^i c_o) = eps_t^i omega(c_o).

    Twist: conj chi lies in block -t when chi lies in block t, with
    omega_conj chi = conj omega_chi.  det: (a | s) -> zeta^(sum a) is a
    linear character of G(r, p, n), so chi det is irreducible, with
    omega_(chi det)(C) = det(C) omega_chi(C); det(z) = zeta^(c0 n) =
    e^(2 pi i n / h), since c0 h = r, so chi det lies in block t + n.  The
    two maps permute the characters and generate a group acting on Z_h
    with orbits {u : u = +-s mod g}, g = gcd(n, h), so only the blocks
    s <= g / 2 are split, and every other block u = +-s + j n takes the
    rows of block s, conjugated for the sign -, times det(C)^j.  Twisting
    multiplies each class's values by one unit or conjugates them, so a
    class sum splits a space of block u exactly when it splits the matching
    space of block s, and the class sums kept are those that splitting all
    h blocks would keep."""
    classes = group.conjugacy
    h, lengths = len(orbits.phases), orbits.lengths
    n, r = group.params.n, group.params.r
    g = gcd(n, h)
    head_sizes = np.array(classes.sizes, dtype=np.float64)[orbits.heads]
    scale = np.sqrt(np.outer(lengths / head_sizes, lengths * head_sizes)) / h
    order = _class_sum_order(group)
    # per split block: the open spaces by width, and the common eigenvectors
    split_blocks = orbits.blocks[: g // 2 + 1]
    stacks = [
        {len(b): np.eye(len(b), dtype=np.complex128)[None]} if len(b) > 1 else {}
        for b in split_blocks
    ]
    lines = [
        [] if len(b) > 1 else [np.ones(1, dtype=np.complex128)] for b in split_blocks
    ]
    kept, kept_columns, taken, solves, widest = [], [], 0, 0, 0
    while any(stacks):
        if taken == len(order):
            raise NumericError(
                f"could not separate the central characters of {group.params}: "
                f"all {taken} class sums taken, a space of size "
                f"{max(max(s) for s in stacks if s)} still open"
            )
        columns = group.class_sum_matrix(order[taken], orbits.heads)
        ts = [t for t, stack in enumerate(stacks) if stack]
        solved = []
        for t, summed in zip(ts, _phase_sums(orbits, columns, ts) * scale):
            block = orbits.blocks[t]
            matrix = summed[np.ix_(block, block)]
            for w, bases in stacks[t].items():
                flat = bases.transpose(1, 0, 2).reshape(len(block), -1)
                image = (matrix @ flat).reshape(len(block), -1, w).transpose(1, 0, 2)
                a = bases.conj().transpose(0, 2, 1) @ image
                a *= np.exp(-1j)
                a += a.conj().transpose(0, 2, 1)
                solved.append((t, bases, *np.linalg.eigh(a)))
                solves, widest = solves + len(bases), max(widest, w)
        width = 1e-8 * max(1.0, max(np.abs(values).max() for *_, values, _ in solved))
        carried: list[dict[int, np.ndarray]] = [{} for _ in stacks]
        pieces: list[dict[int, list[np.ndarray]]] = [{} for _ in stacks]
        split = False
        for t, bases, values, vectors in solved:
            w = bases.shape[2]
            cuts = np.diff(values, axis=1) > width
            splits = cuts.any(axis=1)
            if not splits.any():
                carried[t][w] = bases
                continue
            if not splits.all():
                carried[t][w] = bases[~splits]
            split = True
            for basis, at in zip(bases[splits] @ vectors[splits], cuts[splits]):
                ends = [0, *(np.flatnonzero(at) + 1).tolist(), w]
                for start, stop in zip(ends, ends[1:]):
                    if stop - start == 1:
                        lines[t].append(basis[:, start])
                    else:
                        pieces[t].setdefault(stop - start, []).append(
                            basis[None, :, start:stop]
                        )
        if split:
            kept.append(order[taken])
            kept_columns.append(columns)
        taken += 1
        for t in ts:
            stacks[t] = carried[t]
            for w, stacked in pieces[t].items():
                if w in carried[t]:
                    stacked.append(carried[t][w])
                stacks[t][w] = np.concatenate(stacked)
    rows = []
    for t, block in enumerate(split_blocks):
        vectors = np.stack(lines[t], axis=1)
        # each common eigenvector's entry at the identity's orbit, orbit 0
        anchors = vectors[0]
        if np.abs(anchors).min() < 1e-12:
            raise NumericError(
                f"a common eigenvector of the class sums of {group.params} "
                "vanishes at the identity class"
            )
        at_heads = np.zeros((len(block), len(orbits.heads)), dtype=np.complex128)
        at_heads[:, block] = (
            vectors * np.sqrt(h * head_sizes[block] / lengths[block])[:, None] / anchors
        ).T
        rows.append(at_heads[:, orbits.orbit_of] * orbits.phases[t, orbits.offset])
    # block u = +-s + j n takes the rows of split block s, conjugated for
    # the sign -, times det(C)^j
    exponents = group.type_exponent_sums[classes.types]
    twisted: dict[int, np.ndarray] = {}
    for j in range(h // g):
        det = np.exp(2j * np.pi / r * (j * exponents % r))
        for s, found in enumerate(rows):
            for sign in (1, -1):
                u = (sign * s + j * n) % h
                if u not in twisted:
                    twisted[u] = (found if sign > 0 else found.conj()) * det
    rows = [twisted[u] for u in range(h)]
    diagonal = int(_diagonal_past_p(group).sum())
    counts = {
        "taken": taken, "solves": solves, "widest": widest, "blocks": h,
        "split": len(split_blocks),
        "widest_block": max(len(b) for b in orbits.blocks),
        "inverse": len(classes) - 1 - len(order) - diagonal,
        "diagonal": diagonal,
    }
    return np.concatenate(rows), kept, kept_columns, counts


def _degrees(group: Group, norms: np.ndarray) -> tuple[int, ...]:
    """Degrees chi(1) from the row norms |G| / chi(1)^2; each must be a
    positive integer, the first bad row naming the error, and their squares
    must sum to |G|."""
    positive = norms > 0
    squared = group.order / np.where(positive, norms, 1.0)
    rounded = np.rint(np.sqrt(squared))
    square = (rounded >= 1) & (
        np.abs(rounded * rounded - squared) <= 1e-4 * np.maximum(1.0, squared)
    )
    bad = np.flatnonzero(~(positive & square))
    if bad.size:
        first = bad[0]
        if not positive[first]:
            raise NumericError("nonpositive norm while recovering a degree")
        raise NumericError(
            f"recovered squared degree {float(squared[first])} is not a "
            "positive square"
        )
    degrees = rounded.astype(np.int64).tolist()
    if sum(d * d for d in degrees) != group.order:
        raise NumericError(
            f"squared degrees sum to {sum(d * d for d in degrees)}, "
            f"expected {group.order}"
        )
    return tuple(degrees)


def _orthogonality_error(group: Group, degrees, grams) -> float:
    """The largest entrywise distance of the Gram matrix sum_C |C| chi(C)
    conj(psi(C)) / |G| from the identity, which must be at most 1e-6; grams
    holds (rows, g) per slice of rows, g[i, j] = sum_C omega_i(C)
    conj(omega_j(C)) / |C|."""
    d = np.array(degrees, dtype=np.float64)
    error = 0.0
    for rows, g in grams:
        gram = g * np.outer(d[rows], d[rows]) / group.order
        error = max(error, float(np.abs(gram - np.eye(len(g))).max()))
    if error > 1e-6:
        raise NumericError(
            f"characters of {group.params} fail orthogonality by {error:.3e}"
        )
    return error


def _certify(
    group: Group, orbits: _ScalarOrbits, omegas: np.ndarray, kept: list[int], columns
) -> tuple[tuple[int, ...], float, float]:
    """The degrees, the eigenvector residual and the orthogonality error of
    the rows of omegas, after checking the certificate that makes them the
    central characters; columns holds the class sums of the kept classes at
    the orbit heads.  The rows are read as _separate_characters lists them:
    block t is the next len(orbits.blocks[t]) rows, split or twisted alike,
    and one pass over the blocks checks them all.  Each row of block t must
    * satisfy the shift relation omega(z C) = eps_t omega(C) on every class,
      to within 1e-8 max(1, max |omega|): it is an eigenvector of the class
      sum of z with eigenvalue eps_t, so it lies in the block it sits in;
    * be, at the heads of the orbits of its block, an eigenvector of each
      kept class sum restricted to the block, N_t[o, o'] = L_o' / h
      F_t[o, o'] (_phase_sums), with eigenvalue its own value at that
      class, to within 1e-6 max(1, max |omega|^2).  N_t applied at the
      heads is M_C applied to the whole row where the shift relation holds,
      and M_C omega - omega(C) omega obeys the shift relation too, so this
      block residual is the full residual;
    * have values on the kept classes and the class of z that are pairwise
      more than 1e-8 max(1, max |value|) apart (_eigenvalue_gap).
    A common eigenvector of these class sums lies in the sum of the lines
    of the characters that share its values there, so k rows with k
    distinct value vectors lie on the k lines, one each.  Rows of different
    blocks differ by at least |1 - e^(2 pi i / h)| at z, so the gap is
    taken within each block.

    Then the degrees and orthogonality error of character_degrees, the
    k-wide reference, are taken at the orbit heads: on rows with the shift
    relation each orbit o adds L_o times its head's term to a norm
    (_degrees) and to a Gram entry (_orthogonality_error), as z^i C has |C|
    elements and inverse class z^-i C^-1, and a Gram entry across blocks
    t != s is eps_t conj(eps_s) times itself, hence 0.  The Gram check
    stays although every row that passes the certificate passes it too: the
    certificate and _degrees read each row alone, so it is the only check
    that sees degrees paired with the wrong rows
    (test_degrees_on_the_wrong_rows_fail_orthogonality)."""
    h = len(orbits.phases)
    shift = group.scalar_shift
    z = int(shift[0])
    classes = group.conjugacy
    heads, lengths = orbits.heads, orbits.lengths
    head_sizes = np.array(classes.sizes, dtype=np.float64)[heads]
    counts = [len(block) for block in orbits.blocks]
    eps = np.exp(2j * np.pi / h * np.repeat(np.arange(h), counts))
    size = max(1.0, float(np.abs(omegas).max()))
    drift = float(np.abs(omegas[:, shift] - eps[:, None] * omegas).max())
    sums = [_phase_sums(orbits, m, range(h)) * (lengths / h) for m in columns]
    used = omegas[:, [*kept, z]]
    at_heads = omegas[:, heads]
    weights = lengths / head_sizes
    residual, gap, grams, stop = 0.0, np.inf, [], 0
    for t, block in enumerate(orbits.blocks):
        rows = slice(stop, stop + len(block))
        stop = rows.stop
        values = at_heads[rows, block]
        for c, summed in zip(kept, sums):
            image = values @ summed[t][np.ix_(block, block)].T
            own = omegas[rows, c][:, None]
            residual = max(residual, float(np.abs(image - own * values).max()))
        gap = min(gap, _eigenvalue_gap(used[rows]))
        grams.append((rows, (at_heads[rows] * weights) @ at_heads[rows].conj().T))
    bound = 1e-6 * size**2
    separation = 1e-8 * max(1.0, float(np.abs(used).max()))
    if not (drift <= 1e-8 * size and residual <= bound and gap > separation):
        raise NumericError(
            f"central characters of {group.params} fail the certificate on "
            f"{len(kept)} class sums: shift residual {drift:.3e} (bound "
            f"{1e-8 * size:.3e}), eigenvector residual {residual:.3e} "
            f"(bound {bound:.3e}), smallest gap {gap:.3e} (bound {separation:.3e})"
        )
    norms = np.real(at_heads * omegas[:, classes.inverse[heads]] @ weights)
    degrees = _degrees(group, norms)
    return degrees, residual, _orthogonality_error(group, degrees, grams)


def character_degrees(
    group: Group, omegas: np.ndarray
) -> tuple[tuple[int, ...], float]:
    """Degrees chi(1) from the central characters, and the orthogonality
    error of the characters they give, over every class and row at once:
    the k-wide reference for what _certify takes at the orbit heads.  Each
    row's norm sum_C omega(C) omega(C^-1) / |C| is |G| / chi(1)^2
    (_degrees), and with chi(C) = chi(1) omega(C) / |C| the Gram matrix
    sum_C |C| chi(C) conj(psi(C)) / |G| must be the identity
    (_orthogonality_error)."""
    classes = group.conjugacy
    sizes = np.array(classes.sizes, dtype=np.float64)
    norms = np.real(np.sum(omegas * omegas[:, classes.inverse] / sizes, axis=1))
    degrees = _degrees(group, norms)
    gram = (omegas / sizes) @ omegas.conj().T
    return degrees, _orthogonality_error(group, degrees, [(slice(None), gram)])


def class_algebra_data(group: Group) -> ClassAlgebraData:
    """Central characters and their degrees, with no structure-constant
    tensor.

    The characters come block by block of the scalar subgroup, from
    splitting the eigenspaces of low-codimension class sums one at a time,
    in the scaled basis D^-1/2 M_C D^1/2 where every class sum is normal
    (_separate_characters).  One pass over the blocks certifies them as
    eigenvectors of the class sum of z and of every kept class sum, with
    pairwise distinct values there, and finds their degrees and
    orthogonality at the orbit heads (_certify).  The z-orbits are found
    once and shared by both.  One DEBUG record reports the blocks (h, the
    widest, and how many were split and how many twisted), the class sums
    taken and kept, the classes left out of the order by each rule
    (inverse, diagonal past codimension p), the restricted eigenproblems,
    the eigenvector residual and the orthogonality error."""
    orbits = _scalar_orbits(group)
    omegas, kept, columns, counts = _separate_characters(group, orbits)
    degrees, residual, orthogonality = _certify(group, orbits, omegas, kept, columns)
    sizes = group.conjugacy.sizes
    log.debug(
        "class algebra of %s: |G| = %d, k = %d, h = %d blocks (widest %d, "
        "%d split, %d twisted), %d class sums taken, %d kept (%d elements), "
        "classes left out: %d inverse, %d diagonal past codimension %d; "
        "%d restricted eigenproblems (widest %d), eigenvector residual %.3e, "
        "orthogonality error %.3e",
        group.params, group.order, len(degrees), counts["blocks"],
        counts["widest_block"], counts["split"], counts["blocks"] - counts["split"],
        counts["taken"], len(kept), sum(sizes[c] for c in kept),
        counts["inverse"], counts["diagonal"], group.params.p, counts["solves"],
        counts["widest"], residual, orthogonality,
    )
    return ClassAlgebraData(
        central_characters=omegas, degrees=degrees, class_sums=tuple(kept)
    )


def spectrum_class_algebra(
    group: Group,
    values,
    tolerance: float = 1e-8,
    data: ClassAlgebraData | None = None,
) -> Spectrum:
    """Spectrum of the group matrix of per-class values f via central
    characters: eigenvalue sum_C f(C) omega_chi(C) with multiplicity chi(1)^2
    per character.  The characters are class_algebra_data(group), or data
    when given, so that several class functions of one group share one
    computation.

    The matrix is symmetric exactly when f(C) = f(C^-1) on every class,
    which is checked on the integer values.  The eigenvalues are then real,
    and their computed imaginary parts, roundoff only, must stay within
    1e-6 max(1, max |eigenvalue|), the scale of the character certificate,
    whatever the rounding tolerance."""
    _check_tolerance(tolerance)
    values = _class_values(group, values)
    if not np.array_equal(values, values[group.conjugacy.inverse]):
        raise ParameterError("class function matrix is not symmetric: f(C) != f(C^-1)")
    if data is None:
        data = class_algebra_data(group)
    thetas = data.central_characters @ values.astype(np.float64)
    scale = max(1.0, float(np.abs(thetas).max()))
    imaginary = float(np.abs(thetas.imag).max())
    if imaginary > 1e-6 * scale:
        raise NumericError(
            f"class-algebra eigenvalues of {group.params} have imaginary parts "
            f"up to {imaginary:.3e}, above {1e-6 * scale:.3e}"
        )
    weights = [d * d for d in data.degrees]
    return _round_spectrum(thetas.real, weights, tolerance * scale, "class-algebra")


def spectral_radius_check(group: Group, values, spectrum: Spectrum) -> bool:
    """Largest eigenvalue of the group matrix of nonnegative per-class values
    must be sum_g f(g), simple and strictly dominant (trivially so for f = 0)."""
    values = _class_values(group, values).tolist()
    if any(v < 0 for v in values):
        raise ParameterError("spectral radius check needs a nonnegative function")
    expected = sum(s * v for s, v in zip(group.conjugacy.sizes, values))
    top_value, top_mult = spectrum.entries[0]
    if top_value != expected:
        log.warning(
            "spectral radius mismatch for %s: top %s, expected %s",
            group.params, top_value, expected,
        )
        return False
    if expected == 0:
        return True
    if top_mult != 1 or (len(spectrum.entries) > 1 and spectrum.entries[1][0] >= expected):
        log.warning(
            "spectral radius not strictly dominant for %s: %s",
            group.params, spectrum.entries[:2],
        )
        return False
    return True


def bipartite_check(group: Group, spectrum: Spectrum | None = None) -> bool:
    """2-colorability of the Cayley graph on all reflections, cross-checked
    against spectrum symmetry and reflection orders."""
    refl = reflections(group)
    colors = group.reflection_lengths % 2
    colorable = True
    for t in refl:
        images = group.left_mult_indices(t)
        if (colors == colors[images]).any():
            colorable = False
            break
    if spectrum is None:
        spectrum = spectrum_numeric(build_matrix(group, adjacency_function(group)))
    eigs = dict(spectrum.entries)
    symmetric = all(eigs.get(-value) == mult for value, mult in eigs.items())
    orders_two = all_reflections_order_two(group)
    if not (colorable == symmetric == orders_two):
        raise ConsistencyError(
            f"bipartiteness tests disagree on {group.params}: "
            f"2-colorable={colorable}, symmetric spectrum={symmetric}, "
            f"all reflections order 2={orders_two}"
        )
    return colorable
