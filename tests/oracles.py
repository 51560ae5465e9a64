"""Shared independent oracles used across test modules."""

import csv
import io
from math import comb, factorial, gcd, sqrt

import numpy as np

from reflectra.errors import NumericError, ParameterError
from reflectra.groups import (
    GroupElement,
    GroupParams,
    RationalClasses,
    element_order,
    element_power,
    format_element,
    standard_generators,
)
from reflectra.verify import desk_scale_params

# the factored per-element passes against their oracles: every desk-scale
# group, larger ones with many permutations or many exponent rows, and n = 1
ORACLE_GROUPS = tuple(dict.fromkeys(desk_scale_params() + tuple(
    GroupParams(*t)
    for t in [(2, 1, 6), (2, 2, 6), (3, 1, 5), (6, 2, 4), (1, 1, 1), (5, 1, 1),
              (3, 3, 1)]
)))


def monomial_matrix(x: GroupElement) -> np.ndarray:
    """The complex monomial matrix with zeta^a_i in row i, column perm^{-1}(i)."""
    zeta = np.exp(2j * np.pi / x.r)
    matrix = np.zeros((x.n, x.n), dtype=complex)
    inverse_perm = {x.perm[j]: j for j in range(x.n)}
    for i in range(x.n):
        matrix[i, inverse_perm[i]] = zeta ** x.exponents[i]
    return matrix


def right_mult_indices(group, g: int) -> np.ndarray:
    """Index map k -> index of x_k * g, from the left multiplication by
    g^{-1} and the inverse map: x_k * g = (g^{-1} * x_k^{-1})^{-1}."""
    inv = group.inverse_indices
    return inv[group.left_mult_indices(inv[g])[inv]]


def class_members(group) -> tuple[tuple[int, ...], ...]:
    """The members of each conjugacy class in index order, from `class_of`
    one element at a time."""
    members: list[list[int]] = [[] for _ in range(len(group.conjugacy))]
    for i, c in enumerate(group.class_of.tolist()):
        members[c].append(i)
    return tuple(tuple(m) for m in members)


def conjugation_indices(group, g: int) -> np.ndarray:
    """Index map k -> index of g * x_k * g^{-1}.  With L the left
    multiplication by g, x_j * g^{-1} = (g * x_j^{-1})^{-1} has index
    inv[L[inv[j]]]."""
    left = group.left_mult_indices(g)
    inv = group.inverse_indices
    return inv[left[inv]][left]


def conjugation_orbits(group) -> list[list[int]]:
    """Conjugacy classes as sorted index lists, in order of least member, by
    a breadth-first search over conjugation by the generators from every
    element not yet assigned."""
    conj_maps = [
        conjugation_indices(group, group.index_of(g))
        for g in standard_generators(group.params)
    ]
    assigned = np.zeros(group.order, dtype=bool)
    orbits = []
    for start in range(group.order):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        frontier = [start]
        while frontier:
            frontier_arr = np.array(frontier, dtype=np.int64)
            frontier = []
            for cmap in conj_maps:
                images = cmap[frontier_arr]
                fresh = images[~assigned[images]]
                if fresh.size:
                    fresh = np.unique(fresh)
                    assigned[fresh] = True
                    orbit.extend(int(i) for i in fresh)
                    frontier.extend(int(i) for i in fresh)
        orbits.append(sorted(orbit))
    return orbits


def flat_arrays(group) -> tuple[np.ndarray, np.ndarray]:
    """(perms, exps): one int64 row per element in enumeration order, element
    q * m + e being (exponent row e | permutation q) of the two blocks."""
    perm_block, exp_block = group._perm_block, group._exp_block
    perms = np.repeat(perm_block, len(exp_block), axis=0)
    exps = np.tile(exp_block, (len(perm_block), 1))
    return perms, exps


class FlatIndexMaps:
    """The index maps on flat |G| x n copies of the blocks: each product is
    formed row by row, and its rows are found by binary search over the
    int64 keys (perm digits base n, then exponent digits base r), which
    increase strictly along the enumeration."""

    def __init__(self, group):
        self.n, self.r = group.params.n, group.params.r
        self.perms, self.exps = flat_arrays(group)
        self.invperms = np.argsort(self.perms, axis=1)
        self.keys = self.encode(self.perms, self.exps)

    def encode(self, perms: np.ndarray, exps: np.ndarray) -> np.ndarray:
        key = np.zeros(perms.shape[:-1], dtype=np.int64)
        for i in range(self.n):
            key = key * self.n + perms[..., i]
        for i in range(self.n):
            key = key * self.r + exps[..., i]
        return key

    def lookup(self, perms: np.ndarray, exps: np.ndarray) -> np.ndarray:
        keys = self.encode(perms, exps % self.r)
        found = np.searchsorted(self.keys, keys)
        assert np.array_equal(self.keys[found], keys), "a product left the group"
        return found

    def index_of(self, x) -> int:
        return int(self.lookup(np.array(x.perm), np.array(x.exponents)))

    def inverse_indices(self) -> np.ndarray:
        inv_exps = -np.take_along_axis(self.exps, self.perms, axis=1)
        return self.lookup(self.invperms, inv_exps)

    def left_mult_indices(self, g: int) -> np.ndarray:
        perms = self.perms[g][self.perms]
        exps = self.exps[:, self.invperms[g]] + self.exps[g][None, :]
        return self.lookup(perms, exps)

    def right_mult_indices(self, g: int) -> np.ndarray:
        perms = self.perms[:, self.perms[g]]
        exps = self.exps + self.exps[g][self.invperms]
        return self.lookup(perms, exps)

    def product_indices(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        perms = np.take_along_axis(self.perms[a], self.perms[b], axis=-1)
        exps = self.exps[a] + np.take_along_axis(
            self.exps[b], self.invperms[a], axis=-1
        )
        return self.lookup(perms, exps)

    def conjugation_indices(self, g: int) -> np.ndarray:
        left = self.left_mult_indices(g)
        right = self.right_mult_indices(self.inverse_indices()[g])
        return right[left]


def flat_cycle_walk(group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codims, G(r, 1, n) class keys, labels L) from a walk on all |G| * n
    flat positions (row * n + i), every cycle closing within n - 1 steps:
    each position gets its cycle's size and exponent sum mod r, and whether
    it is the least position on its cycle.  A second walk from each least
    position adds up the partial exponent sums along its cycle, and L is
    their total over the cycles of an element."""
    n, r = group.params.n, group.params.r
    perms, exps = flat_arrays(group)
    starts = np.arange(group.order * n)
    step = (perms + starts[::n, None]).ravel()
    exps = exps.ravel()
    pos = step
    totals = exps.copy()
    sizes = np.ones(starts.size, dtype=np.int64)
    leads = np.ones(starts.size, dtype=bool)
    for _ in range(n - 1):
        open_ = pos != starts
        totals += exps[pos] * open_
        sizes += open_
        leads &= pos >= starts
        pos = np.where(open_, step[pos], pos)
    totals %= r
    shape = perms.shape
    codims = n - (leads & (totals == 0)).reshape(shape).sum(axis=1)
    codes = np.sort(((sizes - 1) * r + totals).reshape(shape), axis=1)
    keys = np.ravel_multi_index(tuple(codes.T), (n * r,) * n)
    pos, partial, labels = starts, np.zeros_like(exps), np.zeros_like(exps)
    open_ = leads
    for _ in range(n):
        partial = partial + exps[pos] * open_
        labels += partial * open_
        pos = step[pos]
        open_ = open_ & (pos != starts)
    return codims, keys, labels.reshape(shape).sum(axis=1)


def class_function_from_element_values(group, values) -> np.ndarray:
    """The per-class values, an int64 array, of the class function with the
    given per-element values, read at the class representatives, after
    checking on all |G| elements that the values are constant on every
    class; the error names the least class where they are not."""
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (group.order,):
        raise ParameterError(
            f"need {group.order} element values, got shape {values.shape}"
        )
    classes = group.conjugacy
    per_class = values[list(classes.representatives)]
    off = group.class_of[values != per_class[group.class_of]]
    if off.size:
        raise ParameterError(f"values are not constant on conjugacy class {off.min()}")
    return per_class


def element_texts(group) -> list[str]:
    """`format_element` of every element, one element at a time."""
    return [format_element(group.element(i)) for i in range(group.order)]


def power_scan_rational(group) -> RationalClasses:
    """Rational classes by scanning the classes in order: the classes of the
    coprime powers of each unassigned representative, found one
    `element_power` and `index_of` at a time, form a new rational class; the
    orders are `element_order` of the representatives."""
    classes = group.conjugacy
    class_to_rational = [-1] * len(classes)
    found = []
    orders = tuple(element_order(group.element(rep)) for rep in classes.representatives)
    for c, rep in enumerate(classes.representatives):
        if class_to_rational[c] >= 0:
            continue
        g = group.element(rep)
        o = orders[c]
        powers = (element_power(g, d) for d in range(1, o + 1) if gcd(d, o) == 1)
        grp = sorted({int(group.class_of[group.index_of(x)]) for x in powers})
        for j in grp:
            class_to_rational[j] = len(found)
        found.append(tuple(grp))
    return RationalClasses(class_to_rational=tuple(class_to_rational), orders=orders)


def matrix_by_columns(group, values) -> np.ndarray:
    """The group matrix M[i, j] = values[x_i * x_j^{-1}], one column at a
    time: column j reads values through the right multiplication by x_j^{-1}."""
    values = np.asarray(values, dtype=np.int64)
    inv = group.inverse_indices
    entries = np.empty((group.order, group.order), dtype=np.int64)
    for j in range(group.order):
        entries[:, j] = values[right_mult_indices(group, inv[j])]
    return entries


def character_degrees_by_rows(group, omegas) -> list[int]:
    """The degrees of `spectra.character_degrees`, one character at a time:
    each row's norm sum_C omega(C) omega(C^-1) / |C| = |G| / chi(1)^2 gives
    its degree, and the first row whose norm is not positive, or whose
    squared degree is not a positive square, raises."""
    classes = group.conjugacy
    sizes = np.array(classes.sizes, dtype=np.float64)
    reps = np.array(classes.representatives, dtype=np.int64)
    inverse_class = group.class_of[group.inverse_indices[reps]]
    degrees = []
    for row in omegas:
        norm = float(np.real(np.sum(row * row[inverse_class] / sizes)))
        if norm <= 0:
            raise NumericError("nonpositive norm while recovering a degree")
        squared = group.order / norm
        degree = round(sqrt(squared))
        if degree < 1 or abs(degree * degree - squared) > 1e-4 * max(1.0, squared):
            raise NumericError(
                f"recovered squared degree {squared} is not a positive square"
            )
        degrees.append(degree)
    return degrees


def csv_by_writer(rows, header) -> str:
    """The header and rows as csv.writer writes them, one line each."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def grow_young_level(level: dict[int, int]) -> dict[int, int]:
    """The next level of Young's lattice, each partition with its number f of
    standard tableaux by the branching rule.  A partition is keyed by its
    outline in an n x n box, read from bottom left to top right, first step
    highest: bit 1 east, 0 north.  Each 0 closes a row as long as the 1s
    before it; the empty partition is (1 << n) - 1.  A box fits at each 01,
    and adding the 1's bit turns it into 10."""
    above: dict[int, int] = {}
    for word, f in level.items():
        corners = word & ~(word >> 1)
        while corners:
            corner = corners & -corners
            grown = word + corner
            above[grown] = above.get(grown, 0) + f
            corners ^= corner
    return above


def outline_partition(word: int, n: int) -> tuple[int, ...]:
    """The partition whose outline in an n x n box is word, largest part
    first: each north step, read from the first, closes a row as long as
    the east steps before it."""
    parts, east = [], 0
    for bit in reversed(range(2 * n)):
        if word >> bit & 1:
            east += 1
        elif east:
            parts.append(east)
    return tuple(reversed(parts))


def lattice_slot_zero_pairs(r: int, n: int) -> dict[tuple[int, int], int]:
    """The distinct slot-0 pairs (v, d) of the partitions of n, each with its
    sum of f^2, walking Young's lattice up to level n: a pair is the
    product-rule fold of one (r (1 + c), r - 1 + r c) per box, row by row,
    which stops at (0, 0), as every further factor keeps it."""
    level = {(1 << n) - 1: 1}
    for _ in range(n):
        level = grow_young_level(level)
    pairs: dict[tuple[int, int], int] = {}
    for word, f in level.items():
        value, derivative = 1, 0
        for row, part in enumerate(outline_partition(word, n)):
            for c in range(-row, part - row):
                v, d = r * (1 + c), r - 1 + r * c
                value, derivative = value * v, derivative * v + value * d
            if not value and not derivative:
                break
        pairs[value, derivative] = pairs.get((value, derivative), 0) + f * f
    return pairs


def lattice_codim_fold(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """The codimension spectrum of G(r, 1, n) with part (a) of the fold read
    off Young's lattice, level n, and parts (b) and (c) from factorials and
    binomials term by term: the reference for the closed-form fold."""
    spectrum: dict[int, int] = {}
    for (_, eigenvalue), squared in lattice_slot_zero_pairs(r, n).items():
        spectrum[eigenvalue] = spectrum.get(eigenvalue, 0) + squared
    zero = 0
    for k in range(n if r > 1 else 0):
        m = n - k
        scale = comb(n, k) ** 2
        row = r**k * factorial(k)
        for leg in range(m):
            hook = (
                (-1) ** (leg + 1) * r ** (m - 1) * factorial(m - 1 - leg) * factorial(leg)
            )
            weight = scale * (r - 1) * comb(m - 1, leg) ** 2
            spectrum[row * hook] = spectrum.get(row * hook, 0) + weight
        zero += scale * (
            (factorial(k) - 1) * (r - 1) * factorial(m)
            + (r - 1) * (factorial(m) - comb(2 * m - 2, m - 1))
            + factorial(k) * factorial(m) * ((r - 1) ** m - (r - 1))
        )
    if zero:
        spectrum[0] = spectrum.get(0, 0) + zero
    return tuple(sorted(spectrum.items(), reverse=True))
