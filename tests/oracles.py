"""Shared independent oracles used across test modules."""

import numpy as np

from reflectra.groups import GroupElement


def monomial_matrix(x: GroupElement) -> np.ndarray:
    """The complex monomial matrix with zeta^a_i in row i, column perm^{-1}(i)."""
    zeta = np.exp(2j * np.pi / x.r)
    matrix = np.zeros((x.n, x.n), dtype=complex)
    inverse_perm = {x.perm[j]: j for j in range(x.n)}
    for i in range(x.n):
        matrix[i, inverse_perm[i]] = zeta ** x.exponents[i]
    return matrix


def conjugation_orbits(group) -> list[list[int]]:
    """Conjugacy classes as sorted index lists, in order of least member, by
    a breadth-first search over conjugation by the generators from every
    element not yet assigned."""
    conj_maps = [
        group.conjugation_indices(group.index_of(g)) for g in group.generators()
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
