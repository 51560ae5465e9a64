"""Reflections, fixed-space codimension, and reflection length.

The fixed space of (a | s) collects one dimension from every cycle of s whose
exponent sum vanishes mod r, so

    codim(w) = n - #(cycles with exponent sum 0 mod r).

Reflections are the elements of codimension 1.  The word length l_T(w) over
the full reflection set T is a function of the cycle data alone, by Shi's
formula (stated in the docstring of the groups module); for p = 1 it is
codim(w).  `Group.type_lengths` holds it per cycle type next to
`Group.type_codims`, the functions here read the per-element gathers
`Group.reflection_lengths` and `Group.codims` as plain arrays, and
`bfs_word_lengths`, a breadth-first search on the Cayley graph, is the
reference it is tested against.  l_T(w) always dominates codim(w), with
equality for every element exactly in the G(r, 1, n) and real cases.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import ConsistencyError
# bfs_word_lengths lives in groups; the benchmark tracer looks it up here
from .groups import Group, GroupElement, GroupParams, bfs_word_lengths, cycle_type
from .partitions import xi_from_roots


def codim(x: GroupElement) -> int:
    """Codimension of the fixed space of x in C^n."""
    return x.n - sum(1 for _, c in cycle_type(x) if c == 0)


def reflections(group: Group) -> tuple[int, ...]:
    """Indices of the codimension-1 elements, in enumeration order."""
    return tuple(np.flatnonzero(group.codims == 1).tolist())


def reflection_length_table(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """The group's per-element reflection lengths and codimensions."""
    return group.reflection_lengths, group.codims


def all_reflections_order_two(group: Group) -> bool:
    """Whether every reflection is its own inverse."""
    refl = np.array(reflections(group), dtype=np.int64)
    return bool((group.inverse_indices[refl] == refl).all())


def degree_data(params: GroupParams) -> tuple[int, ...]:
    """Invariant degrees r, 2r, ..., (n-1)r, nr/p; the exponents are d - 1."""
    r, p, n = params.r, params.p, params.n
    degrees = tuple(r * i for i in range(1, n)) + (n * r // p,)
    if prod(degrees) != params.order:
        raise ConsistencyError(
            f"degree product {prod(degrees)} differs from |{params}| = {params.order}"
        )
    return degrees


def xi1_closed_form(params: GroupParams) -> int:
    """Derivative at t = 1 of the product (1 + m_1 t)...(1 + m_n t) over the
    exponents m_i = d_i - 1; equals the sum of codim(w) over the group."""
    return xi_from_roots(tuple(d - 1 for d in degree_data(params)))


def eta1_closed_form(params: GroupParams) -> int:
    """|W| * sum((d_i - 1) / d_i), which is also the total codimension.  It
    matches the total reflection length for real groups and for every
    G(r, 1, n), where Shi's formula (groups module docstring) reduces to
    codim(w)."""
    return sum((d - 1) * (params.order // d) for d in degree_data(params))
