"""Named verification checks over the desk-scale family of groups.

Each check reproduces one structural fact at small scale: closed-form
dihedral and rank-2/3 spectra, agreement of the numeric, class-algebra, and
combinatorial routes (class algebra against the codimension fold on every
desk-scale G(r, 1, n)), central characters from a few class sums against
those from the full structure constants, class counts against the
irreducible characters counted by Clifford theory, spectral integrality,
Shi's reflection-length formula against breadth-first search, the
reflection-length versus codimension dichotomy, constancy on rational
classes, Galois exponents, Perron-Frobenius radii, and the three equivalent
bipartiteness tests.

The suites of the `verify` subcommand are one ordered table.  A suite is a
list of sections, each a tuple of groups and a tuple of rows (prefix,
criterion, check[, condition on the group]); for each group in turn, every
row whose condition holds gives one check named prefix-G(r,p,n), which calls
check(group).  Every comparison of two spectra goes through `_agree`.  Each
check also carries the criterion number of the fact it tests.  All orderings
are deterministic.  Groups, numeric spectra, class-algebra data and BFS
reference lengths are cached per process; each group caches its classes
and its per-type codimensions and reflection lengths, and the per-element
arrays gathered from them on first use.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from math import gcd, lcm
from typing import Callable

import numpy as np

from .errors import ConsistencyError, ReflectraError
from .groups import (
    Group,
    GroupElement,
    GroupParams,
    bfs_word_lengths,
    cycle_type,
    element_order,
    element_power,
    find_galois_exponent,
    galois_apply,
    is_real,
)
from .partitions import (
    closed_form_reference,
    codim_spectrum_combinatorial,
    count_partition_tuples,
)
from .reflections import eta1_closed_form, reflections, xi1_closed_form
from .spectra import (
    KINDS,
    ClassAlgebraData,
    Spectrum,
    bipartite_check,
    build_matrix,
    character_degrees,
    class_algebra_data,
    class_function,
    class_structure_constants,
    distance_matrix_bfs,
    format_entries,
    spectral_radius_check,
    spectrum_class_algebra,
    spectrum_numeric,
    standard_connection,
)

log = logging.getLogger(__name__)

DESK_MAX_ORDER = 400
DESK_MAX_R = 8
DESK_MAX_N = 5
INTEGRALITY_TOLERANCE = 1e-6

CheckOutcome = tuple[bool, str, float | None]
Check = tuple[str, int, Callable[[], CheckOutcome]]


@dataclass(frozen=True)
class CheckResult:
    """One named check: pass/fail, a human-readable detail line, and the
    measured residual where a numeric tolerance was involved.  The runtime
    is logged at DEBUG and kept out of the record, so that the data output
    of identical runs is byte-identical."""

    name: str
    criterion: int
    passed: bool
    detail: str
    residual: float | None


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    results: tuple[CheckResult, ...]

    def __post_init__(self) -> None:
        names = [result.name for result in self.results]
        if len(set(names)) != len(names):
            raise ConsistencyError(f"duplicate check names in suite {self.suite!r}")

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(result) for result in self.results],
        }


def desk_scale_params(max_order: int = DESK_MAX_ORDER) -> tuple[GroupParams, ...]:
    """Every G(r, p, n) on the r <= DESK_MAX_R, n <= DESK_MAX_N grid whose
    order fits, smallest order first."""
    found = []
    for r in range(1, DESK_MAX_R + 1):
        for p in (d for d in range(1, r + 1) if r % d == 0):
            for n in range(1, DESK_MAX_N + 1):
                params = GroupParams(r, p, n)
                if params.order <= max_order:
                    found.append(params)
    return tuple(sorted(found, key=lambda q: (q.order, q.r, q.p, q.n)))


@lru_cache(maxsize=None)
def cached_group(params: GroupParams) -> Group:
    return Group(params)


@lru_cache(maxsize=None)
def cached_numeric_spectrum(params: GroupParams, kind: str) -> Spectrum:
    group = cached_group(params)
    matrix = build_matrix(group, class_function(group, kind))
    return spectrum_numeric(matrix)


@lru_cache(maxsize=None)
def cached_class_algebra_data(params: GroupParams) -> ClassAlgebraData:
    return class_algebra_data(cached_group(params))


@lru_cache(maxsize=None)
def cached_bfs_lengths(params: GroupParams) -> np.ndarray:
    """Reference reflection lengths: a breadth-first search over all
    reflections, independent of the formula behind
    `Group.reflection_lengths`."""
    group = cached_group(params)
    return bfs_word_lengths(group, reflections(group))


def _integer_deviation(spectrum: Spectrum) -> float:
    """Largest distance from any eigenvalue to its nearest integer."""
    if spectrum.raw is None:
        return spectrum.max_residual
    return max(abs(x - round(x)) for x in spectrum.raw)


def _agree(
    label: str,
    got,
    reference_label: str,
    reference,
    integral: bool,
    residual: float | None,
) -> CheckOutcome:
    """Two spectra, each (eigenvalue, multiplicity) pairs or a dict of them,
    agree when integral holds and their entries are equal.  The detail shows
    got, and the reference as well when they disagree."""
    got, reference = dict(got), dict(reference)
    ok = integral and got == reference
    detail = f"{label} {format_entries(got.items())}"
    if not ok:
        detail += f"; {reference_label} {format_entries(reference.items())}"
    return ok, detail, residual


def _numeric_equals(params: GroupParams, kind: str, expected) -> CheckOutcome:
    spectrum = cached_numeric_spectrum(params, kind)
    return _agree(
        f"{kind} spectrum", spectrum.entries, "expected", expected,
        spectrum.integral, spectrum.max_residual,
    )


def _fold(params: GroupParams):
    return codim_spectrum_combinatorial(params.r, params.n)


def _combinatorial_vs_numeric(params: GroupParams) -> CheckOutcome:
    numeric = cached_numeric_spectrum(params, "codimension")
    return _agree(
        "combinatorial", _fold(params), "numeric", numeric.entries,
        numeric.integral, numeric.max_residual,
    )


def _combinatorial_vs_closed_form(params: GroupParams) -> CheckOutcome:
    reference = closed_form_reference(params.r, params.n)
    return _agree("combinatorial", _fold(params), "closed form", reference, True, None)


def _class_algebra(params: GroupParams, kind: str) -> Spectrum:
    group = cached_group(params)
    return spectrum_class_algebra(
        group, class_function(group, kind), data=cached_class_algebra_data(params)
    )


def _class_algebra_vs_numeric(params: GroupParams, kind: str) -> CheckOutcome:
    algebraic = _class_algebra(params, kind)
    numeric = cached_numeric_spectrum(params, kind)
    return _agree(
        f"{kind}: class-algebra", algebraic.entries, "numeric", numeric.entries,
        algebraic.integral and numeric.integral,
        max(algebraic.max_residual, numeric.max_residual),
    )


def _class_algebra_vs_fold(params: GroupParams, kind: str) -> CheckOutcome:
    """A p = 1 spectrum of the given kind from class algebra against the
    codimension fold; the distance kind is included because reflection length
    equals codimension on G(r, 1, n) (Shi)."""
    algebraic = _class_algebra(params, kind)
    return _agree(
        f"{kind}: codimension fold", _fold(params), "class-algebra",
        algebraic.entries, algebraic.integral, algebraic.max_residual,
    )


def _class_algebra_degrees(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    data = cached_class_algebra_data(params)
    square_sum = sum(d * d for d in data.degrees)
    dividing = all(d >= 1 and group.order % d == 0 for d in data.degrees)
    ok = dividing and square_sum == group.order
    detail = (
        f"degrees {sorted(data.degrees)}, squares sum to {square_sum} "
        f"(|{params}| = {group.order})"
    )
    return ok, detail, None


def tensor_central_characters(group: Group) -> np.ndarray:
    """Reference central characters from the full (k, k, k) structure
    constants: the right eigenvectors of one random combination of all k
    class-sum matrices, each scaled to 1 at the identity class (class 0)."""
    a = class_structure_constants(group).astype(np.float64)
    coeffs = np.random.default_rng(0).integers(1, 1 << 20, size=len(a))
    _, vectors = np.linalg.eig(np.tensordot(coeffs, a, axes=1))
    return (vectors / vectors[0]).T


def _class_sums_vs_tensor(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    data = cached_class_algebra_data(params)
    reference = tensor_central_characters(group)
    k = len(reference)
    # match each character to its nearest reference row
    distances = np.abs(
        data.central_characters[:, None, :] - reference[None, :, :]
    ).max(axis=2)
    match = distances.argmin(axis=1)
    worst = float(distances[np.arange(k), match].max())
    reference_degrees, _ = character_degrees(group, reference)
    ok = (
        len(set(match.tolist())) == k
        and worst <= 1e-6 * max(1.0, float(np.abs(reference).max()))
        and list(data.degrees) == [reference_degrees[j] for j in match]
    )
    detail = (
        f"{k} central characters and degrees from {len(data.class_sums)} "
        "class sums"
    )
    if ok:
        detail += " match the tensor route"
    else:
        detail += f" differ from the tensor route (largest difference {worst:.3e})"
    return ok, detail, worst


def clifford_class_count(params: GroupParams) -> int:
    """Number of irreducible characters of G(r, p, n), without enumerating
    it.  Those of G(r, 1, n) are the r-tuples of partitions of total size n,
    and the characters trivial on G(r, p, n) form a cyclic group Z_p acting
    on them by shifting the tuple r/p slots.  G(r, p, n) is normal with
    cyclic quotient, so (Clifford) a character with stabiliser S restricts
    to |S| irreducibles, shared by its p/|S| shifts: in all
    (1/p) sum_chi |S_chi|^2 = (1/p) sum over a, b in Z_p of the tuples fixed
    by both.  These are fixed by the subgroup of order t = lcm(ord a, ord b),
    so they repeat with period r/t and, when t divides n, are the (r/t)-tuples
    of total size n/t."""
    r, p, n = params.r, params.p, params.n
    total = 0
    for a in range(p):
        for b in range(p):
            t = lcm(p // gcd(a, p), p // gcd(b, p))
            if n % t == 0:
                total += count_partition_tuples(r // t, n // t)
    return total // p


def _class_count(params: GroupParams) -> CheckOutcome:
    classes = len(cached_group(params).conjugacy)
    characters = clifford_class_count(params)
    detail = f"{classes} classes, {characters} irreducible characters by Clifford"
    return classes == characters, detail, None


def _integrality(params: GroupParams) -> CheckOutcome:
    worst = 0.0
    bad: list[str] = []
    for kind in KINDS:
        deviation = _integer_deviation(cached_numeric_spectrum(params, kind))
        worst = max(worst, deviation)
        if deviation > INTEGRALITY_TOLERANCE:
            bad.append(kind)
    ok = not bad
    detail = f"worst integer deviation {worst:.2e} across {len(KINDS)} kinds"
    if bad:
        detail += f"; beyond tolerance for: {', '.join(bad)}"
    return ok, detail, worst


def _standard_set_observation(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    matrix = distance_matrix_bfs(group, standard_connection(group))
    spectrum = spectrum_numeric(matrix)
    deviation = _integer_deviation(spectrum)
    ok = deviation > 1e-3
    detail = (
        f"standard-set distance spectrum: largest integer deviation "
        f"{deviation:.4f} (observational; non-integrality expected)"
    )
    return ok, detail, deviation


def _length_is_codim(params: GroupParams) -> bool:
    """Reflection length equals codimension on G(r, 1, n) and on the real
    groups."""
    return params.p == 1 or is_real(params)


def _length_equals_codim(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    mismatches = int((cached_bfs_lengths(params) != group.codims).sum())
    ok = mismatches == 0
    detail = f"{group.order} elements, {mismatches} mismatches"
    return ok, detail, None


def _length_exceeds_codim_witness(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    witness = GroupElement(r=params.r, exponents=(1, 1), perm=(0, 1))
    index = group.index_of(witness)
    length = int(cached_bfs_lengths(params)[index])
    codimension = int(group.codims[index])
    ok = length == 3 and codimension == 2
    detail = (
        f"element {witness} of {params}: reflection length {length}, "
        f"codimension {codimension} (expected 3 > 2)"
    )
    return ok, detail, None


def _length_formula(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    bfs = cached_bfs_lengths(params)
    mismatches = int((group.reflection_lengths != bfs).sum())
    ok = mismatches == 0
    detail = (
        f"{group.order} elements, {mismatches} mismatches between Shi's "
        "formula and BFS over all reflections"
    )
    return ok, detail, None


def _rational_constancy(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    rational_of = np.array(group.rational.class_to_rational)[group.conjugacy.class_of]
    # the distinct (rational class, length, codimension) triples: a rational
    # class met in more than one has a non-constant length or codimension
    triples = np.unique(
        np.stack([rational_of, group.reflection_lengths, group.codims]), axis=1
    )
    bad = int((np.bincount(triples[0]) > 1).sum())
    ok = bad == 0
    detail = (
        f"{len(group.rational)} rational classes, "
        f"{bad} with non-constant length or codimension"
    )
    return ok, detail, None


def _galois_exhaustive(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    pairs = 0
    for x in group.elements:
        order = element_order(x)
        target_types = {
            d: cycle_type(element_power(x, d))
            for d in range(1, order + 1)
            if gcd(d, order) == 1
        }
        for d, expected in target_types.items():
            e = find_galois_exponent(x, d)
            if gcd(e, params.r) != 1:
                return False, f"exponent {e} for {x}, d={d} shares a factor with r", None
            if cycle_type(galois_apply(x, e)) != expected:
                return False, f"wrong cycle type for {x}, d={d}, e={e}", None
            pairs += 1
    return True, f"{pairs} (element, power) pairs verified", None


def _radius(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    bad: list[str] = []
    for kind in KINDS:
        f = class_function(group, kind)
        spectrum = cached_numeric_spectrum(params, kind)
        if not spectral_radius_check(group, f, spectrum):
            bad.append(kind)
    ok = not bad
    detail = "largest eigenvalue matches the function sum, strictly dominant"
    if bad:
        detail = f"radius check failed for: {', '.join(bad)}"
    return ok, detail, None


def _sum_formula(label: str, values: np.ndarray, closed_form: int) -> CheckOutcome:
    total = int(values.sum())
    return total == closed_form, f"{label} sum {total}, closed form {closed_form}", None


def _bipartite(params: GroupParams) -> bool:
    """Whether the Cayley graph on all reflections is 2-colourable;
    bipartite_check raises if the spectrum or the reflection orders say
    otherwise."""
    spectrum = cached_numeric_spectrum(params, "adjacency")
    return bipartite_check(cached_group(params), spectrum)


def _bipartite_agreement(params: GroupParams) -> CheckOutcome:
    detail = "bipartite" if _bipartite(params) else "not bipartite"
    return True, f"{detail}; 2-coloring, spectrum symmetry, orders agree", None


def _bipartite_classification(params: GroupParams) -> CheckOutcome:
    # det(g) = sign(perm) * zeta_r^sum(e) with sum(e) in pZ/rZ.  For r/p <= 2
    # det takes only the values +-1 and every reflection has order 2, hence
    # det -1, so det 2-colours the graph.  For r/p >= 3 a diagonal reflection
    # t has t^2 also a reflection, and t * t * t^-2 = 1 is an odd cycle.
    expected = params.r // params.p <= 2
    colorable = _bipartite(params)
    return colorable == expected, f"bipartite = {colorable}, expected {expected}", None


def _groups(*triples: tuple[int, int, int]) -> tuple[GroupParams, ...]:
    return tuple(GroupParams(*triple) for triple in triples)


# (prefix, criterion, check[, condition]); check and condition take the group
Row = tuple
Section = tuple[tuple[GroupParams, ...], tuple[Row, ...]]

_DESK = desk_scale_params()

_SUITES: dict[str, tuple[Section, ...]] = {
    "dihedral": (
        (tuple(GroupParams(r, r, 2) for r in range(3, 9)), (
            ("dihedral-adjacency", 1, lambda q: _numeric_equals(
                q, "adjacency", {q.r: 1, 0: 2 * q.r - 2, -q.r: 1})),
            ("dihedral-distance", 1, lambda q: _numeric_equals(
                q, "distance", {3 * q.r - 2: 1, q.r - 2: 1, -2: 2 * q.r - 2})),
        )),
    ),
    "tables": (
        (_groups((2, 1, 2), (3, 1, 2), (4, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)), (
            ("table-distance", 2, lambda q: _numeric_equals(
                q, "distance", closed_form_reference(q.r, q.n))),
        )),
    ),
    "combinatorial-vs-numeric": (
        (_groups((2, 1, 2), (3, 1, 2), (4, 1, 2), (2, 1, 3), (3, 1, 3)), (
            ("codim-combinatorial-vs-numeric", 3, _combinatorial_vs_numeric),
        )),
        (tuple(GroupParams(r, 1, n) for n in (2, 3) for r in range(2, 9)), (
            ("codim-combinatorial-vs-closed-form", 3, _combinatorial_vs_closed_form),
        )),
        (_groups((3, 1, 2), (2, 1, 3), (4, 2, 2)), tuple(
            (f"class-algebra-{kind}", 10, partial(_class_algebra_vs_numeric, kind=kind))
            for kind in KINDS
        ) + (
            ("class-algebra-degrees", 10, _class_algebra_degrees),
        )),
        (tuple(q for q in _DESK if q.p == 1), tuple(
            (f"class-algebra-vs-combinatorial-{kind}", 3,
             partial(_class_algebra_vs_fold, kind=kind))
            for kind in ("codimension", "distance")
        )),
        (_DESK, (
            ("class-sums-vs-tensor", 10, _class_sums_vs_tensor),
            ("class-count", 10, _class_count),
        )),
    ),
    "integrality": (
        (_DESK, (("integral-spectra", 4, _integrality),)),
        (_groups((3, 1, 2), (4, 1, 2)), (
            ("standard-set-nonintegral", 11, _standard_set_observation),
        )),
    ),
    "length-codim": (
        (_DESK, (("length-equals-codim", 5, _length_equals_codim, _length_is_codim),)),
        (_groups((4, 2, 2)), (
            ("length-exceeds-codim", 5, _length_exceeds_codim_witness),
        )),
        (_DESK, (("length-formula", 5, _length_formula),)),
    ),
    "rational-length": (
        (_DESK, (("rational-constancy", 6, _rational_constancy),)),
        (_groups((4, 1, 2), (6, 1, 2), (4, 2, 2)), (
            ("galois-exhaustive", 7, _galois_exhaustive),
        )),
    ),
    "radius": (
        (_DESK, (
            ("radius", 8, _radius),
            ("xi1-formula", 8, lambda q: _sum_formula(
                "codimension", cached_group(q).codims, xi1_closed_form(q))),
            ("eta1-formula", 8, lambda q: _sum_formula(
                "reflection length", cached_group(q).reflection_lengths,
                eta1_closed_form(q),
            ), _length_is_codim),
        )),
    ),
    "bipartite": (
        (_DESK, (("bipartite-agreement", 9, _bipartite_agreement),)),
        (_DESK, (("bipartite-class", 9, _bipartite_classification),)),
    ),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _expand(sections: tuple[Section, ...]) -> list[Check]:
    """One check per group of a section and row of that section, group by
    group, skipping a row whose condition fails for the group."""
    return [
        (f"{prefix}-{params}", criterion, partial(check, params))
        for groups, rows in sections
        for params in groups
        for prefix, criterion, check, *condition in rows
        if not condition or condition[0](params)
    ]


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return [check for name in _SUITES for check in _expand(_SUITES[name])]
    try:
        sections = _SUITES[suite]
    except KeyError:
        raise ReflectraError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return _expand(sections)


def run_suite(
    suite: str, progress: Callable[[str], None] | None = None
) -> VerificationReport:
    results = []
    for name, criterion, thunk in checks_for_suite(suite):
        if progress is not None:
            progress(name)
        start = time.perf_counter()
        try:
            passed, detail, residual = thunk()
        except ReflectraError as exc:
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
            residual = None
        runtime = time.perf_counter() - start
        results.append(CheckResult(name, criterion, passed, detail, residual))
        log.debug("check %s: %s (%.3fs)", name, "pass" if passed else "FAIL", runtime)
    return VerificationReport(suite=suite, results=tuple(results))
