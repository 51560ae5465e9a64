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

Checks are grouped into suites matching the `verify` subcommand; every check
also carries a criterion number so the acceptance tests can run the same
registry sliced the other way.  All orderings are deterministic.  Groups,
numeric spectra and BFS reference lengths are cached per process; each
group caches its classes and its per-type codimensions and reflection
lengths, and the per-element arrays gathered from them on first use.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
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
    """One named check: pass/fail, a human-readable detail line, the measured
    residual where a numeric tolerance was involved, and the runtime.  The
    runtime is left out of as_dict, so that the data output of identical
    runs is byte-identical; it is logged at DEBUG instead."""

    name: str
    criterion: int
    passed: bool
    detail: str
    residual: float | None
    runtime: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "criterion": self.criterion,
            "passed": self.passed,
            "detail": self.detail,
            "residual": self.residual,
        }


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

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(result for result in self.results if not result.passed)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [result.as_dict() for result in self.results],
        }


def desk_scale_params(
    max_order: int = DESK_MAX_ORDER,
    max_r: int = DESK_MAX_R,
    max_n: int = DESK_MAX_N,
) -> tuple[GroupParams, ...]:
    """Every G(r, p, n) on the r <= max_r, n <= max_n grid whose order fits,
    smallest order first."""
    found = []
    for r in range(1, max_r + 1):
        for p in (d for d in range(1, r + 1) if r % d == 0):
            for n in range(1, max_n + 1):
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


def _fmt_entries(entries) -> str:
    if hasattr(entries, "items"):
        entries = sorted(entries.items(), reverse=True)
    return " ".join(f"{value}^{mult}" for value, mult in entries)


def _integer_deviation(spectrum: Spectrum) -> float:
    """Largest distance from any eigenvalue to its nearest integer."""
    if spectrum.raw is None:
        return spectrum.max_residual
    return max(abs(x - round(x)) for x in spectrum.raw)


def _spectrum_equals(params: GroupParams, kind: str, expected: dict) -> CheckOutcome:
    spectrum = cached_numeric_spectrum(params, kind)
    got = spectrum.as_dict()
    ok = spectrum.integral and got == expected
    detail = f"{kind} spectrum {_fmt_entries(got)}"
    if not ok:
        detail += f"; expected {_fmt_entries(expected)}"
    return ok, detail, spectrum.max_residual


def _dihedral_checks() -> list[Check]:
    checks: list[Check] = []
    for r in range(3, 9):
        params = GroupParams(r, r, 2)
        adjacency = {r: 1, 0: 2 * r - 2, -r: 1}
        distance = {3 * r - 2: 1, r - 2: 1, -2: 2 * r - 2}
        checks.append((
            f"dihedral-adjacency-{params}",
            1,
            lambda q=params, e=adjacency: _spectrum_equals(q, "adjacency", e),
        ))
        checks.append((
            f"dihedral-distance-{params}",
            1,
            lambda q=params, e=distance: _spectrum_equals(q, "distance", e),
        ))
    return checks


def _table_checks() -> list[Check]:
    checks: list[Check] = []
    for r, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]:
        params = GroupParams(r, 1, n)
        expected = {e.eigenvalue: e.multiplicity for e in closed_form_reference(r, n)}
        checks.append((
            f"table-distance-{params}",
            2,
            lambda q=params, e=expected: _spectrum_equals(q, "distance", e),
        ))
    return checks


def _combinatorial_vs_numeric(r: int, n: int) -> CheckOutcome:
    combinatorial = {
        e.eigenvalue: e.multiplicity for e in codim_spectrum_combinatorial(r, n)
    }
    spectrum = cached_numeric_spectrum(GroupParams(r, 1, n), "codimension")
    ok = spectrum.integral and spectrum.as_dict() == combinatorial
    detail = f"combinatorial {_fmt_entries(combinatorial)}"
    if not ok:
        detail += f"; numeric {_fmt_entries(spectrum.as_dict())}"
    return ok, detail, spectrum.max_residual


def _combinatorial_vs_closed_form(r: int, n: int) -> CheckOutcome:
    combinatorial = {
        e.eigenvalue: e.multiplicity for e in codim_spectrum_combinatorial(r, n)
    }
    reference = {e.eigenvalue: e.multiplicity for e in closed_form_reference(r, n)}
    ok = combinatorial == reference
    detail = f"combinatorial {_fmt_entries(combinatorial)}"
    if not ok:
        detail += f"; closed form {_fmt_entries(reference)}"
    return ok, detail, None


def _class_algebra_spectrum(params: GroupParams, kind: str) -> CheckOutcome:
    group = cached_group(params)
    algebraic = spectrum_class_algebra(
        group, class_function(group, kind), data=cached_class_algebra_data(params)
    )
    numeric = cached_numeric_spectrum(params, kind)
    ok = algebraic.integral and numeric.integral and algebraic.entries == numeric.entries
    detail = f"{kind}: class-algebra {_fmt_entries(algebraic.entries)}"
    if not ok:
        detail += f"; numeric {_fmt_entries(numeric.entries)}"
    return ok, detail, max(algebraic.max_residual, numeric.max_residual)


def _class_algebra_vs_combinatorial(
    params: GroupParams, kind: str
) -> CheckOutcome:
    """A p = 1 spectrum of the given kind from class algebra against the
    codimension fold; the distance kind is included because reflection length
    equals codimension on G(r, 1, n) (Shi)."""
    group = cached_group(params)
    algebraic = spectrum_class_algebra(
        group, class_function(group, kind), data=cached_class_algebra_data(params)
    )
    fold = {
        e.eigenvalue: e.multiplicity
        for e in codim_spectrum_combinatorial(params.r, params.n)
    }
    ok = algebraic.integral and algebraic.as_dict() == fold
    detail = f"{kind}: codimension fold {_fmt_entries(fold)}"
    if not ok:
        detail += f"; class-algebra {_fmt_entries(algebraic.entries)}"
    return ok, detail, algebraic.max_residual


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
    class-sum matrices, each scaled to 1 at the identity class."""
    a = class_structure_constants(group).astype(np.float64)
    coeffs = np.random.default_rng(0).integers(1, 1 << 20, size=len(a))
    _, vectors = np.linalg.eig(np.tensordot(coeffs, a, axes=1))
    identity_class = int(group.conjugacy.class_of[group.identity_index])
    return (vectors / vectors[identity_class]).T


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


def _combinatorial_checks() -> list[Check]:
    checks: list[Check] = []
    for r, n in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        checks.append((
            f"codim-combinatorial-vs-numeric-G({r},1,{n})",
            3,
            lambda a=r, b=n: _combinatorial_vs_numeric(a, b),
        ))
    for n in (2, 3):
        for r in range(2, 9):
            checks.append((
                f"codim-combinatorial-vs-closed-form-G({r},1,{n})",
                3,
                lambda a=r, b=n: _combinatorial_vs_closed_form(a, b),
            ))
    for r, p, n in [(3, 1, 2), (2, 1, 3), (4, 2, 2)]:
        params = GroupParams(r, p, n)
        for kind in KINDS:
            checks.append((
                f"class-algebra-{kind}-{params}",
                10,
                lambda q=params, k=kind: _class_algebra_spectrum(q, k),
            ))
        checks.append((
            f"class-algebra-degrees-{params}",
            10,
            lambda q=params: _class_algebra_degrees(q),
        ))
    for params in (q for q in desk_scale_params() if q.p == 1):
        for kind in ("codimension", "distance"):
            checks.append((
                f"class-algebra-vs-combinatorial-{kind}-{params}",
                3,
                lambda q=params, k=kind: _class_algebra_vs_combinatorial(q, k),
            ))
    for params in desk_scale_params():
        checks.append((
            f"class-sums-vs-tensor-{params}",
            10,
            lambda q=params: _class_sums_vs_tensor(q),
        ))
        checks.append((
            f"class-count-{params}",
            10,
            lambda q=params: _class_count(q),
        ))
    return checks


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


def _integrality_checks() -> list[Check]:
    checks: list[Check] = [
        (
            f"integral-spectra-{params}",
            4,
            lambda q=params: _integrality(q),
        )
        for params in desk_scale_params()
    ]
    for r in (3, 4):
        params = GroupParams(r, 1, 2)
        checks.append((
            f"standard-set-nonintegral-{params}",
            11,
            lambda q=params: _standard_set_observation(q),
        ))
    return checks


def _length_equals_codim(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    mismatches = int((cached_bfs_lengths(params) != group.codims).sum())
    ok = mismatches == 0
    detail = f"{group.order} elements, {mismatches} mismatches"
    return ok, detail, None


def _length_exceeds_codim_witness() -> CheckOutcome:
    params = GroupParams(4, 2, 2)
    group = cached_group(params)
    witness = GroupElement(r=4, exponents=(1, 1), perm=(0, 1))
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


def _length_codim_checks() -> list[Check]:
    checks: list[Check] = [
        (
            f"length-equals-codim-{params}",
            5,
            lambda q=params: _length_equals_codim(q),
        )
        for params in desk_scale_params()
        if params.p == 1 or is_real(params)
    ]
    checks.append((
        "length-exceeds-codim-G(4,2,2)",
        5,
        lambda: _length_exceeds_codim_witness(),
    ))
    checks += [
        (
            f"length-formula-{params}",
            5,
            lambda q=params: _length_formula(q),
        )
        for params in desk_scale_params()
    ]
    return checks


def _rational_constancy(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    classes = group.conjugacy
    bad = 0
    for rational_class in group.rational.groups:
        members = [i for c in rational_class for i in classes.members[c]]
        lengths = {int(group.reflection_lengths[i]) for i in members}
        codims = {int(group.codims[i]) for i in members}
        if len(lengths) != 1 or len(codims) != 1:
            bad += 1
    ok = bad == 0
    detail = (
        f"{len(group.rational.groups)} rational classes, "
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


def _rational_length_checks() -> list[Check]:
    checks: list[Check] = [
        (
            f"rational-constancy-{params}",
            6,
            lambda q=params: _rational_constancy(q),
        )
        for params in desk_scale_params()
    ]
    for r, p, n in [(4, 1, 2), (6, 1, 2), (4, 2, 2)]:
        params = GroupParams(r, p, n)
        checks.append((
            f"galois-exhaustive-{params}",
            7,
            lambda q=params: _galois_exhaustive(q),
        ))
    return checks


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


def _xi1_formula(params: GroupParams) -> CheckOutcome:
    expected = xi1_closed_form(params)
    total = int(cached_group(params).codims.sum())
    ok = expected == total
    detail = f"codimension sum {total}, closed form {expected}"
    return ok, detail, None


def _eta1_formula(params: GroupParams) -> CheckOutcome:
    expected = eta1_closed_form(params)
    total = int(cached_group(params).reflection_lengths.sum())
    ok = expected == total
    detail = f"reflection length sum {total}, closed form {expected}"
    return ok, detail, None


def _radius_checks() -> list[Check]:
    checks: list[Check] = []
    for params in desk_scale_params():
        checks.append((
            f"radius-{params}",
            8,
            lambda q=params: _radius(q),
        ))
        checks.append((
            f"xi1-formula-{params}",
            8,
            lambda q=params: _xi1_formula(q),
        ))
        if params.p == 1 or is_real(params):
            checks.append((
                f"eta1-formula-{params}",
                8,
                lambda q=params: _eta1_formula(q),
            ))
    return checks


def _bipartite_agreement(params: GroupParams) -> CheckOutcome:
    group = cached_group(params)
    spectrum = cached_numeric_spectrum(params, "adjacency")
    colorable = bipartite_check(group, spectrum)
    detail = "bipartite" if colorable else "not bipartite"
    return True, f"{detail}; 2-coloring, spectrum symmetry, orders agree", None


def _bipartite_classification(params: GroupParams, expected: bool) -> CheckOutcome:
    group = cached_group(params)
    spectrum = cached_numeric_spectrum(params, "adjacency")
    colorable = bipartite_check(group, spectrum)
    ok = colorable == expected
    detail = (
        f"bipartite = {colorable}, expected {expected}"
    )
    return ok, detail, None


def _bipartite_checks() -> list[Check]:
    checks: list[Check] = [
        (
            f"bipartite-agreement-{params}",
            9,
            lambda q=params: _bipartite_agreement(q),
        )
        for params in desk_scale_params()
    ]
    # det(g) = sign(perm) * zeta_r^sum(e) with sum(e) in pZ/rZ.  For r/p <= 2
    # det takes only the values +-1 and every reflection has order 2, hence
    # det -1, so det 2-colours the graph.  For r/p >= 3 a diagonal reflection
    # t has t^2 also a reflection, and t * t * t^-2 = 1 is an odd cycle.
    for params in desk_scale_params():
        expected = params.r // params.p <= 2
        checks.append((
            f"bipartite-class-{params}",
            9,
            lambda q=params, e=expected: _bipartite_classification(q, e),
        ))
    return checks


_SUITE_BUILDERS: dict[str, Callable[[], list[Check]]] = {
    "dihedral": _dihedral_checks,
    "tables": _table_checks,
    "combinatorial-vs-numeric": _combinatorial_checks,
    "integrality": _integrality_checks,
    "length-codim": _length_codim_checks,
    "rational-length": _rational_length_checks,
    "radius": _radius_checks,
    "bipartite": _bipartite_checks,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS) + ("all",)
CRITERIA = tuple(range(1, 12))


def checks_for_suite(suite: str) -> list[Check]:
    if suite == "all":
        return [check for name in _SUITE_BUILDERS for check in _SUITE_BUILDERS[name]()]
    try:
        builder = _SUITE_BUILDERS[suite]
    except KeyError:
        raise ReflectraError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return builder()


def checks_for_criterion(criterion: int) -> list[Check]:
    if criterion not in CRITERIA:
        raise ReflectraError(f"criteria run 1..{CRITERIA[-1]}, got {criterion}")
    return [
        check for check in checks_for_suite("all") if check[1] == criterion
    ]


def _run_checks(
    suite: str,
    checks: list[Check],
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    results = []
    for name, criterion, thunk in checks:
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
        results.append(
            CheckResult(
                name=name,
                criterion=criterion,
                passed=passed,
                detail=detail,
                residual=residual,
                runtime=runtime,
            )
        )
        log.debug("check %s: %s (%.3fs)", name, "pass" if passed else "FAIL", runtime)
    return VerificationReport(suite=suite, results=tuple(results))


def run_suite(
    suite: str, progress: Callable[[str], None] | None = None
) -> VerificationReport:
    return _run_checks(suite, checks_for_suite(suite), progress)


def run_criterion(
    criterion: int, progress: Callable[[str], None] | None = None
) -> VerificationReport:
    return _run_checks(
        f"criterion-{criterion}", checks_for_criterion(criterion), progress
    )
