"""Partition-tuple combinatorics for the codimension spectrum of G(r, 1, n).

Characters of G(r, 1, n) are indexed by r-tuples of partitions
(lambda(0), ..., lambda(r-1)) of total size n.  The codimension group matrix
has one eigenvalue per tuple, and the attached polynomial factors over the
boxes of the tuple: writing c = column - row for the content of a box,

    root r - 1 + r*c   for each box of lambda(0),
    root  -1 + r*c     for each box of lambda(k), k >= 1.

With roots alpha_1, ..., alpha_n the eigenvalue is the derivative at t = 1
of the product (1 + alpha_1 t) ... (1 + alpha_n t), and its multiplicity is
the squared character dimension n! / (product of all hook lengths).

Both factor over the components: the (value, derivative) pair at t = 1
follows from the components' pairs by the product rule
(V, D) * (v, d) = (V v, D v + V d), and the dimension is the multinomial
n! / (|lambda(0)|! ... |lambda(r-1)|!) times the components' standard
tableau counts f.  A nonempty partition has a box of content 0, whose root
in a later slot gives the pair (0, -1); as (V, D) * (0, d) = (0, V d) and
(0, D) * (0, d') = (0, 0), codim_spectrum_combinatorial lists no tuple but
splits the spectrum in three (contents and hooks: Stanley, Enumerative
Combinatorics 2, 7.11-7.13):

(a) every later slot empty: slot 0's d(lambda), lambda a partition of n, with
    weight f(lambda)^2, f summed up Young's lattice by the branching rule;
(b) slot 0 of size k and one of the r - 1 later slots of size m = n - k > 0:
    slot 0's v times the later slot's d.  v is nonzero only on a row, where
    it is r^k k! (two rows give a box of content -1, whose factor is 0), and
    d only on a hook (a second diagonal box gives a second factor 0).  A hook
    with leg l has d = (-1)^(l+1) r^(m-1) (m-1-l)! l! and f = C(m-1, l), so
    the weight is C(n, k)^2 (r - 1) C(m-1, l)^2;
(c) every other tuple has eigenvalue 0, with weight summed from its own
    three parts, so that the total's check against r^n n! still catches a
    slip in any of them: slot 0 not a row, C(n,k)^2 (k! - 1) (r - 1) m!; a row
    and a later slot that is no hook, C(n,k)^2 (r - 1) (m! - C(2m-2, m-1));
    two or more later slots, C(n,k)^2 k! m! ((r - 1)^m - (r - 1)).

The fold and closed_form_reference give (eigenvalue, multiplicity) pairs,
eigenvalues descending; codim_spectrum_entries adds each tuple to its pair.
"""

from __future__ import annotations

import itertools
import logging
import operator
import time
from functools import lru_cache
from math import comb, factorial

from .errors import ParameterError, SizeLimitError, format_size

log = logging.getLogger(__name__)

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_FOLD_CAP = 10**7
DEFAULT_ROOT_CAP = 10**6

Partition = tuple[int, ...]
PartitionTuple = tuple[Partition, ...]


def validate_partition(p: Partition) -> None:
    if any(part < 1 for part in p):
        raise ParameterError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ParameterError(f"partition parts must be weakly decreasing: {p}")


def _gen_partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest first part first."""
    if n < 0:
        raise ParameterError(f"cannot partition {n}")
    return tuple(_gen_partitions(n, n))


def _partition_numbers():
    """p(0), p(1), ... one level at a time, by Euler's pentagonal number
    theorem: p(k) is the sum over j != 0 of (-1)^(j+1) p(k - j(3j - 1)/2)."""
    table, pentagonal = [1], []  # (j(3j - 1)/2, sign) for j = 1, -1, 2, -2, ...
    yield 1
    for k in itertools.count(1):
        j = len(pentagonal) // 2 + 1
        if j * (3 * j - 1) // 2 == k:
            pentagonal += [(k, j % 2 or -1), (k + j, j % 2 or -1)]
        table.append(sum(sign * table[k - g] for g, sign in pentagonal if g <= k))
        yield table[k]


def partition_counts(n: int) -> list[int]:
    """Partition numbers p(0..n)."""
    return list(itertools.islice(_partition_numbers(), n + 1))


def contents(p: Partition) -> tuple[int, ...]:
    """Box contents column - row, read row by row."""
    validate_partition(p)
    return tuple(col - row for row, size in enumerate(p) for col in range(size))


def conjugate_partition(p: Partition) -> Partition:
    """Column lengths: columns p[i+1] .. p[i]-1 have length i + 1, so the
    rows, read bottom up, fill the columns left to right."""
    validate_partition(p)
    conj: list[int] = []
    for i in range(len(p) - 1, -1, -1):
        conj.extend([i + 1] * (p[i] - len(conj)))
    return tuple(conj)


def hook_lengths(p: Partition) -> tuple[int, ...]:
    conj = conjugate_partition(p)
    return tuple(
        p[row] - col + conj[col] - row - 1
        for row in range(len(p))
        for col in range(p[row])
    )


def _balanced(items, times, one):
    """Fold items with an associative times (one if none) as a balanced
    tree, so that big integers meet at similar sizes, not one by one."""
    items = list(items) or [one]
    while len(items) > 1:
        paired = [times(a, b) for a, b in zip(items[::2], items[1::2])]
        items = paired + items[2 * len(paired):]
    return items[0]


def hook_product(p: Partition) -> int:
    return _balanced(hook_lengths(p), operator.mul, 1)


def character_dimension(tpl: PartitionTuple) -> int:
    """n! over the product of all hook lengths across the tuple's components."""
    n = sum(sum(p) for p in tpl)
    denom = 1
    for p in tpl:
        denom *= hook_product(p)
    dim, rem = divmod(factorial(n), denom)
    if rem:
        raise ParameterError(f"hook product does not divide {n}! for {tpl}")
    return dim


def _compositions(n: int, slots: int):
    if slots == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, slots - 1):
            yield (first,) + rest


def _check_ranks(r: int, n: int) -> None:
    if r < 1 or n < 0:
        raise ParameterError(f"need r >= 1 and n >= 0, got r={r}, n={n}")


def count_partition_tuples(r: int, n: int) -> int:
    """The r-tuples of partitions of total n, slot by slot from p(0..n)."""
    _check_ranks(r, n)
    counts = partition_counts(n)
    tuples = [1] + [0] * n
    for _ in range(r):
        tuples = [
            sum(counts[k] * tuples[total - k] for k in range(total + 1))
            for total in range(n + 1)
        ]
    return tuples[n]


def enumerate_partition_tuples(r: int, n: int) -> tuple[PartitionTuple, ...]:
    """All r-tuples of partitions with total size n, deterministic order:
    compositions with earlier slots as large as possible, then each slot in
    partitions_of order.  The trivial tuple ((n), (), ..., ()) comes first."""
    total = count_partition_tuples(r, n)
    if total > DEFAULT_TUPLE_CAP:
        raise SizeLimitError(
            f"{total} partition tuples for r={r}, n={n} exceed the cap "
            f"{DEFAULT_TUPLE_CAP}"
        )
    out = []
    for comp in _compositions(n, r):
        out.extend(itertools.product(*(partitions_of(k) for k in comp)))
    return tuple(out)


def poincare_star_roots(tpl: PartitionTuple, r: int) -> tuple[int, ...]:
    """Integer roots alpha_i, largest first; the attached polynomial is the
    product of (t + alpha_i)."""
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    if len(tpl) != r:
        raise ParameterError(f"tuple has {len(tpl)} components, expected r={r}")
    roots = [r - 1 + r * c for c in contents(tpl[0])]
    for component in tpl[1:]:
        roots.extend(-1 + r * c for c in contents(component))
    return tuple(sorted(roots, reverse=True))


ValueDerivative = tuple[int, int]


def _product(pairs) -> ValueDerivative:
    """(value, derivative) at t = 1 of a product of polynomials, from the
    (value, derivative) pairs of the factors: the product rule
    (V, D) * (v, d) = (V v, D v + V d), associative, in exact integer
    arithmetic as a balanced tree."""
    return _balanced(pairs, lambda x, y: (x[0] * y[0], x[1] * y[0] + x[0] * y[1]), (1, 0))


def xi_from_roots(roots: tuple[int, ...]) -> int:
    """Derivative at t = 1 of the product of (1 + alpha t); each factor has
    the pair (1 + alpha, alpha)."""
    return _product((1 + alpha, alpha) for alpha in roots)[1]


def _grow(level: dict[int, int]) -> tuple[dict[int, int], int]:
    """The next level of Young's lattice, each partition with its number f of
    standard tableaux by the branching rule, and the cells visited, one per
    box added.  A partition is keyed by its outline in an n x n box, read
    from bottom left to top right, first step highest: bit 1 east, 0 north.
    Each 0 closes a row as long as the 1s before it; the empty partition is
    (1 << n) - 1.  A box fits at each 01, and adding the 1's bit turns it
    into 10."""
    above: dict[int, int] = {}
    cells = 0
    for word, f in level.items():
        corners = word & ~(word >> 1)
        while corners:
            corner = corners & -corners
            grown = word + corner
            above[grown] = above.get(grown, 0) + f
            corners ^= corner
            cells += 1
    return above, cells


def _slot_zero_pairs(r: int, n: int) -> tuple[dict[ValueDerivative, int], int, int]:
    """The distinct slot-0 pairs (v, d) of the partitions of n, each with its
    sum of f^2, the lattice cells visited and the partitions of n.  The f^2
    of level k must sum to k!: every level is checked when r > 1, level n
    when r = 1.  A pair is the product-rule fold of per-row prefix pairs, top
    row first, and stops at (0, 0), which every further factor keeps."""
    # segments[row][s]: the pair of the first s boxes of that row, contents
    # -row .. s-1-row; a partition of n has rows of at most n // (row + 1)
    segments = [
        [_product((r + r * c, r - 1 + r * c) for c in range(-row, s - row))
         for s in range(n // (row + 1) + 1)]
        for row in range(n)
    ]
    level, cells = {(1 << n) - 1: 1}, 0
    for k in range(n + 1):
        if k:
            level, visited = _grow(level)
            cells += visited
        if r == 1 and k < n:
            continue
        squared = [(word, f * f) for word, f in level.items()]
        total = sum(square for _, square in squared)
        if total != factorial(k):
            raise ParameterError(
                f"squared tableau counts of the partitions of {k} sum to "
                f"{total}, expected {k}! = {factorial(k)}"
            )
    groups: dict[ValueDerivative, int] = {}
    for word, square in squared:
        value, derivative, norths = 1, 0, ~word
        for segment in segments:
            north = norths & -norths  # the lowest 0 closes the next row
            part = n - (word & (north - 1)).bit_count()
            if not part:
                break
            v, d = segment[part]
            value, derivative = value * v, derivative * v + value * d
            if not value and not derivative:
                break
            norths ^= north
        key = (value, derivative)
        groups[key] = groups.get(key, 0) + square
    return groups, cells, len(squared)


def _hook_derivative(r: int, m: int, leg: int) -> int:
    """d of a later slot's hook of m >= 1 boxes, from its contents -leg..m-1-leg."""
    return (-1) ** (leg + 1) * r ** (m - 1) * factorial(m - 1 - leg) * factorial(leg)


def codim_spectrum_entries(r: int, n: int) -> tuple[tuple, ...]:
    """One (eigenvalue, squared dimension, tuple) triple per partition tuple,
    in enumerate_partition_tuples order, from each tuple's own roots and
    hook lengths: the per-tuple reference the tests compare the fold with,
    sharing no partition table with it."""
    return tuple(
        (xi_from_roots(poincare_star_roots(t, r)), character_dimension(t) ** 2, t)
        for t in enumerate_partition_tuples(r, n)
    )


def codim_spectrum_combinatorial(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Aggregated codimension spectrum of G(r, 1, n), (eigenvalue,
    multiplicity) pairs, eigenvalues descending, from parts (a)-(c) of the
    module docstring.  Squared dimensions must add up to r^n * n!.

    No tuple is listed, and the work is capped before any partition is.
    First r n, which bounds the roots, so every integer is below
    (r n)^n n!; then p(0..n), refused once one p(k) <= p(n) passes the cap;
    then the whole bound: at most n p(n) lattice cells (Euler's
    n p(n) = sum_{m=1..n} sigma(m) p(n - m) bounds the sum_{m=1..n}
    m p(n - m) visited), the p(n) slot-0 pairs and, with later slots, the
    n (n + 3) / 2 closed-form terms."""
    start = time.perf_counter()
    _check_ranks(r, n)
    if r * n > DEFAULT_ROOT_CAP:
        raise SizeLimitError(
            f"the partition-tuple fold for r={r}, n={n} has roots of size up "
            f"to r n = {format_size(r * n)}, above the cap {DEFAULT_ROOT_CAP}"
        )

    def refuse(steps: int, whole: bool) -> None:
        bound = format_size(steps) if whole else f"more than {format_size(steps)}"
        raise SizeLimitError(
            f"the partition-tuple fold for r={r}, n={n} takes up to {bound} "
            f"steps, above the cap {DEFAULT_FOLD_CAP}"
        )

    for k, count in zip(range(n + 1), _partition_numbers()):
        if k < n and count > DEFAULT_FOLD_CAP:
            refuse(count, False)
    steps = (n + 1) * count + (n * (n + 3) // 2 if r > 1 else 0)
    if steps > DEFAULT_FOLD_CAP:
        refuse(steps, True)
    pairs, cells, listed = _slot_zero_pairs(r, n)
    spectrum: dict[int, int] = {}
    for (_, eigenvalue), squared in pairs.items():  # (a)
        spectrum[eigenvalue] = spectrum.get(eigenvalue, 0) + squared
    zero = 0
    for k in range(n if r > 1 else 0):
        m = n - k
        scale = comb(n, k) ** 2
        row = r**k * factorial(k)
        for leg in range(m):  # (b)
            eigenvalue = row * _hook_derivative(r, m, leg)
            weight = scale * (r - 1) * comb(m - 1, leg) ** 2
            spectrum[eigenvalue] = spectrum.get(eigenvalue, 0) + weight
        zero += scale * (  # (c)
            (factorial(k) - 1) * (r - 1) * factorial(m)
            + (r - 1) * (factorial(m) - comb(2 * m - 2, m - 1))
            + factorial(k) * factorial(m) * ((r - 1) ** m - (r - 1))
        )
    if zero:
        spectrum[0] = spectrum.get(0, 0) + zero
    log.debug(
        "codimension fold of G(%d,1,%d): %d lattice cells, %d partitions of %d, "
        "%d distinct slot-0 pairs, %d row x hook terms, %d distinct eigenvalues, "
        "%.4fs", r, n, cells, listed, n, len(pairs),
        n * (n + 1) // 2 if r > 1 else 0, len(spectrum), time.perf_counter() - start,
    )
    total = sum(spectrum.values())
    expected = r**n * factorial(n)
    if total != expected:
        raise ParameterError(
            f"multiplicities sum to {total}, expected |G({r},1,{n})| = {expected}"
        )
    return tuple(sorted(spectrum.items(), reverse=True))


def closed_form_reference(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Pinned closed-form codimension spectra for G(r, 1, 2) and G(r, 1, 3),
    (eigenvalue, multiplicity) pairs with eigenvalues descending; entries
    with zero multiplicity are omitted."""
    if n not in (2, 3):
        raise ParameterError(f"closed forms cover n in (2, 3) only, got n={n}")
    if r < 2:
        raise ParameterError(f"closed forms need r >= 2, got r={r}")
    if n == 2:
        rows = [
            (4 * r**2 - 3 * r, 1),
            (r, r - 1),
            (0, 2 * r**2 - 6 * r + 4),
            (-r, 5 * r - 4),
        ]
    else:
        rows = [
            (18 * r**3 - 11 * r**2, 1),
            (r**2, 13 * r - 12),
            (0, 6 * r**3 - 33 * r + 27),
            (-(r**2), 9 * r - 9),
            (-2 * r**2, 11 * r - 7),
        ]
    return tuple((e, m) for e, m in rows if m > 0)


def format_partition_tuple(tpl: PartitionTuple) -> str:
    """Text form "3,1||2": components joined by '|', empty components blank."""
    return "|".join(",".join(str(part) for part in p) for p in tpl)


def parse_partition_tuple(text: str) -> PartitionTuple:
    components = text.strip().split("|")
    tpl = []
    for chunk in components:
        chunk = chunk.strip()
        if not chunk:
            tpl.append(())
            continue
        try:
            p = tuple(int(tok) for tok in chunk.split(","))
        except ValueError as exc:
            raise ParameterError(f"malformed partition {chunk!r}") from exc
        validate_partition(p)
        tpl.append(p)
    return tuple(tpl)
