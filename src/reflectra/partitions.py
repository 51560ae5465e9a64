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
(0, D) * (0, d') = (0, 0), codim_spectrum_combinatorial lists no tuple and
no partition but splits the spectrum in three (contents and hooks:
Stanley, Enumerative Combinatorics 2, 7.11-7.13):

(a) every later slot empty: slot 0's d(lambda), lambda a partition of n,
    with weight f(lambda)^2.  A box of content c has the pair
    (r (1 + c), r - 1 + r c), of value 0 exactly when c = -1, and the boxes
    of content -1 are the (i + 1, i) (row, column from 0), each present when
    row i + 1 is longer than i, so (2, 1) needs (1, 0).  Thus lambda has
    - no zero factor if it is a row: v = r^n n!,
      d = r^(n-1) sum_{k=1..n} (r k - 1) n! / k;
    - one, (1, 0), if it is (a, b, 1^j), a >= b >= 1: d is its -1 times
      the other boxes' values r^(n-1) a! (b-1)! (-1)^j j!, and its hooks
      give f = n! (a - b + 1) / ((a + j + 1) (b + j) a! (b-1)! j!);
    - two or more otherwise: eigenvalue 0 with weight n! - 1 - sum f^2
      over the (a, b, 1^j), as the f^2 of the partitions of n sum to n!;
(b) slot 0 of size k and one of the r - 1 later slots of size m = n - k > 0:
    slot 0's v times the later slot's d.  v is nonzero only on a row, where
    it is r^k k!, and d only on a hook (a second diagonal box gives a second
    factor 0).  A hook with leg l has d = (-1)^(l+1) r^(m-1) (m-1-l)! l! and
    f = C(m-1, l), so the weight is C(n, k)^2 (r - 1) C(m-1, l)^2;
(c) every other tuple has eigenvalue 0: those with slot 0 of size k < n
    weigh C(n, k)^2 k! m! (r - 1)^m together, of which the rows against
    hooks of (b) take C(n, k)^2 (r - 1) C(2m-2, m-1).

The about 3 n^2 / 4 terms are integers from running products.  The total
r^n n! cannot see a wrong f, whose error the zero weight of (a) absorbs,
so the fold checks three more exact identities, with
P(t) = prod_{i=1..n} (1 + (r i - 1) t) counting the elements by
codimension (degrees r, 2r, ..., nr): every f divides exactly; the trace
sum m theta = 0; and sum m theta^2 = r^n n! (P''(1) + P'(1)), the order
times the sum of codim(g)^2.  The row's d is P'(1).

The fold and closed_form_reference give (eigenvalue, multiplicity) pairs,
eigenvalues descending; codim_spectrum_entries adds each tuple to its pair.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import time
from functools import lru_cache
from math import factorial

from .errors import ConsistencyError, ParameterError, SizeLimitError, format_size

log = logging.getLogger(__name__)

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_FOLD_CAP = 3 * 10**6
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


def _product(pairs) -> tuple[int, int]:
    """(value, derivative) at t = 1 of a product of polynomials, from the
    (value, derivative) pairs of the factors: the product rule
    (V, D) * (v, d) = (V v, D v + V d), associative, in exact integer
    arithmetic as a balanced tree."""
    return _balanced(pairs, lambda x, y: (x[0] * y[0], x[1] * y[0] + x[0] * y[1]), (1, 0))


def xi_from_roots(roots: tuple[int, ...]) -> int:
    """Derivative at t = 1 of the product of (1 + alpha t); each factor has
    the pair (1 + alpha, alpha)."""
    return _product((1 + alpha, alpha) for alpha in roots)[1]


def _codimension_moments(r: int, n: int) -> tuple[int, int, int]:
    """(P(1), P'(1), P''(1)) of the module docstring's P: the order, the sum
    of codim(g) and of codim(g) (codim(g) - 1), by the product rule."""
    return _balanced(
        ((r * i, r * i - 1, 0) for i in range(1, n + 1)),
        lambda x, y: (x[0] * y[0], x[1] * y[0] + x[0] * y[1],
                      x[2] * y[0] + 2 * x[1] * y[1] + x[0] * y[2]),
        (1, 0, 0),
    )


def _slot_zero_shapes(r: int, n: int):
    """(d, f) of each shape (a, b, 1^j) of part (a), j ascending, then b,
    from running products g = r^(n-1) a! (b-1)! j! and
    h = n! / (a! (b-1)! j!), stepped by exact divisions."""
    if n < 2:
        return
    g, h = r ** (n - 1) * factorial(n - 1), n  # j = 0, (n - 1, 1)
    for j in range(n - 1):
        if j:  # (n - j, 1, 1^(j-1)) -> (n - j - 1, 1, 1^j)
            g, h = g * j // (n - j), h * (n - j) // j
        shape_g, shape_h = g, h
        for b in range(1, (n - j) // 2 + 1):
            a = n - j - b
            if b > 1:  # (a + 1, b - 1, 1^j) -> (a, b, 1^j)
                shape_g = shape_g * (b - 1) // (a + 1)
                shape_h = shape_h * (a + 1) // (b - 1)
            f, rest = divmod(shape_h * (a - b + 1), (a + j + 1) * (b + j))
            if rest:
                raise ConsistencyError(
                    f"the tableau count f of ({a}, {b}, 1^{j}) is not an integer"
                )
            yield (shape_g if j % 2 else -shape_g), f


def codim_spectrum_entries(r: int, n: int) -> tuple[tuple, ...]:
    """One (eigenvalue, squared dimension, tuple) triple per partition tuple,
    in enumerate_partition_tuples order, from each tuple's own roots and
    hook lengths: the per-tuple reference the tests compare the fold with,
    sharing no partition table with it."""
    return tuple(
        (xi_from_roots(poincare_star_roots(t, r)), character_dimension(t) ** 2, t)
        for t in enumerate_partition_tuples(r, n)
    )


def _fold_bound(r: int, n: int) -> int:
    """The fold's work from (r, n) alone: its terms (the row and n^2 / 4
    shapes of (a), with later slots n (n + 1) / 2 of (b) and n of (c))
    times the 64-bit words of the order r^n n!, near its largest integers."""
    terms = 1 + n * n // 4 + (n * (n + 3) // 2 if r > 1 else 0)
    bits = n * math.log2(r) + math.lgamma(n + 1) / math.log(2)
    return terms * (int(bits) // 64 + 1)


def codim_spectrum_combinatorial(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Aggregated codimension spectrum of G(r, 1, n), (eigenvalue,
    multiplicity) pairs, eigenvalues descending, from parts (a)-(c) of the
    module docstring and checked by its exact identities.

    The work is capped before any term is formed: first r n, which bounds
    the roots, so every integer is below (r n)^n n!; then _fold_bound,
    which also keeps every printed integer far below Python's 4,300-digit
    limit for int-to-text."""
    start = time.perf_counter()
    _check_ranks(r, n)
    if r * n > DEFAULT_ROOT_CAP:
        raise SizeLimitError(
            f"the partition-tuple fold for r={r}, n={n} has roots of size up "
            f"to r n = {format_size(r * n)}, above the cap {DEFAULT_ROOT_CAP}"
        )
    steps = _fold_bound(r, n)
    if steps > DEFAULT_FOLD_CAP:
        raise SizeLimitError(
            f"the partition-tuple fold for r={r}, n={n} takes up to "
            f"{format_size(steps)} steps, above the cap {DEFAULT_FOLD_CAP}"
        )
    order, row, second = _codimension_moments(r, n)
    spectrum = {row: 1}  # (a): the row
    squares = 0
    for eigenvalue, f in _slot_zero_shapes(r, n):  # (a): one zero factor
        square = f * f
        spectrum[eigenvalue] = spectrum.get(eigenvalue, 0) + square
        squares += square
    n_factorial = factorial(n)
    zero = n_factorial - 1 - squares  # (a): two or more zero factors
    if r > 1 and n:
        # slot 0 a row of k = n - m boxes, a later slot a hook of m: the
        # eigenvalue r^(n-1) k! (m-1-leg)! leg! and C(n, k) C(m-1, leg)
        top, binomial, central, power = r ** (n - 1) * factorial(n - 1), n, 1, r - 1
        for m in range(1, n + 1):
            k = n - m
            if m > 1:
                top = top * (m - 1) // (k + 1)
                binomial = binomial * (k + 1) // m  # C(n, k)
                central = central * 2 * (2 * m - 3) // (m - 1)  # C(2m-2, m-1)
                power *= r - 1
            eigenvalue, tableaux = top, binomial
            for leg in range(m):  # (b)
                if leg:
                    eigenvalue = eigenvalue * leg // (m - leg)
                    tableaux = tableaux * (m - leg) // leg
                signed = eigenvalue if leg % 2 else -eigenvalue
                spectrum[signed] = spectrum.get(signed, 0) + (r - 1) * tableaux**2
            # (c): every tuple with k boxes in slot 0 but those of (b)
            zero += binomial * (n_factorial * power - (r - 1) * binomial * central)
    if zero:
        spectrum[0] = spectrum.get(0, 0) + zero
    total = sum(spectrum.values())
    if total != order:
        raise ParameterError(
            f"multiplicities sum to {total}, expected |G({r},1,{n})| = {order}"
        )
    trace = frobenius = 0
    for theta, weight in spectrum.items():
        weighted = weight * theta
        trace += weighted
        frobenius += weighted * theta
    if trace:
        raise ConsistencyError(
            f"the trace of the codimension fold of G({r},1,{n}) is not 0"
        )
    if frobenius != order * (second + row):
        raise ConsistencyError(
            f"the sum of m theta^2 of the codimension fold of G({r},1,{n}) is "
            "not |G| times the sum of codim(g)^2"
        )
    log.debug(
        "codimension fold of G(%d,1,%d): %d (a, b, 1^j) shapes, %d row x hook "
        "terms, %d distinct eigenvalues, exact checks: integral f, sum m, "
        "trace, sum m theta^2, %.4fs", r, n, n * n // 4,
        n * (n + 1) // 2 if r > 1 else 0, len(spectrum), time.perf_counter() - start,
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
