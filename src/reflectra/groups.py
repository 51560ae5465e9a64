"""Monomial complex reflection groups G(r, p, n).

An element is a pair (a | s) with a in (Z_r)^n and s a permutation of
{0, ..., n-1}.  It acts on C^n as the monomial matrix with zeta^(a_i) in row
i, column s^{-1}(i), where zeta = exp(2*pi*I/r).  G(r, p, n) consists of the
pairs whose exponent sum is divisible by p (p must divide r) and has order
r^n * n! / p.

Multiplication matches matrix multiplication:

    (a | s) * (b | t) = (a_i + b_{s^{-1}(i)} | s t),   (s t)(i) = s(t(i)).

Conjugacy in G(r, 1, n) is governed by cycle data: to each cycle of s attach
the pair (cycle size, sum of the exponents along the cycle mod r).  Two
elements are conjugate in G(r, 1, n) exactly when these multisets agree.  In
G(r, p, n) the class of w with cycle sizes k_i and sums c_i splits into
d = gcd(p, k_1, ..., c_1, ...) classes (J. R. Stembridge, Pacific J. Math.
1989): the exponent sums mod p of its G(r, 1, n) centraliser are generated
by the c_i (one cycle) and the k_i (a scalar on one cycle).  Let L(w) be the
sum of the partial exponent sums along each cycle walked from its least
position.  A permutation conjugates cycles to cycles and moves where walks
start, changing L by c_i - k_i a_j = 0 (mod d); a diagonal element changes
L by its exponent sum.  So L mod d is a class invariant of G(r, p, n) taking
all d values on the G(r, 1, n) class: the class of w is (type, L(w) mod d).

`Group` lists the elements as a product, index = (permutation rank) * m +
(exponent rank) over the n! permutations and the m = r^n / p admissible
exponent rows, both in lex order.  Both ranks are arithmetic: a
permutation's is its Lehmer code read in mixed radix, and an admissible
row's is its base-r value divided by p.  So an index map forms each
product on the two blocks and ranks it, without a |G|-long table; the
quotients x_i x_j^{-1} of one permutation's elements by all of G, rows of a
group matrix's index table, need only n! permutation ranks and an (m, m)
table of exponent ranks.  The cycles and element text are likewise found
per permutation and per exponent row and then combined.  The cycle types
come from one small table per group: a permutation's cycles, listed by
least position, have a size sequence (a composition of n), and the raw
exponent sums along them, read in mixed radix, pick an entry in that
sequence's block.  So every element's entry is one product of the exponent
rows with per-permutation place values, its type and codimension are
gathers from the table, and L is one such product too.

The scalar matrices of G(r, p, n) are the powers of z = zeta^c0 I with
c0 = p / gcd(n, p), a cyclic group of order h = r gcd(n, p) / p.  They are
central, so multiplying by z permutes the classes (`Group.scalar_shift`).

Reflection length, the word length over all reflections, also depends only
on cycle data (J.-y. Shi, "Formula for the reflection length of elements in
the group G(m,p,n)", J. Algebra 316, 2007).  With c(w) cycles and s_B the
exponent sum of a set B of cycles,

    l_T(w) = n + c(w) - max sum_B (1 + [s_B = 0 mod r]),

the max running over the set partitions of the cycles into blocks B with
s_B = 0 (mod p).  For p = 1 every cycle is its own block and l_T(w) is the
codimension n - #(cycles with sum 0 mod r).
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial, gcd, lcm

import numpy as np

from .errors import ConsistencyError, ParameterError, SizeLimitError, format_size

DEFAULT_ENUMERATION_CAP = 20000
ENUMERATION_CAP_ENV = "REFLECTRA_MAX_ORDER"

CycleType = tuple[tuple[int, int], ...]

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class GroupParams:
    """Parameters (r, p, n) with p dividing r; n is the matrix size."""

    r: int
    p: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.p < 1 or self.n < 1:
            raise ParameterError(f"parameters must be positive, got {self}")
        if self.r % self.p != 0:
            raise ParameterError(f"p must divide r, got r={self.r}, p={self.p}")

    @property
    def order(self) -> int:
        return self.r**self.n * factorial(self.n) // self.p

    def __str__(self) -> str:
        return f"G({self.r},{self.p},{self.n})"


@dataclass(frozen=True)
class GroupElement:
    """A monomial matrix (exponents | perm); perm maps positions 0..n-1."""

    r: int
    exponents: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if len(self.exponents) != n:
            raise ParameterError("exponent and permutation lengths differ")
        if self.r < 1:
            raise ParameterError(f"root order must be positive, got {self.r}")
        if any(a < 0 or a >= self.r for a in self.exponents):
            raise ParameterError(f"exponents must lie in [0, {self.r})")
        if sorted(self.perm) != list(range(n)):
            raise ParameterError(f"not a permutation of 0..{n - 1}: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def inverse(self) -> GroupElement:
        b = tuple((-self.exponents[j]) % self.r for j in self.perm)
        inv = [0] * len(self.perm)
        for i, image in enumerate(self.perm):
            inv[image] = i
        return GroupElement(self.r, b, tuple(inv))

    def __str__(self) -> str:
        return format_element(self)


def identity_element(r: int, n: int) -> GroupElement:
    return GroupElement(r, (0,) * n, tuple(range(n)))


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    """Product of two monomial matrices with the same r and n."""
    if x.r != y.r or x.n != y.n:
        raise ParameterError(
            f"mismatched elements: (r={x.r}, n={x.n}) vs (r={y.r}, n={y.n})"
        )
    inv = [0] * x.n
    for i, image in enumerate(x.perm):
        inv[image] = i
    exps = tuple((x.exponents[i] + y.exponents[inv[i]]) % x.r for i in range(x.n))
    perm = tuple(x.perm[y.perm[i]] for i in range(x.n))
    return GroupElement(x.r, exps, perm)


def element_power(x: GroupElement, m: int) -> GroupElement:
    if m < 0:
        return element_power(x.inverse(), -m)
    out = identity_element(x.r, x.n)
    base = x
    while m:
        if m & 1:
            out = multiply(out, base)
        base = multiply(base, base)
        m >>= 1
    return out


def cycle_type(x: GroupElement) -> CycleType:
    """Sorted multiset of (cycle size, exponent sum along the cycle mod r)."""
    n = x.n
    seen = [False] * n
    pairs = []
    for start in range(n):
        if seen[start]:
            continue
        size, total, i = 0, 0, start
        while not seen[i]:
            seen[i] = True
            total += x.exponents[i]
            size += 1
            i = x.perm[i]
        pairs.append((size, total % x.r))
    return tuple(sorted(pairs))


def element_order(x: GroupElement) -> int:
    # a cycle of size k with exponent sum c powers to zeta^c * I after k steps
    return lcm(*(k * (x.r // gcd(c, x.r)) for k, c in cycle_type(x)))


def cycle_type_length(ctype: CycleType, r: int, p: int) -> int:
    """Reflection length in G(r, p, n) of the elements of cycle type ctype,
    by Shi's formula (module docstring).  Merging a cycle whose sum is
    0 mod p into any block gains at most 1 and loses its own block, so such
    cycles stay single; only the sums of the others are partitioned."""
    n = sum(size for size, _ in ctype)
    single = sum(2 if total == 0 else 1 for _, total in ctype if total % p == 0)
    merged = _best_blocks(tuple(sorted(total for _, total in ctype if total % p)), r, p)
    return n + len(ctype) - single - merged


@cache
def _best_blocks(sums: tuple[int, ...], r: int, p: int) -> int:
    """Max of sum_B (1 + [s_B = 0 mod r]) over the partitions of the sorted
    cycle sums into blocks with s_B = 0 mod p.  sums[0] shares its block
    with some sub-multiset of the rest.  All the sums add up to 0 mod p, so
    what is left beside such a block does too and can always be partitioned
    (at worst as one block)."""
    if not sums:
        return 0
    first, rest = sums[0], sums[1:]
    best = 0
    for size in range(len(rest) + 1):
        for picked in set(itertools.combinations(rest, size)):
            total = first + sum(picked)
            if total % p:
                continue
            remaining = list(rest)
            for x in picked:
                remaining.remove(x)
            value = 1 + (total % r == 0) + _best_blocks(tuple(remaining), r, p)
            best = max(best, value)
    return best


def _cycle_type_of_codes(codes: list[int], r: int) -> CycleType:
    """Cycle type from an element's sorted per-position codes
    (cycle size - 1) * r + cycle sum: a cycle of size k fills k equal,
    adjacent codes."""
    pairs, i = [], 0
    while i < len(codes):
        size = codes[i] // r + 1
        pairs.append((size, codes[i] % r))
        i += size
    return tuple(pairs)


def format_element(x: GroupElement) -> str:
    """Text form "a1,...,an|p1 ... pn" with a 1-based permutation image list."""
    return ",".join(map(str, x.exponents)) + "|" + " ".join(str(i + 1) for i in x.perm)


def galois_apply(x: GroupElement, e: int) -> GroupElement:
    """Multiply every exponent by e; e must be invertible mod r."""
    if gcd(e, x.r) != 1:
        raise ParameterError(f"exponent {e} is not coprime to r={x.r}")
    return GroupElement(x.r, tuple((e * a) % x.r for a in x.exponents), x.perm)


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _crt(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine pairwise-coprime congruences x = res (mod m); returns (x, M)."""
    modulus, value = 1, 0
    for m, res in congruences:
        shift = (res - value) * pow(modulus, -1, m) % m
        value += modulus * shift
        modulus *= m
    return value % modulus, modulus


def find_galois_exponent(x: GroupElement, d: int) -> int:
    """Smallest positive e, coprime to r, with exponent scaling by e
    conjugate to the d-th power of x.

    Requires gcd(d, order(x)) = 1.  Writing r_i for the order of zeta^(c_i)
    over the cycle sums c_i of x and L for their lcm, e solves e = d (mod L)
    together with e = 1 (mod q) for every prime q dividing r but not L.
    """
    o = element_order(x)
    if gcd(d, o) != 1:
        raise ParameterError(f"power {d} is not coprime to the element order {o}")
    r = x.r
    suborders = [r // gcd(c, r) for _, c in cycle_type(x)]
    big_l = lcm(*suborders)
    congruences = [(big_l, d % big_l)]
    congruences += [(q, 1) for q in _prime_factors(r) if big_l % q != 0]
    value, modulus = _crt(congruences)
    e = (value - 1) % modulus + 1
    if gcd(e, r) != 1:
        raise ParameterError(f"no valid exponent for d={d} on {x}")
    return e


@dataclass(frozen=True, eq=False)
class ConjugacyClasses:
    """Conjugacy classes over a fixed element enumeration.

    Classes are numbered by their least member index (`class_of` labels each
    element); that member, the lexicographically least element of the class,
    found by the numbering, is the representative.  The identity has index
    0, so its class is class 0.  `types` holds each class's row in the
    group's cycle-type table and `inverse` its inverse class, both k long.
    There are no member lists: C's members are where `class_of` is C.
    """

    class_of: np.ndarray
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    types: np.ndarray
    inverse: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


_NO_MEMBER = np.iinfo(np.int64).max


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _by_least_member(
    labels: np.ndarray, members: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Renumbering of the labels 0, ..., count - 1 in order of least member,
    from the labels of some members that include the least one of each label
    met: the new number of each label (-1 if never met), the met labels in
    their new order and their least members."""
    least = np.full(count, _NO_MEMBER)
    np.minimum.at(least, labels, members)
    ordered = np.argsort(least)[: np.count_nonzero(least < _NO_MEMBER)]
    number = np.full(count, -1, dtype=np.int64)
    number[ordered] = np.arange(len(ordered))
    return number, ordered, least[ordered]


@dataclass(frozen=True)
class RationalClasses:
    """Partition of ordinary classes: two classes fall together when one
    contains a power g^d, gcd(d, order(g)) = 1, of the other's elements.
    `class_to_rational` labels each of the k classes with its rational
    class, `orders` holds the element order of each; the length is the
    number of distinct labels."""

    class_to_rational: tuple[int, ...]
    orders: tuple[int, ...]

    def __len__(self) -> int:
        return len(set(self.class_to_rational))


def _enumeration_cap(explicit: int | None) -> int:
    cap = explicit
    if cap is None:
        env = os.environ.get(ENUMERATION_CAP_ENV)
        if env is None:
            return DEFAULT_ENUMERATION_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise ParameterError(
                f"{ENUMERATION_CAP_ENV} must be an integer, got {env!r}"
            ) from exc
    if cap < 1:
        raise ParameterError(f"the enumeration cap must be at least 1, got {cap}")
    return cap


class Group:
    """G(r, p, n) with a fixed, deterministic element enumeration.

    Elements are listed lexicographically by (perm, exponents), so the
    identity has index 0.  The listing is a product of two blocks:
    `_perm_block` holds the n! permutations (`_inv_block` their inverses)
    and `_exp_block` the m = r^n / p exponent rows with sum = 0 mod p, each
    in lex order, and element q * m + e is (exponent row e | permutation
    q).  No array of the group is |G| long until a per-element fact asks
    for one.  The index maps (`product_indices`, `left_mult_indices`,
    `inverse_of`) and `index_of` compute each product's permutation and
    exponent row from the blocks and rank them:
    `_perm_rank` reads the Lehmer code, whose digit at position i is perm[i]
    less the popcount of the smaller images already seen, in mixed radix;
    `_exp_rank` divides the base-r value by p, since the r / p admissible
    rows with a common prefix are values p apart.  A left multiplication
    changes the permutation and the exponent row of each element
    independently, so its map is an outer sum of n! and m ranks.
    `quotient_row_chunks` yields the index table of a group matrix,
    x_i * x_j^{-1} for a chunk of rows against every column, chunk by chunk:
    per left permutation, an outer sum of n! permutation ranks and an (m, m)
    table of exponent ranks read at the inverses' exponent ranks.
    `element(i)` builds one `GroupElement`, `elements` all of them on first
    use.  Dense index maps keep bulk operations in numpy.

    Codimension and reflection length depend on the cycle type alone, so
    they are kept per type, `type_codims` and `type_lengths` (Shi's formula,
    module docstring, certified on the types).  The cycles are walked once
    per permutation into the cycle-type table, at most 2^(n-1) r^n entries
    decoded and keyed once, and each element's type, kept |G| long, is a
    gather through its entry.  `conjugacy` holds the classes
    (cycle type, L mod d), numbered by least member from one row per size
    sequence, which gives the representatives, with the k-long record the
    spectrum routes read and no member lists; `class_sum_matrix` scans the
    labels for one class's members and multiplies out its class sum at
    chosen columns.  `scalar_shift` and `type_exponent_sums`, built lazily
    and read only by the class-algebra route, map each class C to z C for
    the generator z of the scalar matrices (module docstring) and give each
    type's exponent sum mod r, the exponent of the linear character
    (a | s) -> zeta^(sum a).  `codims` and
    `reflection_lengths` are read-only gathers through the types, built
    when an element-level caller asks.  `text_blocks` formats each
    permutation and exponent row once, and `rational` ranks one table of
    the powers of the k class representatives and labels each class.
    """

    def __init__(self, params: GroupParams, max_order: int | None = None):
        cap = _enumeration_cap(max_order)
        if params.order > cap:
            raise SizeLimitError(
                f"{params} has order {format_size(params.order)}, above the "
                f"enumeration cap {cap} (override with {ENUMERATION_CAP_ENV} or "
                "max_order)"
            )
        n, r, p = params.n, params.r, params.p
        if (n**n) * (r**n) > 2**62:
            raise SizeLimitError(
                f"cycle-type keys of the class walk for {params} overflow int64"
            )
        self.params = params
        self.order = params.order
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        exps = np.indices((r,) * n, dtype=np.int64).reshape(n, -1).T
        self._perm_block = perms
        self._inv_block = np.argsort(perms, axis=1)
        self._exp_block = exps[exps.sum(axis=1) % p == 0]
        self._exp_weights = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # popcount of every n-bit mask of images, for the Lehmer digits
        self._popcount = np.zeros(1 << n, dtype=np.int64)
        for bit in range(n):
            self._popcount[1 << bit : 2 << bit] = self._popcount[: 1 << bit] + 1

    def _perm_rank(self, perms: np.ndarray) -> np.ndarray:
        """Lex rank among the n! permutations of each row of perms: its
        Lehmer code read in mixed radix.  Digit i counts the images after
        position i below perms[i], that is perms[i] less the popcount of
        the images seen so far that lie below it; the last digit is 0."""
        n = self.params.n
        bits = 1 << perms
        rank = perms[..., 0].astype(np.int64)
        seen = bits[..., 0].copy()
        for i in range(1, n - 1):
            rank *= n - i
            rank += perms[..., i] - self._popcount[seen & (bits[..., i] - 1)]
            seen |= bits[..., i]
        return rank

    def _exp_rank(self, exps: np.ndarray) -> np.ndarray:
        """Lex rank among the admissible rows of each row of exps, taken
        mod r: its base-r value divided by p.  The r / p admissible rows
        with a common prefix differ in the last entry only, and that entry
        is fixed mod p, so they are consecutive values apart by p."""
        return (exps % self.params.r) @ self._exp_weights // self.params.p

    @property
    def identity_index(self) -> int:
        return 0

    def element(self, i: int) -> GroupElement:
        """The i-th element of the enumeration, 0 <= i < |G|."""
        if not 0 <= i < self.order:
            raise ParameterError(
                f"element index {i} is out of range for {self.params} "
                f"of order {self.order}"
            )
        q, e = divmod(i, len(self._exp_block))
        exps, perm = self._exp_block[e].tolist(), self._perm_block[q].tolist()
        return GroupElement(self.params.r, tuple(exps), tuple(perm))

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every element in enumeration order, built on first use."""
        return tuple(self.element(i) for i in range(self.order))

    def text_blocks(self) -> tuple[list[str], list[str]]:
        """The texts of the exponent rows, each ending in "|", and of the
        permutations: element q * m + e's text joins row e to permutation q."""
        exp_texts = [",".join(map(str, row)) + "|" for row in self._exp_block.tolist()]
        perm_texts = [
            " ".join(str(i + 1) for i in row) for row in self._perm_block.tolist()
        ]
        return exp_texts, perm_texts

    def index_of(self, x: GroupElement) -> int:
        r, n, p = self.params.r, self.params.n, self.params.p
        if (x.r, x.n) != (r, n):
            raise ParameterError(f"element has r={x.r}, n={x.n}; group has r={r}, n={n}")
        if sum(x.exponents) % p:
            raise ParameterError(f"{x} is not in {self.params}")
        q = self._perm_rank(np.array(x.perm, dtype=np.int64))
        e = self._exp_rank(np.array(x.exponents, dtype=np.int64))
        return int(q * len(self._exp_block) + e)

    def _inverse_ranks(self, q, e) -> np.ndarray:
        """Index of the inverse of (exponent row e | permutation q), over q
        and e broadcast together: (a | s)^{-1} = (b | s^{-1}) with
        b_i = c_{s(i)}, c = -a mod r, so the base-r value of b is
        c @ (weights permuted by s^{-1})."""
        inverse = self._inv_block[q]
        negated = (-self._exp_block[e]) % self.params.r
        values = np.einsum("...i,...i->...", negated, self._exp_weights[inverse])
        return self._perm_rank(inverse) * len(self._exp_block) + values // self.params.p

    def inverse_of(self, indices) -> np.ndarray:
        """Index of the inverse of each element of an index array."""
        indices = np.asarray(indices, dtype=np.int64)
        return self._inverse_ranks(*np.divmod(indices, len(self._exp_block)))

    @cached_property
    def inverse_indices(self) -> np.ndarray:
        """Index map k -> index of elements[k]^{-1}: `_inverse_ranks` over
        every permutation against every exponent row."""
        perms, m = len(self._perm_block), len(self._exp_block)
        return self._inverse_ranks(np.arange(perms)[:, None], np.arange(m)).ravel()

    def left_mult_indices(self, g: int) -> np.ndarray:
        """Index map k -> index of elements[g] * elements[k].  The product
        permutation depends on the permutation of elements[k] alone and the
        product exponents on its exponent row alone, so the map is an outer
        sum of n! permutation ranks and m exponent ranks."""
        m = len(self._exp_block)
        q, e = divmod(g, m)
        perms = self._perm_block[q][self._perm_block]
        exps = self._exp_block[:, self._inv_block[q]] + self._exp_block[e]
        return (self._perm_rank(perms)[:, None] * m + self._exp_rank(exps)).ravel()

    def product_indices(self, a, b) -> np.ndarray:
        """Index of elements[a] * elements[b], elementwise over the index
        arrays a and b broadcast together."""
        m = len(self._exp_block)
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        qa, ea = np.divmod(a, m)
        qb, eb = np.divmod(b, m)
        perms = np.take_along_axis(
            self._perm_block[qa], self._perm_block[qb], axis=-1
        )
        exps = self._exp_block[ea] + np.take_along_axis(
            self._exp_block[eb], self._inv_block[qa], axis=-1
        )
        return self._perm_rank(perms) * m + self._exp_rank(exps)

    def quotient_row_chunks(self, max_entries: int):
        """Yield (rows, table) for consecutive slices of rows covering the
        group in order: table[k, j] is the index of x_i * x_j^{-1} for
        i = rows.start + k, the rows of a group matrix's index table.

        A chunk holds the rows of whole left permutations, as many as fit
        in max_entries entries, or, when one permutation's m rows do not
        fit, a run of its exponent rows (at least one row).  Every
        temporary holds at most n * max(max_entries, |G|) entries."""
        perms, m = len(self._perm_block), len(self._exp_block)
        inverse_exps = self.inverse_indices.reshape(perms, m) % m
        rows = max(1, max_entries // self.order)
        span, step = (rows // m, m) if rows >= m else (1, rows)
        for q in range(0, perms, span):
            qs = np.arange(q, min(q + span, perms))
            for a in range(0, m, step):
                table = self._quotient_block(qs, slice(a, a + step), inverse_exps)
                yield slice(q * m + a, q * m + a + len(table)), table

    def _quotient_block(self, qs, exps: slice, inverse_exps) -> np.ndarray:
        """Index of x_i * x_j^{-1} for the elements x_i = (a | s) with s of
        rank in qs and a in exponent rows exps (rows ordered by s, then a)
        against every x_j (columns j); inverse_exps[t, b] is the exponent
        rank of x_j^{-1} for x_j = (b | t).

        With x_j^{-1} = (c | t^{-1}) the product is (a + c o s^{-1} | s
        t^{-1}): its permutation rank depends on s and t alone (n! per s),
        and its exponent rank on s, a and the exponent rank of c alone, an
        (m, m) table per s.  So the rows of one s are an outer sum of n!
        permutation ranks and that table read at inverse_exps."""
        m = len(self._exp_block)
        # s o t^{-1} for every s in qs and every t, and its rank times m
        ranks = self._perm_rank(self._perm_block[qs][:, self._inv_block]) * m
        # a + c o s^{-1}: rows a, columns c, one table per s
        shifted = self._exp_block[:, self._inv_block[qs]].transpose(1, 0, 2)
        ranked = self._exp_rank(self._exp_block[exps, None] + shifted[:, None])
        table = np.take(ranked, inverse_exps, axis=2)
        table += ranks[:, None, :, None]
        return table.reshape(-1, self.order)

    def _cycle_walk(self) -> tuple[np.ndarray, ...]:
        """The cycle-type table and every element's entry in it, as
        (index, firsts, weights, codes, codims).

        The powers s^0, ..., s^n of the n! permutations give the least
        position on the cycle through each position; the cycles, listed by
        least position, have a size sequence k_1, ..., k_j, a composition of
        n.  An element's sum along cycle i, before the reduction mod r, lies
        in [0, k_i (r - 1)], so these sums read in mixed radix with bases
        k_i (r - 1) + 1 number the cycle data of the permutation's elements
        densely.  The table holds one such block per size sequence, at most
        2^(n-1) r^n entries in all.  Each position carries the place value
        of its cycle, so place values @ exps.T plus the block's offset is
        `index`, the entry of every element, (n!, m), in the smallest
        unsigned type.  Per entry, decoded once for the whole table, `codes`
        holds the sorted codes (cycle size - 1) * r + cycle sum, a cycle of
        size k filling k equal codes, and `codims` n minus the number of
        cycles whose sum vanishes mod r.

        `weights` holds the weight of a_i in L, the first j >= 1 with
        s^j(i) the least position of its cycle: walked from there, a_i
        enters that many partial sums.  Two permutations with the same size
        sequence differ by a relabelling of positions that maps cycle to
        cycle and walk to walk; it keeps the exponent sum, so both reach
        the same entries with the same values of L.  The least member of
        each entry, and of each (type, L mod d) class, thus lies in the row
        of the least permutation with its size sequence; `firsts` holds the
        rank of that permutation for each sequence."""
        n, r = self.params.n, self.params.r
        perms = self._perm_block
        rows = np.arange(len(perms))[:, None]
        powers = [np.broadcast_to(np.arange(n), perms.shape)]
        for _ in range(n):
            powers.append(perms[rows, powers[-1]])
        powers = np.stack(powers)
        lead = powers.min(axis=0)
        weights = (powers[1:] == lead).argmax(axis=0) + 1
        weights = weights.astype(np.min_scalar_type(n))
        # the size sequences: slot t of 0..n-1 ends a cycle when bit t of
        # the sequence's mask is set (slot n-1 always), and slot_cycle
        # numbers the cycle of each slot; cycles past the last have size 0
        masks = np.arange(1 << (n - 1))[:, None] | (1 << (n - 1))
        ends = (masks >> np.arange(n)) & 1
        slot_cycle = np.cumsum(ends, axis=1) - ends
        sizes = np.count_nonzero(slot_cycle[:, :, None] == np.arange(n), axis=1)
        bases = sizes * (r - 1) + 1
        lengths = bases.prod(axis=1)
        place = np.cumprod(bases, axis=1) // bases
        offsets = np.cumsum(lengths) - lengths
        # per permutation: each position's cycle number, and the mask of its
        # size sequence from the sorted least positions
        cycle = (np.cumsum(lead == np.arange(n), axis=1) - 1)[rows, lead]
        ordered = np.sort(lead, axis=1)
        mask = (ordered[:, 1:] != ordered[:, :-1]) @ (1 << np.arange(n - 1))
        firsts = np.full(len(ends), len(perms))
        np.minimum.at(firsts, mask, rows[:, 0])
        # every partial sum of the product stays below the entry it ends
        # at, so the narrow type cannot wrap
        dtype = np.min_scalar_type(lengths.sum() - 1)
        index = place[mask[:, None], cycle].astype(dtype)
        index = index @ self._exp_block.T.astype(dtype)
        index += offsets[mask, None].astype(dtype)
        # per entry: its size sequence and, slot by slot, the sum mod r of
        # the slot's cycle; a cycle of size k fills k slots and is counted
        # at its last
        slots = np.arange(len(ends))[:, None], slot_cycle
        block = np.repeat(np.arange(len(ends)), lengths)
        local = np.arange(len(block)) - offsets[block]
        sums = local[:, None] // place[slots][block] % bases[slots][block] % r
        codims = n - np.count_nonzero((sums == 0) & (ends[block] == 1), axis=1)
        codes = np.sort(sums + ((sizes[slots] - 1) * r)[block], axis=1)
        return index, firsts, weights, codes, codims

    @cached_property
    def _cycle_data(self) -> tuple[np.ndarray, ...]:
        """(type_of, codes, codims, splits, weights, firsts, reps, counts)
        from one cycle walk.  The table entries are keyed by their sorted
        codes read as base-nr digits (below (nr)^n, inside the int64 bound
        checked at construction), and one `np.unique` over the table, not
        over the group, gives the distinct types.  The types met in G (for p > 1,
        entries whose sums add up to a non-multiple of p are met by no
        element) are numbered by least member, read off the rows of
        `firsts`: `codes` holds each type's sorted codes, `codims` its
        codimension (read-only), `splits` its number d of G(r, p, n)
        classes, `reps` its least member and `counts` its number of
        elements.  Every element's type, `type_of`, is then a gather
        through its entry, and the entries are dropped.  The types are
        counted before `type_of` is made read-only: np.bincount copies a
        read-only input in full, |G| int64 entries."""
        start = time.perf_counter()
        index, firsts, weights, codes, entry_codims = self._cycle_walk()
        n, r, p = self.params.n, self.params.r, self.params.p
        keys = np.ravel_multi_index(tuple(codes.T), (n * r,) * n)
        _, first, entry_type = np.unique(keys, return_index=True, return_inverse=True)
        m = len(self._exp_block)
        number, types, reps = _by_least_member(
            entry_type[index[firsts]], firsts[:, None] * m + np.arange(m), len(first)
        )
        codes = codes[first[types]]
        codims = _frozen(entry_codims[first[types]])
        sizes_and_sums = np.concatenate([codes // r + 1, codes % r], axis=1)
        splits = np.gcd(p, np.gcd.reduce(sizes_and_sums, axis=1))
        type_of = number[entry_type][index].reshape(-1)
        counts = np.bincount(type_of, minlength=len(types))
        type_of = _frozen(type_of)
        log.debug(
            "cycle-type table of %s: |G| = %d, %d size sequences, %d table "
            "entries, %d cycle types, %.4fs",
            self.params, self.order, len(firsts), len(keys), len(types),
            time.perf_counter() - start,
        )
        return type_of, codes, codims, splits, weights, firsts, reps, counts

    @property
    def type_of(self) -> np.ndarray:
        """Read-only cycle type of every element, a row of the type table."""
        return self._cycle_data[0]

    @property
    def type_codims(self) -> np.ndarray:
        """Read-only fixed-space codimension of each cycle type."""
        return self._cycle_data[2]

    @cached_property
    def type_exponent_sums(self) -> np.ndarray:
        """Read-only exponent sum mod r of each cycle type, the sum of its
        cycle sums, read off the type's least member: det(g) = zeta^e up to
        the sign of the permutation, and g -> zeta^e is a linear character.
        Read only by the class-algebra route."""
        reps = self._cycle_data[6]
        exps = self._exp_block[reps % len(self._exp_block)]
        return _frozen(exps.sum(axis=1) % self.params.r)

    @cached_property
    def type_diagonal(self) -> np.ndarray:
        """Read-only flag of each cycle type: every cycle has size 1, so its
        elements are diagonal matrices (each code is below r)."""
        return _frozen(self._cycle_data[1][:, -1] < self.params.r)

    @cached_property
    def type_lengths(self) -> np.ndarray:
        """Read-only reflection length of each cycle type: the word length
        over all reflections (the codimension-1 elements) of its elements.
        Shi's formula (module docstring) gives it from the cycle type alone,
        so `cycle_type_length` runs once per row of the cycle-type table.
        Certificate, on the table: the identity's type has length 0, every
        type of codimension 1 length 1, and no type a length below its
        codimension."""
        type_of, codes, codims, *_ = self._cycle_data
        start = time.perf_counter()
        r, p = self.params.r, self.params.p
        lengths = _frozen(np.array([
            cycle_type_length(_cycle_type_of_codes(row, r), r, p)
            for row in codes.tolist()
        ], dtype=np.int64))
        identity = int(lengths[type_of[self.identity_index]])
        not_one = int((lengths[codims == 1] != 1).sum())
        below = int((lengths < codims).sum())
        if identity != 0 or not_one or below:
            raise ConsistencyError(
                f"reflection lengths of {self.params} fail the certificate: "
                f"identity length {identity}, {not_one} reflection types not "
                f"of length 1, {below} types below their codimension"
            )
        log.debug(
            "reflection lengths of %s: |G| = %d, %d cycle types, %.4fs",
            self.params, self.order, len(lengths), time.perf_counter() - start,
        )
        return lengths

    @cached_property
    def codims(self) -> np.ndarray:
        """Read-only fixed-space codimension of every element."""
        return _frozen(self.type_codims[self._cycle_data[0]])

    @cached_property
    def reflection_lengths(self) -> np.ndarray:
        """Read-only reflection length of every element."""
        return _frozen(self.type_lengths[self._cycle_data[0]])

    @cached_property
    def conjugacy(self) -> ConjugacyClasses:
        """The classes (cycle type, L mod d) of the module docstring, in
        order of least member: the types themselves unless one splits (never
        for p = 1), else L is one product of the weights with the exponent
        block and the classes are renumbered from the rows of `firsts`.
        Either numbering yields the least members, the representatives, and
        the inverse classes come from their k inverses.  The sizes are the
        types' counts, or a count of the fresh labels of the split classes;
        no read-only |G|-long array is counted."""
        type_of, _, _, splits, weights, firsts, reps, sizes = self._cycle_data
        class_of = type_of
        if splits.max() > 1:
            m = len(self._exp_block)
            starts = np.cumsum(splits) - splits
            types = type_of.reshape(-1, m)
            labels = weights @ self._exp_block.T
            labels %= splits[types]
            labels += starts[types]
            number, _, reps = _by_least_member(
                labels[firsts], firsts[:, None] * m + np.arange(m), splits.sum()
            )
            class_of = number[labels].reshape(-1)
            sizes = np.bincount(class_of)
        return ConjugacyClasses(
            class_of=class_of, representatives=tuple(reps.tolist()),
            sizes=tuple(sizes.tolist()),
            types=type_of[reps], inverse=class_of[self.inverse_of(reps)],
        )

    @cached_property
    def scalar_shift(self) -> np.ndarray:
        """Read-only class of z rep_C for each class C, where
        z = zeta^c0 I, c0 = p / gcd(n, p), generates the scalar matrices of
        G(r, p, n) (zeta^c I lies in it exactly when n c = 0 mod p); z has
        order h = r gcd(n, p) / p.  z is central, so z C is a class; the map
        costs k products and is built only when asked for."""
        n, p = self.params.n, self.params.p
        # the identity permutation has rank 0
        z = self._exp_rank(np.full(n, p // gcd(n, p)))
        classes = self.conjugacy
        reps = np.array(classes.representatives)
        return _frozen(classes.class_of[self.product_indices(z, reps)])

    def class_sum_matrix(self, c: int, columns) -> np.ndarray:
        """M[l, j] = #{u in C_c : u^-1 rep_j in C_l}, as float64, over the
        classes j of columns as columns.  Over all k columns this is the
        slice a[c] of `spectra.class_structure_constants`; each central
        character is a right eigenvector of it, with eigenvalue
        omega_chi(C_c).  The inverses u^-1 of the members of C_c are the
        members of the inverse class, read as the indices where `class_of`
        holds that class (in index order), so those are multiplied as they
        are, |C_c| per column.

        A product (a | s) (b | t) = (a + b o s^-1 | s t): its permutation
        is ranked once per distinct pair (s, t), and its exponent row is
        b o s^-1, gathered once per distinct s and column, plus a."""
        classes = self.conjugacy
        reps = np.array(classes.representatives)[columns]
        members = np.flatnonzero(classes.class_of == classes.inverse[c])
        m = len(self._exp_block)
        perms, perm_of = np.unique(members // m, return_inverse=True)
        rep_perms, rep_perm_of = np.unique(reps // m, return_inverse=True)
        ranks = self._perm_rank(self._perm_block[perms][:, self._perm_block[rep_perms]])
        # b o s^-1 for each column b and each distinct s
        shifted = self._exp_block[reps % m][:, self._inv_block[perms]]
        exps = shifted.transpose(1, 0, 2)[perm_of]
        exps += self._exp_block[members % m][:, None]
        products = ranks[perm_of][:, rep_perm_of] * m + self._exp_rank(exps)
        cells = classes.class_of[products] * len(reps) + np.arange(len(reps))
        counts = np.bincount(cells.ravel(), minlength=len(classes) * len(reps))
        return counts.reshape(len(classes), len(reps)).astype(np.float64)

    @cached_property
    def rational(self) -> RationalClasses:
        """Coprime powers of g have g as a coprime power again, so the
        classes of the coprime powers of a class form its rational class,
        which is numbered by least member through its least such class.  A
        cycle of length l and exponent sum c powers to zeta^c I after l
        steps, so a class's order is the lcm of l r / gcd(c, r) over the
        cycles of its type.  For d up to the largest order,
        g^d = (a + A o s^-1 | s^d) for g = (a | s) and g^(d-1) = (A | s^(d-1))
        is two gathers over all k representatives at once, and the whole
        table is ranked in one call."""
        classes = self.conjugacy
        n, r, m, k = self.params.n, self.params.r, len(self._exp_block), len(classes)
        codes = self._cycle_data[1][classes.types]
        orders = np.lcm.reduce((codes // r + 1) * (r // np.gcd(codes % r, r)), axis=1)
        q, e = np.divmod(np.array(classes.representatives, dtype=np.int64), m)
        perms = np.empty((orders.max(), k, n), dtype=np.int64)
        exps = np.empty_like(perms)
        perms[0], exps[0] = self._perm_block[q], self._exp_block[e]
        # the flat positions of s(j) and of s^-1(j) in row i of a power
        ahead = perms[0] + np.arange(k)[:, None] * n
        back = self._inv_block[q] + np.arange(k)[:, None] * n
        for d in range(1, len(perms)):
            perms[d] = perms[d - 1].take(ahead)
            exps[d] = exps[0] + exps[d - 1].take(back)
        # power_class[d - 1, c] is the class of the d-th power of class c
        power_class = classes.class_of[self._perm_rank(perms) * m + self._exp_rank(exps)]
        d = np.arange(1, len(perms) + 1)[:, None]
        coprime = np.where((np.gcd(d, orders) == 1) & (d <= orders), power_class, k)
        labels = np.unique(coprime.min(axis=0), return_inverse=True)[1]
        return RationalClasses(
            class_to_rational=tuple(labels.tolist()), orders=tuple(orders.tolist())
        )


def bfs_word_lengths(group: Group, generator_indices) -> np.ndarray:
    """Word length of every element over the given generators, by BFS from
    the identity; unreachable elements get -1."""
    maps = [group.left_mult_indices(t) for t in generator_indices]
    lengths = np.full(group.order, -1, dtype=np.int64)
    lengths[group.identity_index] = 0
    frontier = np.array([group.identity_index], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        fresh: list[np.ndarray] = []
        for tmap in maps:
            images = tmap[frontier]
            images = images[lengths[images] < 0]
            if images.size:
                lengths[images] = depth
                fresh.append(images)
        # each image is claimed by one map only, so the pieces are disjoint
        frontier = np.concatenate(fresh) if fresh else np.empty(0, np.int64)
    return lengths


def standard_generators(params: GroupParams) -> tuple[GroupElement, ...]:
    """Standard generating set: a diagonal generator diag(zeta^p, 1, ..., 1)
    when r > p, the order-2 reflection (1, r-1, 0, ... | swap of 0,1) when
    p > 1, and the adjacent transpositions."""
    r, p, n = params.r, params.p, params.n
    gens: list[GroupElement] = []
    zero = (0,) * n
    idperm = tuple(range(n))
    if r // p > 1:
        gens.append(GroupElement(r, (p,) + zero[1:], idperm))
    if n >= 2:
        swap01 = (1, 0) + idperm[2:]
        if p > 1:
            gens.append(GroupElement(r, (1 % r, (r - 1) % r) + zero[2:], swap01))
        for i in range(n - 1):
            perm = list(idperm)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(GroupElement(r, zero, tuple(perm)))
    return tuple(gens)


def is_real(params: GroupParams) -> bool:
    """Whether the group is a real (Coxeter) member of the family: S_n,
    the hyperoctahedral pair r = 2, dihedral G(r, r, 2), or cyclic of
    order at most 2."""
    if params.r <= 2:
        return True
    if params.n == 1:
        return params.r // params.p <= 2
    return params.p == params.r and params.n == 2
