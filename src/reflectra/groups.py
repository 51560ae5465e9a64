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
exponent rows, both in lex order.  Both ranks are arithmetic (a Lehmer
code in mixed radix; a base-r value divided by p), so index maps form
products on the two blocks and rank them without a |G|-long table.  The
cycle types come from one small table per group: a permutation's cycles,
listed by least position, have a size sequence (a composition of n), and
the raw exponent sums along them, read in mixed radix, pick an entry in
that sequence's block.  An element's entry is one product of its exponent
row with its permutation's place values, and L is another.  The classes
need no pass over the group: each has its least member in the row of the
least permutation of its size sequence, and a type with m_(k,c) cycles of
size k and sum c has n! r^n / z elements, z = prod (k r)^m_(k,c) m_(k,c)!
(Macdonald, ch. I, appendix B), shared evenly by its d classes.

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
    """The k-long record of the conjugacy classes of a fixed enumeration.

    Classes are numbered by their least member index, the representative,
    the lexicographically least element of the class.  The identity has
    index 0, so its class is class 0.  `sizes` holds each class's number of
    elements, `types` its row in the group's cycle-type table and `inverse`
    its inverse class.  Nothing here is |G| long: each element's class is
    `Group.class_of`.
    """

    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    types: np.ndarray
    inverse: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


def _products(rows: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """rows[i] . exps[i, e] over (R, n) rows and (M, n) or (R, M, n) exps."""
    return rows @ exps.T if exps.ndim == 2 else (exps @ rows[..., None])[..., 0]


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
    identity has index 0, as a product of two blocks: `_perm_block`, the n!
    permutations (`_inv_block` their inverses), built on first use, and
    `_exp_block`, the m = r^n / p exponent rows with sum = 0 mod p; element
    q * m + e is (exponent row e | permutation q).  No array is |G| long
    until a per-element fact asks for one.  The index maps
    (`left_mult_indices`, `inverse_indices`), `index_of` and
    `class_sum_matrix` form each product's permutation and exponent row on
    the blocks and rank them: `_perm_rank` reads the Lehmer code (digit i is
    perm[i] less the popcount of the smaller images seen) in mixed radix,
    and `_exp_rank` divides the base-r value by p, since the r / p
    admissible rows with a common prefix are values p apart.
    `quotient_row_chunks` yields the index table of a group matrix,
    x_i * x_j^{-1}, chunk by chunk: per left permutation, an outer sum of n!
    permutation ranks and an (m, m) table of exponent ranks.  `element(i)`
    builds one `GroupElement`, `elements` all of them on first use.

    Codimension and reflection length depend on the cycle type alone, so
    they are kept per type, `type_codims` and `type_lengths` (Shi's formula,
    module docstring, certified on the types), with `type_exponent_sums`
    for the linear character (a | s) -> zeta^(sum a).  `conjugacy` (the
    k-long record the spectrum routes read), `rational` and `scalar_shift`
    (the class of z C for the generator z of the scalar matrices) come from
    the cycle-type table and a few permutation rows (`_cycle_data`), walked
    by the one classifier `_classes_of`.  It builds the read-only labels
    `class_of` and `type_of`, and `codims` and `reflection_lengths` through
    them, over all n! permutations only when an element-level caller asks:
    the dense build, the length listings and `class_sum_matrix`, which
    multiplies out one class sum at chosen columns.  `text_blocks` formats
    each permutation and exponent row once.
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
        exps = np.indices((r,) * n, dtype=np.int64).reshape(n, -1).T
        self._exp_block = exps[exps.sum(axis=1) % p == 0]
        self._exp_weights = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
        # popcount of every n-bit mask of images, for the Lehmer digits
        self._popcount = np.zeros(1 << n, dtype=np.int64)
        for bit in range(n):
            self._popcount[1 << bit : 2 << bit] = self._popcount[: 1 << bit] + 1

    @cached_property
    def _perm_block(self) -> np.ndarray:
        """The n! permutations in lex order, built on first use."""
        n = self.params.n
        perms = itertools.chain.from_iterable(itertools.permutations(range(n)))
        return np.fromiter(perms, np.int64, n * factorial(n)).reshape(-1, n)

    @cached_property
    def _inv_block(self) -> np.ndarray:
        return np.argsort(self._perm_block, axis=1)

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
        # the Lehmer code of rank q picks each image from those left
        left, perm = list(range(self.params.n)), []
        for place in range(self.params.n - 1, -1, -1):
            digit, q = divmod(q, factorial(place))
            perm.append(left.pop(digit))
        return GroupElement(self.params.r, tuple(self._exp_block[e].tolist()), tuple(perm))

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every element in enumeration order, built on first use."""
        exps = list(map(tuple, self._exp_block.tolist()))
        perms = itertools.permutations(range(self.params.n))
        return tuple(GroupElement(self.params.r, row, perm) for perm in perms for row in exps)

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

    @cached_property
    def inverse_indices(self) -> np.ndarray:
        """Index map k -> index of elements[k]^{-1}, over every permutation
        s against every exponent row a: (a | s)^{-1} = (b | s^{-1}) with
        b_i = c_{s(i)}, c = -a mod r, so the base-r value of b is
        c @ (weights permuted by s^{-1})."""
        negated = (-self._exp_block) % self.params.r
        values = self._exp_weights[self._inv_block] @ negated.T
        values //= self.params.p
        values += self._perm_rank(self._inv_block)[:, None] * len(self._exp_block)
        return values.ravel()

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

    @cached_property
    def _cycle_data(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The cycle-type table (module docstring) and the class records,
        from the size sequences and their least permutations alone.

        A block per sequence k_1, ..., k_j numbers the cycle sums, in
        [0, k_i (r - 1)] before the reduction mod r, in mixed radix: at most
        2^(n-1) r^n entries, each decoded once into its sorted codes
        (cycle size - 1) * r + cycle sum, keyed as base-nr digits (below
        (nr)^n, inside the int64 bound checked at construction).  A
        relabelling maps a permutation to any other of its sequence, cycle
        to cycle and walk to walk, keeping exponent sums, so each class has
        its least member in the row of its sequence's least permutation.

        (walk, rows, reps, types): walk = (place, offsets, starts, splits,
        number), read by `_classes_of`, holds the place values, block
        offsets, per entry its type's first label and d (1 if no element has
        the type), and per label its class (-1 if unmet); rows = (rotations,
        reversals, table) the least permutations, the reversals of their
        blocks and the class of each of their elements; reps = (types,
        indices, rows, exps) each class's type and least member; types =
        (codes, codims, splits, sums) the sorted codes, codimension
        (read-only), d and exponent sum of each type."""
        start = time.perf_counter()
        n, r, p = self.params.n, self.params.r, self.params.p
        m = len(self._exp_block)
        # slot t of 0..n-1 ends a cycle when bit t of the sequence's mask is
        # set (slot n-1 always), and slot_cycle numbers the cycle of each
        # slot; cycles past the last have size 0
        masks = np.arange(1 << (n - 1))[:, None] | (1 << (n - 1))
        ends = (masks >> np.arange(n)) & 1
        slot_cycle = np.cumsum(ends, axis=1) - ends
        sizes = np.count_nonzero(slot_cycle[:, :, None] == np.arange(n), axis=1)
        bases = sizes * (r - 1) + 1
        lengths = bases.prod(axis=1)
        place = np.cumprod(bases, axis=1) // bases
        offsets = np.cumsum(lengths) - lengths
        slots = np.arange(len(ends))[:, None], slot_cycle
        size = sizes[slots]
        # every entry number, place value and code (below n r <= entries)
        # fits the narrow type of the entry count
        dtype = np.min_scalar_type(lengths.sum())

        def per_entry(per_block: np.ndarray) -> np.ndarray:
            return np.repeat(per_block.astype(dtype), lengths, axis=0)

        # per entry and slot, the sum mod r of the slot's cycle (counted at
        # its last slot), digits of the entry's place in its block, then the
        # codes; in place, as the (entries, n) arrays are the largest here
        local = np.arange(lengths.sum(), dtype=dtype) - per_entry(offsets)
        codes = local[:, None] // per_entry(place[slots])
        codes %= per_entry(bases[slots])
        codes %= r
        last = np.repeat(ends == 1, lengths, axis=0)
        codims = n - np.count_nonzero((codes == 0) & last, axis=1)
        totals = (codes * last).sum(axis=1, dtype=np.int64) % r
        codes += per_entry((size - 1) * r)
        codes.sort(axis=1)
        keys = np.ravel_multi_index(tuple(codes.T), (n * r,) * n)
        _, first, entry = np.unique(keys, return_index=True, return_inverse=True)
        codes, codims, totals = codes[first].astype(np.int64), codims[first], totals[first]
        sizes_and_sums = np.concatenate([codes // r + 1, codes % r], axis=1)
        splits = np.gcd(p, np.gcd.reduce(sizes_and_sums, axis=1))
        splits[totals % p != 0] = 1
        starts = np.cumsum(splits) - splits
        # the least permutation of each sequence, in order of rank, sends
        # slot t to t + 1 and a cycle's last slot back to its first; the
        # reversal of its blocks conjugates its inverse to it
        begin = (np.cumsum(sizes, axis=1) - sizes)[slots]
        after = np.arange(1, n + 1)
        rotations = np.where(ends == 1, begin, after)
        firsts = self._perm_rank(rotations)
        order = np.argsort(firsts)
        rotations, reversals = rotations[order], (2 * begin + size - after)[order]
        firsts = firsts[order]
        # every partial sum of an entry's product stays below the entry, so
        # the narrow type cannot wrap
        walk = place.astype(dtype), offsets.astype(dtype), starts[entry], splits[entry]
        labels = self._classes_of(rotations, self._exp_block, (*walk, np.arange(splits.sum())))
        least = np.full(splits.sum(), labels.size)
        np.minimum.at(least, labels.ravel(), np.arange(labels.size))
        met = np.argsort(least)[: np.count_nonzero(least < labels.size)]
        number = np.full(splits.sum(), -1)
        number[met] = np.arange(len(met))
        # the types in the order they first appear among the classes
        class_type = np.repeat(np.arange(len(splits)), splits)[met]
        heads = class_type[np.sort(np.unique(class_type, return_index=True)[1])]
        type_number = np.full(len(splits), -1)
        type_number[heads] = np.arange(len(heads))
        row, e = np.divmod(least[met], m)
        reps = type_number[class_type], firsts[row] * m + e, row, self._exp_block[e]
        types = codes[heads], _frozen(codims[heads]), splits[heads], totals[heads]
        log.debug(
            "cycle-type table of %s: |G| = %d, %d size sequences, %d table "
            "entries, %d cycle types, %.4fs",
            self.params, self.order, len(firsts), len(keys), len(heads),
            time.perf_counter() - start,
        )
        return (*walk, number), (rotations, reversals, number[labels]), reps, types

    def _classes_of(self, perms: np.ndarray, exps: np.ndarray, walk=None) -> np.ndarray:
        """The class of every element (exps[i, e] | perms[i]), (R, M), over
        R permutation rows and exps of shape (M, n), one block for every
        row, or (R, M, n); only these rows are walked.  The powers of each
        permutation give the least position on each cycle, hence the size
        sequence and each position's cycle, whose place value it carries:
        the exponents times the place values plus the block's offset is the
        element's entry.  For L, a_i weighs the first j >= 1 with s^j(i)
        the least position of its cycle: walked from there, a_i enters that
        many partial sums."""
        place, offsets, starts, splits, number = walk or self._cycle_data[0]
        n, flat = self.params.n, np.arange(perms.size)
        # every position of every row, flat: step takes it to its image
        step = (perms + flat[::n, None]).ravel()
        pos = lead = flat
        for _ in range(n - 1):
            pos = step[pos]
            lead = np.minimum(lead, pos)
        # the cycles of all rows numbered in one run by least position; a
        # cycle's last slot in its row is its row's count of smaller cycles
        cycle = (np.cumsum(lead == flat) - 1)[lead]
        ends = np.zeros(perms.size, dtype=np.int64)
        ends[np.cumsum(np.bincount(cycle)) - 1] = 1
        cycle = cycle.reshape(perms.shape) - cycle[::n, None]
        mask = ends.reshape(perms.shape)[:, :-1] @ (1 << np.arange(n - 1))
        index = _products(place[mask[:, None], cycle], exps.astype(place.dtype))
        index += offsets[mask, None]
        if splits.max() == 1:
            return number[starts][index]
        pos, weights, open_ = flat, 0, True
        for _ in range(n):
            pos = step[pos]
            weights = weights + open_
            open_ = open_ & (pos != lead)
        labels = _products(weights.reshape(perms.shape), exps)
        labels %= splits[index]
        labels += starts[index]
        return number[labels]

    @cached_property
    def class_of(self) -> np.ndarray:
        """Read-only class of every element, by `_classes_of` on demand."""
        return _frozen(self._classes_of(self._perm_block, self._exp_block).reshape(-1))

    @cached_property
    def type_of(self) -> np.ndarray:
        """Read-only cycle type of every element, a row of the type table;
        the class itself when no type splits."""
        types = self._cycle_data[2][0]
        split = len(types) > len(self.type_codims)
        return _frozen(types[self.class_of]) if split else self.class_of

    @property
    def type_codims(self) -> np.ndarray:
        """Read-only fixed-space codimension of each cycle type."""
        return self._cycle_data[3][1]

    @cached_property
    def type_exponent_sums(self) -> np.ndarray:
        """Read-only exponent sum mod r of each cycle type, the sum of its
        cycle sums: det(g) = zeta^e up to the sign of the permutation, and
        g -> zeta^e is a linear character."""
        return _frozen(self._cycle_data[3][3])

    @cached_property
    def type_diagonal(self) -> np.ndarray:
        """Read-only flag of each cycle type: every cycle has size 1, so its
        elements are diagonal matrices (each code is below r)."""
        return _frozen(self._cycle_data[3][0][:, -1] < self.params.r)

    @cached_property
    def type_lengths(self) -> np.ndarray:
        """Read-only reflection length of each cycle type: the word length
        over all reflections (the codimension-1 elements) of its elements.
        Shi's formula (module docstring) gives it from the cycle type alone,
        so `cycle_type_length` runs once per row of the cycle-type table.
        Certificate, on the table: the identity's type (type 0, as the
        identity is element 0) has length 0, every type of codimension 1
        length 1, and no type a length below its codimension."""
        codes, codims = self._cycle_data[3][:2]
        start = time.perf_counter()
        r, p = self.params.r, self.params.p
        lengths = _frozen(np.array([
            cycle_type_length(_cycle_type_of_codes(row, r), r, p)
            for row in codes.tolist()
        ], dtype=np.int64))
        identity = int(lengths[0])
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
        return _frozen(self.type_codims[self.type_of])

    @cached_property
    def reflection_lengths(self) -> np.ndarray:
        """Read-only reflection length of every element."""
        return _frozen(self.type_lengths[self.type_of])

    @cached_property
    def conjugacy(self) -> ConjugacyClasses:
        """The classes (cycle type, L mod d) of the module docstring, in
        order of least member, with sizes n! r^n / (z d).  The inverse of
        (a | s), (-a o s | s^{-1}), is conjugate to (-a | s^{-1}) by the
        permutation matrix (0 | s)."""
        _, (_, reversals, table), reps, (codes, _, splits, _) = self._cycle_data
        types, indices, rows, exps = reps
        n, r = self.params.n, self.params.r
        # m_(k,c) is the count of the code (k - 1) r + c over k; every term
        # divides n! r^n, below 2^62 (checked at construction)
        counts = (codes[:, :, None] == np.arange(n * r)).sum(axis=1)
        size = np.arange(n * r) // r + 1
        cycles = counts // size
        fact = np.array([factorial(i) for i in range(n + 1)])
        z = np.prod((size * r) ** cycles * fact[cycles], axis=1) * splits
        sizes = (factorial(n) * r**n // z)[types]
        inverse = -exps[np.arange(len(rows))[:, None], reversals[rows]]
        return ConjugacyClasses(
            representatives=tuple(indices.tolist()), sizes=tuple(sizes.tolist()),
            types=types, inverse=table[rows, self._exp_rank(inverse)],
        )

    @cached_property
    def scalar_shift(self) -> np.ndarray:
        """Read-only class of z rep_C for each class C, where
        z = zeta^c0 I, c0 = p / gcd(n, p), generates the scalar matrices of
        G(r, p, n) (zeta^c I lies in it exactly when n c = 0 mod p); z has
        order h = r gcd(n, p) / p.  z is central, so z C is a class, that of
        z (a | s) = (a + c0 | s), built only when asked for."""
        n, p = self.params.n, self.params.p
        _, (_, _, table), (_, _, rows, exps), _ = self._cycle_data
        return _frozen(table[rows, self._exp_rank(exps + p // gcd(n, p))])

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
        members = np.flatnonzero(self.class_of == classes.inverse[c])
        m = len(self._exp_block)
        perms, perm_of = np.unique(members // m, return_inverse=True)
        rep_perms, rep_perm_of = np.unique(reps // m, return_inverse=True)
        ranks = self._perm_rank(self._perm_block[perms][:, self._perm_block[rep_perms]])
        # b o s^-1 for each column b and each distinct s
        shifted = self._exp_block[reps % m][:, self._inv_block[perms]]
        exps = shifted.transpose(1, 0, 2)[perm_of]
        exps += self._exp_block[members % m][:, None]
        products = ranks[perm_of][:, rep_perm_of] * m + self._exp_rank(exps)
        cells = self.class_of[products] * len(reps) + np.arange(len(reps))
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
        table is classified in one `_classes_of` call.  Scaling each
        representative's exponents by the units mod r (the Galois action)
        is no shortcut: it fixes the permutation while g^d moves L mod d, so
        where a type splits it joins classes that no coprime power joins
        (7 orbits on G(3,3,3) against 8 rational classes)."""
        classes = self.conjugacy
        _, (rotations, *_), (_, _, rows, first_exps), (codes, *_) = self._cycle_data
        n, r, k = self.params.n, self.params.r, len(classes)
        codes = codes[classes.types]
        orders = np.lcm.reduce((codes // r + 1) * (r // np.gcd(codes % r, r)), axis=1)
        # positions and exponents, reduced mod r at each power, in the
        # narrow type of 2 r and n
        perms = np.empty((orders.max(), k, n), dtype=np.min_scalar_type(max(n, 2 * r)))
        exps = np.empty_like(perms)
        perms[0], exps[0] = rotations[rows], first_exps
        # the flat positions of s(j) and of s^-1(j) in row i of a power
        ahead = perms[0] + np.arange(k)[:, None] * n
        back = np.argsort(perms[0], axis=1) + np.arange(k)[:, None] * n
        for d in range(1, len(perms)):
            perms[d] = perms[d - 1].take(ahead)
            np.add(exps[0], exps[d - 1].take(back), out=exps[d])
            exps[d] %= r
        # coprime[d - 1, c] is the class of the d-th power of class c, if d
        # is a coprime power, else k
        d = np.arange(1, len(perms) + 1)[:, None]
        powers = (np.gcd(d, orders) == 1) & (d <= orders)
        coprime = np.full(powers.shape, k)
        coprime[powers] = self._classes_of(perms[powers], exps[powers, None])[:, 0]
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
