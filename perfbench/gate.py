"""Correctness gate for the answers of benchmark requests.

Every expectation here is derived in the benchmark from (r, p, n), with no
call into reflectra:

* |G(r, p, n)| = r^n n! / p, with degrees r, 2r, ..., (n-1)r, nr/p;
* Shephard-Todd: the number of elements of codimension k is the coefficient
  of t^k in prod(1 + m_i t) over the exponents m_i = d_i - 1, so the sums of
  codim and codim^2 over the group are closed forms;
* there are r n(n-1)/2 + n(r/p - 1) reflections;
* reflection length equals codimension when p = 1 or the group is real;
* Clifford theory counts the classes: an r-tuple of partitions of n whose
  stabiliser under the shift by r/p slots has order s contributes s^2 / p.

For a spectrum of the group matrix of f (f(g^-1) = f(g), f(1) = 0) the
multiplicities sum to |G|, sum m*lambda = trace = 0, sum m*lambda^2 =
|G| sum_g f(g)^2, and the top eigenvalue is sum_g f(g), simple.

Each answer is also compared with the stored answer of the same request,
floats within a tolerance, never the residual.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections import Counter
from functools import lru_cache
from math import factorial

REL_TOL = 1e-6


def group_order(r: int, p: int, n: int) -> int:
    return r**n * factorial(n) // p


def degrees(r: int, p: int, n: int) -> list[int]:
    return [r * i for i in range(1, n)] + [n * r // p]


def codim_counts(r: int, p: int, n: int) -> list[int]:
    """Coefficients of prod(1 + (d_i - 1) t): elements per codimension."""
    coeffs = [1]
    for d in degrees(r, p, n):
        m = d - 1
        coeffs = [a + m * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def reflection_count(r: int, p: int, n: int) -> int:
    return r * n * (n - 1) // 2 + n * (r // p - 1)


def is_real(r: int, p: int, n: int) -> bool:
    if r <= 2:
        return True
    if n == 1:
        return r // p <= 2
    return p == r and n == 2


def length_is_codim(r: int, p: int, n: int) -> bool:
    return p == 1 or is_real(r, p, n)


def total_reflection_length(r: int, p: int, n: int) -> int:
    """|G| * sum (d_i - 1) / d_i; valid where length equals codimension."""
    order = group_order(r, p, n)
    return sum((d - 1) * (order // d) for d in degrees(r, p, n))


@lru_cache(maxsize=None)
def _partitions(k: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    top = k if largest is None else min(k, largest)
    return tuple(
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in _partitions(k - first, first)
    )


def _compositions(n: int, slots: int):
    if slots == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, slots - 1):
            yield (first,) + rest


def partition_tuples(r: int, n: int):
    """All r-tuples of partitions with total size n."""
    for sizes in _compositions(n, r):
        yield from itertools.product(*(_partitions(k) for k in sizes))


@lru_cache(maxsize=None)
def class_count(r: int, p: int, n: int) -> int:
    shift = r // p
    total = 0
    for tpl in partition_tuples(r, n):
        stabiliser = sum(
            1 for j in range(p) if tpl[j * shift:] + tpl[:j * shift] == tpl
        )
        total += stabiliser * stabiliser
    return total // p


@lru_cache(maxsize=None)
def rational_class_count(r: int, p: int, n: int) -> int | None:
    """Rational classes: all classes of a Weyl group; for p = 1 the orbits of
    the units mod r acting on cycle data (size, c) by c -> e c.  None where
    no closed form is used."""
    if is_real(r, p, n):
        return class_count(r, p, n)
    if p != 1:
        return None
    units = [e for e in range(1, r) if _coprime(e, r)]
    orbits = set()
    for tpl in partition_tuples(r, n):
        images = (tuple(tpl[(e * c) % r] for c in range(r)) for e in units)
        orbits.add(min(images))
    return len(orbits)


def _coprime(a: int, b: int) -> bool:
    while b:
        a, b = b, a % b
    return a == 1


def parse_request(request) -> dict:
    """Command, (r, p, n) and options of one CLI request."""
    command, r, p, n, *rest = request
    options = dict(zip(rest[0::2], rest[1::2]))
    return {
        "command": command,
        "params": (int(r), int(p), int(n)),
        "kind": options.get("--kind"),
        "method": options.get("--method", "numeric"),
        "connection": options.get("--connection-set"),
    }


def element_sums(request) -> tuple[int, int] | None:
    """(sum_g f(g), sum_g f(g)^2) in closed form, or None where none is used."""
    req = parse_request(request)
    params = req["params"]
    if req["connection"] == "standard":
        return None
    if req["kind"] == "adjacency":
        count = reflection_count(*params)
        return count, count
    if req["kind"] == "codimension" or length_is_codim(*params):
        counts = codim_counts(*params)
        return (
            sum(k * c for k, c in enumerate(counts)),
            sum(k * k * c for k, c in enumerate(counts)),
        )
    return None


def summarize(request, text: str) -> dict:
    """The part of an answer compared with the stored answer."""
    command = request[0]
    if command == "lengths":
        rows = csv_rows(text)
        histogram = Counter((row[2], row[3]) for row in rows)
        return {
            "rows": len(rows),
            "histogram": sorted([l, c, m] for (l, c), m in histogram.items()),
        }
    payload = json.loads(text)
    if command == "spectrum":
        return {
            "entries": [[e["eigenvalue"], e["multiplicity"]] for e in payload["entries"]],
            "integral": payload["integral"],
        }
    if command == "group":
        return {key: payload[key] for key in (
            "order", "degrees", "exponents", "reflections", "classes",
            "rational_classes", "real", "generators",
        )}
    if command == "classes":
        rows = payload["classes"]
        return {
            "classes": sorted(
                [row["size"], row["order"], row["representative"]] for row in rows
            ),
            "rational": len({row["rational"] for row in rows}),
        }
    raise ValueError(f"no gate for command {command!r}")


def csv_rows(text: str) -> list[tuple[int, str, int, int]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["index", "element", "reflection_length", "codimension"]:
        raise ValueError(f"unexpected CSV header {header}")
    return [(int(i), e, int(l), int(c)) for i, e, l, c in reader]


def close(a, b) -> bool:
    """Equal, with floats within REL_TOL; ints and strings exactly."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    return type(a) is type(b) and a == b


def check(request, text: str, stored: dict | None) -> list[str]:
    """Problems with one answer; empty when it passes the gate."""
    try:
        problems = _MATH_CHECKS[request[0]](request, text)
        summary = summarize(request, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable answer: {type(exc).__name__}: {exc}"]
    if stored is None:
        problems.append("no stored answer")
    elif not close(summary, stored):
        problems.append("differs from the stored answer")
    return problems


def _check_spectrum(request, text: str) -> list[str]:
    req = parse_request(request)
    r, p, n = req["params"]
    order = group_order(r, p, n)
    payload = json.loads(text)
    problems = []
    if payload["params"] != [r, p, n] or payload["kind"] != req["kind"]:
        problems.append("answer is for another request")
    entries = [(e["eigenvalue"], e["multiplicity"]) for e in payload["entries"]]
    if sum(m for _, m in entries) != order:
        problems.append("multiplicities do not sum to |G|")
    expect_integral = req["connection"] != "standard"
    if expect_integral and payload["integral"] is not True:
        problems.append("spectrum is not integral")
    exact = all(isinstance(value, int) for value, _ in entries)
    first = sum(m * value for value, m in entries)
    scale = sum(m * abs(value) for value, m in entries)
    traceless = first == 0 if exact else abs(first) <= REL_TOL * max(1.0, scale)
    if not traceless:
        problems.append("sum m*lambda is not 0")
    top, top_mult = entries[0]
    if top_mult != 1 or any(value >= top for value, _ in entries[1:]):
        problems.append("top eigenvalue is not simple and largest")
    sums = element_sums(request)
    if sums is not None:
        if top != sums[0]:
            problems.append(f"top eigenvalue {top} != sum f = {sums[0]}")
        if sum(m * value * value for value, m in entries) != order * sums[1]:
            problems.append("sum m*lambda^2 != |G| sum f^2")
    return problems


def _check_group(request, text: str) -> list[str]:
    r, p, n = parse_request(request)["params"]
    payload = json.loads(text)
    expected = {
        "params": [r, p, n],
        "order": group_order(r, p, n),
        "degrees": degrees(r, p, n),
        "exponents": [d - 1 for d in degrees(r, p, n)],
        "reflections": reflection_count(r, p, n),
        "classes": class_count(r, p, n),
        "real": is_real(r, p, n),
    }
    rational = rational_class_count(r, p, n)
    if rational is not None:
        expected["rational_classes"] = rational
    return [
        f"{key}: {payload.get(key)!r} != {value!r}"
        for key, value in expected.items()
        if payload.get(key) != value
    ]


def _check_classes(request, text: str) -> list[str]:
    r, p, n = parse_request(request)["params"]
    order = group_order(r, p, n)
    rows = json.loads(text)["classes"]
    problems = []
    if len(rows) != class_count(r, p, n):
        problems.append(f"{len(rows)} classes, expected {class_count(r, p, n)}")
    sizes = [row["size"] for row in rows]
    if sum(sizes) != order or any(order % size for size in sizes):
        problems.append("class sizes do not partition |G|")
    rational = rational_class_count(r, p, n)
    if rational is not None and len({row["rational"] for row in rows}) != rational:
        problems.append(f"rational class count differs from {rational}")
    return problems


def _check_lengths(request, text: str) -> list[str]:
    r, p, n = parse_request(request)["params"]
    rows = csv_rows(text)
    problems = []
    if len(rows) != group_order(r, p, n):
        problems.append("row count differs from |G|")
    codims = Counter(row[3] for row in rows)
    if [codims.get(k, 0) for k in range(n + 1)] != codim_counts(r, p, n):
        problems.append("codimension counts differ from prod(1 + m_i t)")
    if any(row[2] < row[3] for row in rows):
        problems.append("a reflection length is below the codimension")
    if length_is_codim(r, p, n):
        if any(row[2] != row[3] for row in rows):
            problems.append("reflection length differs from codimension")
        if sum(row[2] for row in rows) != total_reflection_length(r, p, n):
            problems.append("total reflection length != |G| sum (d_i - 1)/d_i")
    return problems


_MATH_CHECKS = {
    "spectrum": _check_spectrum,
    "group": _check_group,
    "classes": _check_classes,
    "lengths": _check_lengths,
}
