"""Fixed request lists for the reflectra CLI benchmark.

Each request is the argument list of one `reflectra` command line.  A pass
sends every request of a workload once, one at a time, in an order that only
the seed permutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

KINDS = ("adjacency", "distance", "codimension")


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[tuple[str, ...], ...]
    # the small request the self-test sends for this workload
    smoke: tuple[str, ...]
    env: dict[str, str] = field(default_factory=dict)


def _spectrum(r: int, p: int, n: int, kind: str, method: str, *extra: str):
    return (
        "spectrum", str(r), str(p), str(n), "--kind", kind,
        "--method", method, *extra, "--format", "json",
    )


# Orders 32-72: the dense matrix build and the eigensolve do almost all the
# work.  G(4,4,3) (order 96, about 6 s for its three kinds) and G(3,1,3)
# (order 162, 5-7 s per kind) are left out on the pure-numpy Jacobi fallback,
# so that several passes fit in one run.
_NUMERIC_GROUPS = ((4, 1, 2), (2, 1, 3), (3, 3, 3), (6, 1, 2))

NUMERIC_SMALL = Workload(
    name="numeric-small",
    requests=tuple(
        _spectrum(r, p, n, kind, "numeric")
        for r, p, n in _NUMERIC_GROUPS
        for kind in KINDS
    ) + (_spectrum(4, 1, 2, "distance", "numeric", "--connection-set", "standard"),),
    smoke=_spectrum(4, 1, 2, "adjacency", "numeric"),
)

# Many classes at moderate order (k = 171 for G(6,2,4)), so central-character
# recovery dominates and no dense matrix is built.  Each request builds its
# own Group and asks for one kind, as a CLI call does.  G(5,1,4) (k = 190) is
# left out: about 10 s for one request, so several passes would not fit in
# one run.
CLASS_ALGEBRA_WIDE = Workload(
    name="class-algebra-wide",
    requests=(
        _spectrum(6, 2, 4, "distance", "class-algebra"),
        _spectrum(4, 1, 4, "codimension", "class-algebra"),
        _spectrum(6, 1, 3, "adjacency", "class-algebra"),
        _spectrum(6, 1, 3, "distance", "class-algebra"),
    ),
    smoke=_spectrum(6, 1, 3, "adjacency", "class-algebra"),
)

# Large |G| and few classes (37-108): the opposite use of the class-algebra
# layer to CLASS_ALGEBRA_WIDE.  The orders exceed the default enumeration cap,
# so the documented override is set.  G(2,1,7) is left out: about 30 s per
# request.
GROUP_LARGE = Workload(
    name="group-large",
    requests=tuple(
        (command, *params, "--format", "json")
        for params in (("2", "1", "6"), ("2", "2", "6"), ("3", "1", "5"))
        for command in ("group", "classes")
    ) + (
        ("lengths", "2", "2", "6", "--format", "csv"),
        _spectrum(2, 1, 6, "distance", "class-algebra"),
        _spectrum(3, 1, 5, "adjacency", "class-algebra"),
    ),
    smoke=("group", "3", "1", "5", "--format", "json"),
    env={"REFLECTRA_MAX_ORDER": "50000"},
)

# 5,822-22,528 partition tuples; no Group is built, so only the partitions
# layer runs.
TUPLE_EXACT = Workload(
    name="tuple-exact",
    requests=tuple(
        _spectrum(r, 1, n, "codimension", "combinatorial")
        for r, n in ((4, 10), (6, 8), (8, 7), (2, 16), (3, 12))
    ),
    smoke=_spectrum(2, 1, 16, "codimension", "combinatorial"),
)

WORKLOADS = {
    w.name: w for w in (NUMERIC_SMALL, CLASS_ALGEBRA_WIDE, GROUP_LARGE, TUPLE_EXACT)
}


def request_key(request) -> str:
    return " ".join(request)


def ordered_requests(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The workload's requests in the order the seed picks."""
    requests = list(workload.requests)
    random.Random(seed).shuffle(requests)
    return requests
