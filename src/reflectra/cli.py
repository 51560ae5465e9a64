"""Command-line front end: group inspection, matrix and spectrum export,
Poincare factorizations, and the verification harness.

Output goes to stdout (or a file via -o) and defaults to readable text;
--format json emits a stable machine schema carrying a top-level
"schema" marker (2 for verify, whose check records dropped their runtime;
1 elsewhere), and matrix/length listings also support CSV.  Progress
notes for long computations go to stderr only.  Identical invocations
produce byte-identical data output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from functools import wraps
from itertools import chain, repeat
from pathlib import Path

import click

from .errors import ParameterError, ReflectraError, SizeLimitError, format_size
from .groups import (
    DEFAULT_ENUMERATION_CAP,
    ENUMERATION_CAP_ENV,
    Group,
    GroupParams,
    element_order,
    format_element,
    is_real,
    standard_generators,
)
from .partitions import (
    character_dimension,
    codim_spectrum_combinatorial,
    format_partition_tuple,
    parse_partition_tuple,
    poincare_star_roots,
    xi_from_roots,
)
from .reflections import degree_data
from .reflections import reflections as reflection_indices
from .spectra import (
    ELEMENT_ORDER_REFERENCE,
    KINDS,
    Spectrum,
    _check_matrix_cap,
    adjacency_matrix,
    build_matrix,
    class_function,
    distance_matrix_bfs,
    format_entries,
    spectrum_class_algebra,
    spectrum_numeric,
    standard_connection,
)

METHOD_CHOICES = ("numeric", "class-algebra", "combinatorial")
# the most boxes `poincare` lists; on a shared 2-vCPU VM a row of this many
# takes about 18 s, its xi and dimension being products of n big ints
POINCARE_BOX_CAP = 10**5
CONNECTION_CHOICES = ("standard", "all-reflections")


def _cli_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ReflectraError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except MemoryError:
            # numpy's failed allocations raise a MemoryError subclass
            what = "the request"
            if "r" in kwargs:
                what = str(GroupParams(kwargs["r"], kwargs["p"], kwargs["n"]))
            cap = os.environ.get(ENUMERATION_CAP_ENV, DEFAULT_ENUMERATION_CAP)
            click.echo(
                f"error: out of memory on {what} (enumeration cap {cap}, "
                f"set by {ENUMERATION_CAP_ENV})", err=True,
            )
            sys.exit(1)

    return wrapper


def _make_params(r: int, p: int, n: int) -> GroupParams:
    try:
        return GroupParams(r, p, n)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise click.FileError(output, hint=exc.strerror or str(exc)) from None


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(row[col]) for row in [header] + rows)
        for col in range(len(header))
    ]
    lines = []
    for row in [header] + rows:
        padded = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _spectrum_payload(
    params: GroupParams, kind: str, spectrum: Spectrum, connection: str | None
) -> dict:
    payload = {
        "schema": 1,
        "params": [params.r, params.p, params.n],
        "kind": kind,
        "method": spectrum.method,
        "entries": [
            {"eigenvalue": value, "multiplicity": mult}
            for value, mult in spectrum.entries
        ],
        "max_residual": spectrum.max_residual,
        "integral": spectrum.integral,
    }
    if connection is not None:
        payload["connection_set"] = connection
    if spectrum.raw is not None:
        payload["raw"] = list(spectrum.raw)
    return payload


def _spectrum_text(
    params: GroupParams, kind: str, spectrum: Spectrum, connection: str | None
) -> str:
    where = f"{kind} spectrum of {params}"
    if connection is not None:
        where += f" [{connection}]"
    lines = [
        f"{where} ({spectrum.method}): {format_entries(spectrum.entries)}",
        f"max residual {spectrum.max_residual:.3e}, "
        + ("integral" if spectrum.integral else "NON-INTEGRAL"),
    ]
    return "\n".join(lines) + "\n"


@click.group()
def main() -> None:
    """Monomial reflection groups G(r, p, n) and their Cayley-graph spectra."""


@main.command("group")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def group_command(r: int, p: int, n: int, fmt: str) -> None:
    """Orders, degrees, classes, and generators of G(R, P, N)."""
    params = _make_params(r, p, n)
    group = Group(params)
    degrees = degree_data(params)
    exponents = [d - 1 for d in degrees]
    generators = [format_element(g) for g in standard_generators(params)]
    classes = group.conjugacy
    # the reflections fill the classes of codimension 1
    codims = group.type_codims[classes.types].tolist()
    refl_count = sum(size for size, c in zip(classes.sizes, codims) if c == 1)
    class_count = len(classes)
    rational_count = len(group.rational)
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "name": str(params),
            "order": group.order,
            "degrees": list(degrees),
            "exponents": exponents,
            "reflections": refl_count,
            "classes": class_count,
            "rational_classes": rational_count,
            "real": is_real(params),
            "generators": generators,
        }
        _emit(_json_text(payload), None)
        return
    lines = [
        f"{params}: order {group.order}",
        "degrees " + ", ".join(str(d) for d in degrees)
        + "; exponents " + ", ".join(str(m) for m in exponents),
        f"{refl_count} reflections, {class_count} conjugacy classes, "
        f"{rational_count} rational classes",
        f"real: {'yes' if is_real(params) else 'no'}",
        "generators: " + " ; ".join(generators),
    ]
    _emit("\n".join(lines) + "\n", None)


@main.command("classes")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def classes_command(r: int, p: int, n: int, fmt: str) -> None:
    """Conjugacy classes with sizes, element orders, and rational grouping."""
    params = _make_params(r, p, n)
    group = Group(params)
    classes = group.conjugacy
    rational = group.rational
    rows = []
    for index, rep in enumerate(classes.representatives):
        rows.append({
            "index": index,
            "size": classes.sizes[index],
            "order": rational.orders[index],
            "rational": rational.class_to_rational[index],
            "representative": format_element(group.element(rep)),
        })
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "classes": rows,
        }
        _emit(_json_text(payload), None)
        return
    text_rows = [
        [str(row["index"]), str(row["size"]), str(row["order"]),
         str(row["rational"]), row["representative"]]
        for row in rows
    ]
    table = _table(text_rows, ["index", "size", "order", "rational", "representative"])
    _emit(f"{len(rows)} conjugacy classes of {params}\n" + table, None)


@main.command("reflections")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def reflections_command(r: int, p: int, n: int, fmt: str) -> None:
    """The codimension-1 elements of G(R, P, N)."""
    params = _make_params(r, p, n)
    group = Group(params)
    rows = [
        {
            "index": int(t),
            "element": format_element(x),
            "order": element_order(x),
        }
        for t in reflection_indices(group)
        for x in [group.element(t)]
    ]
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "count": len(rows),
            "reflections": rows,
        }
        _emit(_json_text(payload), None)
        return
    text_rows = [
        [str(row["index"]), str(row["order"]), row["element"]] for row in rows
    ]
    table = _table(text_rows, ["index", "order", "element"])
    _emit(f"{len(rows)} reflections in {params}\n" + table, None)


@main.command("lengths")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text"
)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def lengths_command(r: int, p: int, n: int, fmt: str, output: str | None) -> None:
    """Reflection length and codimension of every element."""
    params = _make_params(r, p, n)
    _emit(_lengths_table(Group(params), fmt), output)


def _lengths_table(group: Group, fmt: str) -> str:
    """The table in fmt, as csv.writer, _json_text or _table writes it, in
    one %-format.  The template repeats one block of m rows, one per
    exponent row e, once per permutation; row q * m + e takes its index
    (%d), permutation q's text and its type's piece, the length and
    codimension, which the text table writes before the element's text and
    the others after it."""
    exp_texts, perm_texts = group.text_blocks()
    bottom = ""
    if fmt == "csv":
        # an element's text holds a comma, and is quoted, exactly when n > 1
        quote = '"' if group.params.n > 1 else ""
        top = "index,element,reflection_length,codimension\n"
        before, after, row = f"%d,{quote}", "%s%s", f"{quote},{{}},{{}}\n"
    elif fmt == "json":
        # element texts hold only digits, ",", "|" and spaces, which JSON
        # strings take unescaped
        params = group.params
        payload = {
            "schema": 1,
            "params": [params.r, params.p, params.n],
            "total_reflection_length": int(group.reflection_lengths.sum()),
            "elements": ["@"],
        }
        top, bottom = _json_text(payload).split('    "@"\n')
        before, after = '    {\n      "index": %d,\n      "element": "', "%s%s"
        row = '",\n      "reflection_length": {},\n      "codimension": {}\n    }},\n'
    else:
        # _table's columns: lengths (at most n + 1, n <= 15 for the cycle
        # walk) and codimensions are narrower than their headers, and an
        # element's text, last, ends in a digit, so rstrip cuts no padding
        width = max(len("index"), len(str(group.order - 1)))
        top = f"{'index':<{width}}  reflection_length  codimension  element\n"
        before, after, row = f"%-{width}d  %s", "%s\n", "{:<17}  {:<11}  "
    types = zip(group.type_lengths.tolist(), group.type_codims.tolist())
    pieces = [row.format(length, codim) for length, codim in types]
    perms = chain.from_iterable(repeat(text, len(exp_texts)) for text in perm_texts)
    ends = map(pieces.__getitem__, group.type_of.tolist())
    rows = zip(range(group.order), *((ends, perms) if fmt == "text" else (perms, ends)))
    block = "".join(before + text + after for text in exp_texts)
    # the top goes into the template, so the table is built once
    template = top + block * len(perm_texts) + bottom
    table = template % tuple(chain.from_iterable(rows))
    if fmt == "json":
        # the last element takes no comma, and the bottom holds none
        head, _, tail = table.rpartition(",")
        return head + tail
    return table


def _connection_label(kind: str, connection: str | None) -> str | None:
    """None for codimension, else --connection-set, all-reflections by default."""
    return None if kind == "codimension" else connection or "all-reflections"


def _build_group_matrix(group: Group, kind: str, connection: str | None):
    if connection == "standard":
        conn = standard_connection(group)
        if kind == "adjacency":
            return adjacency_matrix(group, conn)
        return distance_matrix_bfs(group, conn)
    # on all reflections, adjacency and distance (the word length over all
    # reflections, Group.reflection_lengths) are class functions
    return build_matrix(group, class_function(group, kind))


@main.command("matrix")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option(
    "--connection-set", "connection", type=click.Choice(CONNECTION_CHOICES),
    default=None,
)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text"
)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def matrix_command(
    r: int, p: int, n: int, kind: str, connection: str | None, fmt: str,
    output: str | None,
) -> None:
    """Dense group matrix M[i, j] = f(x_i * x_j^{-1}) for the chosen kind."""
    params = _make_params(r, p, n)
    if kind == "codimension" and connection is not None:
        raise click.UsageError(
            "codimension matrices take no connection set"
        )
    _check_matrix_cap(params.order)
    group = Group(params)
    label = _connection_label(kind, connection)
    matrix = _build_group_matrix(group, kind, label)
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "kind": kind,
            "order": group.order,
            "element_order_reference": ELEMENT_ORDER_REFERENCE,
            "entries": matrix.tolist(),
        }
        if label is not None:
            payload["connection_set"] = label
        _emit(_json_text(payload), output)
        return
    if fmt == "csv":
        _emit(_csv_text(matrix.tolist()), output)
        return
    lines = [" ".join(str(v) for v in row) for row in matrix.tolist()]
    _emit("\n".join(lines) + "\n", output)


@main.command("spectrum")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--method", type=click.Choice(METHOD_CHOICES), default="numeric")
@click.option(
    "--connection-set", "connection", type=click.Choice(CONNECTION_CHOICES),
    default=None,
)
@click.option("--tolerance", type=float, default=1e-8, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def spectrum_command(
    r: int, p: int, n: int, kind: str, method: str, connection: str | None,
    tolerance: float, fmt: str, output: str | None,
) -> None:
    """Eigenvalues with multiplicities via the chosen route."""
    params = _make_params(r, p, n)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise click.UsageError(
            f"tolerance must be positive and finite, got {tolerance}"
        )
    if method == "combinatorial" and (kind != "codimension" or p != 1):
        raise click.UsageError(
            "the combinatorial route covers codimension spectra of G(r,1,n) only"
        )
    if kind == "codimension" and connection is not None:
        raise click.UsageError("codimension spectra take no connection set")
    if method == "class-algebra" and connection == "standard":
        raise click.UsageError(
            "the class-algebra route needs a class function; the standard "
            "connection set is not closed under conjugation"
        )
    label = _connection_label(kind, connection)
    if method == "combinatorial":
        spectrum = Spectrum(
            entries=codim_spectrum_combinatorial(r, n),
            method="combinatorial", max_residual=0.0, integral=True,
        )
    elif method == "class-algebra":
        group = Group(params)
        spectrum = spectrum_class_algebra(group, class_function(group, kind), tolerance)
    else:
        _check_matrix_cap(params.order)
        group = Group(params)
        matrix = _build_group_matrix(group, kind, label)
        spectrum = spectrum_numeric(matrix, tolerance)
    if fmt == "json":
        _emit(_json_text(_spectrum_payload(params, kind, spectrum, label)), output)
    else:
        _emit(_spectrum_text(params, kind, spectrum, label), output)


@main.command("poincare")
@click.argument("tuple_text", metavar="TUPLE")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def poincare_command(tuple_text: str, fmt: str) -> None:
    """Factored Poincare polynomials of a partition tuple, e.g. "2||1,1".

    The tuple has one '|'-separated component per root-of-unity slot; its
    component count sets r and the total size sets n.
    """
    try:
        tpl = parse_partition_tuple(tuple_text)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from None
    r = len(tpl)
    n = sum(sum(component) for component in tpl)
    if n == 0:
        raise click.UsageError(
            f"the tuple {tuple_text!r} has total size 0; n must be positive"
        )
    if n > POINCARE_BOX_CAP:
        raise SizeLimitError(
            f"the tuple has {format_size(n)} boxes, above the cap {POINCARE_BOX_CAP}"
        )
    roots = poincare_star_roots(tpl, r)
    xi = xi_from_roots(roots)
    dimension = character_dimension(tpl)
    digits = sys.get_int_max_str_digits()
    if digits and max(abs(xi), dimension * dimension) >= 10**digits:
        raise SizeLimitError(
            f"xi or the multiplicity of the tuple (r={r}, n={n}) has more than "
            f"{digits} digits, Python's limit for writing an int as text"
        )
    star = "".join(
        "(t)" if root == 0 else f"(t{root:+d})" for root in roots
    ) or "1"
    reciprocal_factors = []
    for root in roots:
        if root == 0:
            continue
        if root == 1:
            reciprocal_factors.append("(1+t)")
        elif root == -1:
            reciprocal_factors.append("(1-t)")
        else:
            reciprocal_factors.append(f"(1{root:+d}t)")
    reciprocal = "".join(reciprocal_factors) or "1"
    if fmt == "json":
        payload = {
            "schema": 1,
            "tuple": format_partition_tuple(tpl),
            "r": r,
            "n": n,
            "roots": list(roots),
            "poincare_star": star,
            "poincare": reciprocal,
            "xi": xi,
            "dimension": dimension,
            "multiplicity": dimension * dimension,
        }
        _emit(_json_text(payload), None)
        return
    lines = [
        f"tuple {format_partition_tuple(tpl)} (r={r}, n={n})",
        f"R*(t) = {star}",
        f"R(t) = {reciprocal}",
        f"xi = {xi}",
        f"dimension = {dimension}, multiplicity = {dimension * dimension}",
    ]
    _emit("\n".join(lines) + "\n", None)


@main.command("verify")
@click.argument("suite", default="all", required=False)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def verify_command(suite: str, fmt: str) -> None:
    """Run the named check suite (default all); exit 0 only when every check
    passes."""
    # imported here, so that no other command loads the check registry
    from .verify import SUITE_NAMES, run_suite

    if suite not in SUITE_NAMES:
        raise click.BadParameter(
            f"{suite!r} is not one of {', '.join(SUITE_NAMES)}", param_hint="SUITE"
        )

    def progress(name: str) -> None:
        click.echo(f"running {name}", err=True)

    report = run_suite(suite, progress)
    if fmt == "json":
        payload = {"schema": 2, **report.as_dict()}
        _emit(_json_text(payload), None)
    else:
        lines = []
        for result in report.results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"{status} {result.name}: {result.detail}")
        passed = sum(1 for result in report.results if result.passed)
        failed = len(report.results) - passed
        lines.append(
            f"suite {report.suite}: {len(report.results)} checks, "
            f"{passed} passed, {failed} failed"
        )
        _emit("\n".join(lines) + "\n", None)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
