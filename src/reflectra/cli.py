"""Command-line front end: group inspection, matrix and spectrum export,
Poincare factorizations, and the verification harness.

Output goes to stdout (or a file via -o) and defaults to readable text;
--format json emits a stable machine schema carrying a top-level
"schema": 1 marker, and matrix/length listings also support CSV.  Progress
notes for long computations go to stderr only.  Identical invocations
produce byte-identical data output.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import wraps
from pathlib import Path

import click

from .errors import ParameterError, ReflectraError
from .groups import (
    Group,
    GroupParams,
    element_order,
    format_element,
    is_real,
)
from .partitions import (
    character_dimension,
    codim_spectrum_combinatorial,
    format_partition_tuple,
    parse_partition_tuple,
    poincare_star_roots,
    xi_from_roots,
)
from .reflections import codim, degree_data, reflection_length_table
from .reflections import reflections as reflection_indices
from .spectra import (
    Spectrum,
    adjacency_matrix,
    all_reflections_connection,
    build_matrix,
    codimension_function,
    distance_function,
    adjacency_function,
    distance_matrix_bfs,
    spectrum_class_algebra,
    spectrum_numeric,
    standard_connection,
)
from .verify import SUITE_NAMES, run_suite

KIND_CHOICES = ("adjacency", "distance", "codimension")
METHOD_CHOICES = ("numeric", "class-algebra", "combinatorial")
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
        Path(output).write_text(text, encoding="utf-8")


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


def _csv_text(rows: list[list], header: list[str] | None = None) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _format_spectrum_entries(spectrum: Spectrum) -> str:
    return " ".join(f"{value}^{mult}" for value, mult in spectrum.entries)


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
        f"{where} ({spectrum.method}): {_format_spectrum_entries(spectrum)}",
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
    generators = [format_element(g) for g in group.generators()]
    refl_count = len(reflection_indices(group))
    class_count = len(group.conjugacy)
    rational_count = len(group.rational)
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "name": str(params),
            "order": group.order,
            "degrees": list(degrees.degrees),
            "exponents": list(degrees.exponents),
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
        "degrees " + ", ".join(str(d) for d in degrees.degrees)
        + "; exponents " + ", ".join(str(m) for m in degrees.exponents),
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
    rational_of = group.rational.class_to_rational
    rows = []
    for index, rep in enumerate(classes.representatives):
        element = group.elements[rep]
        rows.append({
            "index": index,
            "size": classes.sizes[index],
            "order": element_order(element),
            "rational": int(rational_of[index]),
            "representative": format_element(element),
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
            "element": format_element(group.elements[t]),
            "order": element_order(group.elements[t]),
        }
        for t in reflection_indices(group)
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
    group = Group(params)
    table = reflection_length_table(group)
    rows = [
        {
            "index": i,
            "element": format_element(x),
            "reflection_length": int(table.lengths[i]),
            "codimension": int(table.codims[i]),
        }
        for i, x in enumerate(group.elements)
    ]
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "total_reflection_length": int(table.lengths.sum()),
            "elements": rows,
        }
        _emit(_json_text(payload), output)
        return
    header = ["index", "element", "reflection_length", "codimension"]
    if fmt == "csv":
        csv_rows = [
            [row["index"], row["element"], row["reflection_length"],
             row["codimension"]]
            for row in rows
        ]
        _emit(_csv_text(csv_rows, header), output)
        return
    text_rows = [
        [str(row["index"]), str(row["reflection_length"]),
         str(row["codimension"]), row["element"]]
        for row in rows
    ]
    table_text = _table(
        text_rows, ["index", "reflection_length", "codimension", "element"]
    )
    _emit(table_text, output)


def _build_group_matrix(group: Group, kind: str, connection: str | None):
    if kind == "codimension":
        return build_matrix(group, codimension_function(group)), None
    name = connection or "all-reflections"
    conn = (
        standard_connection(group)
        if name == "standard"
        else all_reflections_connection(group)
    )
    if kind == "adjacency":
        return adjacency_matrix(group, conn), name
    return distance_matrix_bfs(group, conn), name


@main.command("matrix")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--kind", type=click.Choice(KIND_CHOICES), required=True)
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
    group = Group(params)
    matrix, used_connection = _build_group_matrix(group, kind, connection)
    if fmt == "json":
        payload = {
            "schema": 1,
            "params": [r, p, n],
            "kind": kind,
            "order": matrix.order,
            "element_order_reference": matrix.element_order_reference,
            "entries": matrix.entries.tolist(),
        }
        if used_connection is not None:
            payload["connection_set"] = used_connection
        _emit(_json_text(payload), output)
        return
    if fmt == "csv":
        _emit(_csv_text(matrix.entries.tolist()), output)
        return
    lines = [" ".join(str(v) for v in row) for row in matrix.entries.tolist()]
    _emit("\n".join(lines) + "\n", output)


@main.command("spectrum")
@click.argument("r", type=int)
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.option("--kind", type=click.Choice(KIND_CHOICES), required=True)
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
    if tolerance <= 0:
        raise click.UsageError(f"tolerance must be positive, got {tolerance}")
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
    if method == "combinatorial":
        entries = codim_spectrum_combinatorial(r, n)
        spectrum = Spectrum(
            entries=tuple((e.eigenvalue, e.multiplicity) for e in entries),
            method="combinatorial",
            max_residual=0.0,
            integral=True,
        )
        used_connection = None
    elif method == "class-algebra":
        group = Group(params)
        builder = {
            "adjacency": adjacency_function,
            "distance": distance_function,
            "codimension": codimension_function,
        }[kind]
        spectrum = spectrum_class_algebra(group, builder(group), tolerance)
        used_connection = None
    else:
        group = Group(params)
        matrix, used_connection = _build_group_matrix(group, kind, connection)
        spectrum = spectrum_numeric(matrix, tolerance)
    if fmt == "json":
        payload = _spectrum_payload(params, kind, spectrum, used_connection)
        _emit(_json_text(payload), output)
        return
    _emit(_spectrum_text(params, kind, spectrum, used_connection), output)


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
    roots = poincare_star_roots(tpl, r)
    xi = xi_from_roots(roots)
    dimension = character_dimension(tpl)
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


@main.command("codim-spectrum")
@click.argument("r", type=int)
@click.argument("n", type=int)
@click.option("--max-tuples", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def codim_spectrum_command(
    r: int, n: int, max_tuples: int | None, fmt: str, output: str | None
) -> None:
    """Exact codimension spectrum of G(R, 1, N) from partition tuples."""
    params = _make_params(r, 1, n)
    entries = codim_spectrum_combinatorial(r, n, max_tuples)
    spectrum = Spectrum(
        entries=tuple((e.eigenvalue, e.multiplicity) for e in entries),
        method="combinatorial",
        max_residual=0.0,
        integral=True,
    )
    if fmt == "json":
        payload = _spectrum_payload(params, "codimension", spectrum, None)
        _emit(_json_text(payload), output)
        return
    _emit(_spectrum_text(params, "codimension", spectrum, None), output)


@main.command("verify")
@click.argument("suite", default="all", required=False,
                type=click.Choice(SUITE_NAMES))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cli_errors
def verify_command(suite: str, fmt: str) -> None:
    """Run the named check suite; exit 0 only when every check passes."""

    def progress(name: str) -> None:
        click.echo(f"running {name}", err=True)

    report = run_suite(suite, progress)
    if fmt == "json":
        payload = {"schema": 1, **report.as_dict()}
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
