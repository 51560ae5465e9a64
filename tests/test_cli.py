"""Command-line front end: the JSON schema of each subcommand, usage errors,
determinism of data output, and the module entry point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import reflectra
from reflectra import cli, partitions, spectra
from reflectra.cli import main
from reflectra.errors import format_size
from reflectra.groups import Group, GroupParams, element_order, format_element
from reflectra.reflections import reflections
from reflectra.spectra import all_reflections_connection, distance_matrix_bfs
from reflectra.verify import desk_scale_params

from oracles import ORACLE_GROUPS, csv_by_writer


def test_spectrum_json_is_byte_identical_on_repeat():
    args = ["spectrum", "4", "1", "2", "--kind", "adjacency",
            "--method", "numeric", "--format", "json"]
    runner = CliRunner()
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0, second.output
    assert first.stdout_bytes == second.stdout_bytes
    payload = json.loads(first.stdout_bytes)
    assert payload["integral"] is True
    assert sum(e["multiplicity"] for e in payload["entries"]) == 32


def test_python_dash_m_runs_the_cli():
    src = str(Path(reflectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("reflectra", "reflectra.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "group", "2", "1", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("G(2,1,2): order 8"), done.stdout


def test_only_the_verify_command_imports_verify():
    src = str(Path(reflectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = "import sys, reflectra.cli; print('reflectra.verify' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    done = subprocess.run(
        [sys.executable, "-m", "reflectra", "verify", "nosuch"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "dihedral" in done.stderr and "all" in done.stderr


def test_package_root_loads_no_submodule():
    # callers import the submodules; the root re-exports nothing
    src = str(Path(reflectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = (
        "import sys, reflectra\n"
        "print(sorted(m for m in sys.modules if m.startswith('reflectra.')))\n"
        "print(sorted(k for k in vars(reflectra)"
        " if not (k.startswith('__') and k.endswith('__'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def test_no_request_imports_numpy_ma_or_fft():
    # the first plain np.unique (no return flags) in a process imports
    # numpy.ma, about 15 ms; no route needs it, nor numpy.fft
    src = str(Path(reflectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = """
import contextlib, io, sys
from reflectra.cli import main
for args in (
    "spectrum 3 1 2 --kind adjacency --method numeric",
    "spectrum 4 2 3 --kind distance --method class-algebra",
    "spectrum 2 1 4 --kind codimension --method combinatorial",
    "group 3 3 3",
    "classes 4 2 2",
    "lengths 2 2 3 --format csv",
):
    with contextlib.redirect_stdout(io.StringIO()):
        main(args.split(), standalone_mode=False)
print(sorted(m for m in ("numpy.ma", "numpy.fft") if m in sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


SPECTRUM_KEYS = {
    "schema", "params", "kind", "method", "entries", "max_residual", "integral",
}


@pytest.mark.parametrize(
    "args,keys",
    [
        pytest.param(["group", "3", "1", "2"], {
            "schema", "params", "name", "order", "degrees", "exponents",
            "reflections", "classes", "rational_classes", "real", "generators",
        }, id="group"),
        pytest.param(["classes", "3", "1", "2"], {"schema", "params", "classes"},
                     id="classes"),
        pytest.param(["reflections", "3", "1", "2"],
                     {"schema", "params", "count", "reflections"}, id="reflections"),
        pytest.param(["lengths", "3", "1", "2"],
                     {"schema", "params", "total_reflection_length", "elements"},
                     id="lengths"),
        pytest.param(["spectrum", "3", "1", "2", "--kind", "adjacency"],
                     SPECTRUM_KEYS | {"connection_set"}, id="spectrum-numeric"),
        pytest.param(["spectrum", "3", "1", "2", "--kind", "distance",
                      "--connection-set", "standard"],
                     SPECTRUM_KEYS | {"connection_set", "raw"},
                     id="spectrum-non-integral"),
        pytest.param(["spectrum", "3", "1", "2", "--kind", "codimension",
                      "--method", "class-algebra"], SPECTRUM_KEYS,
                     id="spectrum-class-algebra"),
        pytest.param(["spectrum", "3", "1", "2", "--kind", "distance",
                      "--method", "class-algebra"],
                     SPECTRUM_KEYS | {"connection_set"},
                     id="spectrum-class-algebra-distance"),
        pytest.param(["spectrum", "3", "1", "2", "--kind", "codimension",
                      "--method", "combinatorial"], SPECTRUM_KEYS,
                     id="spectrum-combinatorial"),
        pytest.param(["poincare", "2||1,1"], {
            "schema", "tuple", "r", "n", "roots", "poincare_star", "poincare",
            "xi", "dimension", "multiplicity",
        }, id="poincare"),
    ],
)
def test_json_top_level_keys(args, keys):
    result = CliRunner().invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout_bytes)
    assert set(payload) == keys
    assert payload["schema"] == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--kind", "codimension", "--method", "combinatorial"],
        ["--kind", "codimension", "--connection-set", "standard"],
        ["--kind", "adjacency", "--method", "class-algebra",
         "--connection-set", "standard"],
        ["--kind", "adjacency", "--tolerance", "0"],
        ["--kind", "adjacency", "--tolerance", "nan"],
        ["--kind", "adjacency", "--tolerance", "inf"],
    ],
    ids=["combinatorial-p>1", "codimension-connection", "class-algebra-standard",
         "zero-tolerance", "nan-tolerance", "inf-tolerance"],
)
def test_spectrum_usage_errors_exit_2(extra):
    result = CliRunner().invoke(main, ["spectrum", "4", "2", "2", *extra])
    assert result.exit_code == 2, result.output
    assert result.stdout_bytes == b""


def test_combinatorial_fold_cap_exceeded_exits_1():
    # the fold for G(1,1,60) takes up to 58,954,487 steps, above the default
    # cap, though its 966,467 partition tuples are below the tuple cap
    result = CliRunner().invoke(main, [
        "spectrum", "1", "1", "60", "--kind", "codimension",
        "--method", "combinatorial",
    ])
    assert result.exit_code == 1
    assert "up to 58954487 steps" in result.stderr
    assert result.stdout_bytes == b""


@pytest.mark.parametrize(
    "args",
    [
        ["group", "2", "1", "2000"],
        ["group", "2", "1", "1000"],
        ["spectrum", "2", "1", "2000", "--kind", "distance"],
        ["spectrum", "2", "1", "2000", "--kind", "distance",
         "--method", "class-algebra"],
        ["spectrum", "1", "1", "10000", "--kind", "codimension",
         "--method", "combinatorial"],
        ["spectrum", "3000000", "1", "1", "--kind", "codimension",
         "--method", "combinatorial"],
    ],
    ids=["group-2000", "group-1000", "numeric", "class-algebra",
         "fold-n", "fold-r"],
)
def test_oversized_requests_are_one_short_error_line(args):
    # orders of thousands of digits are named by their size, and a fold's
    # step bound stops growing once it passes the cap
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout_bytes == b""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1 and len(result.stderr) < 200


def test_sizes_print_in_full_up_to_18_digits():
    assert format_size(10**18 - 1) == "999999999999999999"
    assert format_size(10**18) == "about 10^18"
    # 2^2000 2000!, the order of G(2,1,2000), has 6,338 digits
    assert format_size(2**2000 * math.factorial(2000)) == "about 10^6338"
    result = CliRunner().invoke(main, ["group", "2", "1", "2000"])
    assert result.stderr == (
        "error: G(2,1,2000) has order about 10^6338, above the enumeration "
        "cap 20000 (override with REFLECTRA_MAX_ORDER or max_order)\n"
    )


@pytest.mark.parametrize(
    "args", [["spectrum", "2", "1", "8", "--kind", "distance"],
             ["matrix", "2", "1", "7", "--kind", "codimension"]],
    ids=["spectrum", "matrix"],
)
def test_dense_cap_checked_before_the_group_is_built(args, monkeypatch):
    # with the enumeration cap raised, a request over the dense matrix cap
    # fails on the order alone, before any element is listed
    def no_group(*args, **kwargs):
        raise AssertionError("the group was built before the dense cap check")

    monkeypatch.setattr(cli, "Group", no_group)
    result = CliRunner().invoke(main, args, env={"REFLECTRA_MAX_ORDER": "100000000"})
    assert result.exit_code == 1
    assert result.stdout_bytes == b""
    assert "exceeds the dense matrix cap 1200" in result.stderr


@pytest.mark.parametrize(
    "args", [["group", "2", "1", "9"],
             ["spectrum", "2", "1", "9", "--kind", "distance",
              "--method", "class-algebra", "--format", "json"]],
    ids=["group", "spectrum"],
)
def test_out_of_memory_is_one_error_line(args, monkeypatch):
    # a failed allocation, as numpy raises it for G(2,1,9) with the cap
    # raised, reports the group and the cap instead of a traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.38 GiB")

    monkeypatch.setattr(cli, "Group", out_of_memory)
    result = CliRunner().invoke(main, args, env={"REFLECTRA_MAX_ORDER": "200000000"})
    assert result.exit_code == 1
    assert result.stdout_bytes == b""
    assert result.stderr == (
        "error: out of memory on G(2,1,9) (enumeration cap 200000000, "
        "set by REFLECTRA_MAX_ORDER)\n"
    )


def test_codim_spectrum_subcommand_is_gone():
    result = CliRunner().invoke(main, ["codim-spectrum", "3", "2"])
    assert result.exit_code == 2
    assert result.stdout_bytes == b""


def test_verify_json_is_byte_identical_on_repeat():
    args = ["verify", "dihedral", "--format", "json"]
    runner = CliRunner()
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0, second.output
    assert first.stdout_bytes == second.stdout_bytes
    payload = json.loads(first.stdout_bytes)
    assert payload["schema"] == 2
    assert payload["checks"]
    assert all("runtime" not in check for check in payload["checks"])


@pytest.mark.parametrize(
    "params,max_order",
    [(params, None) for params in desk_scale_params()]
    + [(GroupParams(12, 1, 1), None), (GroupParams(12, 3, 1), None),
       (GroupParams(11, 1, 2), None), (GroupParams(12, 2, 2), None),
       (GroupParams(2, 2, 6), 50000)],
    ids=str,
)
def test_lengths_rows_match_element_reference(params, max_order):
    # every format is built per element from format_element and the
    # group's per-element lengths and codimensions, on n = 1 (no comma, no
    # quotes), on two-digit exponents and on p > 1: the CSV is what
    # csv.writer writes, the JSON what json.dumps writes and reads back,
    # and the text a left-aligned table, as cli._table writes it
    group = Group(params, max_order=max_order)
    lengths, codims = group.reflection_lengths.tolist(), group.codims.tolist()
    rows = [
        [i, format_element(group.elements[i]), lengths[i], codims[i]]
        for i in range(group.order)
    ]
    header = ["index", "element", "reflection_length", "codimension"]
    payload = {
        "schema": 1,
        "params": [params.r, params.p, params.n],
        "total_reflection_length": sum(lengths),
        "elements": [dict(zip(header, row)) for row in rows],
    }
    cells = [["index", "reflection_length", "codimension", "element"]] + [
        [str(i), str(length), str(codim), text] for i, text, length, codim in rows
    ]
    widths = [max(len(row[col]) for row in cells) for col in range(4)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    ]
    expected = {
        "csv": csv_by_writer(rows, header),
        "json": json.dumps(payload, indent=2) + "\n",
        "text": "\n".join(lines) + "\n",
    }
    assert expected["text"] == cli._table(cells[1:], cells[0])
    args = ["lengths", str(params.r), str(params.p), str(params.n)]
    env = {} if max_order is None else {"REFLECTRA_MAX_ORDER": str(max_order)}
    for fmt, text in expected.items():
        result = CliRunner().invoke(main, args + ["--format", fmt], env=env)
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == text.encode()
        if fmt == "json":
            assert json.loads(result.stdout_bytes) == payload


@pytest.mark.parametrize(
    "args",
    [["lengths", "2", "1", "2", "--format", "csv"],
     ["matrix", "2", "1", "2", "--kind", "distance"],
     ["spectrum", "2", "1", "2", "--kind", "adjacency"]],
    ids=["lengths", "matrix", "spectrum"],
)
@pytest.mark.parametrize("where", ["missing-directory", "below-a-file"])
def test_unwritable_output_is_one_error_line(args, where, tmp_path):
    # an output path that cannot be opened is reported in one line, exit 1,
    # not as an OSError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    parent = tmp_path / "missing" if where == "missing-directory" else blocker
    target = str(parent / "out.txt")
    result = CliRunner().invoke(main, [*args, "-o", target])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout_bytes == b""
    assert result.stderr.startswith(f"Error: Could not open file {target!r}: ")
    assert result.stderr.count("\n") == 1
    assert not Path(target).exists()


@pytest.mark.parametrize("text", ["", "|", "||"], ids=["empty", "r=2", "r=3"])
def test_poincare_rejects_total_size_zero(text):
    # n = 0 is refused with exit 2, as by every command that takes R P N
    result = CliRunner().invoke(main, ["poincare", text])
    assert result.exit_code == 2, result.output
    assert result.stdout_bytes == b""
    assert "has total size 0" in result.stderr


def test_poincare_refuses_a_huge_tuple_before_listing_a_box(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a box listed before the size cap")

    monkeypatch.setattr(partitions, "contents", unreachable)
    result = CliRunner().invoke(main, ["poincare", "99999999999999999999"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout_bytes == b""
    assert result.stderr == (
        "error: the tuple has about 10^20 boxes, above the cap "
        f"{cli.POINCARE_BOX_CAP}\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poincare_refuses_numbers_past_the_int_to_text_limit(fmt):
    # xi of the row (2000) has more digits than Python writes as text
    result = CliRunner().invoke(main, ["poincare", "2000", "--format", fmt])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout_bytes == b""
    assert result.stderr == (
        "error: xi or the multiplicity of the tuple (r=1, n=2000) has more "
        f"than {sys.get_int_max_str_digits()} digits, Python's limit for "
        "writing an int as text\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poincare_writes_numbers_below_the_int_to_text_limit(fmt):
    # xi of the row (1500) has 4,118 digits
    result = CliRunner().invoke(main, ["poincare", "1500", "--format", fmt])
    assert result.exit_code == 0, result.output
    xi = partitions.xi_from_roots(tuple(range(1499, -1, -1)))
    assert f"{xi}" in result.stdout


@pytest.mark.parametrize("params", ORACLE_GROUPS, ids=str)
def test_classes_orders_are_the_element_orders(params):
    group = Group(params, max_order=50000)
    args = ["classes", str(params.r), str(params.p), str(params.n), "--format", "json"]
    result = CliRunner().invoke(main, args, env={"REFLECTRA_MAX_ORDER": "50000"})
    assert result.exit_code == 0, result.output
    rows = json.loads(result.stdout_bytes)["classes"]
    expected = [
        element_order(group.element(rep)) for rep in group.conjugacy.representatives
    ]
    assert [row["order"] for row in rows] == expected
    assert list(group.rational.orders) == expected


@pytest.mark.parametrize("params", desk_scale_params(), ids=str)
def test_group_counts_the_reflections(params):
    args = ["group", str(params.r), str(params.p), str(params.n), "--format", "json"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout_bytes)
    assert payload["reflections"] == len(reflections(Group(params)))
    # the exponents d - 1 of a reflection group sum to its reflection count
    assert payload["exponents"] == [d - 1 for d in payload["degrees"]]
    assert sum(payload["exponents"]) == payload["reflections"]


@pytest.mark.parametrize(
    "args,calls",
    [
        (["spectrum", "4", "1", "2", "--kind", "distance", "--method", "numeric"], 0),
        (["matrix", "4", "1", "2", "--kind", "distance"], 0),
        (["spectrum", "4", "1", "2", "--kind", "distance",
          "--connection-set", "standard"], 1),
        (["matrix", "4", "1", "2", "--kind", "distance",
          "--connection-set", "standard"], 1),
    ],
    ids=["spectrum", "matrix", "spectrum-standard", "matrix-standard"],
)
def test_distance_matrix_runs_a_bfs_only_off_the_reflections(args, calls, monkeypatch):
    # On all reflections the word length is Group.reflection_lengths; only
    # another connection set needs a breadth-first search.
    seen = []
    bfs = spectra.bfs_word_lengths

    def counting(group, generator_indices):
        seen.append(len(generator_indices))
        return bfs(group, generator_indices)

    monkeypatch.setattr(spectra, "bfs_word_lengths", counting)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(seen) == calls


@pytest.mark.parametrize("params", desk_scale_params(max_order=200), ids=str)
def test_distance_matrix_matches_bfs_over_reflections(params):
    group = Group(params)
    entries = distance_matrix_bfs(group, all_reflections_connection(group))
    expected = "".join(" ".join(map(str, row)) + "\n" for row in entries.tolist())
    args = ["matrix", str(params.r), str(params.p), str(params.n), "--kind", "distance"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == expected.encode()


def test_matrix_json_names_its_element_order():
    args = ["matrix", "3", "1", "2", "--kind", "codimension", "--format", "json"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout_bytes)
    assert list(payload) == [
        "schema", "params", "kind", "order", "element_order_reference", "entries"
    ]
    assert payload["element_order_reference"] == "lex(perm,exponents)"
    # the identity is element 0, so column 0 is each element's codimension
    # in the order the reference names
    codims = Group(GroupParams(3, 1, 2)).codims.tolist()
    assert [row[0] for row in payload["entries"]] == codims


@pytest.mark.parametrize("method", ["class-algebra", "numeric"])
@pytest.mark.parametrize("tolerance", ["1e-16", "1e-300"])
def test_tolerance_below_roundoff_rounds_instead_of_failing(method, tolerance):
    # G(3,1,3) eigenvalues carry roundoff near 1e-14: a smaller tolerance
    # makes the spectrum non-integral on both routes, never an error
    args = ["spectrum", "3", "1", "3", "--kind", "adjacency",
            "--method", method, "--tolerance", tolerance]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "error" not in result.output
    if tolerance == "1e-300":
        assert result.output.rstrip().endswith("NON-INTEGRAL")


@pytest.mark.parametrize("params", desk_scale_params(max_order=200), ids=str)
def test_every_route_gives_the_same_spectrum_and_connection_set(params):
    # numeric and class algebra for every kind, and for p = 1 the fold too
    group = [str(params.r), str(params.p), str(params.n)]
    for kind in ("adjacency", "distance", "codimension"):
        methods = ["numeric", "class-algebra"]
        if kind == "codimension" and params.p == 1:
            methods.append("combinatorial")
        answers = []
        for method in methods:
            result = CliRunner().invoke(main, [
                "spectrum", *group, "--kind", kind, "--method", method,
                "--format", "json",
            ])
            assert result.exit_code == 0, result.output
            payload = json.loads(result.stdout_bytes)
            assert payload["integral"], (kind, method)
            answers.append((payload["entries"], payload.get("connection_set")))
        assert all(answer == answers[0] for answer in answers), kind
        assert answers[0][1] == (None if kind == "codimension" else "all-reflections")


@pytest.mark.parametrize("method", ["numeric", "class-algebra"])
def test_spectrum_text_names_the_connection_set_on_every_route(method):
    result = CliRunner().invoke(main, [
        "spectrum", "3", "1", "2", "--kind", "distance", "--method", method,
    ])
    assert result.exit_code == 0, result.output
    assert result.output.startswith(
        f"distance spectrum of G(3,1,2) [all-reflections] ({method}): "
        "27^1 3^2 0^4 -3^11\n"
    )
