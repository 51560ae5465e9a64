"""Command-line front end: determinism of data output and the module entry
point."""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import reflectra
from reflectra.cli import main


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
