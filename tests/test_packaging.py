"""singq runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import singq

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_only_the_standard_library():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import singq\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print('sympy' in sys.modules)\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'singq'}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(singq.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "[]"]


def test_import_adds_only_singq_modules():
    # Import time is a benchmark metric (setup_s): beyond what
    # ``import __future__, dataclasses`` loads, ``import singq`` may load
    # nothing but singq's own modules.
    code = ("import sys\n"
            "import __future__, dataclasses\n"
            "before = set(sys.modules)\n"
            "import singq\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m != 'singq' and not m.startswith('singq.')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(singq.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]"]


def test_cli_import_loads_no_dataclasses():
    # Every cold ``singq`` call compiles the package and imports the CLI;
    # ``dataclasses`` alone pulls in inspect, ast, dis and tokenize.
    code = ("import sys\n"
            "import singq.cli\n"
            "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(singq.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False"]


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
