"""singq runs on the standard library alone."""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import singq
from singq.data import corpus_names, fixture_names

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


def test_zipped_package_reads_its_bundled_files(tmp_path):
    # a zip on the path imports, and must read and list its bundled files
    # through the package's loader, not beside ``__file__``
    package = Path(singq.__file__).parent
    archive = tmp_path / "singq.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    env = dict(os.environ, PYTHONPATH=str(archive))
    listed = subprocess.run(
        [sys.executable, "-c", "from singq.data import corpus_names, "
         "fixture_names; print(*fixture_names(), *corpus_names())"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert listed == fixture_names() + corpus_names()
    proc = subprocess.run([sys.executable, "-m", "singq.cli", "validate",
                           *listed], env=env, capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(proc.stdout.splitlines()) >= len(listed)


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
