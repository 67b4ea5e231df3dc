"""Each ``singq`` command, run in a fresh interpreter, loads only the
modules it runs, and its typed errors still exit 2 without a traceback.

Everything here runs in subprocesses: by now pytest has imported every
singq module already, so an in-process run can show neither what a cold
command loads nor an import missing from an error path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singq

SRC = str(Path(singq.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=SRC)

# Every name ``from singq import *`` binds.
PUBLIC_NAMES = [
    "AlgebraError", "BasePolynomial", "CocycleSpace", "Coloring", "Crossing",
    "DiagramError", "InvalidStructureError", "InvariantError",
    "InvariantValue", "OperationTable", "OrientedSingquandle",
    "ParameterError", "ParseError", "Psyquandle", "Region", "SemiArc",
    "ShadowStructure", "SingqError", "SingularDiagram", "ValidationReport",
    "WeightPair",
    "affine_singquandle", "algebra", "are_isomorphic", "boltzmann_single",
    "boltzmann_two", "coloring", "diagram", "formula_shadow",
    "formula_structure", "invariants", "is_homomorphism", "parse_algebra",
    "parse_diagram", "parse_polynomial", "parse_weights", "phi_ssqp",
    "polynomial", "profile", "psyquandle_colorings", "quandle_from_group",
    "restrict", "shadow_closure", "shadow_colorings",
    "shadow_polynomial_invariant", "singquandle_colorings",
    "solve_cocycle_space", "sp", "sqp", "ssqp", "state_sum",
    "strongly_compatible", "substructure_closure", "validate_boltzmann",
    "validate_cocycle_pair", "validate_diagram", "validate_psyquandle",
    "validate_quandle", "validate_shadow", "validate_singquandle",
]

# Runs ``singq <argv>`` as ``python -m singq.cli`` does, then writes the
# modules the command added to sys.modules to stderr, after a marker.
CLI = """\
import runpy, sys
before = set(sys.modules)
sys.argv = ["singq", *sys.argv[1:]]
try:
    runpy.run_module("singq.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
sys.stderr.write("\\nLOADED " + repr(sorted(set(sys.modules) - before)))
sys.exit(status)
"""


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                          capture_output=True, text=True, timeout=120)


def run_cli(*argv: str) -> tuple:
    """(exit code, stdout, stderr, modules loaded) of one cold command."""
    proc = python(CLI, *argv)
    stderr, _, loaded = proc.stderr.rpartition("\nLOADED ")
    return proc.returncode, proc.stdout, stderr, set(ast.literal_eval(loaded))


def test_import_loads_no_submodule():
    proc = python("import sys, singq\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith('singq.')))")
    assert proc.stdout.splitlines() == ["[]"]


def test_solver_imports_no_other_singq_module():
    """The Z_n elimination loads alone, so any engine can use it."""
    proc = python("import sys, singq.solver\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith('singq')))")
    assert proc.stdout.splitlines() == ["['singq', 'singq.solver']"]


def test_public_names_unchanged_and_resolve():
    proc = python(
        "import singq\n"
        "print(singq.__all__)\n"
        "print([n for n in dir(singq) if not n.startswith('_')])\n"
        "ns = {}\n"
        "exec('from singq import *', ns)\n"
        "print(sorted(n for n in ns if n != '__builtins__'))\n"
        "print(all(getattr(singq, n) is not None for n in singq.__all__))\n")
    all_, dir_, star, resolved = map(ast.literal_eval, proc.stdout.splitlines())
    assert all_ == dir_ == star == sorted(PUBLIC_NAMES)
    assert resolved is True


def test_public_names_are_distinct_objects():
    """Each capability has one public name: no two names in ``__all__``
    resolve to the same object."""
    proc = python(
        "import singq\n"
        "names = {}\n"
        "for n in singq.__all__:\n"
        "    names.setdefault(id(getattr(singq, n)), []).append(n)\n"
        "print([ns for ns in names.values() if len(ns) > 1])\n")
    assert proc.stdout == "[]\n"


def test_unknown_name_raises_attribute_error():
    proc = python("import singq\n"
                  "try:\n    singq.no_such_name\n"
                  "except AttributeError as exc:\n    print(exc)\n")
    assert proc.stdout == "module 'singq' has no attribute 'no_such_name'\n"


COMMANDS = {
    "count": ("invariant", "count", "5k6.dgm", "z6_singquandle.alg"),
    "state-sum": ("invariant", "state-sum", "5k6.dgm", "z6_singquandle.alg",
                  "z6_cocycle.wgt"),
    "phi-ssqp": ("invariant", "phi-ssqp", "k1.dgm", "z8_k.alg"),
    "shadow-count": ("invariant", "shadow-count", "4_1k.dgm",
                     "z8_z6_shadow.alg"),
    "sp": ("invariant", "sp", "z8_z4_shadow_a.alg"),
    "SP": ("invariant", "SP", "4_1k.dgm", "z8_z6_shadow.alg"),
    "psy-count": ("invariant", "psy-count", "1l1.dgm", "psy6.alg"),
    "boltzmann-1": ("invariant", "boltzmann-1", "1l1.dgm", "psy6.alg",
                    "psy6_boltzmann.wgt"),
    "boltzmann-2": ("invariant", "boltzmann-2", "1l1.dgm", "psy6.alg",
                    "psy6_boltzmann_strong.wgt"),
    "validate": ("validate", "z6_singquandle.alg", "5k6.dgm",
                 "z6_cocycle.wgt"),
    "search-cocycles": ("search-cocycles", "z6_singquandle.alg", "--modulus",
                        "6", "--contains", "z6_cocycle.wgt"),
    "corpus": ("corpus", "--filter", "sp a"),
}


@pytest.fixture(scope="module")
def loaded():
    """Modules each command of ``COMMANDS`` loads, run once each."""
    out = {}
    for name, argv in COMMANDS.items():
        status, _, stderr, modules = run_cli(*argv)
        assert status == 0, stderr
        out[name] = modules
    return out


def test_count_loads_no_invariant_solver_or_json_code(loaded):
    assert {"singq.algebra", "singq.diagram", "singq.coloring"} <= loaded["count"]
    assert not loaded["count"] & {"singq.invariants", "singq.solver", "json"}


@pytest.mark.parametrize("name, loads, skips", [
    ("z6_cocycle.wgt", {"invariants", "coloring", "polynomial"}, {"diagram"}),
    ("5k6.dgm", {"diagram"}, {"invariants", "coloring", "polynomial"}),
    ("psy6.alg", {"algebra"}, {"polynomial", "coloring"}),
], ids=["wgt", "dgm", "alg"])
def test_validate_loads_per_file_kind(name, loads, skips):
    """README's load table for ``validate``, one lone file of each kind."""
    status, _, stderr, modules = run_cli("validate", name)
    assert status == 0, stderr
    assert {f"singq.{m}" for m in loads} <= modules
    assert not {f"singq.{m}" for m in skips} & modules


def test_shadow_polynomial_parses_no_diagram(loaded):
    assert "singq.invariants" in loaded["sp"]
    assert "singq.diagram" not in loaded["sp"]


def test_only_search_cocycles_loads_the_solver(loaded):
    assert {name for name, modules in loaded.items()
            if "singq.solver" in modules} == {"search-cocycles"}


def test_no_command_loads_the_morphisms(loaded):
    assert all("singq.morphisms" not in modules for modules in loaded.values())


def test_json_only_with_the_flag(loaded):
    assert all("json" not in modules for modules in loaded.values())
    for argv in (COMMANDS["count"], COMMANDS["search-cocycles"],
                 COMMANDS["corpus"]):
        status, out, _, modules = run_cli(*argv, "--json")
        assert status == 0 and "json" in modules
        assert out.lstrip().startswith("{")


# -- typed errors on cold paths -------------------------------------------------

# x * y = y has no bijective column, so it is not a quandle
NOT_A_QUANDLE = ("type: singquandle\norder: 2\n"
                 "formula: star y\nformula: r1 x\nformula: r2 y\n")


@pytest.fixture
def bad(tmp_path):
    """Malformed input files, by role."""
    files = {
        "alg": ("bad.alg", "type: singquandle\norder: 2\nstar:\n1 x\n"),
        "dgm": ("bad.dgm", "P a b c\n"),
        "wgt": ("bad.wgt", "modulus: 3\nphi:\n1 2\n"),
        "flat": ("flat.dgm", "# no crossings\n"),
        "invalid": ("invalid.alg", NOT_A_QUANDLE),
    }
    for key, (name, text) in files.items():
        (tmp_path / name).write_text(text)
        files[key] = str(tmp_path / name)
    return files


@pytest.mark.parametrize("argv, message", [
    (("invariant", "count", "5k6.dgm", "{alg}"),
     "error: line 4: bad integer row '1 x'\n"),
    (("invariant", "count", "{dgm}", "z6_singquandle.alg"),
     "error: line 1: crossing needs 4 semiarcs, got 3\n"),
    (("invariant", "state-sum", "5k6.dgm", "z6_singquandle.alg", "{wgt}"),
     "error: line 2: phi block must be a square table\n"),
    (("invariant", "SP", "{flat}", "z8_z6_shadow.alg"),
     "error: diagram has no crossings, so no regions\n"),
    (("invariant", "shadow-count", "{flat}", "z8_z6_shadow.alg"),
     "error: diagram has no crossings, so no regions\n"),
    (("search-cocycles", "{alg}", "--modulus", "6"),
     "error: line 4: bad integer row '1 x'\n"),
    (("invariant", "count", "5k6.dgm", "{invalid}"),
     "error: invalid structure\n3 axiom violation(s):\n"
     "  quandle.right_invertibility at (0,)\n"
     "  quandle.right_invertibility at (1,)\n"
     "  singquandle.prerequisite_quandle at ()\n"),
], ids=["alg", "dgm", "wgt", "coloring-SP", "coloring-shadow-count",
        "search-cocycles-alg", "invalid-structure"])
def test_typed_error_exits_two(bad, argv, message):
    status, out, err, _ = run_cli(*(a.format(**bad) for a in argv))
    assert (status, out, err) == (2, "", message)


def test_validate_reports_each_malformed_file(bad):
    status, out, err, _ = run_cli("validate", bad["alg"], bad["dgm"],
                                  bad["wgt"], bad["invalid"], "psy6.alg")
    assert (status, err) == (2, "")
    assert out == (
        f"{bad['alg']}: error: line 4: bad integer row '1 x'\n"
        f"{bad['dgm']}: error: line 1: crossing needs 4 semiarcs, got 3\n"
        f"{bad['wgt']}: error: line 2: phi block must be a square table\n"
        f"{bad['invalid']}: INVALID\n"
        "  3 axiom violation(s):\n"
        "    quandle.right_invertibility at (0,)\n"
        "    quandle.right_invertibility at (1,)\n"
        "    singquandle.prerequisite_quandle at ()\n"
        "psy6.alg: valid psyquandle (order 6)\n")

