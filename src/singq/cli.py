"""Command-line front end.

Subcommands: ``validate`` (parse files and run axiom validators),
``invariant`` (compute one invariant from a diagram, a structure and
optionally a weight file), ``search-cocycles`` (solve the cocycle system
over Z_n), ``corpus`` (recompute every bundled reference value).  Output is
deterministic; ``--json`` switches to a machine-readable record.

Exit codes: 0 success, 1 value mismatch, 2 input or validation error.

Every command is a fresh process that compiles what it imports, so each
subcommand imports the modules it runs when it runs, and ``json`` only
with ``--json``: ``invariant count`` loads no invariant, solver or JSON
code.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from . import SingqError, data


class UsageError(SingqError):
    pass


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_path(path: str) -> str:
    """The UTF-8 text of ``path``, or else, for a bare file name, of the
    bundled file of that name."""
    readers = [_read_file]
    if not os.path.dirname(path):
        readers.append(data.read_bundled)
    for read in readers:
        try:
            return read(path)
        except OSError:
            continue
        except UnicodeDecodeError:
            raise UsageError(f"{path!r} is not UTF-8 text") from None
    raise UsageError(f"cannot read {path!r}")


def _classify(paths):
    """Split positional paths into (diagram, algebra, weights) by suffix."""
    out = {"dgm": None, "alg": None, "wgt": None}
    for p in paths:
        ext = p.rsplit(".", 1)[-1]
        if ext not in out:
            raise UsageError(f"unrecognized file type {p!r} "
                             f"(expected .dgm, .alg or .wgt)")
        if out[ext] is not None:
            raise UsageError(f"duplicate {ext} input {p!r}")
        out[ext] = p
    return out["dgm"], out["alg"], out["wgt"]


# -- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    from .algebra import InvalidStructureError, parse_algebra
    status = 0
    for path in args.paths:
        try:
            dgm, _, wgt = _classify([path])
            text = _read_path(path)
            if dgm:
                from .diagram import parse_diagram, validate_diagram
                d = parse_diagram(text)
                rep = validate_diagram(d)
                if rep.valid:
                    print(f"{path}: valid diagram "
                          f"({d.n_crossings} crossings, {d.n_semiarcs} semiarcs)")
                else:
                    print(f"{path}: INVALID")
                    for p in rep.problems:
                        print(f"  {p}")
                    status = 2
            elif wgt:
                from .invariants import parse_weights
                w = parse_weights(text)
                print(f"{path}: well-formed {w.kind} weights "
                      f"(modulus {w.modulus})")
            else:
                loaded = parse_algebra(text)
                print(f"{path}: valid {loaded.kind} (order {loaded.n})")
        except SingqError as exc:
            if isinstance(exc, InvalidStructureError):
                print(f"{path}: INVALID")
                print("  " + exc.report.summary().replace("\n", "\n  "))
            else:
                print(f"{path}: error: {exc}")
            status = 2
    return status


# -- invariant ---------------------------------------------------------------

# kind -> (the structure class it reads, the weight kind it reads or None,
# the singq function that computes it).  Every function takes the diagram,
# the structure and the weights it reads, in that order, except sp, which
# reads the structure alone; the counting kinds count the coloring tuples.
INVARIANTS = {
    "count": ("OrientedSingquandle", None, "coloring.singquandle_tuples"),
    "state-sum": ("OrientedSingquandle", "cocycle", "invariants.state_sum"),
    "phi-ssqp": ("OrientedSingquandle", None, "invariants.phi_ssqp"),
    "shadow-count": ("ShadowStructure", None, "coloring.shadow_tuples"),
    "sp": ("ShadowStructure", None, "invariants.sp"),
    "SP": ("ShadowStructure", None, "invariants.shadow_polynomial_invariant"),
    "psy-count": ("Psyquandle", None, "coloring.psyquandle_tuples"),
    "boltzmann-1": ("Psyquandle", "boltzmann", "invariants.boltzmann_single"),
    "boltzmann-2": ("Psyquandle", "boltzmann", "invariants.boltzmann_two"),
}

# weight kind -> the blocks a file of that kind gives
_WEIGHT_BLOCKS = {"cocycle": "phi/phiprime", "boltzmann": "phi/psi"}


def _need(value, what):
    if value is None:
        raise UsageError(f"this kind needs {what}")
    return value


def _refuse_unread(kind, diagram, weights):
    """Refuse a diagram or weights that ``kind`` does not read.  Each is a
    file name, which the error names, what parsing one gave, or None."""
    for given, what, read in ((diagram, "a diagram", kind != "sp"),
                              (weights, "weights", INVARIANTS[kind][1])):
        if given is not None and not read:
            named = repr(given) if isinstance(given, str) else what
            raise UsageError(f"{kind} does not read {named}")


def compute_invariant(kind, diagram, structure, weights):
    """Returns (rendered value, multiset as [exponent, multiplicity] rows),
    refusing an input the kind does not read or a missing one."""
    _refuse_unread(kind, diagram, weights)
    cls, weight_kind, function = INVARIANTS[kind]
    if type(structure).__name__ != cls:
        raise UsageError(f"kind {kind!r} needs a {cls}, "
                         f"got {type(structure).__name__}")
    inputs = [structure]
    if weight_kind:
        w = _need(weights, f"a {weight_kind} weight file")
        if w.kind != weight_kind:
            raise UsageError(f"{kind} needs {_WEIGHT_BLOCKS[weight_kind]} "
                             f"weights")
        inputs.append(w)
    if kind != "sp":
        inputs.insert(0, _need(diagram, "a diagram"))
    module, name = function.split(".")
    value = getattr(import_module(f"singq.{module}"), name)(*inputs)
    if isinstance(value, tuple):   # the coloring tuples
        return str(len(value)), [["0", len(value)]]
    if kind == "sp":
        from .polynomial import BasePolynomial
        return value.render(), [[BasePolynomial({mono: 1}).render(), coeff]
                                for mono, coeff in value.terms]
    return (value.render(var="w" if kind == "boltzmann-1" else "u"),
            [[str(e), m] for e, m in value.items_sorted()])


def cmd_invariant(args) -> int:
    from .algebra import parse_algebra
    dgm, alg, wgt = _classify(args.paths)
    _refuse_unread(args.kind, dgm, wgt)
    diagram = weights = None
    if dgm:
        from .diagram import parse_diagram
        diagram = parse_diagram(_read_path(dgm))
    structure = parse_algebra(_read_path(_need(alg, "a structure file"))).structure
    if wgt:
        from .invariants import parse_weights
        weights = parse_weights(_read_path(wgt))
    value, multiset = compute_invariant(args.kind, diagram, structure, weights)
    if args.json:
        import json
        print(json.dumps({
            "kind": args.kind,
            "inputs": {"diagram": dgm, "structure": alg, "weights": wgt},
            "value": value,
            "multiset": multiset,
        }, indent=None, sort_keys=False))
    else:
        print(value)
    return 0


# -- search-cocycles ----------------------------------------------------------

def cmd_search_cocycles(args) -> int:
    from .algebra import OrientedSingquandle, parse_algebra
    from .invariants import solve_cocycle_space
    if args.modulus < 2:
        raise UsageError("--modulus must be >= 2")
    loaded = parse_algebra(_read_path(args.structure))
    if not isinstance(loaded.structure, OrientedSingquandle):
        raise UsageError("search-cocycles needs a singquandle")
    s = loaded.structure
    if args.contains:   # refuse a wrong file before the solve, not after
        from .invariants import _flat_pair, parse_weights
        w = parse_weights(_read_path(args.contains))
        if w.kind != "cocycle":
            raise UsageError("--contains needs a cocycle weight file")
        _flat_pair(s.n, w, "cocycle")   # refuses tables that are not n x n
        if w.modulus != args.modulus:
            raise UsageError(f"modulus mismatch: the weights are mod "
                             f"{w.modulus}, --modulus is {args.modulus}")
    space = solve_cocycle_space(s, args.modulus)
    record = {
        "structure": args.structure,
        "modulus": args.modulus,
        "size": space.size,
        "generators": len(space.generators),
    }
    status = 0
    if args.contains:
        member = space.contains(w)
        record["member"] = member
        if not member:
            status = 1
    if args.json:
        import json
        print(json.dumps(record))
    else:
        print(f"solution space size: {space.size}")
        print(f"generators: {len(space.generators)}")
        if args.contains:
            print("member: " + ("yes" if record["member"] else "no"))
    return status


# -- corpus ------------------------------------------------------------------

def _corpus_rows():
    """(group, name, thunk or None, expected) rows; thunk None = skipped.
    Each thunk computes its row as ``singq invariant`` does, through
    :func:`compute_invariant`, loading each bundled file on first use."""
    from .corpus import SKIPPED, SPECS
    lazy = {}

    def load(name):
        if name not in lazy:
            if name.endswith(".dgm"):
                lazy[name] = data.load_diagram(name)
            elif name.endswith(".wgt"):
                lazy[name] = data.load_weights(name)
            else:
                lazy[name] = data.load_algebra(name).structure
        return lazy[name]

    def structure(spec):
        name, *base = spec.split()   # "<file> base": the shadow's base
        return load(name).base if base else load(name)

    def thunk(kind, dgm, alg, wgt):
        return lambda: compute_invariant(
            kind, dgm and load(dgm), structure(alg), wgt and load(wgt))[0]

    rows = [(group, name, thunk(*spec), expected)
            for group, name, *spec, expected in SPECS]
    for name, count, value in SKIPPED:
        rows.append(("bouquet", f"{name} psy-count", None, count))
        rows.append(("bouquet", f"{name} boltzmann-1", None, value))
    return rows


def cmd_corpus(args) -> int:
    import time
    rows = _corpus_rows()
    if args.filter:
        rows = [r for r in rows
                if args.filter in r[0] or args.filter in r[1]]
    if args.json:
        import json
    status = 0
    out = []
    for group, name, thunk, expected in rows:
        t0 = time.perf_counter()
        actual = None if thunk is None else thunk()
        ms = (time.perf_counter() - t0) * 1000
        if thunk is None:
            verdict = "skipped"
            line = f"skipped  {group:8s} {name}: diagram not transcribed " \
                   f"(expected {expected})"
        elif actual == expected:
            verdict = "OK"
            line = f"OK       {group:8s} {name}: {actual}"
        else:
            verdict = "MISMATCH"
            line = (f"MISMATCH {group:8s} {name}: expected {expected!r}, "
                    f"got {actual!r}")
            status = 1
        if args.json:
            line = json.dumps({"group": group, "name": name, "status": verdict,
                               "expected": expected, "actual": actual,
                               "ms": round(ms, 3)})
        out.append(line)
    if out:
        print("\n".join(out))
    return status


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singq",
        description="invariants of oriented singular links over finite "
                    "structures")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate algebra/diagram/weight files")
    v.add_argument("paths", nargs="+")
    v.set_defaults(fn=cmd_validate)

    inv = sub.add_parser("invariant", help="compute one invariant")
    inv.add_argument("kind", choices=INVARIANTS)
    inv.add_argument("paths", nargs="+",
                     help=".dgm/.alg/.wgt files, identified by suffix")
    inv.add_argument("--json", action="store_true")
    inv.set_defaults(fn=cmd_invariant)

    sc = sub.add_parser("search-cocycles", help="solve the cocycle system")
    sc.add_argument("structure")
    sc.add_argument("--modulus", type=int, required=True)
    sc.add_argument("--contains", metavar="WGT")
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(fn=cmd_search_cocycles)

    co = sub.add_parser("corpus", help="recompute all bundled reference values")
    co.add_argument("--filter", default=None)
    co.add_argument("--json", action="store_true")
    co.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SingqError as exc:
        from .algebra import InvalidStructureError
        if isinstance(exc, InvalidStructureError):
            print(f"error: invalid structure\n{exc.report.summary()}",
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
