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
import sys

from . import data


class UsageError(Exception):
    pass


def _read_path(path: str) -> str:
    """The text of ``path``, or else of the bundled file of that name."""
    for cand in (path, data.bundled_path(path.split("/")[-1])):
        try:
            with open(cand) as fh:
                return fh.read()
        except OSError:
            continue
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


def _input_errors() -> tuple:
    """(InvalidStructureError, the typed input errors): every ``ValueError``
    subclass that singq raises for bad input, imported only where one is
    being handled."""
    from .algebra import AlgebraError, InvalidStructureError
    from .coloring import ColoringError
    from .diagram import DiagramError
    from .invariants import InvariantError
    return InvalidStructureError, (AlgebraError, ColoringError, DiagramError,
                                   InvariantError)


# -- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    from .algebra import parse_algebra
    status = 0
    for path in args.paths:
        try:
            text = _read_path(path)
            if path.endswith(".dgm"):
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
            elif path.endswith(".wgt"):
                from .invariants import parse_weights
                w = parse_weights(text)
                print(f"{path}: well-formed {w.kind} weights "
                      f"(modulus {w.modulus})")
            else:
                loaded = parse_algebra(text)
                print(f"{path}: valid {loaded.kind} (order {loaded.n})")
        except (UsageError, ValueError) as exc:
            invalid, typed = _input_errors()
            if isinstance(exc, invalid):
                print(f"{path}: INVALID")
                print("  " + exc.report.summary().replace("\n", "\n  "))
            elif isinstance(exc, (UsageError, *typed)):
                print(f"{path}: error: {exc}")
            else:
                raise
            status = 2
    return status


# -- invariant ---------------------------------------------------------------

KINDS = ("count", "state-sum", "phi-ssqp", "shadow-count", "sp", "SP",
         "psy-count", "boltzmann-1", "boltzmann-2")


def _need(value, what):
    if value is None:
        raise UsageError(f"this kind needs {what}")
    return value


def _expect(structure, cls, kind):
    if not isinstance(structure, cls):
        raise UsageError(f"kind {kind!r} needs a {cls.__name__}, "
                         f"got {type(structure).__name__}")
    return structure


def compute_invariant(kind, diagram, structure, weights):
    """Returns (rendered value, multiset as [exponent, multiplicity] rows).
    The counting kinds run the coloring search alone."""
    from .algebra import OrientedSingquandle, ShadowStructure

    def counted(n):
        return str(n), [["0", n]]

    def packed(value, **render_args):
        return (value.render(**render_args),
                [[str(e), m] for e, m in value.items_sorted()])

    if kind == "count":
        from .coloring import singquandle_tuples
        s = _expect(structure, OrientedSingquandle, kind)
        return counted(len(singquandle_tuples(_need(diagram, "a diagram"), s)))
    if kind == "state-sum":
        from .invariants import state_sum
        s = _expect(structure, OrientedSingquandle, kind)
        w = _need(weights, "a cocycle weight file")
        if w.kind != "cocycle":
            raise UsageError("state-sum needs phi/phiprime weights")
        return packed(state_sum(_need(diagram, "a diagram"), s, w))
    if kind == "phi-ssqp":
        from .invariants import phi_ssqp
        s = _expect(structure, OrientedSingquandle, kind)
        return packed(phi_ssqp(_need(diagram, "a diagram"), s))
    if kind == "shadow-count":
        from .coloring import shadow_tuples
        sh = _expect(structure, ShadowStructure, kind)
        return counted(len(shadow_tuples(_need(diagram, "a diagram"), sh)))
    if kind == "sp":
        from .invariants import sp
        from .polynomial import BasePolynomial
        poly = sp(_expect(structure, ShadowStructure, kind))
        return poly.render(), [[BasePolynomial({mono: 1}).render(), coeff]
                               for mono, coeff in poly.terms]
    if kind == "SP":
        from .invariants import shadow_polynomial_invariant
        sh = _expect(structure, ShadowStructure, kind)
        return packed(shadow_polynomial_invariant(_need(diagram, "a diagram"), sh))
    if kind == "psy-count":
        from .coloring import psyquandle_tuples
        from .psyquandle import Psyquandle
        p = _expect(structure, Psyquandle, kind)
        return counted(len(psyquandle_tuples(_need(diagram, "a diagram"), p)))
    if kind in ("boltzmann-1", "boltzmann-2"):
        from .invariants import boltzmann_single, boltzmann_two
        from .psyquandle import Psyquandle
        p = _expect(structure, Psyquandle, kind)
        w = _need(weights, "a boltzmann weight file")
        if w.kind != "boltzmann":
            raise UsageError(f"{kind} needs phi/psi weights")
        d = _need(diagram, "a diagram")
        if kind == "boltzmann-1":
            return packed(boltzmann_single(d, p, w), var="w")
        return packed(boltzmann_two(d, p, w))
    raise UsageError(f"unknown kind {kind!r}")


def cmd_invariant(args) -> int:
    from .algebra import parse_algebra
    dgm, alg, wgt = _classify(args.paths)
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
    from .solver import solve_cocycle_space
    if args.modulus < 2:
        raise UsageError("--modulus must be >= 2")
    loaded = parse_algebra(_read_path(args.structure))
    if not isinstance(loaded.structure, OrientedSingquandle):
        raise UsageError("search-cocycles needs a singquandle")
    s = loaded.structure
    space = solve_cocycle_space(s, args.modulus)
    record = {
        "structure": args.structure,
        "modulus": args.modulus,
        "size": space.size,
        "generators": len(space.generators),
    }
    status = 0
    if args.contains:
        from .invariants import parse_weights
        w = parse_weights(_read_path(args.contains))
        if w.kind != "cocycle":
            raise UsageError("--contains needs a cocycle weight file")
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
        elif args.timing:
            line += f"  [{ms:.0f} ms]"
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
    inv.add_argument("kind", choices=KINDS)
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
    co.add_argument("--timing", action="store_true")
    co.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        invalid, typed = _input_errors()
        if isinstance(exc, invalid):
            print(f"error: invalid structure\n{exc.report.summary()}",
                  file=sys.stderr)
        elif isinstance(exc, typed):
            print(f"error: {exc}", file=sys.stderr)
        else:
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
