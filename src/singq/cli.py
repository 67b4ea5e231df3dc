"""Command-line front end.

Subcommands: ``validate`` (parse files and run axiom validators),
``invariant`` (compute one invariant from a diagram, a structure and
optionally a weight file), ``search-cocycles`` (solve the cocycle system
over Z_n), ``corpus`` (recompute every bundled reference value).  Output is
deterministic; ``--json`` switches to a machine-readable record.

Exit codes: 0 success, 1 value mismatch, 2 input or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import data
from .algebra import (AlgebraError, InvalidStructureError, OrientedSingquandle,
                      Psyquandle, ShadowStructure, parse_algebra)
from .coloring import (ColoringError, psyquandle_tuples, shadow_tuples,
                       singquandle_tuples)
from .diagram import DiagramError, parse_diagram, validate_diagram
from .invariants import (BoltzmannPair, CocyclePair, InvariantError,
                         boltzmann_single, boltzmann_two, parse_weights,
                         phi_ssqp, shadow_polynomial_invariant,
                         solve_cocycle_space, sp, state_sum)


class UsageError(Exception):
    pass


def _read_path(path: str) -> str:
    candidates = [path]
    base = path.split("/")[-1]
    if base.endswith(".dgm"):
        candidates.append(data.corpus_path(base))
    else:
        candidates.append(data.fixture_path(base))
    for cand in candidates:
        try:
            with open(cand) as fh:
                return fh.read()
        except (OSError, TypeError):
            try:
                return cand.read_text()
            except (OSError, AttributeError):
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


# -- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    status = 0
    for path in args.paths:
        try:
            text = _read_path(path)
            if path.endswith(".dgm"):
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
                w = parse_weights(text)
                kind = "cocycle" if isinstance(w, CocyclePair) else "boltzmann"
                print(f"{path}: well-formed {kind} weights "
                      f"(modulus {w.modulus})")
            else:
                loaded = parse_algebra(text)
                print(f"{path}: valid {loaded.kind} (order {loaded.n})")
        except InvalidStructureError as exc:
            print(f"{path}: INVALID")
            print("  " + exc.report.summary().replace("\n", "\n  "))
            status = 2
        except (AlgebraError, DiagramError, InvariantError, UsageError) as exc:
            print(f"{path}: error: {exc}")
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
    """Returns (rendered value, multiset as [exponent, multiplicity] rows)."""
    def counted(n):
        return str(n), [["0", n]]

    def packed(value, **render_args):
        return (value.render(**render_args),
                [[t.render_exponent(), m] for t, m in value.items_sorted()])

    if kind == "count":
        s = _expect(structure, OrientedSingquandle, kind)
        return counted(len(singquandle_tuples(_need(diagram, "a diagram"), s)))
    if kind == "state-sum":
        s = _expect(structure, OrientedSingquandle, kind)
        w = _need(weights, "a cocycle weight file")
        if not isinstance(w, CocyclePair):
            raise UsageError("state-sum needs phi/phiprime weights")
        return packed(state_sum(_need(diagram, "a diagram"), s, w))
    if kind == "phi-ssqp":
        s = _expect(structure, OrientedSingquandle, kind)
        return packed(phi_ssqp(_need(diagram, "a diagram"), s))
    if kind == "shadow-count":
        sh = _expect(structure, ShadowStructure, kind)
        return counted(len(shadow_tuples(_need(diagram, "a diagram"), sh)))
    if kind == "sp":
        sh = _expect(structure, ShadowStructure, kind)
        poly = sp(sh)
        multiset = []
        for mono, coeff in poly.terms:
            body = " ".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            multiset.append([body or "1", coeff])
        return poly.render(), multiset
    if kind == "SP":
        sh = _expect(structure, ShadowStructure, kind)
        return packed(shadow_polynomial_invariant(_need(diagram, "a diagram"), sh))
    if kind == "psy-count":
        p = _expect(structure, Psyquandle, kind)
        return counted(len(psyquandle_tuples(_need(diagram, "a diagram"), p)))
    if kind in ("boltzmann-1", "boltzmann-2"):
        p = _expect(structure, Psyquandle, kind)
        w = _need(weights, "a boltzmann weight file")
        if not isinstance(w, BoltzmannPair):
            raise UsageError(f"{kind} needs phi/psi weights")
        d = _need(diagram, "a diagram")
        if kind == "boltzmann-1":
            return packed(boltzmann_single(d, p, w), var="w")
        return packed(boltzmann_two(d, p, w))
    raise UsageError(f"unknown kind {kind!r}")


def cmd_invariant(args) -> int:
    dgm, alg, wgt = _classify(args.paths)
    diagram = parse_diagram(_read_path(dgm)) if dgm else None
    structure = parse_algebra(_read_path(_need(alg, "a structure file"))).structure
    weights = parse_weights(_read_path(wgt)) if wgt else None
    value, multiset = compute_invariant(args.kind, diagram, structure, weights)
    if args.json:
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
        w = parse_weights(_read_path(args.contains))
        if not isinstance(w, CocyclePair):
            raise UsageError("--contains needs a cocycle weight file")
        member = space.contains(w)
        record["member"] = member
        if not member:
            status = 1
    if args.json:
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

    z6, z8k, psy = "z6_singquandle.alg", "z8_k.alg", "psy6.alg"
    shadow = "z8_z6_shadow.alg"
    base = shadow + " base"
    specs = [   # (group, name, kind, diagram, structure, weights, expected)
        ("z6", "5k6 count", "count", "5k6.dgm", z6, None, "6"),
        ("z6", "5k7 count", "count", "5k7.dgm", z6, None, "6"),
        ("z6", "5k6 state-sum", "state-sum", "5k6.dgm", z6, "z6_cocycle.wgt",
         "6u^3"),
        ("z6", "5k7 state-sum", "state-sum", "5k7.dgm", z6, "z6_cocycle.wgt",
         "6"),
        ("z8k", "k1 count", "count", "k1.dgm", z8k, None, "8"),
        ("z8k", "k2 count", "count", "k2.dgm", z8k, None, "8"),
        ("z8k", "k1 phi-ssqp", "phi-ssqp", "k1.dgm", z8k, None,
         "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}"),
        ("z8k", "k2 phi-ssqp", "phi-ssqp", "k2.dgm", z8k, None,
         "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{4 s1^4 s3 t1^4 t3}"),
        ("shadow", "sp a", "sp", None, "z8_z4_shadow_a.alg", None, "4t^4"),
        ("shadow", "sp b", "sp", None, "z8_z4_shadow_b.alg", None, "2t^8 + 2"),
    ]
    for name in ("4_1k", "5_4k"):
        dgm = f"{name}.dgm"
        specs += [
            ("shadow", f"{name} count", "count", dgm, base, None, "16"),
            ("shadow", f"{name} shadow-count", "shadow-count", dgm, shadow,
             None, "96"),
            ("shadow", f"{name} phi-ssqp", "phi-ssqp", dgm, base, None,
             "4u^{s1^2 s2^2 s3 t1^2 t2^2 t3} + 4u^{2 s1^2 s2^2 s3 t1^2 t2^2 t3}"
             " + 8u^{4 s1^2 s2^2 s3 t1^2 t2^2 t3}")]
    specs += [
        ("shadow", "4_1k SP", "SP", "4_1k.dgm", shadow, None,
         "24u^{t^2} + 24u^{t} + 48u^{2}"),
        ("shadow", "5_4k SP", "SP", "5_4k.dgm", shadow, None,
         "48u^{t^4} + 24u^{t^2} + 24u^{t}"),
        ("bouquet", "1l1 psy-count", "psy-count", "1l1.dgm", psy, None, "24"),
        ("bouquet", "1l1 boltzmann-1", "boltzmann-1", "1l1.dgm", psy,
         "psy6_boltzmann.wgt", "6 + 18w"),
    ]
    rows = [(group, name, thunk(*spec), expected)
            for group, name, *spec, expected in specs]
    skipped = [
        ("5_2l", "12", "12w"), ("6_1l", "12", "12w"),
        ("3_1l", "12", "6 + 6w"), ("4_1l", "12", "6 + 6w"),
        ("5_3l", "12", "6 + 6w"), ("6_2l", "12", "6 + 6w"),
        ("6_6l", "12", "6 + 6w"),
        ("6_3l", "24", "24w"), ("6_8l", "24", "24w"), ("6_9l", "24", "24w"),
        ("6_10l", "24", "24w"), ("6_11l", "24", "24w"),
        ("5_1l", "24", "18 + 6w"), ("6_5l", "24", "18 + 6w"),
        ("6_7l", "24", "18 + 6w"),
        ("6_4l", "36", "18 + 18w"), ("6_12l", "36", "18 + 18w"),
    ]
    for name, count, value in skipped:
        rows.append(("bouquet", f"{name} psy-count", None, count))
        rows.append(("bouquet", f"{name} boltzmann-1", None, value))
    return rows


def cmd_corpus(args) -> int:
    rows = _corpus_rows()
    if args.filter:
        rows = [r for r in rows
                if args.filter in r[0] or args.filter in r[1]]
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
    except InvalidStructureError as exc:
        print(f"error: invalid structure\n{exc.report.summary()}",
              file=sys.stderr)
        return 2
    except (AlgebraError, ColoringError, DiagramError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
