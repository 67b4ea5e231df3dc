"""The benchmark's four workloads, as seeded streams of units.

A unit is a short sequence of ops run back to back, each timed on its own,
followed by a check that runs outside the timing.  In a traced run each
unit also runs layer probes: library calls on the same inputs, timed
separately, so that a layer's share is derived from outside the package
(for example aggregation = invariant call - coloring search - weight
validation).

What an op is: one cold ``singq`` process (``cli-corpus``), one invariant
of one diagram (``braids``, ``links``), one structure load, one cocycle
solve or one membership sweep over a solved space (``structures``).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import gen
import verify

from singq import (OrientedSingquandle, Psyquandle, ShadowStructure,
                   boltzmann_single, boltzmann_two, parse_algebra,
                   parse_diagram, parse_weights, phi_ssqp,
                   psyquandle_colorings, shadow_colorings,
                   shadow_polynomial_invariant, singquandle_colorings,
                   solve_cocycle_space, sp, state_sum, strongly_compatible,
                   validate_boltzmann, validate_cocycle_pair,
                   validate_diagram, validate_psyquandle, validate_shadow,
                   validate_singquandle)
from singq.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "singq" / "data"
BASE_ALG = "bench/fixtures/z8_z6_base.alg"   # base singquandle of z8_z6_shadow

# Fixtures each workload loads during set-up.
SETUP_FILES = {
    "cli-corpus": ("z6_singquandle.alg", "z6_cocycle.wgt", "z8_k.alg",
                   "z8_z4_shadow_a.alg", "z8_z4_shadow_b.alg",
                   "z8_z6_shadow.alg", "psy6.alg", "psy6_boltzmann.wgt"),
    "braids": ("z6_singquandle.alg", "z6_cocycle.wgt", "psy6.alg",
               "psy6_boltzmann.wgt", "psy6_boltzmann_strong.wgt"),
    "links": ("z6_singquandle.alg", "z6_cocycle.wgt", "psy6.alg",
              "psy6_boltzmann.wgt", "psy6_boltzmann_strong.wgt", "z8_k.alg",
              "z8_z6_shadow.alg"),
    "structures": ("z6_singquandle.alg", "z6_cocycle.wgt"),
}

# Orders of the formula-defined structures loaded per structures cycle, with
# seeded parameters (their load cost depends on the order alone).  At most
# 67: a load at order 101 takes about 4 s, two thirds of a cycle, which left
# a run with too few ops for its tail percentile.
LOAD_ORDERS = (31, 47, 67)

# Affine (n, (a, b, c)) structures whose cocycle space is solved each cycle
# (modulus = order).  They are fixed: solve and sweep costs vary threefold
# with the parameters, which moved the percentiles of a run's few dozen ops
# by a quarter between seeds.  The moduli are square-free: over Z_8
# ``contains`` rejects some of the space's own generators (see
# DEFECT_SOLVE), and every op of the benchmark must succeed.
SOLVE_PARAMS = ((11, (4, 1, 0)), (10, (7, 6, 5)))

# Known defects, measured in the traced set-up sweep rather than as ops, so
# that they show in every traced run until they are fixed: the singquandle
# search on the ROADMAP item-1 reproduction (z8_k returns 8 colorings, 4 of
# which break oi == oo), and ``contains`` on the generators of this Z_8
# space (it rejects 4 of 18).
DEFECT_SOLVE = (8, (3, 0, 1))


def read_data(name: str) -> str:
    """Text of a bundled corpus diagram or fixture, or of a path under the
    checkout root when ``name`` contains a slash."""
    if "/" in name:
        return (ROOT / name).read_text()
    return (DATA / ("corpus" if name.endswith(".dgm") else "fixtures") / name).read_text()


def load_fixtures(names) -> dict:
    """name -> parsed structure or weight pair."""
    return {name: (parse_algebra(read_data(name)).structure
                   if name.endswith(".alg") else parse_weights(read_data(name)))
            for name in names}


@dataclass
class Unit:
    label: str
    ops: Iterable                  # (op name, thunk) pairs, consumed in order
    check: Callable                # results -> [failure reason or None] per op
    probe: Callable                # (tracer, results, times), traced runs only


def _failure(result):
    return f"{type(result).__name__}: {result}"


# -- structure loading: formula evaluation and axiom validation ---------------

def validate_structure(structure):
    """Run the axiom validators singq runs when it loads ``structure``."""
    if isinstance(structure, ShadowStructure):
        b = structure.base
        validate_singquandle(b.star, b.r1, b.r2)
        return validate_shadow(b, structure.action)
    if isinstance(structure, Psyquandle):
        return validate_psyquandle(structure.ut, structure.ot, structure.ub,
                                   structure.ob)
    return validate_singquandle(structure.star, structure.r1, structure.r2)


def axiom_instances(structure) -> int:
    """Axiom instances the validators check, counted from their loop bounds."""
    if isinstance(structure, ShadowStructure):
        n = structure.base.n
        return axiom_instances(structure.base) + n + 2 * structure.carrier * n * n
    n = structure.n
    if isinstance(structure, Psyquandle):
        return 5 * n + 4 * n * n + 9 * n ** 3
    return 2 * n + 3 * n * n + 4 * n ** 3


def formula_cells(text: str, structure) -> int:
    """Table cells the ``formula:`` lines of an .alg text produce."""
    if isinstance(structure, ShadowStructure):
        n, carrier = structure.base.n, structure.carrier
    else:
        n, carrier = structure.n, 0
    cells = 0
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts[:1] == ["formula:"] and len(parts) > 1:
            cells += carrier * n if parts[1] == "action" else n * n
    return cells


def probe_algebra(tr, text: str, structure=None, t_parse: float = None):
    """Split one .alg load into formula evaluation and validation.  Parses
    ``text`` under a span unless the load was already timed."""
    if structure is None:
        structure, t_parse = tr.timed("exprs.parse_algebra",
                                      lambda: parse_algebra(text).structure)
    _, t_val = tr.timed("algebra.validate", validate_structure, structure)
    tr.count("exprs.formula_s", max(0.0, t_parse - t_val))
    tr.count("exprs.cells", formula_cells(text, structure))
    tr.count("algebra.validate_s", t_val)
    tr.count("algebra.axiom_instances", axiom_instances(structure))
    tr.count("exprs.loads")
    return structure


def probe_setup(tr, workload: str) -> None:
    """Trace the fixture loads of the workload's set-up, then three README
    commands through every layer, so that each per-layer metric is measured
    in every workload, if only from this fixed sweep; last the known
    defects.  ``tr`` is a tracer of its own, kept apart from the run's."""
    for name in SETUP_FILES[workload]:
        if name.endswith(".alg"):
            probe_algebra(tr, read_data(name))
    for argv in README_COMMANDS:
        _, t_cold = tr.timed("cli.cold", cold_call, argv)
        cli_unit(argv, None).probe(tr, [None], [t_cold])
    z8k = parse_algebra(read_data("z8_k.alg")).structure
    d = parse_diagram(gen.closure_text(gen.REPRO_STRANDS, gen.REPRO_WORD))
    found = tr.timed("defect.repro_search", singquandle_colorings, d, z8k)[0]
    tr.count("defect.repro_bad_colorings", verify.bad_colorings(
        d, verify.singquandle_tables(z8k), [c.semiarc_colors for c in found]))
    n, params = DEFECT_SOLVE
    s = parse_algebra(gen.affine_alg_text(n, *params)).structure
    space = tr.timed("defect.solve", solve_cocycle_space, s, n)[0]
    tr.count("defect.contains_rejected",
             sum(1 for g in space.generators if not space.contains(g)))


# -- invariants -----------------------------------------------------------------

PSYQUANDLE_KINDS = ("psy-count", "boltzmann-1", "boltzmann-2")


def invariant_call(kind: str, d, s, w):
    """The library call behind ``singq invariant <kind>``: the coloring set
    for counting kinds, the InvariantValue otherwise."""
    if kind == "count":
        return singquandle_colorings(d, s)
    if kind == "psy-count":
        return psyquandle_colorings(d, s)
    if kind == "shadow-count":
        return shadow_colorings(d, s)
    if kind == "state-sum":
        return state_sum(d, s, w)
    if kind == "phi-ssqp":
        return phi_ssqp(d, s)
    if kind == "SP":
        return shadow_polynomial_invariant(d, s)
    if kind == "boltzmann-1":
        return boltzmann_single(d, s, w)
    if kind == "boltzmann-2":
        return boltzmann_two(d, s, w)
    if kind == "sp":
        return sp(s)
    raise ValueError(f"unknown invariant kind {kind!r}")


def _validate_weights(kind, s, w):
    if kind == "state-sum":
        return validate_cocycle_pair(s, w)
    validate_boltzmann(s, w)
    return strongly_compatible(s, w) if kind == "boltzmann-2" else None


def probe_invariant(tr, kind: str, d, s, w, result, t_op: float):
    """Split one invariant op of ``t_op`` seconds into layers by timing its
    parts again on the same inputs."""
    if kind == "sp":
        tr.count("invariants.aggregate_s", t_op)
        tr.count("invariants.aggregations")
        return
    if kind in ("count", "psy-count"):
        tr.count("coloring.search_s", t_op)
        tr.count("coloring.colorings", len(result))
        tr.count("coloring.searches")
        return
    t_val = 0.0
    if kind in ("state-sum", "boltzmann-1", "boltzmann-2"):
        _, t_val = tr.timed("invariants.validate_weights", _validate_weights, kind, s, w)
        tr.count("invariants.validate_weights_s", t_val)
        tr.count("invariants.weight_checks")
    if kind in ("SP", "shadow-count"):
        base, t_search = tr.timed("coloring.search", singquandle_colorings, d, s.base)
        _, t_regions = tr.timed("diagram.regions", lambda: d.side_regions(d.regions()))
        if kind == "SP":
            _, t_col = tr.timed("coloring.shadow", shadow_colorings, d, s)
        else:
            t_col = t_op
        tr.count("diagram.regions_s", t_regions)
        tr.count("diagram.regions_calls")
        tr.count("coloring.shadow_s", max(0.0, t_col - t_search - t_regions))
        tr.count("coloring.shadow_calls")
    else:
        search = (psyquandle_colorings if kind in PSYQUANDLE_KINDS
                  else singquandle_colorings)
        base, t_search = tr.timed("coloring.search", search, d, s)
        t_col = t_search
    tr.count("coloring.search_s", t_search)
    tr.count("coloring.colorings", len(base))
    tr.count("coloring.searches")
    if kind != "shadow-count":
        tr.count("invariants.aggregate_s", max(0.0, t_op - t_col - t_val))
        tr.count("invariants.aggregations")
        tr.count("invariants.tags", result.total())
        var = "w" if kind == "boltzmann-1" else "u"
        _, t_render = tr.timed("polynomial.render", result.render, var)
        tr.count("polynomial.render_s", t_render)
        tr.count("polynomial.renders")


# -- braids and links -------------------------------------------------------------

# (invariant kind, structure fixture, weight fixture) per diagram.  Braids
# run their singquandle invariants over z6 alone: on random braids the
# singquandle search returns colorings that break a crossing for z8_k (about
# one diagram in twenty) and for the base of z8_z6_shadow (about one in a
# hundred), for z6 in none of about ten thousand, and every op must
# succeed; the benchmark's tests check every op on the whole pool.  The
# psyquandle search checks every relation and is used as it is.  SP and
# z8_k run on the links, whose whole family is checked too.  Links run
# seven ops, so that their median falls inside one op's cluster of times
# rather than between two: the members are alike, and their op times
# cluster by kind.
DIAGRAM_OPS = {
    "braids": (
        ("count", "z6_singquandle.alg", None),
        ("psy-count", "psy6.alg", None),
        ("state-sum", "z6_singquandle.alg", "z6_cocycle.wgt"),
        ("phi-ssqp", "z6_singquandle.alg", None),
        ("boltzmann-1", "psy6.alg", "psy6_boltzmann.wgt"),
        ("boltzmann-2", "psy6.alg", "psy6_boltzmann_strong.wgt"),
    ),
    "links": (
        ("count", "z6_singquandle.alg", None),
        ("psy-count", "psy6.alg", None),
        ("state-sum", "z6_singquandle.alg", "z6_cocycle.wgt"),
        ("phi-ssqp", "z8_k.alg", None),
        ("SP", "z8_z6_shadow.alg", None),
        ("boltzmann-1", "psy6.alg", "psy6_boltzmann.wgt"),
        ("boltzmann-2", "psy6.alg", "psy6_boltzmann_strong.wgt"),
    ),
}


def structure_tables(structure) -> dict:
    """The checker's plain tables of a structure (of its base for a shadow
    structure)."""
    if isinstance(structure, ShadowStructure):
        return verify.singquandle_tables(structure.base)
    if isinstance(structure, Psyquandle):
        return verify.psyquandle_tables(structure)
    return verify.singquandle_tables(structure)


class DiagramContext:
    """A workload's diagram ops, its loaded fixtures and the checker's plain
    tables of each structure."""

    def __init__(self, workload: str):
        self.ops = DIAGRAM_OPS[workload]
        self.fx = load_fixtures(SETUP_FILES[workload])
        self.tables = {name: structure_tables(self.fx[name])
                       for _, name, _ in self.ops}

    def expected(self, d, strands, word) -> dict:
        """Checker's colorings of the closure per structure fixture."""
        labels = [a.label for a in d.semiarcs]
        return {alg: verify.braid_colorings(strands, word, tables, labels)
                for alg, tables in self.tables.items()}


def diagram_unit(ctx: DiagramContext, label: str, strands: int, word) -> Unit:
    text = gen.closure_text(strands, word)
    d = parse_diagram(text)
    report = validate_diagram(d)
    if not report.valid:
        raise RuntimeError(f"generated diagram {label} is invalid: {report.problems}")

    def inputs(alg, wgt):
        return ctx.fx[alg], ctx.fx[wgt] if wgt else None

    ops = [(kind, lambda kind=kind, sw=inputs(alg, wgt): invariant_call(kind, d, *sw))
           for kind, alg, wgt in ctx.ops]

    def check(results):
        expected = ctx.expected(d, strands, word)
        reasons = []
        for (kind, alg, _), result in zip(ctx.ops, results):
            if isinstance(result, Exception):
                reasons.append(_failure(result))
            elif kind in ("count", "psy-count"):
                got = [c.semiarc_colors for c in result]
                bad = verify.bad_colorings(d, ctx.tables[alg], got)
                if bad:
                    reasons.append(f"{bad} of {len(got)} colorings break a crossing")
                elif sorted(got) != expected[alg]:
                    reasons.append(f"{len(got)} colorings, expected {len(expected[alg])}")
                else:
                    reasons.append(None)
            else:
                # state-sum total = count, SP total = shadow count = count x carrier
                want = len(expected[alg]) * (ctx.fx[alg].carrier if kind == "SP" else 1)
                reasons.append(None if result.total() == want
                               else f"total {result.total()}, expected {want}")
        return reasons

    def probe(tr, results, times):
        _, t_parse = tr.timed("diagram.parse", parse_diagram, text)
        tr.count("diagram.parse_s", t_parse)
        tr.count("diagram.crossings", d.n_crossings)
        tr.count("diagram.diagrams")
        for (kind, alg, wgt), result, t_op in zip(ctx.ops, results, times):
            if not isinstance(result, Exception):
                probe_invariant(tr, kind, d, *inputs(alg, wgt), result, t_op)

    return Unit(label, ops, check, probe)


def braid_units(seed: int):
    ctx = DiagramContext("braids")
    for i, member in enumerate(gen.cycle(gen.braid_pool(), random.Random(seed))):
        yield diagram_unit(ctx, f"braid#{i}", *member)


def link_units(seed: int):
    ctx = DiagramContext("links")
    for i, member in enumerate(gen.cycle(gen.link_family(), random.Random(seed))):
        yield diagram_unit(ctx, f"link#{i}", *member)


# -- structures ---------------------------------------------------------------------

def affine_tables(n, a, b, c) -> tuple:
    """The star, R1 and R2 tables of an affine singquandle, computed directly."""
    return ([[(a * x + (1 - a) * y) % n for y in range(n)] for x in range(n)],
            [[(b * x + c * y) % n for y in range(n)] for x in range(n)],
            [[(a * c * x + (b + c * (1 - a)) * y) % n for y in range(n)]
             for x in range(n)])


def zero_pair(n: int, modulus: int):
    """The zero cocycle pair, read through the weight-file format."""
    rows = "\n".join(" ".join("0" * n) for _ in range(n))
    return parse_weights(f"modulus: {modulus}\nphi:\n{rows}\nphiprime:\n{rows}\n")


def structure_cycle(fx, rng: random.Random, label: str) -> Unit:
    """Load each formula structure; then, per solve order, solve its cocycle
    space and sweep membership of the zero pair and of every generator; last
    the bundled z6 structure with its weight file, as in the README.

    A sweep is one op, so every cycle has the same nine ops whatever the
    number of generators.
    """
    loads = []
    for n in LOAD_ORDERS:
        params = gen.affine_params(rng, n)
        loads.append((n, params, gen.affine_alg_text(n, *params)))
    solves = [(parse_algebra(gen.affine_alg_text(n, *params)).structure, n, None)
              for n, params in SOLVE_PARAMS]
    solves.append((fx["z6_singquandle.alg"], 6, fx["z6_cocycle.wgt"]))
    solved = []     # (structure, space or None if the solve raised, pairs swept)

    def ops():
        for _, _, text in loads:
            yield "load", lambda text=text: parse_algebra(text).structure
        for s, modulus, member in solves:
            box = []
            yield "solve", lambda s=s, m=modulus: box.append(solve_cocycle_space(s, m)) or box[0]
            if not box:
                solved.append((s, None, []))
                continue
            space = box[0]
            pairs = [zero_pair(s.n, modulus), *space.generators]
            pairs += [member] if member is not None else []
            solved.append((s, space, pairs))
            yield "contains", lambda: [space.contains(pair) for pair in pairs]

    def check(results):
        it = iter(results)
        reasons = []
        for (n, params, _), s in zip(loads, it):
            if isinstance(s, Exception):
                reasons.append(_failure(s))
            elif not isinstance(s, OrientedSingquandle):
                reasons.append(f"loaded a {type(s).__name__}")
            else:
                got = tuple([list(r) for r in t.rows] for t in (s.star, s.r1, s.r2))
                reasons.append(None if got == affine_tables(n, *params) else "tables differ")
        for s, space, pairs in solved:
            solve_result = next(it)
            if space is None:
                reasons.append(_failure(solve_result))
                continue
            bad = sum(1 for g in space.generators if not validate_cocycle_pair(s, g).valid)
            reasons.append(f"{bad} generators fail validate_cocycle_pair" if bad else None)
            members = next(it)
            if isinstance(members, Exception):
                reasons.append(_failure(members))
            else:
                rejected = members.count(False)
                reasons.append(f"n={s.n}: {rejected} of {len(pairs)} members rejected"
                               if rejected else None)
        return reasons

    def probe(tr, results, times):
        it = iter(zip(results, times))
        for _, _, text in loads:
            s, t = next(it)
            if not isinstance(s, Exception):
                probe_algebra(tr, text, s, t)
        for s, space, pairs in solved:
            _, t = next(it)
            if space is None:
                continue
            tr.count("invariants.solve_s", t)
            tr.count("invariants.cocycle_rows", s.n + s.n ** 2 + 3 * s.n ** 3)
            tr.count("invariants.solves")
            for g in space.generators:
                _, t_val = tr.timed("invariants.validate_weights",
                                    validate_cocycle_pair, s, g)
                tr.count("invariants.validate_weights_s", t_val)
                tr.count("invariants.weight_checks")
            _, t = next(it)
            tr.count("invariants.contains_s", t)
            tr.count("invariants.contains_calls", len(pairs))

    return Unit(label, ops(), check, probe)


def structure_units(seed: int):
    fx = load_fixtures(SETUP_FILES["structures"])
    rng = random.Random(seed)
    i = 0
    while True:
        yield structure_cycle(fx, rng, f"cycle#{i}")
        i += 1


# -- cli-corpus -----------------------------------------------------------------------

# Every non-skipped row of `singq corpus` as a CLI command, with the corpus'
# expected value; then the README's validate and search-cocycles examples.
# Rows that color by the base of z8_z6_shadow name it through BASE_ALG.
_PHI_SHADOW = ("4u^{s1^2 s2^2 s3 t1^2 t2^2 t3} + 4u^{2 s1^2 s2^2 s3 t1^2 t2^2 t3}"
               " + 8u^{4 s1^2 s2^2 s3 t1^2 t2^2 t3}")
CORPUS_COMMANDS = (
    (("invariant", "count", "5k6.dgm", "z6_singquandle.alg"), "6"),
    (("invariant", "count", "5k7.dgm", "z6_singquandle.alg"), "6"),
    (("invariant", "state-sum", "5k6.dgm", "z6_singquandle.alg", "z6_cocycle.wgt"), "6u^3"),
    (("invariant", "state-sum", "5k7.dgm", "z6_singquandle.alg", "z6_cocycle.wgt"), "6"),
    (("invariant", "count", "k1.dgm", "z8_k.alg"), "8"),
    (("invariant", "count", "k2.dgm", "z8_k.alg"), "8"),
    (("invariant", "phi-ssqp", "k1.dgm", "z8_k.alg"),
     "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}"),
    (("invariant", "phi-ssqp", "k2.dgm", "z8_k.alg"),
     "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{4 s1^4 s3 t1^4 t3}"),
    (("invariant", "sp", "z8_z4_shadow_a.alg"), "4t^4"),
    (("invariant", "sp", "z8_z4_shadow_b.alg"), "2t^8 + 2"),
    (("invariant", "count", "4_1k.dgm", BASE_ALG), "16"),
    (("invariant", "shadow-count", "4_1k.dgm", "z8_z6_shadow.alg"), "96"),
    (("invariant", "phi-ssqp", "4_1k.dgm", BASE_ALG), _PHI_SHADOW),
    (("invariant", "count", "5_4k.dgm", BASE_ALG), "16"),
    (("invariant", "shadow-count", "5_4k.dgm", "z8_z6_shadow.alg"), "96"),
    (("invariant", "phi-ssqp", "5_4k.dgm", BASE_ALG), _PHI_SHADOW),
    (("invariant", "SP", "4_1k.dgm", "z8_z6_shadow.alg"), "24u^{t^2} + 24u^{t} + 48u^{2}"),
    (("invariant", "SP", "5_4k.dgm", "z8_z6_shadow.alg"), "48u^{t^4} + 24u^{t^2} + 24u^{t}"),
    (("invariant", "psy-count", "1l1.dgm", "psy6.alg"), "24"),
    (("invariant", "boltzmann-1", "1l1.dgm", "psy6.alg", "psy6_boltzmann.wgt"), "6 + 18w"),
    (("validate", "z6_singquandle.alg", "5k6.dgm", "z6_cocycle.wgt"),
     "z6_singquandle.alg: valid singquandle (order 6)\n"
     "5k6.dgm: valid diagram (6 crossings, 12 semiarcs)\n"
     "z6_cocycle.wgt: well-formed cocycle weights (modulus 6)"),
    (("search-cocycles", "z6_singquandle.alg", "--modulus", "6", "--contains", "z6_cocycle.wgt"),
     "solution space size: 241864704\ngenerators: 22\nmember: yes"),
)


README_COMMANDS = (
    ("invariant", "state-sum", "5k6.dgm", "z6_singquandle.alg", "z6_cocycle.wgt"),
    ("invariant", "SP", "4_1k.dgm", "z8_z6_shadow.alg"),
    ("search-cocycles", "z6_singquandle.alg", "--modulus", "6", "--contains", "z6_cocycle.wgt"),
)


def singq_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cold_call(argv) -> subprocess.CompletedProcess:
    """One fresh ``singq`` process, run from the checkout root."""
    return subprocess.run([sys.executable, "-m", "singq.cli", *argv], cwd=ROOT,
                          env=singq_env(), capture_output=True, text=True,
                          timeout=120)


def warm_call(argv) -> int:
    """The same command through ``singq.cli.main`` in this process."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli_main(list(argv))


def probe_cli(tr, argv) -> None:
    """Load a command's inputs in-process, layer by layer, and split its
    computation as the in-process workloads do."""
    d = s = w = None
    for name in argv:
        if name.endswith(".dgm"):
            d, t = tr.timed("diagram.parse", parse_diagram, read_data(name))
            tr.count("diagram.parse_s", t)
            tr.count("diagram.crossings", d.n_crossings)
            tr.count("diagram.diagrams")
        elif name.endswith(".alg"):
            s = probe_algebra(tr, read_data(name))
        elif name.endswith(".wgt"):
            w = parse_weights(read_data(name))
    if argv[0] == "invariant":
        result, t_op = tr.timed("invariants.call", invariant_call, argv[1], d, s, w)
        probe_invariant(tr, argv[1], d, s, w, result, t_op)
    elif argv[0] == "search-cocycles":
        space, t = tr.timed("invariants.solve", solve_cocycle_space, s, int(argv[3]))
        tr.count("invariants.solve_s", t)
        tr.count("invariants.cocycle_rows", s.n + s.n ** 2 + 3 * s.n ** 3)
        tr.count("invariants.solves")
        _, t = tr.timed("invariants.contains", space.contains, w)
        tr.count("invariants.contains_s", t)
        tr.count("invariants.contains_calls")


def cli_unit(argv, expected: str) -> Unit:
    def check(results):
        (r,) = results
        if isinstance(r, Exception):
            return [_failure(r)]
        if r.returncode != 0:
            return [f"exit {r.returncode}: {r.stderr.strip()[-200:]}"]
        out = r.stdout.strip()
        return [None if out == expected else f"expected {expected!r}, got {out!r}"]

    def probe(tr, results, times):
        _, t_warm = tr.timed("cli.warm", warm_call, argv)
        tr.count("cli.cold_s", times[0])
        tr.count("cli.warm_s", t_warm)
        tr.count("cli.calls")
        probe_cli(tr, argv)

    return Unit(" ".join(argv), [("cli", lambda: cold_call(argv))], check, probe)


def cli_units(seed: int):
    rng = random.Random(seed)
    commands = list(CORPUS_COMMANDS)
    while True:
        rng.shuffle(commands)
        for argv, expected in commands:
            yield cli_unit(argv, expected)


UNITS = {"cli-corpus": cli_units, "braids": braid_units, "links": link_units,
         "structures": structure_units}
