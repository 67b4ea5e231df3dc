"""Tests of the benchmark itself: input generation, the independent
checker, and a short run of every workload.

    python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import pace
import verify
import workloads
from singq import (parse_algebra, parse_diagram, psyquandle_colorings,
                   singquandle_colorings, validate_diagram)
from singq.data import load_algebra

BENCH = Path(gen.__file__).parent
ROOT = BENCH.parent

REPRO_ROADMAP = """\
P s1_0 s2_0 s2_1 s1_1
N s1_1 s0_0 s0_1 s1_2
S s1_2 s2_1 s1_3 s2_2
P s0_1 s1_3 s1_4 s0_2
P s0_2 s1_4 s1_5 s0_0
P s1_5 s2_2 s2_3 s1_6
N s2_3 s1_6 s1_0 s2_0
"""


FAMILIES = {"braids": gen.braid_pool, "links": gen.link_family}


def _stream(family, seed, count=25):
    words = gen.cycle(FAMILIES[family](), random.Random(seed))
    return [gen.closure_text(*next(words)) for _ in range(count)]


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_is_deterministic_and_valid(family):
    first = _stream(family, 7)
    assert first == _stream(family, 7)
    assert first != _stream(family, 8)
    assert [gen.closure_text(*m) for m in FAMILIES[family]()] == \
        [gen.closure_text(*m) for m in FAMILIES[family]()]
    for text in first:
        d = parse_diagram(text)
        assert d.has_rotations()
        assert validate_diagram(d).valid


def test_cycle_covers_the_family_once_per_cycle():
    members = gen.link_family()
    assert len(members) == len(gen.LINK_TWISTS) * math.factorial(gen.LINK_STRANDS - 1)
    words = gen.cycle(members, random.Random(3))
    seen = set()
    for _ in range(len(members)):
        strands, word = next(words)
        d = parse_diagram(gen.closure_text(strands, word))
        assert d.component_count() == strands
        assert d.n_crossings == 2 * (strands - 1)
        assert len({letter for letter, _ in word}) == 1
        seen.add(tuple(word))
    assert len(seen) == len(members)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_op_of_the_family_passes_its_check(family):
    """The timed workloads must have no failing op, so every member of both
    finite families is run and checked once."""
    ctx = workloads.DiagramContext(family)
    for k, member in enumerate(FAMILIES[family]()):
        unit = workloads.diagram_unit(ctx, f"{family}#{k}", *member)
        results = [thunk() for _, thunk in unit.ops]
        assert unit.check(results) == [None] * len(results), (k, member)


def test_affine_params_give_valid_structures():
    rng = random.Random(5)
    for n in (8, 10, 31):
        s = parse_algebra(gen.affine_alg_text(n, *gen.affine_params(rng, n))).structure
        assert s.n == n


def test_repro_matches_the_roadmap_crossings():
    text = gen.closure_text(gen.REPRO_STRANDS, gen.REPRO_WORD)
    assert text.startswith(REPRO_ROADMAP)
    assert validate_diagram(parse_diagram(text)).valid


def _labels(d):
    return [a.label for a in d.semiarcs]


def test_checker_rejects_a_planted_bad_coloring():
    z6 = load_algebra("z6_singquandle.alg").structure
    tables = verify.singquandle_tables(z6)
    rng = random.Random(11)
    while True:
        strands, word = gen.braid_word(rng)
        d = parse_diagram(gen.closure_text(strands, word))
        good = verify.braid_colorings(strands, word, tables, _labels(d))
        if good:
            break
    assert verify.bad_colorings(d, tables, good) == 0
    planted = list(good[0])
    planted[0] = (planted[0] + 1) % z6.n
    assert verify.bad_colorings(d, tables, good + [tuple(planted)]) == 1


# The four extra colorings the z8_k search returned on the reproduction when
# the benchmark was written; each breaks oi == oo at some crossing.
REPRO_BAD = [
    (0, 6, 0, 6, 2, 6, 2, 0, 6, 6, 0, 0, 0, 6),
    (2, 0, 2, 0, 4, 0, 4, 2, 0, 0, 2, 2, 2, 0),
    (4, 2, 4, 2, 6, 2, 6, 4, 2, 2, 4, 4, 4, 2),
    (6, 4, 6, 4, 0, 4, 0, 6, 4, 4, 6, 6, 6, 4),
]


def test_checker_flags_the_z8k_reproduction():
    z8k = load_algebra("z8_k.alg").structure
    tables = verify.singquandle_tables(z8k)
    d = parse_diagram(gen.closure_text(gen.REPRO_STRANDS, gen.REPRO_WORD))
    expected = verify.braid_colorings(gen.REPRO_STRANDS, gen.REPRO_WORD,
                                      tables, _labels(d))
    assert expected == [(c,) * 14 for c in (1, 3, 5, 7)]
    assert verify.bad_colorings(d, tables, expected + REPRO_BAD) == 4
    returned = [c.semiarc_colors for c in singquandle_colorings(d, z8k)]
    assert verify.bad_colorings(d, tables, returned) == len(set(returned) - set(expected))


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_agrees_with_the_psyquandle_search(seed):
    psy = load_algebra("psy6.alg").structure
    tables = verify.psyquandle_tables(psy)
    for strands, word in (gen.braid_word(random.Random(seed)),
                          random.Random(seed).choice(gen.link_family())):
        d = parse_diagram(gen.closure_text(strands, word))
        got = sorted(c.semiarc_colors for c in psyquandle_colorings(d, psy))
        assert got == verify.braid_colorings(strands, word, tables, _labels(d))


def test_reference_clock_scales_each_op_by_the_nearby_reference():
    clock = pace.ReferenceClock()
    clock.samples = [(0.0, 0.001), (10.0, 0.002)]
    clock.spent = float("inf")      # take no further samples
    early, late, between = clock.scaled([(0.1, 0.1), (9.8, 0.1), (5.0, 0.1)])
    assert early == pytest.approx(0.1 * pace.REF_NOMINAL_S / 0.001)
    assert late == pytest.approx(0.1 * pace.REF_NOMINAL_S / 0.002)
    assert between == late


def test_shadow_base_fixture_is_the_shadow_base():
    base = parse_algebra((BENCH / "fixtures" / "z8_z6_base.alg").read_text()).structure
    assert base == load_algebra("z8_z6_shadow.alg").structure.base


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["cli-corpus", "braids", "links", "structures"])
def test_smoke_run_prints_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["attempted"] >= 1
        assert last["correct"] and last["failed"] == 0, proc.stdout.splitlines()[-2]
        assert set(last["metrics"]) == {m["name"] for m in spec[group]}
        for m in spec[group]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "braids", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
