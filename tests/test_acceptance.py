"""Acceptance gate: one printed pass/fail line per criterion.

Every comparison is exact; no tolerances anywhere.  Reference values come
from the bundled corpus files and the independent oracles in conftest.
"""

import random
import time

from singq.algebra import (ParameterError, affine_singquandle, eval_table,
                           validate_shadow, validate_singquandle)
from singq.coloring import (psyquandle_colorings, shadow_colorings,
                            singquandle_colorings)
from singq.invariants import (boltzmann_single, boltzmann_two, phi_ssqp,
                              shadow_polynomial_invariant, sp, state_sum,
                              strongly_compatible, validate_boltzmann)
from singq.psyquandle import validate_psyquandle
from singq.solver import solve_cocycle_space

from conftest import (MOVE_PAIRS, brute_force_psyquandle,
                      brute_force_singquandle, cocycle_verdicts_mod_2,
                      singquandle)
from test_properties import relabel_shadow


def report(num, label, checks, budget, elapsed):
    ok = all(checks) and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {label} "
          f"({sum(map(bool, checks))}/{len(checks)} checks, {elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {label}"


class TestAcceptance:
    def test_criterion_1_z6_state_sums(self, corpus, z6, z6_cocycle, capsys):
        t0 = time.perf_counter()
        checks = []
        # the constant completion R2 = 3 violates the axioms; the bundled
        # structure uses the unique valid completion R2 = 3+x (see the
        # project decision ledger)
        from singq.algebra import OperationTable
        literal = OperationTable(eval_table("3", 6, ("x", "y")))
        star = OperationTable(eval_table("-x+2y", 6, ("x", "y")))
        r1 = OperationTable(eval_table("3+2x-y", 6, ("x", "y")))
        checks.append(not validate_singquandle(star, r1, literal).valid)
        checks.append(validate_singquandle(z6.star, z6.r1, z6.r2).valid)
        checks.append(len(singquandle_colorings(corpus["5k6.dgm"], z6)) == 6)
        checks.append(len(singquandle_colorings(corpus["5k7.dgm"], z6)) == 6)
        a = state_sum(corpus["5k6.dgm"], z6, z6_cocycle)
        b = state_sum(corpus["5k7.dgm"], z6, z6_cocycle)
        checks.append(a.render() == "6u^3")
        checks.append(b.render() == "6")
        checks.append(a != b)
        with capsys.disabled():
            report(1, "order-6 state sums distinguish the two 5-crossing "
                   "knots", checks, 1.0, time.perf_counter() - t0)

    def test_criterion_2_z8_phi_ssqp(self, corpus, z8k, capsys):
        t0 = time.perf_counter()
        checks = []
        checks.append(len(singquandle_colorings(corpus["k1.dgm"], z8k)) == 8)
        checks.append(len(singquandle_colorings(corpus["k2.dgm"], z8k)) == 8)
        checks.append(phi_ssqp(corpus["k1.dgm"], z8k).render() == (
            "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3}"
            " + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}"))
        checks.append(phi_ssqp(corpus["k2.dgm"], z8k).render() == (
            "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{4 s1^4 s3 t1^4 t3}"))
        with capsys.disabled():
            report(2, "order-8 enhanced polynomials split an equal-count "
                   "pair", checks, 1.0, time.perf_counter() - t0)

    def test_criterion_3_shadow_polynomials(self, z8_z4_shadow_a,
                                            z8_z4_shadow_b, capsys):
        t0 = time.perf_counter()
        checks = [
            sp(z8_z4_shadow_a).render() == "4t^4",
            sp(z8_z4_shadow_b).render() == "2t^8 + 2",
        ]
        with capsys.disabled():
            report(3, "shadow polynomials of the two order-4 actions",
                   checks, 1.0, time.perf_counter() - t0)

    def test_criterion_4_full_shadow_pipeline(self, corpus, z8_z6_shadow,
                                              capsys):
        t0 = time.perf_counter()
        sh = z8_z6_shadow
        d1, d2 = corpus["4_1k.dgm"], corpus["5_4k.dgm"]
        checks = []
        checks.append(len(singquandle_colorings(d1, sh.base)) == 16)
        checks.append(len(singquandle_colorings(d2, sh.base)) == 16)
        checks.append(len(shadow_colorings(d1, sh)) == 96)
        checks.append(len(shadow_colorings(d2, sh)) == 96)
        checks.append(96 == sh.carrier * 16)
        expected = ("4u^{s1^2 s2^2 s3 t1^2 t2^2 t3}"
                    " + 4u^{2 s1^2 s2^2 s3 t1^2 t2^2 t3}"
                    " + 8u^{4 s1^2 s2^2 s3 t1^2 t2^2 t3}")
        checks.append(phi_ssqp(d1, sh.base).render() == expected)
        checks.append(phi_ssqp(d2, sh.base).render() == expected)
        v1 = shadow_polynomial_invariant(d1, sh)
        v2 = shadow_polynomial_invariant(d2, sh)
        checks.append(v1.render() == "24u^{t^2} + 24u^{t} + 48u^{2}")
        checks.append(v2.render() == "48u^{t^4} + 24u^{t^2} + 24u^{t}")
        checks.append(v1 != v2)
        with capsys.disabled():
            report(4, "shadow pipeline distinguishes an equal-polynomial "
                   "pair", checks, 5.0, time.perf_counter() - t0)

    def test_criterion_5_psyquandle_axioms(self, psy6, psy6_boltzmann,
                                           capsys):
        t0 = time.perf_counter()
        checks = []
        checks.append(validate_psyquandle(psy6.ut, psy6.ot,
                                          psy6.ub, psy6.ob).valid)
        checks.append(psy6.pI_adequate)
        checks.append(validate_boltzmann(psy6, psy6_boltzmann).valid)
        # the strong-compatibility outcome for the bundled pair: recorded
        # as False (so only the one-variable sum applies to it)
        checks.append(strongly_compatible(psy6, psy6_boltzmann) is False)
        with capsys.disabled():
            report(5, "six-element psyquandle and weight pair pass all "
                   "axiom checks; strong compatibility recorded False",
                   checks, 1.0, time.perf_counter() - t0)

    def test_criterion_6_bouquet_table(self, corpus, psy6, psy6_boltzmann,
                                       capsys):
        t0 = time.perf_counter()
        d = corpus["1l1.dgm"]
        checks = []
        checks.append(len(psyquandle_colorings(d, psy6)) == 24)
        checks.append(boltzmann_single(d, psy6, psy6_boltzmann)
                      .render(var="w") == "6 + 18w")
        # the remaining table rows have no transcribed diagrams; the corpus
        # command must report each one skipped rather than silently passing
        from singq.cli import main as cli_main
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["corpus", "--filter", "bouquet"])
        out = buf.getvalue()
        checks.append(rc == 0)
        checks.append(out.count("skipped") == 34)
        checks.append(out.count("diagram not transcribed") == 34)
        checks.append("MISMATCH" not in out)
        skipped = out.count("skipped")
        with capsys.disabled():
            report(6, f"bouquet table: first row verified, {skipped} "
                   "untranscribed value rows reported skipped", checks, 5.0,
                   time.perf_counter() - t0)

    def test_criterion_7_property_suites(self, corpus, z6, z6_cocycle,
                                         one_element, psy6,
                                         psy6_boltzmann,
                                         psy6_boltzmann_strong,
                                         z8_z6_shadow, z8_z4_shadow_a,
                                         z8_z4_shadow_b, small_singquandles,
                                         capsys):
        t0 = time.perf_counter()
        checks = []

        # solver vs brute force on every small corpus diagram, n <= 6
        agree = True
        for name, d in corpus.items():
            if d.n_semiarcs > 12:
                continue
            for s in (one_element, z6):
                got = [c.semiarc_colors for c in singquandle_colorings(d, s)]
                agree = agree and got == brute_force_singquandle(d, s)
            got = [c.semiarc_colors for c in psyquandle_colorings(d, psy6)]
            agree = agree and got == brute_force_psyquandle(d, psy6)
        checks.append(agree)

        # Euler formula on every corpus diagram
        checks.append(all(d.euler_failure is None for d in corpus.values()))

        # affine family: 1000 random valid triples validate, invalid reject
        rng = random.Random(99)
        from math import gcd
        good = bad = 0
        while good < 1000:
            n = rng.randint(2, 12)
            a, b, c = (rng.randrange(n) for _ in range(3))
            if gcd(a, n) == 1 and (1 - a) * (1 - b - c) % n == 0:
                s = affine_singquandle(n, a, b, c)
                if not validate_singquandle(s.star, s.r1, s.r2).valid:
                    break
                good += 1
            else:
                try:
                    affine_singquandle(n, a, b, c)
                    break
                except ParameterError:
                    bad += 1
        checks.append(good == 1000 and bad > 0)

        # move invariance of all five invariant kinds on three pairs
        stable = True
        for na, nb in MOVE_PAIRS:
            da, db = corpus[na], corpus[nb]
            stable = stable and (
                len(singquandle_colorings(da, z6))
                == len(singquandle_colorings(db, z6))
                and state_sum(da, z6, z6_cocycle)
                == state_sum(db, z6, z6_cocycle)
                and phi_ssqp(da, z6) == phi_ssqp(db, z6)
                and len(shadow_colorings(da, z8_z6_shadow))
                == len(shadow_colorings(db, z8_z6_shadow))
                and shadow_polynomial_invariant(da, z8_z6_shadow)
                == shadow_polynomial_invariant(db, z8_z6_shadow)
                and len(psyquandle_colorings(da, psy6))
                == len(psyquandle_colorings(db, psy6))
                and boltzmann_single(da, psy6, psy6_boltzmann)
                == boltzmann_single(db, psy6, psy6_boltzmann)
                and boltzmann_two(da, psy6, psy6_boltzmann_strong)
                == boltzmann_two(db, psy6, psy6_boltzmann_strong))
        checks.append(stable)

        # shadow count factors as carrier size times base count everywhere
        factored = True
        for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
            for d in corpus.values():
                base = len(singquandle_colorings(d, sh.base))
                factored = factored and (
                    len(shadow_colorings(d, sh)) == sh.carrier * base)
        checks.append(factored)

        # cocycle solver completeness at order 2, modulus 2, over every
        # singquandle of order 2
        complete = True
        for members in small_singquandles[2].values():
            for tables in members:
                verdicts = cocycle_verdicts_mod_2(tables)
                space = solve_cocycle_space(singquandle(tables), 2)
                complete = complete and space.size == sum(verdicts.values())
                complete = complete and all(
                    space.contains(cp) for cp, valid in verdicts.items()
                    if valid)
        checks.append(complete)

        # sp under 100 random shadow relabelings
        rng = random.Random(5)
        invariant = True
        for sh in (z8_z6_shadow, z8_z4_shadow_a, z8_z4_shadow_b):
            want = sp(sh)
            for _ in range(34):
                px = list(range(sh.carrier))
                ps = list(range(sh.base.n))
                rng.shuffle(px)
                rng.shuffle(ps)
                moved = relabel_shadow(sh, px, ps)
                invariant = invariant and (
                    validate_shadow(moved.base, moved.action).valid
                    and sp(moved) == want)
        checks.append(invariant)

        with capsys.disabled():
            report(7, "property suites: oracles, Euler, affine family, "
                   "moves, factorization, solver completeness, relabeling",
                   checks, 120.0, time.perf_counter() - t0)
