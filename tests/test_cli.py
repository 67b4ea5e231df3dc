import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import singq
from singq import SingqError
from singq.algebra import AlgebraError
from singq.cli import UsageError, compute_invariant, main
from singq.coloring import ColoringError
from singq.diagram import DiagramError
from singq.invariants import InvariantError
from singq.polynomial import PolynomialError
from singq.data import load_algebra, load_weights, read_bundled


class TestValidate:
    def test_bundled_files(self, capsys):
        rc = main(["validate", "z6_singquandle.alg", "z6_cocycle.wgt",
                   "5k6.dgm"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid singquandle (order 6)" in out
        assert "well-formed cocycle weights (modulus 6)" in out
        assert "valid diagram (6 crossings, 12 semiarcs)" in out

    def test_corrupted_algebra(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("type: quandle\norder: 2\nstar:\n1 1\n1 1\n")
        rc = main(["validate", str(bad)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "quandle.idempotency" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "nope.alg"]) == 2

    def test_unrecognized_suffix(self, tmp_path, capsys):
        """``validate`` once read any suffix but .dgm and .wgt as .alg,
        where ``invariant`` refuses it; now it refuses it too, and goes on
        to the next path."""
        notes = tmp_path / "notes.txt"
        notes.write_text("type: quandle\norder: 2\nstar:\n1 1\n2 2\n")
        assert main(["validate", str(notes), "one.alg"]) == 2
        assert capsys.readouterr().out == (
            f"{notes}: error: unrecognized file type {str(notes)!r} "
            "(expected .dgm, .alg or .wgt)\n"
            "one.alg: valid singquandle (order 1)\n")

    def test_missing_explicit_path_is_not_replaced(self, tmp_path, capsys):
        """Only a bare file name falls back to the bundled file of that
        name; a path with a directory part must exist."""
        dgm = str(tmp_path / "no_such_dir" / "5k6.dgm")
        alg = str(tmp_path / "nowhere" / "z6_singquandle.alg")
        assert main(["invariant", "count", dgm, alg]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {dgm!r}\n")
        assert main(["validate", alg]) == 2
        assert capsys.readouterr().out == f"{alg}: error: cannot read {alg!r}\n"


class TestInvariant:
    def test_count_one_element(self, capsys):
        rc = main(["invariant", "count", "5k7.dgm", "one.alg"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_json_schema(self, capsys):
        rc = main(["invariant", "boltzmann-1", "1l1.dgm", "psy6.alg",
                   "psy6_boltzmann.wgt", "--json"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "boltzmann-1"
        assert rec["value"] == "6 + 18w"
        assert rec["inputs"]["diagram"] == "1l1.dgm"
        assert sorted(rec["multiset"]) == [["0", 6], ["1", 18]]

    def test_structure_kind_mismatch(self, capsys):
        rc = main(["invariant", "psy-count", "1l1.dgm",
                   "z6_singquandle.alg"])
        assert rc == 2

    def test_missing_weights(self, capsys):
        rc = main(["invariant", "state-sum", "5k6.dgm",
                   "z6_singquandle.alg"])
        assert rc == 2

    @pytest.mark.parametrize("kind, inputs, error", [
        ("count", ["5k6.dgm", "z6_singquandle.alg", "z6_cocycle.wgt"],
         "count does not read 'z6_cocycle.wgt'"),
        ("state-sum", ["5k6.dgm", "z6_singquandle.alg", "psy6_boltzmann.wgt"],
         "state-sum needs phi/phiprime weights"),
        ("boltzmann-1", ["1l1.dgm", "psy6.alg", "z6_cocycle.wgt"],
         "boltzmann-1 needs phi/psi weights"),
        ("boltzmann-2", ["1l1.dgm", "psy6.alg", "psy6_boltzmann.wgt"],
         "Boltzmann pair is not strongly compatible"),
    ], ids=["count", "state-sum", "boltzmann-1", "boltzmann-2"])
    def test_weights_refused(self, capsys, kind, inputs, error):
        """A weight file count does not read once gave 6 and exit 0.  A
        pair of the other weight kind is refused by the blocks the kind
        reads, and boltzmann-2 refuses a pair without axiom IV."""
        assert main(["invariant", kind, *inputs]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_sp_refuses_a_diagram_unparsed(self, tmp_path, capsys):
        """sp reads the structure alone: a diagram is refused by name
        before it is parsed, so a malformed one gives the same error."""
        bad = tmp_path / "bad.dgm"
        bad.write_text("P a a b b\n")
        for dgm in ("5k6.dgm", str(bad)):
            assert main(["invariant", "sp", dgm, "z8_z4_shadow_a.alg"]) == 2
            assert capsys.readouterr() == \
                ("", f"error: sp does not read {dgm!r}\n")

    def test_compute_invariant_refuses_unread_inputs(self, corpus):
        with pytest.raises(UsageError, match="count does not read weights"):
            compute_invariant("count", corpus["5k6.dgm"],
                              load_algebra("z6_singquandle.alg").structure,
                              load_weights("z6_cocycle.wgt"))
        with pytest.raises(UsageError, match="sp does not read a diagram"):
            compute_invariant("sp", corpus["5k6.dgm"],
                              load_algebra("z8_z4_shadow_a.alg").structure,
                              None)


ZEROS = "\n".join(["0 0 0 0 0 0"] * 6)
Z6_FORMULAS = "formula: star -x+2y\nformula: r1 3+2x-y\nformula: r2 3+x\n"

BAD_INPUTS = {
    "order.alg": "type: singquandle\norder: six\n" + Z6_FORMULAS,
    "modulus.alg": "type: singquandle\norder: 6\nmodulus: 6.5\n" + Z6_FORMULAS,
    # formula tables are order x order: a smaller modulus once loaded a
    # smaller structure silently
    "mismatch.alg": "type: singquandle\norder: 6\nmodulus: 3\n" + Z6_FORMULAS,
    "carrier.alg": ("type: shadow\norder: 6\ncarrier: four\n" + Z6_FORMULAS
                    + "formula: action x\n"),
    "formula.alg": "type: singquandle\norder: 6\nformula: star x+z\n"
                   "formula: r1 3+2x-y\nformula: r2 3+x\n",
    "modulus.wgt": f"modulus: six\nphi:\n{ZEROS}\nphiprime:\n{ZEROS}\n",
    "negative.wgt": f"modulus: -6\nphi:\n{ZEROS}\nphiprime:\n{ZEROS}\n",
}


class TestInputErrors:
    """Malformed input exits 2 (bad input), never 1 (mismatch) by way of a
    traceback."""

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_exit_two(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text(BAD_INPUTS[name])
        inputs = ([str(path)] if name.endswith(".alg")
                  else ["z6_singquandle.alg", str(path)])
        rc = main(["invariant", "state-sum", "5k6.dgm", *inputs])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_diagram_error_cites_its_line(self, tmp_path, capsys):
        path = tmp_path / "heads.dgm"
        path.write_text("P a a b b\n")
        rc = main(["invariant", "count", str(path), "z6_singquandle.alg"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: line 1: semiarc 'a' has two heads\n"

    @pytest.mark.parametrize("kind", ["shadow-count", "SP"])
    def test_disconnected_regions(self, tmp_path, capsys, kind):
        """Two separate components leave the region graph disconnected, so
        shadow colorings are undefined."""
        path = tmp_path / "two.dgm"
        path.write_text("P a b b a\nP c d d c\n"
                        "rot 1 ui uo oo oi\nrot 2 ui uo oo oi\n")
        rc = main(["invariant", kind, str(path), "z8_z6_shadow.alg"])
        assert rc == 2
        assert "disconnected" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["shadow-count", "SP", "validate"])
    def test_euler_failure(self, tmp_path, capsys, kind):
        """Rotations that fail the Euler check once gave wrong values and
        exit 0 (48 shadow colorings of 4_1k instead of 96); ``validate``
        reports the failed check as the diagram's problem."""
        path = tmp_path / "bad_rot.dgm"
        text = read_bundled("4_1k.dgm")
        path.write_text(text.replace("rot 1 uo oo ui oi", "rot 1 oo uo ui oi"))
        if kind == "validate":
            assert main(["validate", str(path)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"{path}: INVALID\n  Euler check failed: ")
        else:
            rc = main(["invariant", kind, str(path), "z8_z6_shadow.alg"])
            assert rc == 2
            assert "Euler check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["phiprime", "psi"])
    def test_ragged_second_block(self, tmp_path, capsys, block):
        """A ragged second block under a square phi once validated."""
        wgt = tmp_path / "ragged.wgt"
        wgt.write_text(f"modulus: 6\nphi:\n0 0\n0 0\n{block}:\n1 2 3\n4\n")
        assert main(["validate", str(wgt)]) == 2
        assert f"{block} block must be 2x2" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["shadow-count", "SP"])
    def test_no_crossings(self, tmp_path, capsys, kind):
        """A diagram without crossings is valid but has no regions."""
        path = tmp_path / "empty.dgm"
        path.write_text("# no crossings\n")
        assert main(["validate", str(path)]) == 0
        rc = main(["invariant", kind, str(path), "z8_z6_shadow.alg"])
        assert rc == 2
        assert "no regions" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2, 5, 7])
    def test_contains_wrong_size(self, tmp_path, capsys, k):
        """A 5x5 or 7x7 table was once a member and a 2x2 one a traceback."""
        zeros = "\n".join(" ".join("0" * k) for _ in range(k))
        wgt = tmp_path / "w.wgt"
        wgt.write_text(f"modulus: 6\nphi:\n{zeros}\nphiprime:\n{zeros}\n")
        rc = main(["search-cocycles", "z6_singquandle.alg", "--modulus", "6",
                   "--contains", str(wgt)])
        assert rc == 2
        assert "weight table is not 6x6" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        """Bytes that are not UTF-8 once raised UnicodeDecodeError."""
        bad = tmp_path / "bad.alg"
        bad.write_bytes(b"\xff\xfe")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out == \
            f"{bad}: error: {str(bad)!r} is not UTF-8 text\n"
        assert main(["invariant", "count", "5k6.dgm", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: {str(bad)!r} is not UTF-8 text\n"

    @pytest.mark.parametrize("formula", ["(" * 3000 + "x" + ")" * 3000,
                                         "-" * 3000 + "x"])
    def test_deeply_nested_formula(self, tmp_path, capsys, formula):
        """A formula nested 3000 deep once raised RecursionError; its error
        line names the formula once."""
        deep = tmp_path / "deep.alg"
        deep.write_text(f"type: quandle\norder: 2\nformula: star {formula}\n")
        assert main(["validate", str(deep)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{deep}: error: line 3: cannot parse formula ")
        assert out.count(formula) == 1

    def test_input_errors_share_one_base(self):
        for error in (AlgebraError, ColoringError, DiagramError,
                      InvariantError, PolynomialError, UsageError):
            assert issubclass(error, SingqError)
        assert issubclass(SingqError, ValueError)

    def test_untyped_value_error_propagates(self, monkeypatch):
        """Only singq's typed input errors exit 2; any other ValueError
        propagates as before."""
        def fail(args):
            raise ValueError("not an input error")

        monkeypatch.setattr("singq.cli.cmd_corpus", fail)
        with pytest.raises(ValueError, match="not an input error"):
            main(["corpus"])


# the affine singquandle 7x+10y, 15x+10y, 6x+3y of order 16, where the pivot
# rule decides the fill-in
Z16 = ("type: singquandle\norder: 16\nformula: star 7x+10y\n"
       "formula: r1 15x+10y\nformula: r2 6x+3y\n")


class TestSearchCocycles:
    @pytest.mark.parametrize("structure, flags, stdout", [
        ("z6_singquandle.alg", ["--modulus", "6", "--contains",
                                "z6_cocycle.wgt"],
         "solution space size: 241864704\ngenerators: 22\nmember: yes\n"),
        ("z6_singquandle.alg", ["--modulus", "10"],
         "solution space size: 40000000000\ngenerators: 22\n"),
        ("z6_singquandle.alg", ["--modulus", "12"],
         "solution space size: 247669456896\ngenerators: 22\n"),
        # the generator count is not canonical at 16: only the size is pinned
        ("z16.alg", ["--modulus", "16"],
         "solution space size: 1329227995784915872903807060280344576\n"
         r"generators: \d+\n"),
    ], ids=["z6-6", "z6-10", "z6-12", "z16-16"])
    def test_member(self, tmp_path, capsys, structure, flags, stdout):
        """The size and generator count at a square-free modulus, with the
        member line of --contains, at another square-free modulus and at
        two that are not; ``stdout`` is matched as a regular expression."""
        if structure == "z16.alg":
            structure = tmp_path / structure
            structure.write_text(Z16)
        rc = main(["search-cocycles", str(structure), *flags])
        assert rc == 0
        assert re.fullmatch(stdout, capsys.readouterr().out)

    def test_non_member_exit_one(self, tmp_path, capsys):
        rows = "\n".join("1 0 0 0 0 0" for _ in range(6))
        zeros = "\n".join("0 0 0 0 0 0" for _ in range(6))
        wgt = tmp_path / "off.wgt"
        wgt.write_text(f"modulus: 6\nphi:\n{rows}\nphiprime:\n{zeros}\n")
        rc = main(["search-cocycles", "z6_singquandle.alg", "--modulus", "6",
                   "--contains", str(wgt)])
        assert rc == 1
        assert capsys.readouterr().out.endswith("\nmember: no\n")

    @pytest.mark.parametrize("modulus, generators", [
        (1000000000000000003, 1),   # a prime
        (1000000016000000063, 2),   # (10^9 + 7)(10^9 + 9)
        # (10^9 + 7)(10^9 + 9)(10^9 + 21), above _BASES_EXACT_BELOW
        (1000000037000000399000001323, 3),
    ])
    def test_prime_modulus_near_10_to_18(self, capsys, modulus, generators):
        """Factoring the prime by trial division up to its square root, and
        the products of primes near 10^9 by trial division up to the
        smallest, once ran for minutes or more; each takes well under
        10 s."""
        start = time.perf_counter()
        rc = main(["search-cocycles", "one.alg", "--modulus", str(modulus)])
        assert time.perf_counter() - start < 10
        assert rc == 0
        assert capsys.readouterr().out == (
            f"solution space size: {modulus}\ngenerators: {generators}\n")

    @pytest.mark.parametrize("modulus", [
        618970019642690137449562111,   # 2^89 - 1, a prime
        3317044064679887385961981,     # a strong pseudoprime to 2..41
    ])
    def test_unprovable_factor_refused(self, capsys, modulus):
        """At or above the least strong pseudoprime to the bases up to 41,
        a factor that no base shows composite is refused by name, before
        the solve; trial division once ran on for ever."""
        start = time.perf_counter()
        rc = main(["search-cocycles", "one.alg", "--modulus", str(modulus)])
        assert time.perf_counter() - start < 10
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"its factor {modulus} " in captured.err

    def test_bad_modulus(self, capsys):
        rc = main(["search-cocycles", "z6_singquandle.alg",
                   "--modulus", "1"])
        assert rc == 2

    @pytest.mark.parametrize("wgt, modulus, error", [
        ("psy6_boltzmann.wgt", 6, "--contains needs a cocycle weight file"),
        ("5x5 mod 7", 6, "weight table is not 6x6"),
        ("z6_cocycle.wgt", 7,
         "modulus mismatch: the weights are mod 6, --modulus is 7")])
    def test_contains_refused_before_solving(self, tmp_path, capsys,
                                             monkeypatch, wgt, modulus,
                                             error):
        """Each refusal of the --contains file comes before the solve; the
        size is checked before the modulus."""
        def solve(*args):
            raise AssertionError("solved before checking --contains")

        monkeypatch.setattr("singq.solver.solve_cocycle_space", solve)
        if wgt == "5x5 mod 7":
            zeros = "\n".join("0 0 0 0 0" for _ in range(5))
            wgt = tmp_path / "w.wgt"
            wgt.write_text(f"modulus: 7\nphi:\n{zeros}\n"
                           f"phiprime:\n{zeros}\n")
        rc = main(["search-cocycles", "z6_singquandle.alg", "--modulus",
                   str(modulus), "--contains", str(wgt)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestCorpus:
    def test_full_run(self, capsys):
        """Every published value is a row of ``singq.corpus``: a failure
        names each row that differs, with its expected and actual value."""
        rc = main(["corpus"])
        lines = capsys.readouterr().out.splitlines()
        mismatches = [line for line in lines if line.startswith("MISMATCH")]
        assert not mismatches, "\n".join(mismatches)
        assert rc == 0
        assert sum(line.startswith("OK ") for line in lines) == 20
        skipped = [line for line in lines if line.startswith("skipped ")]
        assert len(skipped) == 34
        assert all("diagram not transcribed" in line for line in skipped)

    def test_filter(self, capsys):
        rc = main(["corpus", "--filter", "z6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5k6" in out and "4_1k" not in out

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_no_matching_row_prints_nothing(self, capsys, flags):
        rc = main(["corpus", "--filter", "nomatch", *flags])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_json_records(self, capsys):
        rc = main(["corpus", "--json"])
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert rc == 0
        assert len(records) == 54
        assert {r["status"] for r in records} == {"OK", "skipped"}
        for r in records:
            assert set(r) == {"group", "name", "status", "expected",
                              "actual", "ms"}
            if r["status"] == "OK":
                assert r["actual"] == r["expected"]
            else:
                assert r["actual"] is None
            assert r["ms"] >= 0
        assert records[0] == {**records[0], "group": "z6",
                              "name": "5k6 count", "actual": "6"}

    def test_json_mismatch_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr("singq.cli._corpus_rows",
                            lambda: [("g", "row", lambda: "1", "2")])
        rc = main(["corpus", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert (record["status"], record["expected"], record["actual"]) == \
            ("MISMATCH", "2", "1")

    def test_bundled_files_read_as_utf8(self):
        """A fresh interpreter that turns every open in the locale's
        encoding into an error still runs the whole corpus."""
        src = str(Path(singq.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "singq.cli", "corpus"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr
        assert "MISMATCH" not in run.stdout

    def test_repeat_runs_identical(self, capsys):
        main(["corpus", "--filter", "z8k"])
        first = capsys.readouterr().out
        main(["corpus", "--filter", "z8k"])
        assert capsys.readouterr().out == first
