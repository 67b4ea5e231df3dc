"""Seeded line-level mutations of the bundled input files: each loader
raises only its own typed error, and ``singq validate`` exits 0 or 2."""

import random

import pytest

from singq.algebra import AlgebraError, parse_algebra
from singq.cli import main
from singq.data import corpus_names, fixture_names, read_bundled
from singq.diagram import DiagramError, parse_diagram
from singq.invariants import InvariantError, parse_weights

FILES = fixture_names() + corpus_names()
MUTANTS = 100         # per file
CLI_EVERY = 3         # run ``singq validate`` on every third mutant

# Tokens a mutation may insert: numbers, formula pieces, record heads,
# ports and header or block names of all three formats.
TOKENS = ("0", "1", "2", "7", "-1", "1.5", "x", "y", "s", "x^2", "3x-2y",
          "(", "*", ":", "#", "P", "N", "S", "rot", "ui", "oo", "i1", "o2",
          "type:", "order:", "modulus:", "carrier:", "formula:", "star",
          "star:", "r1:", "ops:", "action:", "phi:", "psi:", "phiprime:",
          "quandle", "singquandle", "psyquandle", "shadow")


def mutate(lines: list, rng: random.Random) -> list:
    """One mutation: delete, duplicate, move or truncate a line, or insert,
    replace or delete one of its tokens."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.randrange(7)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == 2:
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif op == 3:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        tokens = lines[i].split()
        k = rng.randrange(len(tokens) + 1)
        if op == 4 or k == len(tokens):
            tokens.insert(k, rng.choice(TOKENS))
        elif op == 5:
            tokens[k] = rng.choice(TOKENS)
        else:
            del tokens[k]
        lines[i] = " ".join(tokens)
    return lines or [""]


def load(name: str, text: str) -> None:
    """Run the loader for ``name``'s suffix; regions are built whenever the
    diagram has rotations, as ``singq validate`` does."""
    if name.endswith(".alg"):
        parse_algebra(text)
    elif name.endswith(".wgt"):
        parse_weights(text)
    else:
        d = parse_diagram(text)
        if d.has_rotations():
            d.regions()


ERRORS = {"alg": AlgebraError, "wgt": InvariantError, "dgm": DiagramError}


@pytest.mark.parametrize("name", FILES)
def test_mutated_inputs_fail_typed(tmp_path, capsys, name):
    lines = read_bundled(name).splitlines()
    rng = random.Random(name)
    error = ERRORS[name.rsplit(".", 1)[1]]
    outcomes = set()
    for k in range(MUTANTS):
        mutant = lines
        for _ in range(rng.randint(1, 3)):
            mutant = mutate(mutant, rng)
        text = "\n".join(mutant) + "\n"
        try:
            load(name, text)
            outcomes.add("loaded")
        except error:
            outcomes.add("rejected")
        if k % CLI_EVERY == 0:
            target = tmp_path / name
            target.write_text(text)
            assert main(["validate", str(target)]) in (0, 2), text
            capsys.readouterr()
    # the mutations reach both outcomes, so the test is not vacuous
    assert outcomes == {"loaded", "rejected"}
