"""Invariance under the moves of closed singular braids.

Closed singular braids related by a move of the singular braid monoid, by
conjugation or by Markov stabilisation close to equivalent singular links
(Birman, Bull. AMS 28, 1993; Gemein, JKTR 6, 1997), so an invariant takes
one value on both.  A letter ``P``, ``N`` or ``S`` at ``j`` is sigma_j,
its inverse or the singular tau_j, and the moves are:

- R2: inserting ``P_j N_j``;
- R3, the braid relation: ``X_j X_{j+1} X_j = X_{j+1} X_j X_{j+1}``, X
  one of P or N;
- Omega5: ``P_j S_j = S_j P_j``;
- Omega4: ``P_j P_{j+1} S_j = S_{j+1} P_j P_{j+1}``;
- conjugation: a cyclic shift of the word;
- Markov stabilisation: a new last strand and one ``P`` or ``N`` crossing
  with it.

The words are seeded, on 3 or 4 strands, with every strand position used,
so each closure is one connected diagram (the shadow search refuses a split
one), and are written out by the benchmark's generator ``bench/gen.py``.
Each value is compared as ``singq invariant`` renders it.  Every
singquandle invariant holds under every move, the state sum over
Z7(5,5,3), where star and star_inv differ, included.  The psyquandle
reading holds under R2 and conjugation, and psy-count and boltzmann-1 hold
under Omega5 too; it fails R3, Omega4 and Markov stabilisation, pinned
below on the smallest example known.
"""

import random

import pytest

from singq.algebra import affine_singquandle
from singq.cli import compute_invariant
from singq.data import load_algebra, load_weights
from singq.diagram import parse_diagram
from singq.invariants import WeightPair, validate_cocycle_pair

from conftest import gen

MOVES = ("R2", "R3", "Omega5", "Omega4", "conjugation", "Markov")
PAIRS = 40   # seeded pairs per move

# Z7(5,5,3), whose star and star_inv differ, so that reading an N crossing
# through the wrong one, or weighing it at the wrong ports, changes values
# (on every bundled singquandle star is its own right inverse), and the
# second generator of its cocycle space over Z_7, written out
Z7 = "Z7(5,5,3)"
Z7_PAIR = "Z7(5,5,3) cocycle"
Z7_PHI = ((0, 5, 2, 2, 4, 3, 6), (1, 0, 3, 4, 2, 6, 6), (3, 0, 0, 2, 1, 4, 5),
          (5, 1, 2, 0, 4, 4, 6), (3, 3, 5, 4, 0, 1, 6), (2, 3, 1, 5, 5, 0, 6),
          (0, 2, 1, 4, 5, 3, 0))
Z7_PHIPRIME = ((0, 1, 6, 3, 4, 5, 3), (3, 0, 3, 1, 5, 4, 6),
               (4, 5, 0, 5, 3, 1, 4), (2, 2, 4, 0, 2, 4, 1),
               (1, 5, 1, 4, 0, 2, 2), (5, 3, 2, 3, 2, 0, 0),
               (1, 0, 0, 0, 0, 0, 0))

# (invariant kind, structure file, weight file or None)
SINGQUANDLE = (("count", "z6_singquandle.alg", None),
               ("state-sum", "z6_singquandle.alg", "z6_cocycle.wgt"),
               ("state-sum", Z7, Z7_PAIR),
               ("phi-ssqp", "z8_k.alg", None),
               ("shadow-count", "z8_z6_shadow.alg", None),
               ("SP", "z8_z6_shadow.alg", None))
PSYQUANDLE = (("psy-count", "psy6.alg", None),
              ("boltzmann-1", "psy6.alg", "psy6_boltzmann.wgt"),
              ("boltzmann-2", "psy6.alg", "psy6_boltzmann_strong.wgt"))

# the psyquandle invariants each move keeps
PSYQUANDLE_HOLDS = {"R2": PSYQUANDLE, "conjugation": PSYQUANDLE,
                    "Omega5": PSYQUANDLE[:2]}


def move_pair(move: str, seed: int) -> tuple:
    """(strands, word, strands, moved word) of one seeded instance of
    ``move``, the moved side inserted at a seeded place of the word."""
    rng = random.Random(f"{move}-{seed}")
    strands = rng.randint(3, 4)
    positions = gen._covering_positions(rng, strands, rng.randint(strands, 5))
    word = [(rng.choice("PNS"), j) for j in positions]
    if move == "conjugation":
        k = rng.randrange(1, len(word))
        return strands, word, strands, word[k:] + word[:k]
    if move == "Markov":
        return strands, word, strands + 1, word + [(rng.choice("PN"),
                                                    strands - 1)]
    j = rng.randrange(strands - (1 if move in ("R2", "Omega5") else 2))
    x = rng.choice("PN")
    left, right = {
        "R2": ([], [("P", j), ("N", j)]),
        "R3": ([(x, j), (x, j + 1), (x, j)], [(x, j + 1), (x, j), (x, j + 1)]),
        "Omega5": ([("P", j), ("S", j)], [("S", j), ("P", j)]),
        "Omega4": ([("P", j), ("P", j + 1), ("S", j)],
                   [("S", j + 1), ("P", j), ("P", j + 1)]),
    }[move]
    cut = rng.randint(0, len(word))
    return (strands, word[:cut] + left + word[cut:],
            strands, word[:cut] + right + word[cut:])


@pytest.fixture(scope="module")
def inputs():
    """File name, or ``Z7`` or ``Z7_PAIR`` -> the loaded or built structure
    or weight pair."""
    names = {name for _, *pair in SINGQUANDLE + PSYQUANDLE
             for name in pair if name and name.endswith((".alg", ".wgt"))}
    found = {name: (load_weights(name) if name.endswith(".wgt")
                    else load_algebra(name).structure) for name in names}
    found[Z7] = affine_singquandle(7, 5, 5, 3)
    found[Z7_PAIR] = WeightPair.from_rows("cocycle", 7, Z7_PHI, Z7_PHIPRIME)
    return found


def test_z7_pair_is_a_cocycle_pair(inputs):
    assert validate_cocycle_pair(inputs[Z7], inputs[Z7_PAIR]).valid


def value(invariant: tuple, inputs: dict, strands: int, word) -> tuple:
    """The rendered ``(kind, structure, weights)`` on the closure of
    ``word``."""
    kind, structure, weights = invariant
    d = parse_diagram(gen.closure_text(strands, word))
    return compute_invariant(kind, d, inputs[structure],
                             weights and inputs[weights])


def test_moves_are_seeded_and_connected():
    for move in MOVES:
        for seed in range(PAIRS):
            pair = move_pair(move, seed)
            assert pair == move_pair(move, seed)
            for strands, word in (pair[:2], pair[2:]):
                assert {j for _, j in word} == set(range(strands - 1)), move
            assert pair[:2] != pair[2:], move


@pytest.mark.parametrize("move", MOVES)
def test_singquandle_invariants_hold(inputs, move):
    for seed in range(PAIRS):
        s1, w1, s2, w2 = move_pair(move, seed)
        for invariant in SINGQUANDLE:
            assert value(invariant, inputs, s1, w1) == \
                value(invariant, inputs, s2, w2), (seed, invariant, w1, w2)


@pytest.mark.parametrize("move", sorted(PSYQUANDLE_HOLDS))
def test_psyquandle_invariants_hold(inputs, move):
    for seed in range(PAIRS):
        s1, w1, s2, w2 = move_pair(move, seed)
        for invariant in PSYQUANDLE_HOLDS[move]:
            assert value(invariant, inputs, s1, w1) == \
                value(invariant, inputs, s2, w2), (seed, invariant, w1, w2)


# sigma1 sigma2 sigma1 sigma1 = sigma2 sigma1 sigma2 sigma1 by R3, as closures
# on 3 strands: the singquandle count agrees, the psyquandle count does not
R3_SMALLEST = ([("P", 0), ("P", 1), ("P", 0), ("P", 0)],
               [("P", 1), ("P", 0), ("P", 1), ("P", 0)])


def test_smallest_r3_pair_keeps_the_singquandle_count(inputs):
    assert [value(SINGQUANDLE[0], inputs, 3, w)[0]
            for w in R3_SMALLEST] == ["18", "18"]


@pytest.mark.xfail(strict=True, reason="the psyquandle crossing reading is "
                   "not invariant under R3: psy-count 2 and 0")
def test_smallest_r3_pair_keeps_the_psyquandle_count(inputs):
    first, second = (value(PSYQUANDLE[0], inputs, 3, w)[0]
                     for w in R3_SMALLEST)
    assert first == second
