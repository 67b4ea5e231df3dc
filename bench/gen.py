"""Seeded inputs for the benchmark: closed singular braids and affine
singquandles written as ``.alg`` text.

A braid word is a list of ``(letter, j)`` pairs, letter in ``P``/``N``/``S``,
acting on strand positions ``j`` and ``j + 1`` (0-based, strands run top to
bottom).  Its closure is written as ``.dgm`` text with a rotation line per
crossing, so region-based invariants run on it.  Semiarc ``s<p>_<t>`` is the
``t``-th piece of the strand at position ``p``; the last piece wraps to
``s<p>_0`` through the closure.

Conventions (matching the bundled corpus): at ``P`` the strand entering at
position ``j + 1`` goes over, at ``N`` the one entering at ``j`` goes over,
and at ``S`` the strand entering at ``j`` is ``i1``.  Counterclockwise port
order around a crossing is top-right, top-left, bottom-left, bottom-right.
"""

from __future__ import annotations

import itertools
import math
import random

LETTERS = "PNS"

# The fixed 7-crossing reproduction of the z8_k coloring defect (ROADMAP
# item 1): the search returns 8 colorings, 4 of which break oi == oo.
REPRO_STRANDS = 3
REPRO_WORD = (("P", 1), ("N", 0), ("S", 1), ("P", 0), ("P", 0),
              ("P", 1), ("N", 1))

# Braid family: a fixed pool of BRAID_POOL words on three strands with nine
# crossings, P/N/S in equal numbers, drawn once from BRAID_POOL_SEED; a run
# cycles through the pool in a seeded order.  Fixed sizes and balanced
# letters keep the search cost of one diagram from swinging by orders of
# magnitude, and a run of about one cycle sees nearly the whole pool, so
# its medians do not depend on which diagrams a seed draws.
BRAID_STRANDS = 3
BRAID_CROSSINGS = 9
BRAID_POOL = 256
BRAID_POOL_SEED = 0

# Link family: doubled letters, so each strand closes on itself: one full
# twist between each pair of neighbouring strands, every twist of one sign
# (all P P or all N N).  Every member is a chain of four unknots, and its
# seven ops aggregate 816 colorings, so aggregation dominates.  The
# family is finite (sign times twist order) and the stream runs through all
# of it in a seeded order, once per cycle.  Chains that mix signs are left
# out: on them the singquandle search returns colorings that break a
# crossing (ROADMAP item 1), and every op of the benchmark must succeed.
# (Singular pairs, or a fifth strand, spread coloring counts and costs too
# widely for a steady run.)
LINK_STRANDS = 4
LINK_TWISTS = ("PP", "NN")

_ROTATION = {"P": ("oi", "ui", "oo", "uo"),
             "N": ("ui", "oi", "uo", "oo"),
             "S": ("i2", "i1", "o1", "o2")}


def _covering_positions(rng: random.Random, strands: int, count: int) -> list:
    """``count`` positions in ``0..strands-2`` that use every position at
    least once, so the closure is one connected diagram."""
    positions = list(range(strands - 1))
    positions += [rng.randrange(strands - 1) for _ in range(count - len(positions))]
    rng.shuffle(positions)
    return positions


def braid_word(rng: random.Random) -> tuple:
    """(strands, word) for one random braid of the family's size."""
    letters = list(LETTERS * (BRAID_CROSSINGS // len(LETTERS)))
    rng.shuffle(letters)
    positions = _covering_positions(rng, BRAID_STRANDS, len(letters))
    return BRAID_STRANDS, list(zip(letters, positions))


def braid_pool() -> list:
    """The braid family: BRAID_POOL words drawn from BRAID_POOL_SEED."""
    rng = random.Random(BRAID_POOL_SEED)
    return [braid_word(rng) for _ in range(BRAID_POOL)]


def link_family() -> list:
    """Every (strands, word) of the link family."""
    members = []
    for twist in LINK_TWISTS:
        for positions in itertools.permutations(range(LINK_STRANDS - 1)):
            word = []
            for j in positions:
                word += [(twist[0], j), (twist[1], j)]
            members.append((LINK_STRANDS, word))
    return members


def cycle(members: list, rng: random.Random):
    """Endless stream of ``members``, in a new seeded order each cycle."""
    members = list(members)
    while True:
        rng.shuffle(members)
        yield from members


def closure_text(strands: int, word) -> str:
    """``.dgm`` text of the closure of ``word`` on ``strands`` strands."""
    touches = [0] * strands
    for _, j in word:
        touches[j] += 1
        touches[j + 1] += 1
    if not all(touches):
        raise ValueError("every strand position must meet a crossing")
    step = [0] * strands

    def advance(p):
        label_in = f"s{p}_{step[p]}"
        step[p] += 1
        return label_in, f"s{p}_{step[p] % touches[p]}"

    lines = []
    for letter, j in word:
        a_in, a_out = advance(j)
        b_in, b_out = advance(j + 1)
        if letter == "P":
            ports = (a_in, b_in, b_out, a_out)   # ui oi uo oo
        elif letter == "N":
            ports = (b_in, a_in, a_out, b_out)   # ui oi uo oo
        else:
            ports = (a_in, b_in, a_out, b_out)   # i1 i2 o1 o2
        lines.append(" ".join((letter,) + ports))
    for k, (letter, _) in enumerate(word, start=1):
        lines.append(f"rot {k} " + " ".join(_ROTATION[letter]))
    return "\n".join(lines) + "\n"


# -- affine singquandles ------------------------------------------------------

def affine_params(rng: random.Random, n: int) -> tuple:
    """(a, b, c) with a != 1 invertible mod n and (1-a)(1-b-c) == 0 mod n:
    a, then b, then c drawn among the values that keep the triple valid."""
    units = [a for a in range(2, n) if math.gcd(a, n) == 1]
    a = rng.choice(units)
    b = rng.randrange(n)
    cs = [c for c in range(n) if (1 - a) * (1 - b - c) % n == 0]
    return a, b, rng.choice(cs)


def affine_alg_text(n: int, a: int, b: int, c: int) -> str:
    """``.alg`` text of x*y = ax+(1-a)y, R1 = bx+cy, R2 = acx+[b+c(1-a)]y."""
    return (f"# affine singquandle on Z_{n}, a={a} b={b} c={c}\n"
            "type: singquandle\n"
            f"order: {n}\n"
            f"formula: star {a}x+{(1 - a) % n}y\n"
            f"formula: r1 {b}x+{c}y\n"
            f"formula: r2 {a * c % n}x+{(b + c * (1 - a)) % n}y\n")
