"""Independent checks of singq outputs.

Nothing here calls ``singq.coloring``: colorings are checked crossing by
crossing against the operation tables, and the expected colorings of a
closed braid are the fixed points of the braid's action on X^strands,
computed from the braid word alone.
"""

from __future__ import annotations

from itertools import product


def singquandle_tables(s) -> dict:
    """Plain lists of the tables of an oriented singquandle."""
    star = [list(r) for r in s.star.rows]
    n = len(star)
    star_inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            star_inv[star[x][y]][y] = x
    return {"kind": "singquandle", "n": n, "star": star, "star_inv": star_inv,
            "r1": [list(r) for r in s.r1.rows], "r2": [list(r) for r in s.r2.rows]}


def psyquandle_tables(p) -> dict:
    """Plain lists of the tables of a psyquandle, plus the inverse of the
    crossing map S(x, y) = (y ot x, x ut y) used at negative crossings."""
    ut, ot, ub, ob = ([list(r) for r in t.rows] for t in (p.ut, p.ot, p.ub, p.ob))
    n = len(ut)
    s_inv = {(ot[y][x], ut[x][y]): (x, y) for x in range(n) for y in range(n)}
    return {"kind": "psyquandle", "n": n, "ut": ut, "ot": ot, "ub": ub,
            "ob": ob, "s_inv": s_inv}


def _crossing_indices(diagram) -> list:
    index = {a.label: i for i, a in enumerate(diagram.semiarcs)}
    return [(c.kind, tuple(index[c.arcs[p]] for p in c.ports))
            for c in diagram.crossings]


def _satisfies(t: dict, kind: str, ports: tuple, col) -> bool:
    a, b, c, d = (col[i] for i in ports)
    if t["kind"] == "singquandle":
        if kind == "P":    # ui oi uo oo
            return d == b and c == t["star"][a][b]
        if kind == "N":
            return d == b and t["star"][c][b] == a
        return c == t["r1"][a][b] and d == t["r2"][a][b]   # i1 i2 o1 o2
    if kind == "P":
        return d == t["ot"][b][a] and c == t["ut"][a][b]
    if kind == "N":
        return b == t["ot"][d][c] and a == t["ut"][c][d]
    return c == t["ob"][b][a] and d == t["ub"][a][b]


def bad_colorings(diagram, tables: dict, colorings) -> int:
    """Number of colorings (tuples in diagram semiarc order) that break at
    least one crossing relation."""
    crossings = _crossing_indices(diagram)
    return sum(1 for col in colorings
               if not all(_satisfies(tables, k, p, col) for k, p in crossings))


def _step(t: dict, letter: str, a: int, b: int) -> tuple:
    """New colors at positions (j, j+1) after one letter, given the colors
    (a, b) entering at those positions."""
    if t["kind"] == "singquandle":
        if letter == "P":
            return b, t["star"][a][b]
        if letter == "N":
            return t["star_inv"][b][a], a
        return t["r1"][a][b], t["r2"][a][b]
    if letter == "P":
        return t["ot"][b][a], t["ut"][a][b]
    if letter == "N":
        uo, oo = t["s_inv"][(a, b)]
        return uo, oo
    return t["ob"][b][a], t["ub"][a][b]


def braid_colorings(strands: int, word, tables: dict, labels: list) -> list:
    """All colorings of the closure of ``word``, as sorted tuples ordered
    like ``labels`` (the diagram's semiarc labels).

    Semiarc ``s<p>_<t>`` carries the color at position ``p`` after the
    ``t``-th letter touching ``p``, wrapped through the closure.  Every one
    of the n^strands starting colors is pushed through the word; the fixed
    points are the colorings.
    """
    n = tables["n"]
    touches = [0] * strands
    for _, j in word:
        touches[j] += 1
        touches[j + 1] += 1
    position = {label: i for i, label in enumerate(labels)}
    step = [0] * strands
    letters = []    # (j, pair table, semiarc index of each output)
    for letter, j in word:
        outs = []
        for p in (j, j + 1):
            step[p] += 1
            outs.append(position[f"s{p}_{step[p] % touches[p]}"])
        table = [_step(tables, letter, a, b) for a in range(n) for b in range(n)]
        letters.append((j, table, outs))
    found = []
    for start in product(range(n), repeat=strands):
        x = list(start)
        col = [0] * len(labels)
        for j, table, (out_a, out_b) in letters:
            x[j], x[j + 1] = col[out_a], col[out_b] = table[x[j] * n + x[j + 1]]
        if tuple(x) == start:
            found.append(tuple(col))
    return sorted(found)
