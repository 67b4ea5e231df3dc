"""Reference values that ``singq corpus`` recomputes.

``SPECS`` rows are ``(group, name, kind, diagram, structure, weights,
expected)``, computed as ``singq invariant <kind>`` computes them; a
structure ``"<file> base"`` names the base singquandle of a shadow file.
``SKIPPED`` rows ``(diagram, psy-count, boltzmann-1)`` give reference
values whose diagrams are not bundled.  The tables are data alone, kept
out of :mod:`singq.cli` so that only ``singq corpus`` compiles them.
"""

_Z6, _Z8K, _PSY = "z6_singquandle.alg", "z8_k.alg", "psy6.alg"
_SHADOW = "z8_z6_shadow.alg"
_BASE = _SHADOW + " base"

SPECS = [
    ("z6", "5k6 count", "count", "5k6.dgm", _Z6, None, "6"),
    ("z6", "5k7 count", "count", "5k7.dgm", _Z6, None, "6"),
    ("z6", "5k6 state-sum", "state-sum", "5k6.dgm", _Z6, "z6_cocycle.wgt",
     "6u^3"),
    ("z6", "5k7 state-sum", "state-sum", "5k7.dgm", _Z6, "z6_cocycle.wgt",
     "6"),
    ("z8k", "k1 count", "count", "k1.dgm", _Z8K, None, "8"),
    ("z8k", "k2 count", "count", "k2.dgm", _Z8K, None, "8"),
    ("z8k", "k1 phi-ssqp", "phi-ssqp", "k1.dgm", _Z8K, None,
     "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{2 s1^4 s2^2 s3 t1^4 t2^2 t3}"),
    ("z8k", "k2 phi-ssqp", "phi-ssqp", "k2.dgm", _Z8K, None,
     "4u^{s1^4 s2^2 s3 t1^4 t2^2 t3} + 4u^{4 s1^4 s3 t1^4 t3}"),
    ("shadow", "sp a", "sp", None, "z8_z4_shadow_a.alg", None, "4t^4"),
    ("shadow", "sp b", "sp", None, "z8_z4_shadow_b.alg", None, "2t^8 + 2"),
] + [
    row for name in ("4_1k", "5_4k") for row in (
        ("shadow", f"{name} count", "count", f"{name}.dgm", _BASE, None, "16"),
        ("shadow", f"{name} shadow-count", "shadow-count", f"{name}.dgm",
         _SHADOW, None, "96"),
        ("shadow", f"{name} phi-ssqp", "phi-ssqp", f"{name}.dgm", _BASE, None,
         "4u^{s1^2 s2^2 s3 t1^2 t2^2 t3} + 4u^{2 s1^2 s2^2 s3 t1^2 t2^2 t3}"
         " + 8u^{4 s1^2 s2^2 s3 t1^2 t2^2 t3}"))
] + [
    ("shadow", "4_1k SP", "SP", "4_1k.dgm", _SHADOW, None,
     "24u^{t^2} + 24u^{t} + 48u^{2}"),
    ("shadow", "5_4k SP", "SP", "5_4k.dgm", _SHADOW, None,
     "48u^{t^4} + 24u^{t^2} + 24u^{t}"),
    ("bouquet", "1l1 psy-count", "psy-count", "1l1.dgm", _PSY, None, "24"),
    ("bouquet", "1l1 boltzmann-1", "boltzmann-1", "1l1.dgm", _PSY,
     "psy6_boltzmann.wgt", "6 + 18w"),
]

SKIPPED = [
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
