"""Bundled fixture structures and corpus diagrams.

Fixtures are algebra (.alg) and weight (.wgt) files; the corpus holds
diagram (.dgm) transcriptions of singular knots.  Loaders return parsed
objects, and :func:`bundled_path` the path of a bundled file as a string.
Files are found next to this module, and each loader imports only its own
parser.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..algebra import LoadedAlgebra
    from ..diagram import SingularDiagram

_ROOT = os.path.dirname(os.path.abspath(__file__))


def bundled_path(name: str) -> str:
    """Path of the bundled file ``name``: a corpus diagram for ``.dgm``,
    otherwise a fixture."""
    subdir = "corpus" if name.endswith(".dgm") else "fixtures"
    return os.path.join(_ROOT, subdir, name)


def _names(subdir: str, suffixes: tuple) -> list:
    return sorted(name for name in os.listdir(os.path.join(_ROOT, subdir))
                  if name.endswith(suffixes))


def fixture_names() -> list:
    return _names("fixtures", (".alg", ".wgt"))


def corpus_names() -> list:
    return _names("corpus", (".dgm",))


def _read(name: str) -> str:
    with open(bundled_path(name), encoding="utf-8") as fh:
        return fh.read()


def load_algebra(name: str) -> LoadedAlgebra:
    from ..algebra import parse_algebra
    return parse_algebra(_read(name))


def load_weights(name: str):
    from ..invariants import parse_weights
    return parse_weights(_read(name))


def load_diagram(name: str) -> SingularDiagram:
    from ..diagram import parse_diagram
    return parse_diagram(_read(name))
