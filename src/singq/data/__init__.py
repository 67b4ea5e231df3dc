"""Bundled fixture structures and corpus diagrams.

Fixtures are algebra (.alg) and weight (.wgt) files; the corpus holds
diagram (.dgm) transcriptions of singular knots.  Loaders return parsed
objects, and :func:`read_bundled` the UTF-8 text of a bundled file.  Files
are read through this package's loader, so they read the same from a
directory and from a zip archive, and each loader imports only its own
parser.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..algebra import LoadedAlgebra
    from ..diagram import SingularDiagram

# not made absolute: a zip's loader takes paths that begin with its archive
# as named on sys.path
_ROOT = os.path.dirname(__file__)


def read_bundled(name: str) -> str:
    """The UTF-8 text of the bundled file ``name``: a corpus diagram for
    ``.dgm``, otherwise a fixture.  OSError if there is none."""
    subdir = "corpus" if name.endswith(".dgm") else "fixtures"
    path = os.path.join(_ROOT, subdir, name)
    return __spec__.loader.get_data(path).decode("utf-8")


def _names(subdir: str, suffixes: tuple) -> list:
    from importlib.resources import files
    return sorted(entry.name
                  for entry in files(__name__).joinpath(subdir).iterdir()
                  if entry.name.endswith(suffixes))


def fixture_names() -> list:
    return _names("fixtures", (".alg", ".wgt"))


def corpus_names() -> list:
    return _names("corpus", (".dgm",))


def load_algebra(name: str) -> LoadedAlgebra:
    from ..algebra import parse_algebra
    return parse_algebra(read_bundled(name))


def load_weights(name: str):
    from ..invariants import parse_weights
    return parse_weights(read_bundled(name))


def load_diagram(name: str) -> SingularDiagram:
    from ..diagram import parse_diagram
    return parse_diagram(read_bundled(name))
