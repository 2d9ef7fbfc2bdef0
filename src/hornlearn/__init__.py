"""Definite Horn formulas: closure operators, canonical bases, and exact
learning from queries.

The package splits into small layers: :mod:`hornlearn.core` holds the
formula types and semantic operations, :mod:`hornlearn.basis` the saturation
pipeline for the canonical (Guigues-Duquenne) basis, :mod:`hornlearn.oracles`
the query-answering teachers, :mod:`hornlearn.learners` the exact learning
algorithms, :mod:`hornlearn.reductions` the protocol-simulation adapters,
:mod:`hornlearn.generate` random targets and worked examples, and
:mod:`hornlearn.formats` / :mod:`hornlearn.cli` the text format and command
line front end.

Each submodule's ``__all__`` is the one list of its public names.  The
package star-imports the seven of them, and its ``__all__`` is their union.
"""

from . import basis, core, formats, generate, learners, oracles, reductions
from .basis import *
from .core import *
from .formats import *
from .generate import *
from .learners import *
from .oracles import *
from .reductions import *

__all__ = (
    basis.__all__
    + core.__all__
    + formats.__all__
    + generate.__all__
    + learners.__all__
    + oracles.__all__
    + reductions.__all__
)

__version__ = "0.1.0"
