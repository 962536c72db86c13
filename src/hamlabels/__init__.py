"""Hamiltonian cycles on finite abelian groups, classified by the sets of
consecutive-vertex sums and differences along the cycle.

The package constructs extremal cycles, enumerates and counts exactly,
evaluates expected distinct-label counts in exact rational arithmetic,
and verifies every structural claim it relies on at desk scale.

It re-exports the ``__all__`` of each library module, so every public
name of those modules is importable from ``hamlabels`` itself.
"""

from . import constructions, expectation, groups, search, trails, verify
from .constructions import *  # noqa: F403
from .expectation import *  # noqa: F403
from .groups import *  # noqa: F403
from .search import *  # noqa: F403
from .trails import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = [
    *constructions.__all__,
    *expectation.__all__,
    *groups.__all__,
    *search.__all__,
    *trails.__all__,
    *verify.__all__,
]

__version__ = "0.1.0"
