"""Divisor theory on finite vertex-weighted multigraphs.

Chip-firing equivalence, reduced divisors via the burning algorithm,
divisor class rank with an independent cross-checking oracle, and
distinguished representatives (semibalanced, uniform, certified Clifford)
on exact integer arithmetic throughout.

Each module's ``__all__`` is its public surface, and the package exports
their union.  ``chipfire.rank`` is the function; the module is
``importlib.import_module("chipfire.rank")``.
"""

import sys

from .divisors import *
from .enumeration import *
from .errors import *
from .graph import *
from .rank import *
from .reduction import *
from .reps import *

__version__ = "0.1.0"

# by full name, since the star imports bound ``rank`` to the function
__all__ = sorted(
    name
    for module in ("divisors", "enumeration", "errors", "graph", "rank", "reduction", "reps")
    for name in sys.modules[f"{__name__}.{module}"].__all__
)
