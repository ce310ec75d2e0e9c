"""Spectral radii of k-uniform hypergraphs.

Two independent computations of the spectral radius (certified tensor
power iteration; exact weighted-incidence labelings), the rewiring
operations that increase it, and exhaustive enumeration of linear
unicyclic hypergraphs up to isomorphism.

The package republishes each module's `__all__`, which is the one list of
its public names.
"""

from .hypergraph import *
from .canonical import *
from .families import *
from .spectral import *
from .alpha_normal import *
from .transforms import *
from .enumeration import *

__version__ = "0.1.0"
