"""Spectral radii of k-uniform hypergraphs.

Two independent computations of the spectral radius (certified tensor
power iteration; exact weighted-incidence labelings), the rewiring
operations that increase it, and exhaustive enumeration of linear
unicyclic hypergraphs up to isomorphism.

The package republishes each module's `__all__`, which is the one list of
its public names.  It imports the modules, and numpy with them, only when
one of those names is first used (PEP 562), so `hyperspec.cli` can set up
the process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("hypergraph", "canonical", "families", "spectral", "alpha_normal",
            "transforms", "enumeration")


def __getattr__(name: str):
    """`__all__` joins the modules' `__all__` lists; a public name comes from
    the first module whose `__all__` holds it.  Either is bound here once."""
    modules = [importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
    if name == "__all__":
        value = [public for module in modules for public in module.__all__]
    else:
        holder = next((module for module in modules if name in module.__all__), None)
        if holder is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(holder, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
