"""Exact mutation calculus for cluster structures knitted from terminal
quiver data: translation-quiver models, seeds and their trackers, the
explicit path from T_M to its dual, shuffle-algebra Euler characteristics
and type-A minor identifications.

Submodules load on first attribute access (PEP 562), so a process pays
only for the modules it uses."""

import importlib

__all__ = [
    "cli",
    "cluster",
    "errors",
    "euler",
    "exchange",
    "labels",
    "laurent",
    "mesh",
    "minors",
    "packing",
    "quiver",
    "reference",
    "rigidpath",
    "seedtext",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
