"""Compressed verification for GPV-style post-quantum signatures.

A verifier compresses a large public key once, through a secret
homomorphism, into a small private verification key, then verifies
signatures against the compressed key with a quantified false-accept
probability.  Three instantiations: Rabin-Williams (the warm-up),
Squirrels-shape lattice signatures (via a reconstruction-free modular
CRT), and Wave-shape ternary-code signatures (via a secret projection).

Importing the package runs only ``errors``; each submodule in
``__all__`` loads on first access (``cvk.squirrels``, ``from cvk import
wave``), so a process pays only for the scheme it uses.  ``OpCounter``
is imported from ``cvk.opcount``.
"""

import sys

from .errors import (
    BudgetExceeded,
    CvkError,
    DimensionMismatch,
    MalformedSignature,
    NotInvertible,
    ResampleLimit,
    SharedFactor,
)

_SUBMODULES = ("ecrt", "f3", "modmath", "rw", "security", "serial", "squirrels", "wave")

__all__ = [
    "BudgetExceeded",
    "CvkError",
    "DimensionMismatch",
    "MalformedSignature",
    "NotInvertible",
    "ResampleLimit",
    "SharedFactor",
    *_SUBMODULES,
]

__version__ = "0.1.0"


def _submodule(name: str):
    """``cvk.<name>``, run once: ``__import__`` makes a second thread wait
    for the first to finish the module, so no caller sees it half-run.
    Unlike ``importlib.import_module``, it also shows the load to
    ``python -X importtime``."""
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LazyModule:
    """A stand-in for a submodule that loads it on first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(_submodule(self._name), attr)
