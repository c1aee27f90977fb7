"""Compressed verification for GPV-style post-quantum signatures.

A verifier compresses a large public key once, through a secret
homomorphism, into a small private verification key, then verifies
signatures against the compressed key with a quantified false-accept
probability.  Three instantiations: Rabin-Williams (the warm-up),
Squirrels-shape lattice signatures (via a reconstruction-free modular
CRT), and Wave-shape ternary-code signatures (via a secret projection).
"""

from . import ecrt, f3, modmath, rw, security, serial, squirrels, wave
from .errors import (
    BudgetExceeded,
    CvkError,
    DimensionMismatch,
    MalformedSignature,
    NotInvertible,
    ResampleLimit,
    SharedFactor,
)
from .opcount import OpCounter

__all__ = [
    "BudgetExceeded",
    "CvkError",
    "DimensionMismatch",
    "MalformedSignature",
    "NotInvertible",
    "OpCounter",
    "ResampleLimit",
    "SharedFactor",
    "ecrt",
    "f3",
    "modmath",
    "rw",
    "security",
    "serial",
    "squirrels",
    "wave",
]

__version__ = "0.1.0"
