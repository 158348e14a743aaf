"""Winning by losing: wheel games and their quantum counterparts.

Three game families share the same punchline, that mixing losing moves at
random can produce a winning game: rotating-wheel games analysed exactly on
Z_M, a guessing game against an unreliable phase oracle, and a stopping game
over random reflection sequences that reduces to amplitude amplification.
"""

from . import bv, grover, kernels, ring, statevec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bv",
    "grover",
    "kernels",
    "ring",
    "statevec",
]
