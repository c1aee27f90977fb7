"""Operation counters for the verify / cverify cost comparison.

Cycle counts are machine-specific; word-multiplication and reduction
tallies are not, so the speedup claims are stated (and tested) in terms
of these counters.
"""

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tallies of word multiplications and modular reductions.

    The congruence/product phase of each verifier reports its work here;
    hashing and norm/weight gates are common to both paths and excluded.
    """

    word_muls: int = 0
    reductions: int = 0

    def add(self, muls: int = 0, reductions: int = 0) -> None:
        self.word_muls += muls
        self.reductions += reductions
