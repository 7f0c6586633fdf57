"""
Exact computations in the two models of the irreducible representation of
the symmetric group on 2n letters labeled by the 2 x n rectangle: the
polytabloid model built from tableaux and the web model built from
noncrossing perfect matchings.  The package constructs both bases,
computes the transition matrix between them in canonical order, one
generator step per row (the crossing rewrite of the columns of each
tableau is kept as the reference), and verifies exactly, in integer
arithmetic, that the matrix is unitriangular with nonnegative integer
entries, cross-checked by an intertwiner computation that shares only
the enumerations and the web action table with the build.
"""

from .combinat import (
    Matching,
    Tableau,
    catalan,
    consecutive_matching,
    crossing_pairs,
    enumerate_syt,
    enumerate_webs,
    interleaved_tableau,
    tableau_to_web,
)
from .transition import (
    TransitionMatrix,
    intertwiner_oracle,
    transition_matrix,
    transition_row,
    verify,
)

__all__ = [
    "Matching",
    "Tableau",
    "TransitionMatrix",
    "catalan",
    "consecutive_matching",
    "crossing_pairs",
    "enumerate_syt",
    "enumerate_webs",
    "interleaved_tableau",
    "intertwiner_oracle",
    "tableau_to_web",
    "transition_matrix",
    "transition_row",
    "verify",
]

__version__ = "0.1.0"
