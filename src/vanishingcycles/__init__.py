"""Vanishing-cycle workbench for smooth curves on toric surfaces.

Input: a convex lattice polygon with a 2-dimensional adjoint.  From it the
package builds the combinatorial model of the associated smooth curve, the
network of distinguished simple closed curves on it, and the invariant
mod-r spin structure, and decides whether the classification applies
(``verify``).  The ``relations`` and ``orbits`` commands run the exact
model layer: twist relations on homology, mod-2 quadratic forms and their
stabilizers, and the exterior-cube span closure.
"""

from .lattice import (
    Polygon,
    convex_hull,
    genus,
    adjoint,
    adjoint_divisibility,
    is_hyperelliptic,
    canonical_form,
    UnimodularMap,
)

__all__ = [
    "Polygon",
    "convex_hull",
    "genus",
    "adjoint",
    "adjoint_divisibility",
    "is_hyperelliptic",
    "canonical_form",
    "UnimodularMap",
]

__version__ = "0.1.0"
