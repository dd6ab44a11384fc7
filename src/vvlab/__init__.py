"""Numerical laboratory for the vanishing-viscosity limit of 2D incompressible flow.

Subpackages cover the pseudo-spectral vorticity solver, Biot-Savart velocity
reconstruction, Wasserstein/H^-1 error metrics with sign splitting, the
stochastic particle coupling and its cost Q(t), the Osgood-type differential
inequality machinery, and a reproducible experiment harness.
"""

from vvlab.fields import (
    Grid2D,
    ScalarField2D,
    VectorField2D,
    NormReport,
    norms,
    hm1_norm,
)
from vvlab.initial_data import make_initial_data

__all__ = [
    "Grid2D",
    "ScalarField2D",
    "VectorField2D",
    "NormReport",
    "norms",
    "hm1_norm",
    "make_initial_data",
]

__version__ = "0.1.0"
