"""Exact verification toolkit for the two-vertex quiver.

Orbit combinatorics, Euler characteristics of flag fibres (integer counts at
q = 1), the monomial expansion relating canonical stalk functions to generic
values on conormal components, a symbolic variable-separation certificate
for the chart trace functions, and exact second-order geometry and
w-regularity checks, all over the integers and rationals; nothing here uses
floats.
"""

from .core import (ConormalComponent, DimVector, Orbit, PiModClass,
                   dual_orbit, enumerate_orbits, orbit_dim,
                   representative_pair, sign_parity)

__version__ = "0.1.0"

__all__ = [
    "ConormalComponent",
    "DimVector",
    "Orbit",
    "PiModClass",
    "dual_orbit",
    "enumerate_orbits",
    "orbit_dim",
    "representative_pair",
    "sign_parity",
    "__version__",
]
