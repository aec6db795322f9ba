"""Isoperimetric profiles of real projective spaces.

Computes the candidate isoperimetric profile of RP^(n+1) as the lower
envelope of tube perimeter-volume curves over totally geodesic cores
RP^k, verifies the successive handoff of optimal core dimensions, checks
spectral stability of the Clifford tube boundaries against the
closed-form latitude interval, and evaluates Willmore tube energies
against the balanced minimal Clifford area.

The public names are each module's __all__, re-exported here.
"""

from . import clifford, profile, specfn, spectrum, willmore
from .clifford import *  # noqa: F403
from .profile import *  # noqa: F403
from .specfn import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .willmore import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *clifford.__all__,
    *profile.__all__,
    *specfn.__all__,
    *spectrum.__all__,
    *willmore.__all__,
    "__version__",
]
