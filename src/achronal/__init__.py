"""Covariant achronal localization of the massive scalar boson.

Conserved probability currents with causal or stress-energy kernels,
localization probabilities as fluxes through Lipschitz achronal surfaces,
and the causal-logic predicates tying localization to causally complete
spacetime regions.
"""

__version__ = "0.1.0"

from .minkowski import (PoincareElement, boost_z, classify, fourvector,
                        minkowski_product, rotation)
from .grids import MomentumGrid
from .wavepacket import (WavePacket, apply_poincare, energy, inner_product,
                         make_packet)
from .kernels import (CausalKernel, GFunction, TensorKernel, g_basic,
                      gram_min_eigenvalue, kernel_K, kernel_Kn)
from .currents import (CurrentSpec, FastBackend, build_fast, check_causal_pointwise,
                       check_continuity, decay_scan, eval_direct)
from .surfaces import (AchronalSurface, BumpSurface, ConeSurface, FlatSurface,
                       SampledSurface, SurfaceTransformResult, TiltedSurface,
                       flatten, is_spacelike_cauchy)
from .localization import (BallMask, BoxMask, FullMask, HalfSpaceMask, Region,
                           additivity_check, causal_monotonicity_check,
                           covariance_check, flux_invariance_report,
                           matrix_element, probability)
from .causal_logic import (BallInPlane, Diamond, GraphPatch, achronally_separated,
                           completion_equals_determinacy_check,
                           completion_member, determinacy_member,
                           rcl_well_defined_check)
