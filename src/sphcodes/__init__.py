"""Spherical codes: spoiling operations, bound curves, atlases and packings."""

from .binary import (
    BinaryCode,
    BinaryCodePoint,
    code_parameters,
    embed_binary,
    hamming_distance,
    load_binary_code,
    spoil1_binary,
    spoil2_binary,
    spoil3_binary,
)
from .bounds import (
    BoundCurve,
    ControllingRegions,
    CutoffRegion,
    circle_max_points,
    controlling_quadrangle,
    figure_curves,
    kl_bound,
    rankin_curve,
    simplex_code,
)
from .errors import SphCodesError
from .geometry import Hyperplane, LineThroughOrigin
from .packings import (
    Lattice,
    PeriodicPacking,
    code_density,
    kissing_configuration,
    packing_density,
    shell_code,
    theta_lattice,
    theta_periodic,
)
from .spherical import (
    SphericalCode,
    SphericalCodePoint,
    composite_spoil_down,
    composite_spoil_up,
    find_balanced_line,
    load_spherical_code,
    numerical_spoil,
    spoil1,
    spoil1_lambda,
    spoil2,
    spoil3,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
