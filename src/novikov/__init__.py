"""Twisted cohomology of simplicial complexes carrying a closed 1-cocycle.

The package computes the cohomology of rank-one local systems whose edge
weights are powers lambda**theta(e) of a monodromy parameter, in exact
rational / number field arithmetic or complex floats, together with the
Wang-sequence calculus for fiber bundles over a circle, a discrete Hodge
decomposition, and the comparison-geometry constants that control these
dimensions on curved spaces.
"""

from .bounds import (
    ProductValue,
    b_n,
    b_n_detail,
    bc_limit_check,
    c_of_b,
    small_b_limit,
    wallis,
)
from .cocycles import (
    OneCocycle,
    ZeroCochain,
    coboundary_of,
    gauge_transform,
    holonomy,
    is_exact,
    validate_closed,
    zero_cocycle,
)
from .complexes import (
    SimplicialComplex,
    circle,
    euler_characteristic,
    path_complex,
    point,
    sphere_boundary,
)
from .constructions import (
    CoveringData,
    MappingTorus,
    ProductComplex,
    SimplicialMap,
    cyclic_cover,
    mapping_torus,
    product,
    torus_grid,
    torus_grid_map,
)
from .errors import (
    BackendMismatchError,
    ConstructionError,
    IncompleteCocycleError,
    InvalidLoopError,
    InvalidMapError,
    NovikovError,
    NumericalError,
    ReducibilityError,
)
from .hodge import (
    HodgeParts,
    InnerProduct,
    harmonic_dim,
    harmonic_representative,
    hodge_decompose,
    laplacian_spectrum,
    spectral_gap,
)
from .scalars import (
    Matrix,
    MinimalPolynomial,
    NumberFieldElement,
    parse_scalar,
    scalar_literal,
)
from .serialization import (
    complex_from_json,
    complex_to_json,
    load_action,
    load_complex,
    save_complex,
)
from .twisted import (
    BettiProfile,
    betti_profile,
    kunneth_check,
    twisted_coboundary,
)
from .verify import SUITES, run_suite
from .wang import FiberCohomologyAction, WangProfile, induced_action, wang_dims

__version__ = "0.1.0"

__all__ = [
    "BackendMismatchError",
    "BettiProfile",
    "ConstructionError",
    "CoveringData",
    "FiberCohomologyAction",
    "HodgeParts",
    "IncompleteCocycleError",
    "InnerProduct",
    "InvalidLoopError",
    "InvalidMapError",
    "MappingTorus",
    "Matrix",
    "MinimalPolynomial",
    "NovikovError",
    "NumberFieldElement",
    "NumericalError",
    "OneCocycle",
    "ProductComplex",
    "ProductValue",
    "ReducibilityError",
    "SUITES",
    "SimplicialComplex",
    "SimplicialMap",
    "WangProfile",
    "ZeroCochain",
    "b_n",
    "b_n_detail",
    "bc_limit_check",
    "betti_profile",
    "c_of_b",
    "circle",
    "coboundary_of",
    "complex_from_json",
    "complex_to_json",
    "cyclic_cover",
    "euler_characteristic",
    "gauge_transform",
    "harmonic_dim",
    "harmonic_representative",
    "hodge_decompose",
    "holonomy",
    "induced_action",
    "is_exact",
    "kunneth_check",
    "laplacian_spectrum",
    "load_action",
    "load_complex",
    "mapping_torus",
    "parse_scalar",
    "path_complex",
    "point",
    "product",
    "run_suite",
    "save_complex",
    "scalar_literal",
    "small_b_limit",
    "spectral_gap",
    "sphere_boundary",
    "torus_grid",
    "torus_grid_map",
    "twisted_coboundary",
    "validate_closed",
    "wallis",
    "wang_dims",
    "zero_cocycle",
]
