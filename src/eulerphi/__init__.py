"""Euler totients of polynomial Euler products.

The generalized totient phi(n, F) attached to a degree-d Euler product F is
studied through its summatory error term E(x), the exact decomposition
E2(x) = x f1(x) + g1(x)/2 of the symmetrized error, and the Volterra-type
integral equation that the decomposition solves.

Layout:
    products  product specs, Dirichlet characters, the constants C(F), A1, A2
    coeffs    coefficient/totient tables, error terms, growth and series scans
    decomp    sawtooth series f1, fractional-part series g1, the identity
    volterra  grid functions, equation residuals, solving from E2 alone
    cli       batch command-line front-end (``eulerphi ...``)
"""

__version__ = "0.1.0"

from .errors import (
    AnchorOutOfRange,
    BadGrid,
    BadModulus,
    BadProductSpec,
    CacheMismatch,
    CutoffTooSmall,
    DegreeNotMinimal,
    EulerphiError,
    IoError,
    MBeyondTable,
    ModeUnavailable,
    MSmallerThanX,
    NonMultiplicative,
    NonPositiveX,
    NotHomogeneous,
    NotIntegrableNearZero,
    NotPrime,
    OutOfMemory,
    PrecisionUnreachable,
    PrincipalCharacter,
    RootOutOfDisk,
    SOutOfRange,
    UsageError,
    WrongSupport,
    XBelowN,
    XBelowOne,
    XBeyondGrid,
    XBeyondTable,
)
from .products import (
    CharacterSpec,
    Constants,
    EulerProductSpec,
    ValueWithBound,
    a1_constant,
    build_character,
    c_constant,
    compute_constants,
    custom_product,
    dirichlet_product,
    gamma,
    gamma_abs_bound,
    kronecker_symbol,
    l_value,
    load_spec_file,
    local_factor_at_one,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    zeta_product,
)
from .coeffs import (
    CoefficientTable,
    GrowthScanReport,
    SeriesCheckReport,
    TotientTable,
    cache_path,
    error_term,
    growth_scan,
    load_table,
    make_e2,
    partial_sum_phi,
    phi_direct,
    phi_table,
    save_table,
    series_identity_check,
    sieve_alpha,
)
from .decomp import (
    DecompositionReport,
    F1OneSided,
    decompose,
    decompose_batch,
    f1_closed,
    f1_one_sided,
    f1_series,
    f1_series_raw,
    f1_values,
    frac_integral,
    g1,
    r_function,
    sawtooth,
    verify_identity_batch,
)
from .volterra import (
    GridFunction,
    ResidualReport,
    SolutionFamily,
    grid_function,
    homogeneous_probe,
    improper_integral,
    make_grid,
    residual,
    solution_family,
    solve_from_e2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
