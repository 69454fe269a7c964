"""Convolution inverses of lattice filters, with certificates, and the
cardinal-spline interpolation kernels built from them."""

from .errors import (
    MathError,
    NotInvertibleError,
    SingularSymbolError,
    TailBoundError,
    ToleranceUnreachableError,
    WrongBranchError,
)
from .inversion import (
    DecayReport,
    ExactInverse1D,
    SlowGrowthSeq,
    decay_fit,
    invert_exact_1d,
    invert_singular_1d,
    invert_stable,
    residual_sup,
    toeplitz_oracle,
)
from .lattice import (
    Box,
    Filter,
    convolve,
    delta_shift,
    filter_from_json,
    filter_to_json,
    kronecker,
    sup_difference,
    weighted_norm,
)
from .spectrum import (
    DerivativeGrowth,
    ModulusCertificate,
    derivative_growth,
    lemma_bound_check,
    min_modulus_certified,
    symbol_eval,
)
from .splines import (
    Generator,
    LagrangeKernel,
    amalgam_norm,
    bspline_generator,
    bspline_samples,
    bspline_value,
    generator_from_json,
    green_power_generator,
    interpolate,
    kernel_to_csv,
    lagrange_kernel_fourier,
    lagrange_kernel_space,
    reproduction_check,
)
from .weights import (
    GrsEstimate,
    Weight,
    custom_weight,
    exponential_weight,
    extended_grs,
    grs_limit,
    polynomial_weight,
    submultiplicative_check,
    subexponential_weight,
    weight_from_json,
    weight_to_json,
)

__version__ = "0.1.0"
