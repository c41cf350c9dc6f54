"""Deformed Hankel transform numerics and Titchmarsh-type verification."""

from .modulus import (IndexEstimate, ModulusSpec, MonotonicityCertificate,
                      build_W_omega, check_almost_monotone, estimate_indices,
                      make_family, parse_family, zygmund_Z0_constant,
                      zygmund_Z1_constant)
from .quadrature import (WeightedGrid, build_graded_grid, build_weighted_grid,
                         weighted_norm)
from .specfun import (KernelParams, PreconditionError, bessel_j_normalized,
                      gamma, kernel_B)
from .titchmarsh import (SynthesisSpec, VerificationReport, dyadic_h_grid,
                         make_resolved_grids, make_tail_grid,
                         synthesize_from_tail, verify_equivalence,
                         verify_fourier_Lnu, verify_inclusion_Womega,
                         verify_main1_part1, verify_main1_part2, verify_main2)
from .transform import (FunctionSpec, SpectralData, diff_norms, forward,
                        inverse, tail_energy)

__all__ = [
    "FunctionSpec", "IndexEstimate", "KernelParams", "ModulusSpec",
    "MonotonicityCertificate", "PreconditionError", "SpectralData",
    "SynthesisSpec", "VerificationReport", "WeightedGrid",
    "bessel_j_normalized", "build_W_omega", "build_graded_grid",
    "build_weighted_grid", "check_almost_monotone", "diff_norms",
    "dyadic_h_grid", "estimate_indices", "forward", "gamma",
    "inverse", "kernel_B", "make_family", "make_resolved_grids",
    "make_tail_grid", "parse_family", "synthesize_from_tail", "tail_energy",
    "verify_equivalence", "verify_fourier_Lnu",
    "verify_inclusion_Womega", "verify_main1_part1", "verify_main1_part2",
    "verify_main2", "weighted_norm", "zygmund_Z0_constant",
    "zygmund_Z1_constant",
]

__version__ = "0.1.0"
