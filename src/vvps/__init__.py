"""Numerical workbench for vector-valued Poincare series on the upper
half-plane: group actions and coset enumeration, unitary multiplier
systems and representations, two seed families, truncated series with tail
reporting, Fourier and elliptic expansions, Petersson pairings with
closed-form cross-checks, and median-based non-vanishing criteria."""

from .errors import DomainError, RefusalError
from .modgroup import (CosetTable, GroupSpec, I2, IntMatrix2, S, T, contains,
                       cusp_width, enumerate_cosets, right_coset_reps,
                       slash_kernel, t_power)
from .multiplier import MultiplierSystem, check_consistency, evaluate_v
from .rep import (RepSpec, SpectralSplit, check_normal, dirichlet_rep,
                  evaluate_rho, induce, permutation_ell, spectral_split,
                  st_rep, trivial_rep)
from .seeds import ClassicalSeed, EllipticSeed, SeedFn, seed_strip_integral
from .series import (SeriesHandle, build_series, check_seed_invariance,
                     check_transformation, slash)
from .analysis import (FourierTable, QuadratureSpec,
                       classical_pairing_closed_form, domain_share,
                       elliptic_expansion_coeffs, elliptic_pairing_closed_form,
                       fourier_coefficients, petersson_pair_full,
                       petersson_strip)
from .nonvanish import (CriterionReport, beta_median, classical_criterion,
                        elliptic_criterion, find_radius, gamma_median,
                        region_test_a, region_test_c,
                        regularized_incomplete_beta,
                        regularized_incomplete_gamma)

__version__ = "0.1.0"
