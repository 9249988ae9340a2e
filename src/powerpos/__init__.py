"""Eventual coefficient positivity for homogeneous polynomials.

Decides and certifies the three positivity conditions (unit-vector
values, facet derivatives, strict modulus inequality off the rotated
orthant), scans powers p^m * q for all-positive coefficients, and
verifies polynomial spectral radius functions of matrices over
nonnegative-integer-coefficient polynomials.
"""

from .conditions import (PROFILES, Budgets, Condition, ConditionReport,
                         Pos3Mode, Verdict, assoc_bihom_eval, check_pos1,
                         check_pos2, check_pos3, facet_derivative)
from .eventual import (OnsetProof, PositivityPattern, ScanRow, all_coeffs_positive,
                       polya_exponent, power_scan, scan_rows)
from .geometry import (difference_lattice_is_full, is_positive_definite,
                       jf_matrix, newton_affine_dim, smith_invariant_factors)
from .intervals import Interval
from .poly import (MINUS_INFINITY, MultiIndex, ParseError, Polynomial,
                   eval_complex_exact, eval_interval, eval_rational,
                   infer_nvars, integer_terms, monomials_of_degree, parse,
                   serialize)
from .spectral import (BetaReport, BetaVerdict, PolyMatrix, beta_at,
                       charpoly_residual, is_aperiodic, is_irreducible,
                       perron_bounds, verify_beta)

__version__ = "0.1.0"

__all__ = [
    "PROFILES", "Budgets", "Condition", "ConditionReport", "Pos3Mode", "Verdict",
    "assoc_bihom_eval", "check_pos1", "check_pos2", "check_pos3",
    "facet_derivative",
    "OnsetProof", "PositivityPattern", "ScanRow", "all_coeffs_positive",
    "polya_exponent", "power_scan", "scan_rows",
    "difference_lattice_is_full", "is_positive_definite", "jf_matrix",
    "newton_affine_dim", "smith_invariant_factors", "Interval",
    "MINUS_INFINITY", "MultiIndex", "ParseError", "Polynomial",
    "eval_complex_exact", "eval_interval", "eval_rational", "infer_nvars",
    "integer_terms", "monomials_of_degree", "parse", "serialize",
    "BetaReport", "BetaVerdict", "PolyMatrix", "beta_at", "charpoly_residual",
    "is_aperiodic", "is_irreducible", "perron_bounds", "verify_beta",
]
