"""mzvkit: exact and numeric tooling around multiple zeta values.

Word algebras with the harmonic and shuffle products, exact rational
evaluation of truncated and discretized nested sums, regularization
polynomials in T, high-precision numeric limits, and verification campaigns
for the double-shuffle family of identities.
"""

from .algebra import (
    EMPTY_WORD,
    Index,
    LinComb,
    Word,
    admissible_indices_up_to,
    as_index,
    harmonic,
    index_of_word,
    indices_of_weight,
    indices_up_to_weight,
    shuffle,
    word_of_index,
)
from .errors import CapExceededError, DomainError
from .finite_sums import (
    ConstraintChain,
    RArgs,
    Rational,
    Step,
    boundary_overlap_sum,
    brute_force,
    diagonal_overlap_sum,
    diagonal_terms,
    evaluate_chain,
    r_value,
    zeta_flat,
    zeta_lt,
    zeta_natural,
    zn_apply,
)
from .numeric import (
    RateFit,
    Real,
    euler_gamma,
    eval_reg_polynomial,
    fit_log_rate,
    li_value,
    mzv,
)
from .regularization import (
    RegPolynomial,
    poly_mul,
    reconstruct,
    reg_shuffle,
    reg_star,
    shuffle_decompose,
    star_decompose,
    z_shuffle_polynomial,
    z_star_polynomial,
)
from .verification import CampaignConfig, Report, run_all

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CapExceededError",
    "ConstraintChain",
    "DomainError",
    "EMPTY_WORD",
    "Index",
    "LinComb",
    "RArgs",
    "RateFit",
    "Rational",
    "Real",
    "RegPolynomial",
    "Report",
    "Step",
    "Word",
    "admissible_indices_up_to",
    "as_index",
    "boundary_overlap_sum",
    "brute_force",
    "diagonal_overlap_sum",
    "diagonal_terms",
    "euler_gamma",
    "eval_reg_polynomial",
    "evaluate_chain",
    "fit_log_rate",
    "harmonic",
    "index_of_word",
    "indices_of_weight",
    "indices_up_to_weight",
    "li_value",
    "mzv",
    "poly_mul",
    "r_value",
    "reconstruct",
    "reg_shuffle",
    "reg_star",
    "run_all",
    "shuffle",
    "shuffle_decompose",
    "star_decompose",
    "word_of_index",
    "z_shuffle_polynomial",
    "z_star_polynomial",
    "zeta_flat",
    "zeta_lt",
    "zeta_natural",
    "zn_apply",
]
