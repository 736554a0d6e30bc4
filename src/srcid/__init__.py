"""srcid: verification of subset-sum source identities and their determinant forms.

The package evaluates the paired multivariable sums F and G (rational,
trigonometric, and elliptic variants), their denominator-cleared
polynomial versions, difference-operator rewrites, and a family of
determinant representations, then checks every identity, specialization
lemma, degeneration limit, and combinatorial formula at seeded random
points: bit-exactly over the rationals, to stated tolerances over the
complex field.
"""

from .fields import COMPLEX, EXACT, ComplexField, ExactField, get_field
from .qseries import (
    DEFAULT_TRUNCATION,
    Truncation,
    psi_A,
    q_binomial,
    q_factorial,
    q_int,
    qpoch_inf,
    qpoch_n,
    sym_q_factorial,
    sym_q_number,
    theta,
)
from .linalg import (
    cauchy_vandermonde_closed,
    cauchy_vandermonde_matrix,
    det,
    det_complex,
    det_exact,
    elliptic_vandermonde_sides,
    frobenius_closed,
    frobenius_matrix,
)
from .sources import (
    EllipticParams,
    RatParams,
    SizeCapError,
    TrigParams,
    apply_difference_product,
    source_polynomial_form,
    source_subset_sum,
    source_via_difference_ops,
)
from .detreps import AuxParams, build_dwbc_matrix, det_rep, izergin_korepin
from .symmetrize import (
    divided_difference,
    lascoux_symmetrized_sides,
    lascoux_tau_sides,
    newton_chain,
    sym_c,
)
from .wallcross import (
    chi_genus_integral,
    enumerate_dec,
    hook_product_identity,
    hook_product_limit,
    s_stat,
    verify_coeff_identity,
    verify_wallcrossing_K,
)
from .engine import (
    SamplingConfig,
    VerificationReport,
    run_case,
    sample_params,
)

__version__ = "0.1.0"
