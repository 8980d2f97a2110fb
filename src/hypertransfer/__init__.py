"""Numerical toolkit for a lattice-averaged multiplier on the 2x2 special
linear group: modular reduction, the lattice cocycle, the region integral in
AN coordinates in closed form, first-order decay tables, and small discrete
reference symbols.
"""

from .cocycle import (
    CocycleResult,
    DomainPoint,
    cocycle_beta,
    domain_measure_mc,
    sample_domain,
    transferred_symbol_mc,
)
from .decay import (
    DecayRow,
    ThetaBoundaries,
    hm_table,
    lie_derivative_mtilde,
    second_order_divergence_probe,
    theta_boundaries,
)
from .discrete import (
    DiscreteSymbol,
    cesaro_positivity_check,
    cesaro_symbol,
    jodeit_extend_1d,
)
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    HypertransferError,
)
from .modular import (
    IntMat2,
    Letter,
    ReducedPoint,
    first_letter,
    reduce_to_fundamental_domain,
    symbol_m_sign,
    symbol_m_word,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .regions import (
    BoundaryValues,
    CaseRegime,
    boundary_values,
    classify_case,
    m_hat_case,
    m_hat_direct,
    m_hat_partials,
    m_tilde,
    m_tilde_full,
)
from .sl2 import (
    ANCoords,
    HalfPlanePoint,
    IDENTITY,
    RealMat2,
    an_matrix,
    cartan_a,
    halfplane_image,
    mobius_act,
    operator_norm,
    rotation,
)

__version__ = "0.1.0"
