"""supfield: excursion probabilities of Gaussian fields on a square whose
variance loss carries a product term, verified at desk scale.

Subpackage map:
  model       field family, validity checks, regime classification
  quad        quadrature engine, constants, integral asymptotics
  pickands    fBm simulation and Pickands constant estimation
  fieldsim    exact lattice field simulation and excursion Monte Carlo
  asymptotics leading-order predictions and the regime sweep
  cli         experiment command line (constants | integrals | pickands |
              mc | blocks | sweep)
"""

from .asymptotics import KNOWN_H, predict, regime_sweep
from .fieldsim import (
    BlockSpec,
    LatticeField,
    MCEstimate,
    build_lattice,
    mc_block_exceedance,
    mc_excursion,
    ratio_harness,
)
from .model import (
    ModelParams,
    Point2,
    Regime,
    classify_regime,
    correlation,
    correlation_scale,
    covariance,
    sigma,
    variance_loss,
)
from .pickands import (
    ExtrapolationProtocol,
    PickandsEstimate,
    pickands_constant,
    pickands_finite,
)
from .quad import (
    AsymptoticPrediction,
    ConvergenceError,
    IntegralSpec,
    QuadratureConfig,
    g_beta,
    i_gamma,
    i_gamma_asymptote,
    i_trend,
    i_trend_asymptote,
    inner_a,
    integrate_1d,
    j_lambda_ratio,
    k_beta,
    normal_survival,
    trend_k,
    trend_l,
    trend_side_asymptote,
)

__version__ = "0.1.0"
