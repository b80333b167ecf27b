"""Exact tools for horizontal curves in the first Heisenberg group.

Provides exact rational polynomial arithmetic, interval-set algebra on
[0,1], jets and Whitney-field diagnostics, horizontality functionals for
piecewise-polynomial curves, a fully exact replica of a horizontal curve
with no C^2 horizontal Lusin approximation, and finite-scale estimators
for L^p and approximate differentiability.
"""

from .intervalsets import Interval, IntervalSet
from .polynomials import (
    Polynomial,
    CertifiedValue,
    abs_integral,
    sup_norm,
)
from .jets import Jet, JetTriple
from .curves import (
    PiecewisePolynomial,
    PiecewiseCurve,
    lift,
    horizontality_residual,
    higher_horizontality_residual,
    area_discrepancy,
    velocity,
    extendability_report,
    hermite_gap_fill,
    horizontal_repair_gap,
)
from .counterexample import (
    CounterexampleParams,
    CounterexampleCurve,
    default_params,
    check_params,
    build_curve,
    component_increments,
    measure_report,
    good_pair_search,
    straddle_jets,
    straddle_ratio,
)
from .diffanalysis import (
    LadderReport,
    lp_remainder_ladder,
    approx_density,
    whitney_sieve,
)

__version__ = "0.1.0"
