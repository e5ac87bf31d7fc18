"""Dyadic-block regularity of the periodic quadratic exponential sum.

The package measures, classifies, and verifies the fine regularity of
E(t, x) = sum_n e(n^2 t/2 + n x) as a function of x, as the arithmetic of
the time t varies: exact continued-fraction machinery for the times,
certified phase arithmetic for the sums, dyadic block spectra with
guaranteed lower-bound probes, growth-exponent fits against the
arithmetic predictions, and the delta-comb collapse identity at rational
times.
"""

from .besov import (BlockRecord, ExponentFit, Prediction, RegularityReport,
                    block_spectrum, burst_scales, classify_regularity,
                    fit_exponent, predicted_exponent, records_to_csv,
                    report_to_json)
from .collapse import (CollapseCheck, CombFormula, PeriodizedGaussian,
                       comb_of, extract_kappa, verify_collapse)
from .contfrac import (KHINCHIN_LEVY, CFExpansion, DecimalLiteral,
                       QuadraticIrrational, QuotientRule, Rational,
                       SigmaEstimate, TimeSpec, classify_sigma,
                       expand_rational, khinchin_levy_diagnostic,
                       parse_timespec)
from .cutoff import WeightVector, rough_weights, smooth_weights
from .errors import (BudgetError, DomainError, HypothesisError,
                     InsufficientPrecisionError, PrecisionExhaustedError,
                     ThetaError, VerificationError)
from .exactnum import (FixedReal, fixed_of_time, linear_phase_array,
                       quadratic_phase_array, rational_phase,
                       rational_phase_array)
from .thetasum import (ProbeResult, StabilityResult, SumSpec, SupNormResult,
                       eval_sum, grid_values, rational_probe,
                       stability_ratio, sup_norm)

__version__ = "0.1.0"
