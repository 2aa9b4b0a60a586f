"""Prime values of random integer polynomials, computed at desk scale.

Exact pieces: arithmetic functions on Z, truncated singular series in
rational arithmetic, moment combinatorics, and direct Gowers norms.
Statistical pieces: seeded Monte Carlo experiments whose per-sample
output is reproducible bit for bit for any worker count.
"""

from ._version import __version__
from .arith import (Factorization, factorize, is_prime, is_prime_many,
                    liouville, liouville_many, liouville_sieve,
                    mobius_sieve, primes_upto, von_mangoldt,
                    von_mangoldt_many)
from .errors import (BudgetError, ConfigError, ConsistencyError,
                     FactorBudgetError)
from .experiments import (EmpiricalDistribution, ExperimentConfig,
                          RunResult, SampleRecord, chowla_normalized_sum,
                          iid_sign_simulation, interval_count_distribution,
                          ks_statistic_gaussian, run_experiment, run_sample,
                          sign_pattern_statistic, tuple_statistic)
from .gowers import (gowers_average, gowers_norm_cyclic,
                     gowers_norm_interval, interval_embedding)
from .moments import (MomentPolynomial, gaussian_coefficient_sum,
                      gaussian_moment, poisson_central_moment,
                      poisson_raw_moment, sigma_squared, stein_chen_check,
                      stirling2)
from .poly import (IntPolynomial, count_unit_tuples_linear_system,
                   count_unit_values_mod_p, sample_uniform,
                   sample_uniform_residue)
from .series import (TruncatedSeries, interchange_identity_check,
                     lemma_lower_bound, lemma_upper_bound, series_f,
                     series_f_tuple, series_linear_system,
                     tuple_sum_identity_residual)

__all__ = [name for name in dir() if not name.startswith("_")]
