"""Coverage of the true index by ``new``'s 95 % interval, at ``test_04``'s design.

``attached_ci`` rests on the asymptotic variance of ``new``.  Where the top
observation is censored, guard-floor terms inflate the estimate (README,
"Known red checks") and the interval covers few draws.  On the other draws,
whose maximum is uncensored and which so have no floor term, the variance
formula applies, and the interval must cover the true index at about its
level: within four binomial standard errors at the nominal level over those
draws, a tolerance fixed before the test was first run.
"""

import math

from tailcens import Pareto, generate_censored, new_weighted, p_hat, sort_censored, stream
from tailcens.estimators import attached_ci

DRAWS, N, K, LEVEL, GAMMA1 = 1_000, 2_000, 100, 0.95, 1.0


def test_floor_free_draws_cover_the_true_index_at_about_the_level():
    covered = []  # one flag per floor-free draw
    for r in range(DRAWS):
        s = sort_censored(*generate_censored(Pareto(GAMMA1), Pareto(1.0), N, stream(0, r)))
        if s.delta[-1] == 1:
            _, lo, hi = attached_ci("new", new_weighted(s, K), p_hat(s, K), K, LEVEL)
            covered.append(lo <= GAMMA1 <= hi)
    m = len(covered)
    coverage, tolerance = sum(covered) / m, 4 * math.sqrt(LEVEL * (1 - LEVEL) / m)
    assert abs(coverage - LEVEL) <= tolerance, f"coverage {coverage:.3f} over {m} draws, not {LEVEL} +- {tolerance:.3f}"
