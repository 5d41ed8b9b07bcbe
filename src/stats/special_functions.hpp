// Special functions needed by the binomial GLM: the regularized
// incomplete beta, and the normal / Student-t distribution functions.
#pragma once

namespace pedsim::stats {

/// Regularized incomplete beta I_x(a, b) via the Lentz continued fraction
/// (Numerical Recipes formulation). Domain: a, b > 0, x in [0, 1].
double incomplete_beta(double a, double b, double x);

/// Standard normal CDF.
double normal_cdf(double z);
/// Two-sided normal tail probability: P(|Z| >= |z|).
double normal_two_sided_p(double z);

/// Student-t CDF with `df` degrees of freedom.
double student_t_cdf(double t, double df);
/// Two-sided t-test p-value.
double student_t_two_sided_p(double t, double df);

}  // namespace pedsim::stats
