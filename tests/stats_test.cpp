// Tests for the statistics substrate: special functions against reference
// values, linear algebra, and the binomial GLM against closed-form and
// R-checked fits.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/glm.hpp"
#include "stats/linalg.hpp"
#include "stats/special_functions.hpp"

namespace pedsim::stats {
namespace {

// --- Special functions -----------------------------------------------------
// Reference values from scipy.special / R.

TEST(SpecialFunctions, IncompleteBetaKnownValues) {
    EXPECT_NEAR(incomplete_beta(2.0, 3.0, 0.5), 0.6875, 1e-10);
    EXPECT_NEAR(incomplete_beta(0.5, 0.5, 0.25), 1.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(incomplete_beta(1.0, 1.0, 0.42), 0.42);  // uniform
    EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 2.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 2.0, 1.0), 1.0);
}

TEST(SpecialFunctions, IncompleteBetaSymmetry) {
    // I_x(a,b) = 1 - I_{1-x}(b,a).
    for (const double x : {0.1, 0.3, 0.7}) {
        EXPECT_NEAR(incomplete_beta(2.5, 4.0, x),
                    1.0 - incomplete_beta(4.0, 2.5, 1.0 - x), 1e-12);
    }
    EXPECT_THROW(incomplete_beta(0.0, 1.0, 0.5), std::invalid_argument);
}

TEST(SpecialFunctions, NormalCdf) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
    EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-9);
    EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-9);
    EXPECT_NEAR(normal_two_sided_p(1.959963985), 0.05, 1e-9);
}

TEST(SpecialFunctions, StudentTCdf) {
    // t with large df approaches the normal.
    EXPECT_NEAR(student_t_cdf(1.96, 1e7), normal_cdf(1.96), 1e-5);
    // R: pt(2.0, df=10) = 0.9633060.
    EXPECT_NEAR(student_t_cdf(2.0, 10.0), 0.9633060, 1e-6);
    // Symmetry.
    EXPECT_NEAR(student_t_cdf(-1.3, 7.0) + student_t_cdf(1.3, 7.0), 1.0,
                1e-12);
    // Independent Simpson integration of the t density: 0.0544900795.
    EXPECT_NEAR(student_t_two_sided_p(2.5, 5.0), 0.0544900795, 1e-7);
}

// --- Linear algebra -------------------------------------------------------------

TEST(Linalg, CholeskySolveRoundTrip) {
    Matrix a(3, 3);
    // SPD matrix.
    const double vals[3][3] = {{4, 2, 0.6}, {2, 5, 1}, {0.6, 1, 3}};
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) a(i, j) = vals[i][j];
    }
    const std::vector<double> x_true{1.0, -2.0, 0.5};
    std::vector<double> b(3, 0.0);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) b[i] += vals[i][j] * x_true[j];
    }
    const auto l = cholesky(a);
    const auto x = cholesky_solve(l, b);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Linalg, CholeskyInverseIsInverse) {
    Matrix a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = a(1, 0) = 0.5;
    a(1, 1) = 1.0;
    const auto inv = cholesky_inverse(cholesky(a));
    // A * A^-1 = I.
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < 2; ++k) s += a(i, k) * inv(k, j);
            EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-12);
        }
    }
}

TEST(Linalg, CholeskyRejectsNonSpd) {
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = a(1, 0) = 2.0;
    a(1, 1) = 1.0;  // indefinite
    EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(Linalg, XtWxWeighted) {
    Matrix x(3, 2);
    x(0, 0) = 1;
    x(1, 0) = 1;
    x(2, 0) = 1;
    x(0, 1) = 0;
    x(1, 1) = 1;
    x(2, 1) = 2;
    const std::vector<double> w{1.0, 2.0, 3.0};
    const auto m = xtwx(x, w);
    EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 14.0);
    EXPECT_DOUBLE_EQ(m(1, 0), m(0, 1));
}

// --- Binomial GLM ------------------------------------------------------------------

TEST(Glm, InterceptOnlyRecoversPooledRate) {
    std::vector<BinomialObservation> data;
    data.push_back({30, 100, {}});
    data.push_back({40, 100, {}});
    data.push_back({35, 100, {}});
    const auto fit = BinomialGlm().fit(data);
    ASSERT_TRUE(fit.converged);
    EXPECT_NEAR(inv_logit(fit.beta[0]), 0.35, 1e-9);
}

TEST(Glm, RecoversKnownLogisticRelationship) {
    // Generate grouped data from p = inv_logit(-1 + 0.8 x) with huge
    // trial counts so the MLE lands near the truth.
    std::vector<BinomialObservation> data;
    for (int i = -5; i <= 5; ++i) {
        const double x = static_cast<double>(i);
        const double p = inv_logit(-1.0 + 0.8 * x);
        data.push_back({std::round(p * 1e6), 1e6, {x}});
    }
    const auto fit = BinomialGlm().fit(data);
    ASSERT_TRUE(fit.converged);
    EXPECT_NEAR(fit.beta[0], -1.0, 5e-3);
    EXPECT_NEAR(fit.beta[1], 0.8, 5e-3);
    EXPECT_LT(fit.p_value[1], 1e-10);   // strong effect
    EXPECT_LT(fit.deviance, fit.null_deviance);
}

TEST(Glm, NullCovariateIsNotSignificant) {
    // Identical success rates in both "platforms": the platform indicator
    // must come out insignificant — the paper's Fig. 6b conclusion.
    std::vector<BinomialObservation> data;
    for (int i = 0; i < 10; ++i) {
        const double n = 1000.0;
        const double k = 500.0 + 10.0 * i;
        data.push_back({k, n, {static_cast<double>(i), 0.0}});
        data.push_back({k, n, {static_cast<double>(i), 1.0}});
    }
    const auto fit = BinomialGlm().fit(data);
    ASSERT_TRUE(fit.converged);
    EXPECT_NEAR(fit.beta[2], 0.0, 1e-6);
    EXPECT_GT(fit.p_value[2], 0.99);
}

TEST(Glm, DetectsPlatformEffectWhenPresent) {
    std::vector<BinomialObservation> data;
    for (int i = 0; i < 10; ++i) {
        data.push_back({400, 1000, {static_cast<double>(i), 0.0}});
        data.push_back({600, 1000, {static_cast<double>(i), 1.0}});
    }
    const auto fit = BinomialGlm().fit(data);
    EXPECT_LT(fit.p_value[2], 1e-10);
    EXPECT_GT(fit.beta[2], 0.5);
}

TEST(Glm, HandlesBoundaryObservations) {
    // All-success / all-failure rows exercise the continuity correction.
    std::vector<BinomialObservation> data;
    data.push_back({100, 100, {0.0}});
    data.push_back({0, 100, {1.0}});
    data.push_back({50, 100, {0.5}});
    data.push_back({80, 100, {0.2}});
    const auto fit = BinomialGlm().fit(data);
    EXPECT_TRUE(std::isfinite(fit.beta[0]));
    EXPECT_TRUE(std::isfinite(fit.beta[1]));
    EXPECT_LT(fit.beta[1], 0.0);  // success falls with x
}

TEST(Glm, InputValidation) {
    BinomialGlm glm;
    EXPECT_THROW(glm.fit({}), std::invalid_argument);
    std::vector<BinomialObservation> bad;
    bad.push_back({5, 0, {}});
    EXPECT_THROW(glm.fit(bad), std::invalid_argument);
    std::vector<BinomialObservation> ragged;
    ragged.push_back({1, 10, {1.0}});
    ragged.push_back({2, 10, {1.0, 2.0}});
    EXPECT_THROW(glm.fit(ragged), std::invalid_argument);
}

TEST(Glm, LogitRoundTrip) {
    for (const double p : {0.01, 0.3, 0.5, 0.77, 0.99}) {
        EXPECT_NEAR(inv_logit(logit(p)), p, 1e-12);
    }
}

}  // namespace
}  // namespace pedsim::stats
