#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/gram_kernel.h"
#include "stats/independence.h"
#include "stats/linalg.h"
#include "stats/logistic.h"
#include "stats/matrix.h"
#include "stats/regression.h"
#include "stats/sufficient_stats.h"
#include "testing/reference.h"

namespace cdi::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, IdentityAndAccess) {
  Matrix m = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, MultiplyAgainstHand) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposeAndSymmetry) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
  EXPECT_FALSE(Matrix::FromRows({{1, 2}, {3, 4}}).IsSymmetric());
  EXPECT_TRUE(Matrix::FromRows({{1, 2}, {2, 4}}).IsSymmetric());
}

TEST(MatrixTest, SubmatrixSelection) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Matrix s = a.Submatrix({0, 2});
  EXPECT_DOUBLE_EQ(s(0, 0), 1);
  EXPECT_DOUBLE_EQ(s(0, 1), 3);
  EXPECT_DOUBLE_EQ(s(1, 0), 7);
  EXPECT_DOUBLE_EQ(s(1, 1), 9);
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const auto v = a.MultiplyVector({1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3);
  EXPECT_DOUBLE_EQ(v[1], 7);
}

// ---------------------------------------------------------------- linalg

TEST(LinalgTest, CholeskyReconstructs) {
  Matrix a = Matrix::FromRows({{4, 2, 0.6}, {2, 3, 0.4}, {0.6, 0.4, 2}});
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix back = l->Multiply(l->Transpose());
  EXPECT_LT(back.MaxAbsDiff(a), 1e-10);
}

TEST(LinalgTest, CholeskyRejectsNonSpd) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // indefinite
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(LinalgTest, CholeskySolve) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto x = CholeskySolve(a, {10, 9});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(LinalgTest, SolveLinearGeneral) {
  Matrix a = Matrix::FromRows({{0, 1}, {2, 0}});  // needs pivoting
  auto x = SolveLinear(a, {3, 4});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(LinalgTest, SolveLinearSingularFails) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}});
  EXPECT_FALSE(SolveLinear(a, {1, 2}).ok());
}

TEST(LinalgTest, InverseRoundTrip) {
  Matrix a = Matrix::FromRows({{2, 1, 0}, {1, 3, 1}, {0, 1, 2}});
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  Matrix prod = a.Multiply(*inv);
  EXPECT_LT(prod.MaxAbsDiff(Matrix::Identity(3)), 1e-10);
}

TEST(LinalgTest, JacobiEigenDiagonal) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  auto e = JacobiEigen(a);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->values[0], 3.0, 1e-12);
  EXPECT_NEAR(e->values[1], 1.0, 1e-12);
}

TEST(LinalgTest, JacobiEigenKnownPair) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  auto e = JacobiEigen(a);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->values[0], 3.0, 1e-10);
  EXPECT_NEAR(e->values[1], 1.0, 1e-10);
  // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(e->vectors(0, 0)), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(std::fabs(e->vectors(1, 0)), std::sqrt(0.5), 1e-8);
}

TEST(LinalgTest, JacobiEigenReconstruction) {
  Rng rng(3);
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.Normal();
      a(j, i) = a(i, j);
    }
  }
  auto e = JacobiEigen(a);
  ASSERT_TRUE(e.ok());
  // Reconstruct A = V diag(vals) V^T.
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = e->values[i];
  Matrix back = e->vectors.Multiply(d).Multiply(e->vectors.Transpose());
  EXPECT_LT(back.MaxAbsDiff(a), 1e-8);
}

TEST(LinalgTest, LeastSquaresExact) {
  // y = 2 + 3x, exactly.
  Matrix x(4, 2);
  std::vector<double> y(4);
  for (int i = 0; i < 4; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = i;
    y[i] = 2.0 + 3.0 * i;
  }
  auto beta = LeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 2.0, 1e-6);
  EXPECT_NEAR((*beta)[1], 3.0, 1e-6);
}

TEST(LinalgTest, WeightedLeastSquaresIgnoresZeroWeightRows) {
  Matrix x(4, 1);
  std::vector<double> y = {1, 1, 100, 1};
  std::vector<double> w = {1, 1, 0, 1};
  for (int i = 0; i < 4; ++i) x(i, 0) = 1.0;
  auto beta = WeightedLeastSquares(x, y, w);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 1.0, 1e-6);
}

// --------------------------------------------------------- distributions

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(NormalSf(1.0), 1.0 - NormalCdf(1.0), 1e-12);
}

TEST(DistributionsTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-7) << "p=" << p;
  }
}

TEST(DistributionsTest, LogGammaMatchesFactorials) {
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(DistributionsTest, ChiSquareCdfKnown) {
  // Chi-square with 2 dof is Exp(1/2): CDF(x) = 1 - exp(-x/2).
  for (double x : {0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(ChiSquareCdf(x, 2), 1.0 - std::exp(-x / 2.0), 1e-9);
  }
  EXPECT_NEAR(ChiSquareSf(3.841458821, 1), 0.05, 1e-6);
}

TEST(DistributionsTest, GammaPQComplement) {
  for (double a : {0.5, 2.0, 7.5}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(DistributionsTest, IncompleteBetaEdgeCases) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
  // I_x(1, 1) = x (uniform).
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-10);
}

TEST(DistributionsTest, StudentTSymmetricAndKnown) {
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  // t with 1 dof is Cauchy: CDF(1) = 3/4.
  EXPECT_NEAR(StudentTCdf(1.0, 1), 0.75, 1e-8);
  EXPECT_NEAR(StudentTTwoSidedPValue(2.570581836, 5), 0.05, 1e-6);
}

TEST(DistributionsTest, TApproachesNormalForLargeDof) {
  EXPECT_NEAR(StudentTCdf(1.96, 10000), NormalCdf(1.96), 1e-4);
}

TEST(DistributionsTest, FSfMonotone) {
  EXPECT_GT(FSf(1.0, 3, 10), FSf(2.0, 3, 10));
  EXPECT_NEAR(FSf(0.0, 3, 10), 1.0, 1e-12);
}

// ----------------------------------------------------------- descriptive

TEST(DescriptiveTest, BasicMoments) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(x), 3.0);
  EXPECT_DOUBLE_EQ(Variance(x), 2.5);
  EXPECT_DOUBLE_EQ(StdDev(x), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(Min(x), 1.0);
  EXPECT_DOUBLE_EQ(Max(x), 5.0);
  EXPECT_DOUBLE_EQ(Median(x), 3.0);
}

TEST(DescriptiveTest, SkipsNaN) {
  std::vector<double> x = {1, kNaN, 3, kNaN, 5};
  EXPECT_DOUBLE_EQ(Mean(x), 3.0);
  EXPECT_EQ(ValidCount(x), 3u);
}

TEST(DescriptiveTest, EmptyAndDegenerate) {
  EXPECT_TRUE(std::isnan(Mean({})));
  EXPECT_TRUE(std::isnan(Variance({1.0})));
  EXPECT_TRUE(std::isnan(Mean({kNaN, kNaN})));
}

TEST(DescriptiveTest, QuantileInterpolation) {
  std::vector<double> x = {0, 10};
  EXPECT_DOUBLE_EQ(Quantile(x, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 0.25), 2.5);
}

TEST(DescriptiveTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DescriptiveTest, WeightedMean) {
  EXPECT_DOUBLE_EQ(WeightedMean({1, 3}, {1, 3}), 2.5);
  EXPECT_DOUBLE_EQ(WeightedMean({1, kNaN, 3}, {1, 1, 1}), 2.0);
}

TEST(DescriptiveTest, PearsonCorrelationPerfect) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  std::vector<double> ny = {-2, -4, -6, -8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
}

TEST(DescriptiveTest, PearsonPairwiseDeletion) {
  std::vector<double> x = {1, 2, kNaN, 4};
  std::vector<double> y = {1, 2, 100, 4};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(DescriptiveTest, SpearmanRobustToMonotoneTransform) {
  Rng rng(7);
  std::vector<double> x(500), y(500);
  for (int i = 0; i < 500; ++i) {
    x[i] = rng.Normal();
    y[i] = std::exp(2.0 * x[i]);  // monotone, nonlinear
  }
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-9);
  EXPECT_LT(PearsonCorrelation(x, y), 0.95);
}

// SpearmanFromOrders reads average ranks off presorted orders filtered to
// the pairwise-complete rows; it must reproduce SpearmanCorrelation's bits
// with ties, signed zeros, infinities and NaNs on either side.
TEST(DescriptiveTest, SpearmanFromOrdersMatchesSpearmanBitForBit) {
  const double kNaN = std::nan("");
  auto draw = [](Rng& rng, bool ties) {
    if (rng.Bernoulli(0.03)) return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    if (rng.Bernoulli(0.01)) return std::copysign(INFINITY, rng.Normal());
    return ties ? static_cast<double>(rng.UniformInt(-3, 3)) : rng.Normal();
  };
  auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  Rng rng(2024);
  std::size_t finite = 0;
  for (std::size_t n : {0, 1, 2, 3, 5, 17, 100, 500}) {
    for (int trial = 0; trial < 40; ++trial) {
      const bool x_ties = trial % 2 == 0, y_ties = trial % 3 == 0;
      const double x_nan = trial % 4 == 1 ? 0.3 : 0.0;
      const double y_nan = trial % 5 == 2 ? 0.3 : 0.0;
      std::vector<double> x(n), y(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.Bernoulli(x_nan) ? kNaN : draw(rng, x_ties);
        y[i] = rng.Bernoulli(y_nan) ? kNaN : draw(rng, y_ties);
      }
      const double want = SpearmanCorrelation(x, y);
      const double got = SpearmanFromOrders(x, RankOrder(x), y, RankOrder(y));
      EXPECT_EQ(std::isnan(want), std::isnan(got)) << "n=" << n;
      if (!std::isnan(want)) {
        EXPECT_EQ(bits(want), bits(got)) << want << " vs " << got;
        ++finite;
      }
    }
  }
  EXPECT_GT(finite, 150u);
  // Mismatched lengths are NaN, as for SpearmanCorrelation.
  const std::vector<double> a = {1, 2, 3}, b = {1, 2};
  EXPECT_TRUE(std::isnan(SpearmanFromOrders(a, RankOrder(a), b, RankOrder(b))));
}

TEST(DescriptiveTest, StandardizeProperties) {
  std::vector<double> x = {2, 4, 6, kNaN};
  const auto z = Standardize(x);
  EXPECT_TRUE(std::isnan(z[3]));
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-12);
  // Constant column maps to zeros.
  const auto zc = Standardize({5, 5, 5});
  EXPECT_DOUBLE_EQ(zc[0], 0.0);
}

// ----------------------------------------------------------- correlation

TEST(CorrelationTest, CorrelationMatrixBlockStructure) {
  Rng rng(5);
  const int n = 2000;
  std::vector<double> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.8 * a[i] + 0.6 * rng.Normal();
    c[i] = rng.Normal();
  }
  NumericDataset ds;
  ds.columns = {a, b, c};
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  EXPECT_NEAR((*corr)(0, 1), 0.8, 0.03);
  EXPECT_NEAR((*corr)(0, 2), 0.0, 0.05);
  EXPECT_DOUBLE_EQ((*corr)(1, 1), 1.0);
  EXPECT_DOUBLE_EQ((*corr)(0, 1), (*corr)(1, 0));
}

TEST(CorrelationTest, ListwiseDeletion) {
  NumericDataset ds;
  ds.columns = {{1, 2, 3, kNaN}, {1, 2, 3, 100}};
  EXPECT_EQ(CompleteRowCount(ds), 3u);
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  EXPECT_NEAR((*corr)(0, 1), 1.0, 1e-12);
}

TEST(CorrelationTest, WeightedCorrelation) {
  NumericDataset ds;
  ds.columns = {{1, 2, 3, 10}, {1, 2, 3, -10}};
  ds.weights = {1, 1, 1, 0};  // kill the discordant row
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  EXPECT_NEAR((*corr)(0, 1), 1.0, 1e-9);
}

TEST(CorrelationTest, PartialCorrelationChain) {
  // a -> b -> c: partial corr(a, c | b) should be ~0.
  Rng rng(11);
  const int n = 5000;
  std::vector<double> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.8 * a[i] + rng.Normal();
    c[i] = 0.8 * b[i] + rng.Normal();
  }
  NumericDataset ds;
  ds.columns = {a, b, c};
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  auto marginal = PartialCorrelation(*corr, 0, 2, {});
  auto partial = PartialCorrelation(*corr, 0, 2, {1});
  ASSERT_TRUE(partial.ok());
  EXPECT_GT(std::fabs(*marginal), 0.3);
  EXPECT_NEAR(*partial, 0.0, 0.05);
}

TEST(CorrelationTest, PartialCorrelationCollider) {
  // a -> c <- b: conditioning on the collider c induces dependence.
  Rng rng(13);
  const int n = 5000;
  std::vector<double> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
    c[i] = a[i] + b[i] + 0.5 * rng.Normal();
  }
  NumericDataset ds;
  ds.columns = {a, b, c};
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  auto marginal = PartialCorrelation(*corr, 0, 1, {});
  auto partial = PartialCorrelation(*corr, 0, 1, {2});
  EXPECT_NEAR(*marginal, 0.0, 0.05);
  EXPECT_LT(*partial, -0.3);
}

TEST(CorrelationTest, FisherZPValueBehaviour) {
  EXPECT_LT(FisherZPValue(0.5, 200, 0), 1e-8);
  EXPECT_GT(FisherZPValue(0.01, 100, 0), 0.5);
  EXPECT_DOUBLE_EQ(FisherZPValue(0.9, 4, 1), 1.0);  // too few samples
  // Conditioning set size reduces effective sample size.
  EXPECT_GT(FisherZPValue(0.2, 50, 10), FisherZPValue(0.2, 50, 0));
}

TEST(CorrelationTest, FisherZPValueBoundaryCorrelations) {
  // atanh(±1) is infinite; the clamp must turn |r| = 1 into an extreme
  // but finite z, i.e. p ≈ 0 — never NaN or a spuriously large p.
  for (double r : {1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15)}) {
    const double p = FisherZPValue(r, 100, 0);
    EXPECT_FALSE(std::isnan(p)) << "r=" << r;
    EXPECT_LT(p, 1e-12) << "r=" << r;
  }
  // NaN correlation (degenerate column) is treated as "no evidence".
  EXPECT_DOUBLE_EQ(FisherZPValue(std::nan(""), 100, 0), 1.0);
}

TEST(CorrelationTest, PartialCorrelationExactlyCollinearPair) {
  // y = 2x exactly: the correlation matrix is singular, but the partial
  // correlation of the pair given a third variable must still come back
  // at (or clamped to) ±1, and its Fisher-z p-value at ~0.
  Rng rng(15);
  const int n = 500;
  std::vector<double> x(n), y(n), w(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = 2.0 * x[i];
    w[i] = rng.Normal();
  }
  NumericDataset ds;
  ds.columns = {x, y, w};
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  auto partial = PartialCorrelation(*corr, 0, 1, {2});
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(std::isnan(*partial));
  EXPECT_NEAR(std::fabs(*partial), 1.0, 1e-6);
  EXPECT_LT(FisherZPValue(*partial, n, 1), 1e-12);
}

TEST(CorrelationTest, PartialCorrelationCholeskyMatchesInverse) {
  // The Cholesky fast path must agree with a direct check on well-
  // conditioned input: chain a -> b -> c gives corr(a, c | b) ~ 0 and
  // corr(a, b | c) far from 0.
  Rng rng(21);
  const int n = 4000;
  std::vector<double> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.7 * a[i] + rng.Normal();
    c[i] = 0.7 * b[i] + rng.Normal();
  }
  NumericDataset ds;
  ds.columns = {a, b, c};
  auto corr = CorrelationMatrix(ds);
  ASSERT_TRUE(corr.ok());
  auto r_ac = PartialCorrelation(*corr, 0, 2, {1});
  auto r_ab = PartialCorrelation(*corr, 0, 1, {2});
  ASSERT_TRUE(r_ac.ok());
  ASSERT_TRUE(r_ab.ok());
  EXPECT_NEAR(*r_ac, 0.0, 0.05);
  EXPECT_GT(std::fabs(*r_ab), 0.3);
  EXPECT_GE(*r_ab, -1.0);
  EXPECT_LE(*r_ab, 1.0);
}

// ------------------------------------------------------------ regression

TEST(RegressionTest, RecoversCoefficients) {
  Rng rng(17);
  const int n = 2000;
  std::vector<double> x1(n), x2(n), y(n);
  for (int i = 0; i < n; ++i) {
    x1[i] = rng.Normal();
    x2[i] = rng.Normal();
    y[i] = 1.0 + 2.0 * x1[i] - 3.0 * x2[i] + 0.5 * rng.Normal();
  }
  auto fit = FitOls({x1, x2}, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept(), 1.0, 0.05);
  EXPECT_NEAR(fit->beta(0), 2.0, 0.05);
  EXPECT_NEAR(fit->beta(1), -3.0, 0.05);
  EXPECT_GT(fit->r_squared, 0.9);
  EXPECT_LT(fit->p_values[1], 1e-10);
}

TEST(RegressionTest, DropsIncompleteRows) {
  std::vector<double> x = {1, 2, 3, 4, kNaN, 6, 7, 8};
  std::vector<double> y = {2, 4, 6, 8, 100, 12, 14, 16};
  auto fit = FitOls({x}, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->n_used, 7u);
  EXPECT_NEAR(fit->beta(0), 2.0, 1e-9);
  EXPECT_TRUE(std::isnan(fit->residuals[4]));
}

TEST(RegressionTest, TooFewRowsFails) {
  EXPECT_FALSE(FitOls({{1, 2}}, {1, 2}).ok());
}

TEST(RegressionTest, StandardizedCoefficientIsCorrelationForSimpleCase) {
  Rng rng(19);
  const int n = 3000;
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = 0.6 * x[i] + 0.8 * rng.Normal();
  }
  auto fit = FitStandardizedOls({x}, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->beta(0), PearsonCorrelation(x, y), 1e-9);
}

TEST(RegressionTest, WeightedFitFollowsWeights) {
  // Two populations with different slopes; weights select the first.
  std::vector<double> x, y, w;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i);
    w.push_back(1.0);
    x.push_back(i);
    y.push_back(-2.0 * i);
    w.push_back(0.0);
  }
  auto fit = FitOls({x}, y, w);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->beta(0), 2.0, 1e-6);
}

TEST(RegressionTest, GaussianBicPrefersTrueParents) {
  Rng rng(23);
  const int n = 1500;
  std::vector<double> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.9 * a[i] + 0.5 * rng.Normal();
    c[i] = rng.Normal();
  }
  std::vector<std::vector<double>> data = {a, b, c};
  auto with_parent = GaussianBicLocalScore(cdi::SpansOf(data), 1, {0});
  auto without = GaussianBicLocalScore(cdi::SpansOf(data), 1, {});
  auto with_junk = GaussianBicLocalScore(cdi::SpansOf(data), 1, {0, 2});
  ASSERT_TRUE(with_parent.ok());
  EXPECT_LT(*with_parent, *without);        // true parent improves fit
  EXPECT_LT(*with_parent, *with_junk);      // junk parent costs penalty
}

// -------------------------------------------------------------- logistic

TEST(LogisticTest, RecoversCoefficients) {
  Rng rng(29);
  const int n = 4000;
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    const double p = 1.0 / (1.0 + std::exp(-(0.5 + 1.5 * x[i])));
    y[i] = rng.Bernoulli(p) ? 1.0 : 0.0;
  }
  auto fit = FitLogistic({x}, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  EXPECT_NEAR(fit->coefficients[0], 0.5, 0.15);
  EXPECT_NEAR(fit->coefficients[1], 1.5, 0.2);
}

TEST(LogisticTest, PredictIsProbability) {
  Rng rng(31);
  const int n = 500;
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  auto fit = FitLogistic({x}, y);
  ASSERT_TRUE(fit.ok());
  const double p = fit->Predict({0.3});
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(LogisticTest, RejectsNonBinary) {
  EXPECT_FALSE(FitLogistic({{1, 2, 3, 4, 5}}, {0, 1, 2, 0, 1}).ok());
}

TEST(LogisticTest, SeparableDataStillConverges) {
  // Perfect separation: ridge keeps the solve bounded.
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(i < 20 ? -1.0 - 0.1 * i : 1.0 + 0.1 * i);
    y.push_back(i < 20 ? 0.0 : 1.0);
  }
  auto fit = FitLogistic({x}, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->coefficients[1], 0.0);
}

// ---------------------------------------------------------- independence

TEST(IndependenceTest, ChiSquareDetectsDependence) {
  Rng rng(37);
  std::vector<int> x, y;
  for (int i = 0; i < 800; ++i) {
    const int xi = static_cast<int>(rng.UniformInt(uint64_t{3}));
    x.push_back(xi);
    y.push_back(rng.Bernoulli(0.8) ? xi : static_cast<int>(
                                              rng.UniformInt(uint64_t{3})));
  }
  auto r = ChiSquareIndependence(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_value, 1e-6);
  EXPECT_GT(r->strength, 0.3);
}

TEST(IndependenceTest, ChiSquareIndependentPair) {
  Rng rng(41);
  std::vector<int> x, y;
  for (int i = 0; i < 800; ++i) {
    x.push_back(static_cast<int>(rng.UniformInt(uint64_t{3})));
    y.push_back(static_cast<int>(rng.UniformInt(uint64_t{3})));
  }
  auto r = ChiSquareIndependence(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.001);
}

TEST(IndependenceTest, QuantileBinBalanced) {
  Rng rng(53);
  std::vector<double> x(999);
  for (auto& v : x) v = rng.Normal();
  const auto bins = stats::QuantileBin(x, 3);
  int counts[3] = {0, 0, 0};
  for (int b : bins) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 3);
    counts[b]++;
  }
  EXPECT_NEAR(counts[0], 333, 40);
  EXPECT_NEAR(counts[1], 333, 40);
  EXPECT_NEAR(counts[2], 333, 40);
}

TEST(IndependenceTest, BinnedChiSquareSeesQuadraticRelation) {
  // The CATER pruning backstop: y = x^2 dependence is invisible to Pearson
  // but visible after binning.
  Rng rng(59);
  const int n = 1200;
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = x[i] * x[i] - 1.0 + 0.8 * rng.Normal();
  }
  EXPECT_LT(std::fabs(PearsonCorrelation(x, y)), 0.1);
  auto r = ChiSquareIndependence(QuantileBin(x, 3), QuantileBin(y, 3));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_value, 1e-6);
}

void ExpectSameChiSquare(const Result<IndependenceResult>& got,
                         const Result<IndependenceResult>& want,
                         const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got->statistic),
            std::bit_cast<uint64_t>(want->statistic)) << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->p_value),
            std::bit_cast<uint64_t>(want->p_value)) << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->strength),
            std::bit_cast<uint64_t>(want->strength)) << what;
}

/// Codes in [0, range) with `missing` of them -1, drawn from `rng`.
std::vector<int> RandomCodes(Rng& rng, std::size_t n, int range,
                             double missing) {
  std::vector<int> out(n);
  for (auto& c : out) {
    c = rng.Bernoulli(missing)
            ? -1
            : static_cast<int>(rng.UniformInt(static_cast<uint64_t>(range)));
  }
  return out;
}

// The flat-table kernel against the std::map/vector-of-vectors one it
// replaced: statistic, p-value and strength bit for bit, on missing codes,
// constant and near-empty inputs, gapped and wide code ranges (the wide
// ones take the heap-sized table) and dependent pairs.
TEST(IndependenceTest, ChiSquareMatchesReferenceBitwise) {
  Rng rng(61);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(uint64_t{120});
    const int rx = 1 + static_cast<int>(rng.UniformInt(uint64_t{24}));
    const int ry = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const double missing = trial % 3 == 0 ? 0.0 : 0.2;
    std::vector<int> x = RandomCodes(rng, n, rx, missing);
    std::vector<int> y = RandomCodes(rng, n, ry, missing);
    if (trial % 4 == 1) {  // dependent: y follows x
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] >= 0 && rng.Bernoulli(0.7)) y[i] = x[i] % ry;
      }
    }
    if (trial % 5 == 2) {  // gapped codes: only even values
      for (auto& c : x) c = c < 0 ? c : 2 * c;
    }
    const std::string what = "trial " + std::to_string(trial);
    ExpectSameChiSquare(ChiSquareIndependence(x, y),
                        testing::ReferenceChiSquareIndependence(x, y), what);
  }
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> edges = {
      {{}, {}},                                   // empty
      {{0}, {1}},                                 // one row
      {{-1, 0, -1}, {1, -1, -1}},                 // no complete row
      {{0, 1, -1}, {-1, 1, 0}},                   // one complete row
      {{2, 2, 2, 2}, {0, 1, 0, 1}},               // constant x
      {{0, 1, 0, 1}, {5, 5, 5, 5}},               // constant y
      {{0, 2, 0, 2, 2}, {1, 0, 1, 1, 0}},         // gapped {0, 2}
      {{3, 7, 100, 3, 7}, {0, 1, 2, 2, 1}},       // wide, sparse codes
  };
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto& [x, y] = edges[k];
    ExpectSameChiSquare(ChiSquareIndependence(x, y),
                        testing::ReferenceChiSquareIndependence(x, y),
                        "edge " + std::to_string(k));
  }
  EXPECT_EQ(ChiSquareIndependence({0, 1 << 20}, {0, 1}).status().code(),
            StatusCode::kInvalidArgument);
}

// The statistic is summed in first-appearance order of the codes, so each
// of the 6 x 6 orders in which three x codes and three y codes first
// appear must give the reference's bits.
TEST(IndependenceTest, ChiSquareFirstAppearanceOrdersMatchReference) {
  Rng rng(67);
  std::vector<int> body_x = RandomCodes(rng, 60, 3, 0.1);
  std::vector<int> body_y = RandomCodes(rng, 60, 3, 0.1);
  for (std::size_t i = 0; i < body_x.size(); ++i) {
    if (body_x[i] >= 0 && rng.Bernoulli(0.5)) body_y[i] = body_x[i];
  }
  std::vector<int> px = {0, 1, 2};
  do {
    std::vector<int> py = {0, 1, 2};
    do {
      std::vector<int> x = px, y = py;
      x.insert(x.end(), body_x.begin(), body_x.end());
      y.insert(y.end(), body_y.begin(), body_y.end());
      ExpectSameChiSquare(ChiSquareIndependence(x, y),
                          testing::ReferenceChiSquareIndependence(x, y),
                          "x order " + std::to_string(px[0]) +
                              std::to_string(px[1]) + std::to_string(px[2]) +
                              " y order " + std::to_string(py[0]) +
                              std::to_string(py[1]) + std::to_string(py[2]));
    } while (std::next_permutation(py.begin(), py.end()));
  } while (std::next_permutation(px.begin(), px.end()));
}

// Both QuantileBin forms against Quantile-per-edge binning, every code
// equal, on NaN, ties, all-equal, signed-zero, infinite, all-NaN and empty
// inputs.
TEST(IndependenceTest, QuantileBinMatchesReference) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> inputs = {
      {},
      {nan, nan, nan},
      {4.0},
      {2.0, 2.0, 2.0, 2.0},
      {1.0, nan, 1.0, 2.0, 2.0, nan, 3.0},
      {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0},
      {-inf, 1.0, inf, nan, 1.0, 2.0},
  };
  Rng rng(71);
  for (int t = 0; t < 40; ++t) {
    std::vector<double> x(1 + rng.UniformInt(uint64_t{90}));
    for (auto& v : x) {
      v = rng.Bernoulli(0.1) ? nan
                             : static_cast<double>(rng.UniformInt(uint64_t{7}));
      if (t % 2 == 1 && !std::isnan(v)) v = rng.Normal();
    }
    inputs.push_back(std::move(x));
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto& x = inputs[k];
    for (int bins = 1; bins <= 8; ++bins) {
      const std::vector<int> want = testing::ReferenceQuantileBin(x, bins);
      const std::string what =
          "input " + std::to_string(k) + " bins " + std::to_string(bins);
      EXPECT_EQ(QuantileBin(x, bins), want) << what;
      EXPECT_EQ(QuantileBin(x, RankOrder(x), bins), want) << what;
    }
  }
}

// -------------------------------------------------- SufficientStats

std::vector<std::vector<double>> NoisyData(std::size_t vars, std::size_t n,
                                           double nan_rate, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(vars, std::vector<double>(n));
  for (auto& col : cols) {
    for (auto& v : col) {
      v = rng.Normal();
      if (nan_rate > 0 && rng.Uniform() < nan_rate) v = kNaN;
    }
  }
  return cols;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * a.rows() * a.cols()) == 0;
}

TEST(SufficientStatsTest, BlockedMatchesReferenceBitwiseAcrossThreads) {
  // 37 columns: not a multiple of the 8-wide tile, so the padding lanes
  // are exercised; 5% NaN exercises the complete-row mask.
  auto data = NoisyData(37, 1000, 0.05, 101);
  auto ds = NumericDataset::Own(std::move(data));
  auto ref = ReferenceCovarianceMatrix(ds);
  ASSERT_TRUE(ref.ok());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    auto cov = CovarianceMatrix(ds, pool.get());
    ASSERT_TRUE(cov.ok());
    EXPECT_TRUE(BitwiseEqual(*ref, *cov)) << threads << " threads";
  }
}

TEST(SufficientStatsTest, WeightedEqualsRowReplication) {
  // Integer weights {0,1,2,3}: the weighted covariance must equal the
  // covariance of the dataset with each row physically repeated weight
  // times (the classic frequency-weight semantics). Not bitwise — the
  // replicated sum adds t twice where the weighted sum adds 2t once — so
  // compare to tight relative tolerance.
  Rng rng(103);
  const std::size_t n = 400;
  auto data = NoisyData(6, n, 0.02, 105);
  std::vector<double> w(n);
  for (auto& x : w) x = static_cast<double>(rng.UniformInt(4));
  std::vector<std::vector<double>> replicated(6);
  for (std::size_t r = 0; r < n; ++r) {
    for (int copy = 0; copy < static_cast<int>(w[r]); ++copy) {
      for (std::size_t v = 0; v < 6; ++v) {
        replicated[v].push_back(data[v][r]);
      }
    }
  }
  NumericDataset wds;
  wds.columns = cdi::SpansOf(data);
  wds.weights = w;
  NumericDataset rds;
  rds.columns = cdi::SpansOf(replicated);
  auto ws = SufficientStats::Compute(wds);
  auto rs = SufficientStats::Compute(rds);
  ASSERT_TRUE(ws.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_DOUBLE_EQ(ws->weight_sum(), rs->weight_sum());
  for (std::size_t v = 0; v < 6; ++v) {
    EXPECT_NEAR(ws->means()[v], rs->means()[v], 1e-12);
  }
  const Matrix wc = ws->Covariance();
  const Matrix rc = rs->Covariance();
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_NEAR(wc(a, b), rc(a, b), 1e-10 * (1.0 + std::fabs(rc(a, b))));
    }
  }
}

TEST(SufficientStatsTest, NanPatternGoldens) {
  // NaNs planted exactly at the 64-row mask-word boundaries: rows 0, 63,
  // 64, 127, 128 and the ragged tail row. 130 rows = 2 full words + 2
  // tail bits.
  const std::size_t n = 130;
  std::vector<std::vector<double>> data(3, std::vector<double>(n));
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t i = 0; i < n; ++i) {
      data[v][i] = static_cast<double>((v + 1) * (i % 17)) - 8.0;
    }
  }
  data[0][0] = kNaN;
  data[1][63] = kNaN;
  data[1][64] = kNaN;
  data[2][127] = kNaN;
  data[0][128] = kNaN;
  data[2][129] = kNaN;
  auto ds = NumericDataset::Own(std::move(data));
  auto stats = SufficientStats::Compute(ds);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->complete_rows(), n - 6);
  EXPECT_EQ(CompleteRowCount(ds), n - 6);
  const auto& mask = stats->complete_mask();
  ASSERT_EQ(mask.size(), 3u);  // ceil(130 / 64)
  for (std::size_t bad : {0, 63, 64, 127, 128, 129}) {
    EXPECT_EQ((mask[bad / 64] >> (bad % 64)) & 1u, 0u) << "row " << bad;
  }
  EXPECT_EQ((mask[0] >> 1) & 1u, 1u);
  auto ref = ReferenceCovarianceMatrix(ds);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(BitwiseEqual(*ref, stats->Covariance()));
  // A 64-row dataset: the mask is exactly one full word.
  auto ds64 = NumericDataset::Own(NoisyData(4, 64, 0.1, 107));
  auto s64 = SufficientStats::Compute(ds64);
  ASSERT_TRUE(s64.ok());
  EXPECT_EQ(s64->complete_mask().size(), 1u);
  EXPECT_TRUE(BitwiseEqual(*ReferenceCovarianceMatrix(ds64),
                           s64->Covariance()));
}

TEST(SufficientStatsTest, TooFewCompleteRowsFails) {
  std::vector<std::vector<double>> data = {{1.0, kNaN, 3.0},
                                           {kNaN, 2.0, kNaN}};
  auto ds = NumericDataset::Own(std::move(data));
  auto stats = SufficientStats::Compute(ds);
  EXPECT_FALSE(stats.ok());
}

// Borrowing spans over the first `rows` cells of each column.
std::vector<DoubleSpan> PrefixSpans(
    const std::vector<std::vector<double>>& cols, std::size_t rows) {
  std::vector<DoubleSpan> out;
  out.reserve(cols.size());
  for (const auto& col : cols) {
    out.push_back(DoubleSpan::Borrow(col.data(), rows));
  }
  return out;
}

TEST(SufficientStatsTest, AppendRowsEqualsRecomputeBitwiseAcrossThreads) {
  // 21 columns (tile padding exercised), 200 -> 257 rows: the row batch
  // crosses a 64-row mask-word boundary and leaves a ragged tail. The
  // delta-refreshed S must be bitwise the full recompute at every thread
  // count — the contract the serving layer's epoch rollover relies on.
  const std::size_t n0 = 200, n1 = 257;
  auto data = NoisyData(21, n1, 0.04, 131);
  NumericDataset full_ds;
  full_ds.columns = cdi::SpansOf(data);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    NumericDataset base;
    base.columns = PrefixSpans(data, n0);
    auto stats = SufficientStats::Compute(base, pool.get());
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(
        stats->AppendRows(cdi::SpansOf(data), n1 - n0, {}, pool.get())
            .ok());
    auto full = SufficientStats::Compute(full_ds, pool.get());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(stats->complete_rows(), full->complete_rows());
    EXPECT_EQ(stats->complete_mask(), full->complete_mask());
    EXPECT_EQ(stats->weight_sum(), full->weight_sum());
    ASSERT_EQ(stats->means().size(), full->means().size());
    for (std::size_t v = 0; v < full->means().size(); ++v) {
      EXPECT_EQ(stats->means()[v], full->means()[v])
          << "mean " << v << " at " << threads << " threads";
    }
    EXPECT_TRUE(
        BitwiseEqual(stats->cross_products(), full->cross_products()))
        << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(stats->Covariance(), full->Covariance()))
        << threads << " threads";
  }
}

TEST(SufficientStatsTest, AppendRowsNanAtWordBoundaries) {
  // Base sizes straddling the 64-row mask word (63, 64, 65) with NaNs
  // planted on both sides of the seam: the boundary word is rebuilt from
  // the full columns, so a stale tail bit would poison the row set.
  for (std::size_t n0 : {std::size_t{63}, std::size_t{64},
                         std::size_t{65}}) {
    const std::size_t n1 = n0 + 70;
    auto data = NoisyData(5, n1, 0.0, 133 + n0);
    data[0][n0 - 1] = kNaN;  // last base row
    data[1][n0] = kNaN;      // first appended row
    data[2][63] = kNaN;
    data[3][64] = kNaN;
    data[2][127] = kNaN;
    data[4][n1 - 1] = kNaN;  // last appended row
    NumericDataset base;
    base.columns = PrefixSpans(data, n0);
    auto stats = SufficientStats::Compute(base);
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->AppendRows(cdi::SpansOf(data), n1 - n0).ok());
    NumericDataset full_ds;
    full_ds.columns = cdi::SpansOf(data);
    auto full = SufficientStats::Compute(full_ds);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(stats->complete_rows(), full->complete_rows()) << "n0=" << n0;
    EXPECT_EQ(stats->complete_mask(), full->complete_mask()) << "n0=" << n0;
    EXPECT_TRUE(
        BitwiseEqual(stats->cross_products(), full->cross_products()))
        << "n0=" << n0;
  }
}

TEST(SufficientStatsTest, AppendRowsWeightedEqualsRecompute) {
  // Weighted statistics take the full-length weight vector on append; the
  // continued sum/wsum accumulators and the Gram re-sweep must land on
  // bitwise the weighted recompute.
  Rng rng(137);
  const std::size_t n0 = 180, n1 = 240;
  auto data = NoisyData(7, n1, 0.03, 139);
  std::vector<double> w(n1);
  for (auto& x : w) x = rng.Uniform(0.25, 2.0);
  NumericDataset base;
  base.columns = PrefixSpans(data, n0);
  base.weights = std::vector<double>(w.begin(), w.begin() + n0);
  auto stats = SufficientStats::Compute(base);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->AppendRows(cdi::SpansOf(data), n1 - n0, w).ok());
  NumericDataset full_ds;
  full_ds.columns = cdi::SpansOf(data);
  full_ds.weights = w;
  auto full = SufficientStats::Compute(full_ds);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(stats->weight_sum(), full->weight_sum());
  for (std::size_t v = 0; v < full->means().size(); ++v) {
    EXPECT_EQ(stats->means()[v], full->means()[v]) << "mean " << v;
  }
  EXPECT_TRUE(
      BitwiseEqual(stats->cross_products(), full->cross_products()));
}

TEST(SufficientStatsTest, AppendRowsAllIncompleteSkipsGramSweep) {
  // Every appended row has a NaN somewhere: no new complete rows, so the
  // incremental path adopts the grown spans and mask without touching S.
  const std::size_t n0 = 100, n1 = 120;
  auto data = NoisyData(4, n1, 0.0, 141);
  for (std::size_t i = n0; i < n1; ++i) data[i % 4][i] = kNaN;
  NumericDataset base;
  base.columns = PrefixSpans(data, n0);
  auto stats = SufficientStats::Compute(base);
  ASSERT_TRUE(stats.ok());
  const Matrix before = stats->cross_products();
  ASSERT_TRUE(stats->AppendRows(cdi::SpansOf(data), n1 - n0).ok());
  EXPECT_TRUE(stats->last_append_incremental());
  EXPECT_EQ(stats->complete_rows(), n0);
  EXPECT_TRUE(BitwiseEqual(before, stats->cross_products()));
  NumericDataset full_ds;
  full_ds.columns = cdi::SpansOf(data);
  auto full = SufficientStats::Compute(full_ds);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(stats->complete_mask(), full->complete_mask());
  EXPECT_TRUE(
      BitwiseEqual(stats->cross_products(), full->cross_products()));
}

TEST(SufficientStatsTest, AppendRowsRandomizedFuzzHarness) {
  // Randomized sweep of the whole contract surface: random shape, NaN
  // rate, weighting, batch count, and thread count per trial, with the
  // delta-refreshed statistics checked bitwise against a cold Compute
  // after every batch.
  Rng rng(151);
  ThreadPool pool(8);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t p = 1 + rng.UniformInt(24);
    const std::size_t n0 = 3 + rng.UniformInt(200);
    const std::size_t batches = 1 + rng.UniformInt(3);
    const double nan_rate = rng.Uniform() < 0.5 ? 0.0 : rng.Uniform(0, 0.1);
    const bool weighted = rng.Bernoulli(0.3);
    std::vector<std::size_t> sizes = {n0};
    for (std::size_t b = 0; b < batches; ++b) {
      sizes.push_back(sizes.back() + 1 + rng.UniformInt(90));
    }
    auto data = NoisyData(p, sizes.back(), nan_rate,
                          1000 + static_cast<uint64_t>(trial));
    std::vector<double> w(sizes.back());
    for (auto& x : w) x = rng.Uniform(0.1, 3.0);

    NumericDataset base;
    base.columns = PrefixSpans(data, n0);
    if (weighted) {
      base.weights = std::vector<double>(w.begin(), w.begin() + n0);
    }
    auto stats = SufficientStats::Compute(base);
    if (!stats.ok()) continue;  // tiny shapes can lack complete rows
    for (std::size_t b = 1; b < sizes.size(); ++b) {
      const std::size_t n = sizes[b];
      ThreadPool* tp = rng.Bernoulli(0.5) ? &pool : nullptr;
      ASSERT_TRUE(stats
                      ->AppendRows(PrefixSpans(data, n), n - sizes[b - 1],
                                   weighted ? std::vector<double>(
                                                  w.begin(), w.begin() + n)
                                            : std::vector<double>{},
                                   tp)
                      .ok())
          << "trial " << trial << " batch " << b;
      NumericDataset full_ds;
      full_ds.columns = PrefixSpans(data, n);
      if (weighted) {
        full_ds.weights = std::vector<double>(w.begin(), w.begin() + n);
      }
      auto cold = SufficientStats::Compute(full_ds);
      ASSERT_TRUE(cold.ok()) << "trial " << trial << " batch " << b;
      ASSERT_EQ(stats->complete_mask(), cold->complete_mask())
          << "trial " << trial << " batch " << b;
      ASSERT_EQ(stats->weight_sum(), cold->weight_sum())
          << "trial " << trial << " batch " << b;
      for (std::size_t v = 0; v < p; ++v) {
        ASSERT_EQ(stats->means()[v], cold->means()[v])
            << "trial " << trial << " batch " << b << " mean " << v;
      }
      ASSERT_TRUE(
          BitwiseEqual(stats->cross_products(), cold->cross_products()))
          << "trial " << trial << " batch " << b;
    }
  }
}

TEST(SufficientStatsTest, AppendRowsRejectsMalformedBatches) {
  auto data = NoisyData(3, 100, 0.0, 147);
  NumericDataset base;
  base.columns = cdi::SpansOf(data);
  auto stats = SufficientStats::Compute(base);
  ASSERT_TRUE(stats.ok());
  auto grown = NoisyData(3, 120, 0.0, 149);
  // Wrong column count.
  auto two = PrefixSpans(grown, 120);
  two.pop_back();
  auto st = stats->AppendRows(two, 20);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("2 columns"), std::string::npos)
      << st.message();
  // Ragged: one span shorter than num_rows + new_rows.
  auto ragged = PrefixSpans(grown, 120);
  ragged[1] = DoubleSpan::Borrow(grown[1].data(), 119);
  EXPECT_FALSE(stats->AppendRows(ragged, 20).ok());
  // Weights on unweighted statistics.
  std::vector<double> w(120, 1.0);
  auto wst = stats->AppendRows(PrefixSpans(grown, 120), 20, w);
  EXPECT_FALSE(wst.ok());
  EXPECT_NE(wst.message().find("unweighted"), std::string::npos)
      << wst.message();
  // The failures must not have mutated the statistics.
  EXPECT_EQ(stats->complete_rows(), 100u);
}

TEST(SufficientStatsTest, NullWordsMaskMatchesNanScan) {
  // Columns whose null bitmap agrees with their NaN cells (the typed
  // Column contract for int64/bool views): supplying null_words must give
  // bitwise the same result as the NaN prescan, just without reading the
  // data.
  const std::size_t n = 200;
  auto data = NoisyData(4, n, 0.0, 117);
  Rng rng(119);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::vector<uint64_t>> bitmaps(4,
                                             std::vector<uint64_t>(words));
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Uniform() < 0.06) {  // null: bitmap bit set, cell NaN
        bitmaps[v][i / 64] |= uint64_t{1} << (i % 64);
        data[v][i] = kNaN;
      }
    }
  }
  NumericDataset plain;
  plain.columns = cdi::SpansOf(data);
  NumericDataset mapped = plain;
  for (const auto& bm : bitmaps) mapped.null_words.push_back(bm.data());
  auto a = SufficientStats::Compute(plain);
  auto b = SufficientStats::Compute(mapped);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->complete_rows(), b->complete_rows());
  EXPECT_EQ(a->complete_mask(), b->complete_mask());
  EXPECT_TRUE(BitwiseEqual(a->cross_products(), b->cross_products()));
  EXPECT_EQ(CompleteRowCount(plain), CompleteRowCount(mapped));
}

TEST(SufficientStatsTest, BicMatchesLegacyScore) {
  auto data = NoisyData(5, 600, 0.0, 121);
  const auto spans = cdi::SpansOf(data);
  NumericDataset ds;
  ds.columns = spans;
  auto stats = SufficientStats::Compute(ds);
  ASSERT_TRUE(stats.ok());
  // Empty parents: the same (v - mean)^2 accumulation in the same order —
  // bitwise equal to the legacy per-call score.
  for (std::size_t t = 0; t < 5; ++t) {
    auto legacy = GaussianBicLocalScore(spans, t, {});
    auto fast = stats->GaussianBicLocal(t, {});
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*legacy, *fast) << "target " << t;
  }
  // Non-empty parents solve different (equivalent) normal equations;
  // agreement is to rounding, not bitwise.
  auto legacy = GaussianBicLocalScore(spans, 2, {0, 1, 3});
  auto fast = stats->GaussianBicLocal(2, {0, 1, 3});
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(*legacy, *fast, 1e-6 * std::fabs(*legacy));
}

// ---------------------------------------------- Gram kernel backends

/// Scoped kernel override; always restores auto-selection.
struct KernelOverride {
  explicit KernelOverride(const GramKernelFns* k) {
    SetGramKernelForTesting(k);
  }
  ~KernelOverride() { SetGramKernelForTesting(nullptr); }
};

TEST(GramKernelTest, BackendsBitwiseIdenticalAcrossBattery) {
  // Every compiled-in backend must reproduce the scalar kernel bit for
  // bit over the full SufficientStats surface: clean, NaN-masked and
  // weighted data, at row counts straddling the 64-row mask-word
  // boundary (63/64/65) and the 8-wide tile/pack boundaries. 17 columns
  // = 2 tiles + 1, so padded tile lanes are always live.
  const auto kernels = AvailableGramKernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_STREQ(kernels.front()->name, "scalar");
  const std::size_t vars = 17;
  uint64_t seed = 211;
  for (std::size_t rows : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                           std::size_t{129}, std::size_t{260}}) {
    for (double nan_rate : {0.0, 0.08}) {
      for (bool weighted : {false, true}) {
        ++seed;
        auto data = NoisyData(vars, rows, nan_rate, seed);
        NumericDataset ds;
        ds.columns = cdi::SpansOf(data);
        std::vector<double> w;
        if (weighted) {
          Rng rng(seed ^ 0x9e3779b9);
          w.resize(rows);
          for (auto& x : w) x = rng.Uniform(0.25, 2.0);
          ds.weights = w;
        }
        SufficientStats baseline;
        {
          KernelOverride scalar(kernels.front());
          auto r = SufficientStats::Compute(ds);
          ASSERT_TRUE(r.ok());
          baseline = *std::move(r);
        }
        for (const GramKernelFns* k : kernels) {
          KernelOverride use(k);
          // A 4-thread pool at the largest size doubles as a
          // thread-count determinism check per backend.
          std::unique_ptr<ThreadPool> pool;
          if (rows == 260) pool = std::make_unique<ThreadPool>(4);
          auto got = SufficientStats::Compute(ds, pool.get());
          ASSERT_TRUE(got.ok()) << k->name;
          const std::string ctx = std::string(k->name) + " rows=" +
                                  std::to_string(rows) +
                                  (weighted ? " weighted" : "") +
                                  (nan_rate > 0 ? " nan" : "");
          EXPECT_EQ(got->complete_mask(), baseline.complete_mask()) << ctx;
          EXPECT_EQ(got->means(), baseline.means()) << ctx;
          EXPECT_EQ(got->weight_sum(), baseline.weight_sum()) << ctx;
          EXPECT_TRUE(BitwiseEqual(got->cross_products(),
                                   baseline.cross_products()))
              << ctx;
        }
      }
    }
  }
}

TEST(GramKernelTest, AppendRowsBitwiseIdenticalPerBackend) {
  // AppendRows re-sweeps through the same kernel hooks (pack,
  // present-bits, tiles); each backend must land on the bitwise
  // recompute just like the scalar one does.
  const std::size_t n0 = 150, n1 = 221;
  auto data = NoisyData(9, n1, 0.05, 311);
  for (const GramKernelFns* k : AvailableGramKernels()) {
    KernelOverride use(k);
    NumericDataset base;
    base.columns = PrefixSpans(data, n0);
    auto stats = SufficientStats::Compute(base);
    ASSERT_TRUE(stats.ok()) << k->name;

    auto rows_appended = *stats;
    ASSERT_TRUE(rows_appended.AppendRows(cdi::SpansOf(data), n1 - n0).ok())
        << k->name;
    NumericDataset tall;
    tall.columns = cdi::SpansOf(data);
    auto tall_full = SufficientStats::Compute(tall);
    ASSERT_TRUE(tall_full.ok()) << k->name;
    EXPECT_EQ(rows_appended.complete_mask(), tall_full->complete_mask())
        << k->name;
    EXPECT_TRUE(BitwiseEqual(rows_appended.cross_products(),
                             tall_full->cross_products()))
        << k->name;
  }
}

// ------------------------------------------------- PartialCorrelation

/// Correlation matrix of a well-conditioned random dataset.
Matrix RandomCorrelation(std::size_t vars, uint64_t seed) {
  auto data = NoisyData(vars, 400, 0.0, seed);
  NumericDataset ds;
  ds.columns = cdi::SpansOf(data);
  auto stats = SufficientStats::Compute(ds);
  EXPECT_TRUE(stats.ok());
  return stats->Correlation();
}

TEST(CorrelationTest, PartialCorrelationMatchesReferenceBitwise) {
  // Random correlations, every conditioning-set size 0..8, conditioning
  // sets in random (unsorted) order: the packed row-by-row factor must
  // reproduce the Submatrix + Cholesky reference to the bit.
  const std::size_t vars = 12;
  for (uint64_t seed : {421u, 431u, 441u}) {
    const Matrix corr = RandomCorrelation(vars, seed);
    Rng rng(seed + 2);
    for (std::size_t k = 0; k <= 8; ++k) {
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::size_t> order(vars);
        for (std::size_t v = 0; v < vars; ++v) order[v] = v;
        rng.Shuffle(&order);
        const std::size_t i = order[0];
        const std::size_t j = order[1];
        const std::vector<std::size_t> given(order.begin() + 2,
                                             order.begin() + 2 + k);
        auto fast = PartialCorrelation(corr, i, j, given);
        auto ref = cdi::testing::ReferencePartialCorrelation(corr, i, j,
                                                             given);
        ASSERT_TRUE(fast.ok());
        ASSERT_TRUE(ref.ok());
        EXPECT_EQ(*fast, *ref) << "seed " << seed << " |S|=" << k;
      }
    }
  }

  // Inconsistent correlations (2 and 3 perfectly correlated, yet opposite
  // in their correlation with 0): no positive factor exists even with
  // the ridge, so both sides take the precision-matrix fallback.
  const Matrix bad = Matrix::FromRows({{1.0, 0.9, 0.5, -0.5},
                                       {0.9, 1.0, 0.2, 0.2},
                                       {0.5, 0.2, 1.0, 1.0},
                                       {-0.5, 0.2, 1.0, 1.0}});
  Matrix sub = bad.Submatrix({2, 3, 0, 1});
  for (std::size_t d = 0; d < sub.rows(); ++d) sub(d, d) += 1e-10;
  ASSERT_FALSE(Cholesky(sub).ok());
  auto fast = PartialCorrelation(bad, 0, 1, {2, 3});
  auto ref = cdi::testing::ReferencePartialCorrelation(bad, 0, 1, {2, 3});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(*fast, *ref);
  EXPECT_EQ(*fast, PartialCorrelationPrecisionFallback(bad, 0, 1, {2, 3}));
}

TEST(CorrelationTest, CompleteRowCountEdgePatterns) {
  // Ragged columns: the count clamps to the shortest column.
  std::vector<double> longcol(10, 1.0);
  std::vector<double> shortcol(4, 1.0);
  NumericDataset ragged;
  ragged.columns = {longcol, shortcol};
  EXPECT_EQ(CompleteRowCount(ragged), 4u);
  NumericDataset empty;
  EXPECT_EQ(CompleteRowCount(empty), 0u);
  // NaN exactly at both sides of a word boundary.
  std::vector<double> col(128, 2.0);
  col[63] = kNaN;
  col[64] = kNaN;
  NumericDataset ds;
  ds.columns = {col};
  EXPECT_EQ(CompleteRowCount(ds), 126u);
}

}  // namespace
}  // namespace cdi::stats
