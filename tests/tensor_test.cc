#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "embedding/gradcheck.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/topk.h"
#include "tensor/vector.h"
#include "tests/test_util.h"

namespace daakg {
namespace {

constexpr float kTol = 1e-4f;

// ---------------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------------

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(4, 1.5f);
  EXPECT_EQ(v.dim(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(v[i], 1.5f);
  Vector w{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(w.dim(), 3u);
  EXPECT_FLOAT_EQ(w[2], 3.0f);
}

TEST(VectorTest, Arithmetic) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_EQ(a + b, (Vector{5, 7, 9}));
  EXPECT_EQ(b - a, (Vector{3, 3, 3}));
  EXPECT_EQ(a * 2.0f, (Vector{2, 4, 6}));
  Vector c = a;
  c.Axpy(2.0f, b);
  EXPECT_EQ(c, (Vector{9, 12, 15}));
  c = a;
  c.Hadamard(b);
  EXPECT_EQ(c, (Vector{4, 10, 18}));
}

TEST(VectorTest, DotAndNorms) {
  Vector a{3, 4};
  EXPECT_FLOAT_EQ(a.Dot(a), 25.0f);
  EXPECT_FLOAT_EQ(a.Norm(), 5.0f);
  EXPECT_FLOAT_EQ(a.SquaredNorm(), 25.0f);
  EXPECT_FLOAT_EQ(Dot(a, Vector{1, 0}), 3.0f);
}

TEST(VectorTest, NormalizeMakesUnitLength) {
  Vector v{3, 4};
  v.Normalize();
  EXPECT_NEAR(v.Norm(), 1.0f, 1e-6f);
  Vector zero(3);
  zero.Normalize();  // must not divide by zero
  EXPECT_FLOAT_EQ(zero.Norm(), 0.0f);
}

TEST(VectorTest, CosineBoundsAndSpecialCases) {
  Vector a{1, 0};
  Vector b{0, 1};
  EXPECT_NEAR(Cosine(a, a), 1.0f, 1e-6f);
  EXPECT_NEAR(Cosine(a, b), 0.0f, 1e-6f);
  EXPECT_NEAR(Cosine(a, a * -1.0f), -1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(Cosine(a, Vector(2)), 0.0f);  // zero vector
}

TEST(VectorTest, CosineScaleInvariance) {
  Rng rng(3);
  Vector a(8), b(8);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  EXPECT_NEAR(Cosine(a, b), Cosine(a * 7.5f, b * 0.2f), 1e-5f);
}

TEST(VectorTest, DistanceIsMetricOnSamples) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    Vector a(6), b(6), c(6);
    a.InitGaussian(&rng, 1.0f);
    b.InitGaussian(&rng, 1.0f);
    c.InitGaussian(&rng, 1.0f);
    EXPECT_NEAR(EuclideanDistance(a, b), EuclideanDistance(b, a), 1e-5f);
    EXPECT_LE(EuclideanDistance(a, c),
              EuclideanDistance(a, b) + EuclideanDistance(b, c) + 1e-5f);
  }
}

TEST(VectorTest, Concat) {
  Vector ab = Concat(Vector{1, 2}, Vector{3});
  EXPECT_EQ(ab, (Vector{1, 2, 3}));
}

// Both gradients of the one Cosine() against central differences of its
// value; the value is the same with and without gradient buffers.
TEST(VectorTest, CosineGradientsMatchFiniteDifferences) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Vector a(6), b(6);
    a.InitGaussian(&rng, 1.0f);
    b.InitGaussian(&rng, 1.0f);
    Vector da(6), db(6);
    EXPECT_EQ(Cosine(a, b, &da, &db), Cosine(a, b));
    Vector num_da = NumericalGradient(
        [&b](const Vector& x) { return Cosine(x, b); }, a);
    Vector num_db = NumericalGradient(
        [&a](const Vector& x) { return Cosine(a, x); }, b);
    EXPECT_LT(MaxRelativeError(da, num_da), 5e-2f);
    EXPECT_LT(MaxRelativeError(db, num_db), 5e-2f);
  }
}

// Parallel and antiparallel inputs, whose quotient can round past 1 in
// magnitude, stay inside [-1, 1] exactly; the clamp bounds any quotient.
TEST(VectorTest, CosineStaysInsideUnitInterval) {
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    Vector a(1 + trial % 67);
    a.InitGaussian(&rng, 1.0f);
    const float scale = static_cast<float>(rng.NextDouble(0.01, 100.0));
    for (const Vector& b : {a, a * scale, a * -scale}) {
      const float c = Cosine(a, b);
      EXPECT_LE(c, 1.0f);
      EXPECT_GE(c, -1.0f);
    }
  }
  EXPECT_EQ(CosineFromDot(1.5f, 1.0f, 1.0f), 1.0f);
  EXPECT_EQ(CosineFromDot(-1.5f, 1.0f, 1.0f), -1.0f);
}

// A zero input has cosine 0 and zero gradients on both sides, whatever
// the other input; the other input's gradient is not left stale.
TEST(VectorTest, CosineOfZeroVectorIsZeroWithZeroGradients) {
  const Vector zero(3);
  const Vector b{1.0f, -2.0f, 0.5f};
  Vector da(3, 7.0f), db(3, 7.0f);
  EXPECT_EQ(Cosine(zero, b, &da, &db), 0.0f);
  EXPECT_EQ(da, Vector(3));
  EXPECT_EQ(db, Vector(3));
  da.Fill(7.0f);
  db.Fill(7.0f);
  EXPECT_EQ(Cosine(b, zero, &da, &db), 0.0f);
  EXPECT_EQ(da, Vector(3));
  EXPECT_EQ(db, Vector(3));
  EXPECT_EQ(Cosine(zero, zero), 0.0f);
}

// A NaN input gives a NaN cosine: the clamp does not turn a diverged
// representation into a bounded score.
TEST(VectorTest, CosineOfNaNIsNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Vector a{1.0f, nan, 2.0f};
  const Vector b{0.5f, 1.0f, -1.0f};
  EXPECT_TRUE(std::isnan(Cosine(a, b)));
  EXPECT_TRUE(std::isnan(Cosine(b, a)));
  Vector da, db;
  EXPECT_TRUE(std::isnan(Cosine(a, b, &da, &db)));
  EXPECT_TRUE(std::isnan(CosineFromDot(nan, 1.0f, 1.0f)));
}

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

TEST(MatrixTest, RowAccess) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1, 2, 3});
  m.SetRow(1, Vector{4, 5, 6});
  EXPECT_EQ(m.Row(1), (Vector{4, 5, 6}));
  EXPECT_FLOAT_EQ(m(0, 2), 3.0f);
  m.RowAxpy(0, 2.0f, Vector{1, 1, 1});
  EXPECT_EQ(m.Row(0), (Vector{3, 4, 5}));
}

TEST(MatrixTest, IdentityMultiplyIsNoop) {
  Matrix id(4, 4);
  id.SetIdentity();
  Vector x{1, 2, 3, 4};
  EXPECT_EQ(id.Multiply(x), x);
  EXPECT_EQ(id.TransposeMultiply(x), x);
}

TEST(MatrixTest, MultiplyMatchesManual) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1, 0, 2});
  m.SetRow(1, Vector{0, 1, -1});
  Vector y = m.Multiply(Vector{1, 2, 3});
  EXPECT_EQ(y, (Vector{7, -1}));
  Vector z = m.TransposeMultiply(Vector{1, 1});
  EXPECT_EQ(z, (Vector{1, 1, 1}));
}

TEST(MatrixTest, TransposeMultiplyAgreesWithTransposed) {
  Rng rng(6);
  Matrix m(5, 7);
  m.InitGaussian(&rng, 1.0f);
  Vector x(5);
  x.InitGaussian(&rng, 1.0f);
  Matrix transposed(7, 5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 7; ++c) transposed(c, r) = m(r, c);
  }
  Vector a = m.TransposeMultiply(x);
  Vector b = transposed.Multiply(x);
  for (size_t i = 0; i < a.dim(); ++i) EXPECT_NEAR(a[i], b[i], kTol);
}

TEST(MatrixTest, AddOuterMatchesManual) {
  Matrix m(2, 2);
  m.AddOuter(2.0f, Vector{1, 3}, Vector{4, 5});
  EXPECT_FLOAT_EQ(m(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 24.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 30.0f);
}

TEST(MatrixTest, AddOuterThenTransposeMultiplyMatchesTwoCalls) {
  Rng rng(46);
  for (size_t rows : {1u, 5u, 16u}) {
    for (size_t cols : {1u, 9u, 64u}) {
      Matrix m(rows, cols);
      m.InitGaussian(&rng, 1.0f);
      Vector a(rows), b(cols);
      a.InitGaussian(&rng, 1.0f);
      b.InitGaussian(&rng, 1.0f);
      a[0] = 0.0f;  // a zero coefficient skips both the update and the sum
      Matrix want = m;
      want.AddOuter(-0.05f, a, b);
      const Vector want_y = want.TransposeMultiply(a);
      Vector y(cols, 7.0f);
      m.AddOuterThenTransposeMultiply(-0.05f, a.data(), b.data(), y.data());
      EXPECT_TRUE(m == want) << rows << "x" << cols;
      EXPECT_EQ(y, want_y) << rows << "x" << cols;
    }
  }
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_FLOAT_EQ(m.Norm(), 5.0f);
}

TEST(MatrixTest, XavierInitBounded) {
  Rng rng(8);
  Matrix m(10, 10);
  m.InitXavier(&rng);
  float bound = std::sqrt(6.0f / 20.0f);
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_LE(std::fabs(m(r, c)), bound);
    }
  }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

TEST(OpsTest, TopKOrderingAndTies) {
  std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.9f};
  auto top = TopKIndices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie broken by lower index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(OpsTest, TopKClampsK) {
  EXPECT_EQ(TopKIndices({1.0f}, 10).size(), 1u);
  EXPECT_TRUE(TopKIndices({}, 3).empty());
}

// ---------------------------------------------------------------------------
// Blocked similarity / top-K kernels
// ---------------------------------------------------------------------------

TEST(TopKAccumulatorTest, KeepsKLargestInOrder) {
  TopKAccumulator acc(3);
  const float scores[] = {0.1f, 0.9f, 0.4f, 0.7f, 0.2f, 0.8f};
  for (uint32_t i = 0; i < 6; ++i) acc.Push(i, scores[i]);
  EXPECT_EQ(acc.SortedIndices(), (std::vector<uint32_t>{1, 5, 3}));
}

TEST(TopKAccumulatorTest, TiesBreakTowardLowerIndex) {
  TopKAccumulator acc(2);
  acc.Push(4, 0.5f);
  acc.Push(1, 0.5f);
  acc.Push(3, 0.5f);
  acc.Push(2, 0.5f);
  // Matches TopKIndices: equal scores keep the lowest indexes first.
  EXPECT_EQ(acc.SortedIndices(), (std::vector<uint32_t>{1, 2}));
}

TEST(TopKAccumulatorTest, MatchesTopKIndicesOnRandomInput) {
  Rng rng(11);
  std::vector<float> scores(300);
  for (auto& s : scores) s = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  // A few duplicates to exercise tie handling.
  scores[17] = scores[203];
  scores[50] = scores[99];
  for (size_t k : {1u, 7u, 25u, 300u, 500u}) {
    TopKAccumulator acc(k);
    for (uint32_t i = 0; i < scores.size(); ++i) acc.Push(i, scores[i]);
    std::vector<size_t> expected = TopKIndices(scores, k);
    std::vector<uint32_t> got = acc.SortedIndices();
    ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKAccumulatorTest, ZeroKIsNoop) {
  TopKAccumulator acc(0);
  acc.Push(0, 1.0f);
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_TRUE(acc.SortedIndices().empty());
}

TEST(TopKAccumulatorTest, MergeEqualsSingleStream) {
  Rng rng(12);
  std::vector<float> scores(200);
  for (auto& s : scores) s = static_cast<float>(rng.NextDouble());
  TopKAccumulator whole(9);
  TopKAccumulator left(9), right(9);
  for (uint32_t i = 0; i < scores.size(); ++i) {
    whole.Push(i, scores[i]);
    (i < 100 ? left : right).Push(i, scores[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.SortedIndices(), whole.SortedIndices());
}

TEST(TopKAccumulatorTest, ThresholdIsWeakestKeptScore) {
  TopKAccumulator acc(2);
  EXPECT_EQ(acc.Threshold(), -std::numeric_limits<float>::infinity());
  acc.Push(0, 0.3f);
  EXPECT_EQ(acc.Threshold(), -std::numeric_limits<float>::infinity());
  acc.Push(1, 0.8f);
  EXPECT_FLOAT_EQ(acc.Threshold(), 0.3f);
  acc.Push(2, 0.5f);
  EXPECT_FLOAT_EQ(acc.Threshold(), 0.5f);
}

TEST(KernelTest, ActiveDotMatchesNaive) {
  Rng rng(13);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 129u}) {
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b[i] = static_cast<float>(rng.NextDouble() - 0.5);
    }
    double naive = 0.0;
    for (size_t i = 0; i < n; ++i) {
      naive += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(simd::ActiveOps().dot(a.data(), b.data(), n), naive, 1e-4)
        << "n=" << n;
  }
}

TEST(KernelTest, CountGreaterMatchesNaive) {
  Rng rng(14);
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 100u, 1023u}) {
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.NextDouble());
    const float threshold = 0.5f;
    size_t naive = 0;
    for (float v : values) naive += v > threshold;
    EXPECT_EQ(CountGreater(values.data(), n, threshold), naive) << "n=" << n;
  }
}

TEST(KernelTest, CountGreaterIsStrict) {
  const float values[] = {1.0f, 2.0f, 2.0f, 3.0f};
  EXPECT_EQ(CountGreater(values, 4, 2.0f), 1u);
}

// Brute-force reference for the blocked kernels: full similarity matrix via
// sequential dots, top-K via TopKIndices (the seed pool-build algorithm).
Matrix NaiveSimMatrix(const Matrix& a, const Matrix& b) {
  Matrix sim(a.rows(), b.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < b.rows(); ++c) {
      float acc = 0.0f;
      for (size_t i = 0; i < a.cols(); ++i) {
        acc += a.RowData(r)[i] * b.RowData(c)[i];
      }
      sim(r, c) = acc;
    }
  }
  return sim;
}

TEST(KernelTest, BlockedSimTopKMatchesBruteForce) {
  Rng rng(15);
  // Odd sizes exercise partial tiles; dim 19 exercises the unroll tail.
  Matrix a(67, 19), b(53, 19);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  const size_t row_k = 9, col_k = 5;
  const Matrix sim = NaiveSimMatrix(a, b);

  for (bool parallel : {false, true}) {
    BlockedKernelOptions options;
    options.row_block = 16;
    options.col_block = 24;
    options.parallel = parallel;
    SimTopK topk = BlockedSimTopK(a, b, row_k, col_k, options);
    ASSERT_EQ(topk.row_topk.size(), a.rows());
    ASSERT_EQ(topk.col_topk.size(), b.rows());
    for (size_t r = 0; r < a.rows(); ++r) {
      std::vector<float> row(sim.RowData(r), sim.RowData(r) + sim.cols());
      std::vector<size_t> expected = TopKIndices(row, row_k);
      ASSERT_EQ(topk.row_topk[r].size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(topk.row_topk[r][i].index, expected[i])
            << "parallel=" << parallel << " row=" << r << " i=" << i;
      }
    }
    for (size_t c = 0; c < b.rows(); ++c) {
      std::vector<float> col(a.rows());
      for (size_t r = 0; r < a.rows(); ++r) col[r] = sim(r, c);
      std::vector<size_t> expected = TopKIndices(col, col_k);
      ASSERT_EQ(topk.col_topk[c].size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(topk.col_topk[c][i].index, expected[i])
            << "parallel=" << parallel << " col=" << c << " i=" << i;
      }
    }
  }
}

TEST(KernelTest, BlockedSimTopKSkipsDirectionsWithZeroK) {
  Rng rng(16);
  Matrix a(10, 8), b(12, 8);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  SimTopK topk = BlockedSimTopK(a, b, 3, 0);
  for (const auto& row : topk.row_topk) EXPECT_EQ(row.size(), 3u);
  for (const auto& col : topk.col_topk) EXPECT_TRUE(col.empty());
}

TEST(KernelTest, BlockedSimTopKEmptyInputs) {
  SimTopK topk = BlockedSimTopK(Matrix(0, 4), Matrix(0, 4), 3, 3);
  EXPECT_TRUE(topk.row_topk.empty());
  EXPECT_TRUE(topk.col_topk.empty());
}

TEST(KernelTest, BlockedSimStatsMatchTwoPassReference) {
  Rng rng(18);
  // Unit rows (cells are cosines); several 256-row statistics blocks and
  // ragged tiles on both sides.
  Matrix a(600, 13), b(301, 13);
  for (Matrix* m : {&a, &b}) {
    m->InitGaussian(&rng, 1.0f);
    for (size_t r = 0; r < m->rows(); ++r) {
      Vector v = m->Row(r);
      v.Normalize();
      m->SetRow(r, v);
    }
  }
  const Matrix sim = testing_util::DenseSim(a, b);
  const double z = 0.05;
  const SimStats stats = BlockedSimStats(a, b, z);
  // Max-shifted two-pass log-sum-exp over a row or column of cells.
  auto check = [&](const std::vector<float>& v, float max, double lse) {
    double m = -1e30;
    for (float x : v) m = std::max(m, static_cast<double>(x) / z);
    double acc = 0.0;
    for (float x : v) acc += std::exp(static_cast<double>(x) / z - m);
    EXPECT_EQ(max, *std::max_element(v.begin(), v.end()));
    EXPECT_NEAR(lse, m + std::log(acc), 1e-12 * std::abs(m + std::log(acc)));
  };
  for (size_t r = 0; r < sim.rows(); ++r) {
    check(std::vector<float>(sim.RowData(r), sim.RowData(r) + sim.cols()),
          stats.row_max[r], stats.row_lse[r]);
  }
  for (size_t c = 0; c < sim.cols(); ++c) {
    std::vector<float> col(sim.rows());
    for (size_t r = 0; r < sim.rows(); ++r) col[r] = sim(r, c);
    check(col, stats.col_max[c], stats.col_lse[c]);
  }

  // Bitwise the same over the materialized cells, serially, and for any
  // tile shape.
  auto expect_same = [&](const SimStats& got) {
    EXPECT_EQ(got.row_max, stats.row_max);
    EXPECT_EQ(got.col_max, stats.col_max);
    EXPECT_EQ(got.row_lse, stats.row_lse);
    EXPECT_EQ(got.col_lse, stats.col_lse);
  };
  expect_same(DenseSimStats(sim, z));
  for (auto [parallel, row_block, col_block] :
       {std::tuple{false, 64, 256}, std::tuple{true, 5, 7},
        std::tuple{false, 3, 11}}) {
    BlockedKernelOptions options;
    options.parallel = parallel;
    options.row_block = row_block;
    options.col_block = col_block;
    expect_same(BlockedSimStats(a, b, z, options));
  }
}

TEST(KernelTest, BlockedSimVisitStreamsMatMulCells) {
  Rng rng(19);
  Matrix a(27, 17), b(31, 17);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  const Matrix full = testing_util::DenseSim(a, b);
  for (bool parallel : {false, true}) {
    BlockedKernelOptions options;
    options.row_block = 8;
    options.col_block = 12;
    options.parallel = parallel;
    Matrix seen(a.rows(), b.rows());
    seen.Fill(std::numeric_limits<float>::quiet_NaN());
    BlockedSimVisit(
        a, b,
        [&](size_t r, size_t c0, const float* sims, size_t count) {
          for (size_t j = 0; j < count; ++j) seen(r, c0 + j) = sims[j];
        },
        options);
    for (size_t r = 0; r < seen.rows(); ++r) {
      for (size_t c = 0; c < seen.cols(); ++c) {
        EXPECT_EQ(seen(r, c), full(r, c))
            << "parallel=" << parallel << " r=" << r << " c=" << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------------

TEST(SimdTest, ActiveBackendIsResolvable) {
  const simd::Ops& ops = simd::ActiveOps();
  EXPECT_TRUE(ops.backend == simd::Backend::kScalar ||
              ops.backend == simd::Backend::kAvx2);
  EXPECT_STREQ(simd::BackendName(ops.backend), ops.name);
}

TEST(SimdTest, ScalarKernelsMatchNaive) {
  Rng rng(40);
  const simd::Ops& ops = simd::ScalarOps();
  for (size_t n : {0u, 1u, 3u, 7u, 8u, 15u, 64u, 129u}) {
    std::vector<float> a(n), b(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b[i] = static_cast<float>(rng.NextDouble() - 0.5);
      y[i] = static_cast<float>(rng.NextDouble() - 0.5);
    }
    double naive_dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      naive_dot += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(ops.dot(a.data(), b.data(), n), naive_dot, 1e-4) << "n=" << n;

    std::vector<float> y2 = y;
    ops.axpy(0.37f, a.data(), y2.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y2[i], y[i] + 0.37f * a[i]) << "n=" << n << " i=" << i;
    }
    ops.scale(y2.data(), n, 0.5f);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y2[i], (y[i] + 0.37f * a[i]) * 0.5f) << "n=" << n;
    }
  }
}

TEST(SimdTest, Dot4MatchesDotPerColumnOnEveryBackend) {
  Rng rng(41);
  std::vector<const simd::Ops*> tables = {&simd::ScalarOps()};
  if (simd::Avx2Available()) tables.push_back(simd::Avx2OpsOrNull());
  // Sizes cover the 16-wide body, a lone 8-block and ragged tails.
  for (size_t n : {1u, 4u, 8u, 11u, 16u, 19u, 64u, 100u}) {
    std::vector<float> a(n), b0(n), b1(n), b2(n), b3(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b0[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b1[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b2[i] = static_cast<float>(rng.NextDouble() - 0.5);
      b3[i] = static_cast<float>(rng.NextDouble() - 0.5);
    }
    for (const simd::Ops* ops : tables) {
      float out[4];
      ops->dot4(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), n, out);
      // Bitwise, not approximate: the blocked walk relies on the 4-wide and
      // remainder columns producing identical cells.
      EXPECT_EQ(out[0], ops->dot(a.data(), b0.data(), n))
          << ops->name << " n=" << n;
      EXPECT_EQ(out[1], ops->dot(a.data(), b1.data(), n))
          << ops->name << " n=" << n;
      EXPECT_EQ(out[2], ops->dot(a.data(), b2.data(), n))
          << ops->name << " n=" << n;
      EXPECT_EQ(out[3], ops->dot(a.data(), b3.data(), n))
          << ops->name << " n=" << n;
    }
  }
}

// dot and dot4 return the same bits on every backend (simd.h rounding
// contract). Columns 2 and 3 are cancellation-heavy: past the first
// 16-block, every other 16-block repeats `a` and negates (column 3: nearly
// negates) `b`, so each accumulator lane adds a product and then (nearly)
// its negation. A fused multiply-add keeps the low bits of the second
// product that a separate multiply and add would round away, so a kernel
// that does not fuse where the other does fails here.
TEST(SimdTest, ReductionsAreBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this host/build";
  }
  Rng rng(42);
  const simd::Ops& scalar = simd::ScalarOps();
  const simd::Ops& avx2 = *simd::Avx2OpsOrNull();
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<float> a(n);
    std::vector<std::vector<float>> b(4, std::vector<float>(n));
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      for (auto& col : b) col[i] = static_cast<float>(rng.NextGaussian());
      if (i >= 16 && (i / 16) % 2 == 1) {
        a[i] = a[i - 16];
        b[2][i] = -b[2][i - 16];
        b[3][i] = -b[3][i - 16] * (1.0f + 0x1p-10f);
      }
    }
    float out_scalar[4], out_avx2[4];
    scalar.dot4(a.data(), b[0].data(), b[1].data(), b[2].data(), b[3].data(),
                n, out_scalar);
    avx2.dot4(a.data(), b[0].data(), b[1].data(), b[2].data(), b[3].data(),
              n, out_avx2);
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(scalar.dot(a.data(), b[c].data(), n),
                avx2.dot(a.data(), b[c].data(), n))
          << "n=" << n << " column " << c;
      EXPECT_EQ(out_scalar[c], out_avx2[c]) << "n=" << n << " column " << c;
    }
  }
}

TEST(SimdTest, ElementwiseKernelsAreBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this host/build";
  }
  Rng rng(43);
  const simd::Ops& scalar = simd::ScalarOps();
  const simd::Ops& avx2 = *simd::Avx2OpsOrNull();
  for (size_t n : {1u, 7u, 8u, 9u, 31u, 64u, 1000u}) {
    std::vector<float> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.NextGaussian());
      y[i] = static_cast<float>(rng.NextGaussian());
    }
    for (float alpha : {1.0f, -1.0f, 0.37f, -2.5e-3f}) {
      std::vector<float> ys = y, yv = y;
      scalar.axpy(alpha, x.data(), ys.data(), n);
      avx2.axpy(alpha, x.data(), yv.data(), n);
      // The rounding contract promises bit equality here — training must
      // not diverge across backends.
      EXPECT_EQ(ys, yv) << "alpha=" << alpha << " n=" << n;
      scalar.scale(ys.data(), n, alpha);
      avx2.scale(yv.data(), n, alpha);
      EXPECT_EQ(ys, yv) << "alpha=" << alpha << " n=" << n;
    }
  }
}

// Matrix::MultiplyInto's row r is dot(x, row r) bit for bit, whichever
// backend is active, on ragged shapes: rows come four at a time through
// dot4 with a dot tail, and every backend's dot agrees bitwise.
TEST(SimdTest, MultiplyIntoRowsAreDotsOnEveryBackend) {
  Rng rng(45);
  std::vector<const simd::Ops*> tables = {&simd::ScalarOps()};
  if (simd::Avx2Available()) tables.push_back(simd::Avx2OpsOrNull());
  for (size_t cols : {0u, 1u, 7u, 19u, 64u, 67u}) {
    for (size_t rows = 1; rows <= 9; ++rows) {
      Matrix m(rows, cols);
      m.InitGaussian(&rng, 1.0f);
      Vector x(cols);
      x.InitGaussian(&rng, 1.0f);
      std::vector<float> y(rows, -1.0f);
      m.MultiplyInto(x.data(), y.data());
      for (const simd::Ops* ops : tables) {
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_EQ(y[r], ops->dot(x.data(), m.RowData(r), cols))
              << ops->name << " rows=" << rows << " cols=" << cols
              << " r=" << r;
        }
      }
    }
  }
}

TEST(SimdTest, CountGreaterExactOnEveryBackend) {
  Rng rng(44);
  std::vector<const simd::Ops*> tables = {&simd::ScalarOps()};
  if (simd::Avx2Available()) tables.push_back(simd::Avx2OpsOrNull());
  for (size_t n : {0u, 1u, 8u, 9u, 100u, 1023u}) {
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.NextDouble());
    values.insert(values.end(), {0.5f, 0.5f});  // exact-tie cells
    const float threshold = 0.5f;
    size_t naive = 0;
    for (float v : values) naive += v > threshold;
    for (const simd::Ops* ops : tables) {
      EXPECT_EQ(ops->count_greater(values.data(), values.size(), threshold),
                naive)
          << ops->name << " n=" << n;
    }
  }
}

// The blocked kernels' cells, and the scores in their top-K lists, are the
// scalar reference dots bit for bit, whichever backend is active. The
// width 27 runs one 16-block, a lone 8-block and a 3-element tail.
TEST(SimdTest, BlockedKernelsBackendInvariant) {
  Rng rng(45);
  Matrix a(57, 27), b(49, 27);
  a.InitGaussian(&rng, 1.0f);
  b.InitGaussian(&rng, 1.0f);
  const simd::Ops& scalar = simd::ScalarOps();

  Matrix out(a.rows(), b.rows());
  BlockedSimVisit(a, b, [&](size_t r, size_t c0, const float* sims,
                            size_t count) {
    for (size_t j = 0; j < count; ++j) out(r, c0 + j) = sims[j];
  });
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_EQ(out(r, c), scalar.dot(a.RowData(r), b.RowData(c), a.cols()))
          << "r=" << r << " c=" << c;
    }
  }

  SimTopK topk = BlockedSimTopK(a, b, 7, 5);
  for (size_t r = 0; r < topk.row_topk.size(); ++r) {
    for (const ScoredIndex& e : topk.row_topk[r]) {
      EXPECT_EQ(e.score, out(r, e.index)) << "r=" << r;
    }
  }
  for (size_t c = 0; c < topk.col_topk.size(); ++c) {
    for (const ScoredIndex& e : topk.col_topk[c]) {
      EXPECT_EQ(e.score, out(e.index, c)) << "c=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused step kernels against the composed kernel calls they replace
// ---------------------------------------------------------------------------

// Every size class of the 16-wide body, a lone 8-block, the 32-column
// blocks and the scalar tails.
constexpr size_t kFusedSizes[] = {0,  1,  7,  8,  9,  15, 16, 17,
                                  31, 32, 33, 63, 64, 65, 67};

// The same float bits, or both NaN: a zero's sign counts (EXPECT_EQ would
// take -0 == +0), and a NaN output matches a NaN output.
bool SameFloat(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

void ExpectSameFloats(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameFloat(got[i], want[i]))
        << what << " i=" << i << ": " << got[i] << " vs " << want[i];
  }
}

std::vector<const simd::Ops*> AllTables() {
  std::vector<const simd::Ops*> tables = {&simd::ScalarOps()};
  if (simd::Avx2Available()) tables.push_back(simd::Avx2OpsOrNull());
  return tables;
}

// TransE's margin step as the composed dot/axpy/scale calls that
// simd::Ops::transe_step replaced: both residuals first, then the
// gradients, then the updates of h, r, t and t' in that order.
float ComposedTransEStep(const simd::Ops& ops, float* h, float* r, float* t,
                         float* tn, size_t n, float margin, float lr) {
  std::vector<float> g_pos(h, h + n), g_neg(h, h + n);
  ops.axpy(1.0f, r, g_pos.data(), n);
  ops.axpy(-1.0f, t, g_pos.data(), n);
  ops.axpy(1.0f, r, g_neg.data(), n);
  ops.axpy(-1.0f, tn, g_neg.data(), n);
  const float f_pos = std::sqrt(ops.dot(g_pos.data(), g_pos.data(), n));
  const float f_neg = std::sqrt(ops.dot(g_neg.data(), g_neg.data(), n));
  const float loss = margin + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;
  ops.scale(g_pos.data(), n, 1.0f / (f_pos + simd::kTransEEps));
  ops.scale(g_neg.data(), n, 1.0f / (f_neg + simd::kTransEEps));
  std::vector<float> g_h = g_pos;
  ops.axpy(-1.0f, g_neg.data(), g_h.data(), n);
  ops.axpy(-lr, g_h.data(), h, n);
  ops.axpy(-lr, g_h.data(), r, n);
  ops.axpy(lr, g_pos.data(), t, n);
  ops.axpy(-lr, g_neg.data(), tn, n);
  return loss;
}

// Three entity rows and one relation row; a case names the entity rows
// that play h, t and t', so rows alias when a case repeats an index.
struct TransERows {
  std::vector<float> ent, rel;
  size_t n;
  float* Ent(size_t row) { return ent.data() + row * n; }
};

enum class TransECase { kRandom, kZeroLoss, kNaN, kInf };

TransERows MakeTransERows(size_t n, TransECase c, Rng* rng) {
  TransERows rows{std::vector<float>(3 * n), std::vector<float>(n), n};
  // Row values comparable to the steps, so a fused multiply-add or a
  // reordered update rounds differently somewhere.
  for (float& v : rows.ent) v = static_cast<float>(0.3 * rng->NextGaussian());
  for (float& v : rows.rel) v = static_cast<float>(0.3 * rng->NextGaussian());
  if (n == 0) return rows;
  switch (c) {
    case TransECase::kRandom:
      break;
    case TransECase::kZeroLoss:
      // t = h + r exactly and t' far away: f = 0 and f' > margin.
      for (size_t i = 0; i < n; ++i) {
        rows.Ent(1)[i] = rows.Ent(0)[i] + rows.rel[i];
        rows.Ent(2)[i] = 50.0f;
      }
      break;
    case TransECase::kNaN:
      rows.Ent(0)[n / 2] = std::numeric_limits<float>::quiet_NaN();
      break;
    case TransECase::kInf:
      rows.Ent(1)[n - 1] = std::numeric_limits<float>::infinity();
      rows.rel[0] = -std::numeric_limits<float>::infinity();
      break;
  }
  return rows;
}

TEST(SimdTest, TransEStepMatchesComposedKernelsOnEveryBackend) {
  Rng rng(47);
  const float margin = 1.0f;
  // (h, t, t') as entity rows: distinct, then every aliasing of the three.
  const size_t roles[][3] = {{0, 1, 2}, {0, 0, 2}, {0, 1, 0},
                             {0, 1, 1}, {0, 0, 0}};
  for (size_t n : kFusedSizes) {
    for (TransECase c : {TransECase::kRandom, TransECase::kZeroLoss,
                         TransECase::kNaN, TransECase::kInf}) {
      for (const auto& role : roles) {
        const bool distinct = role[0] != role[1] && role[1] != role[2] &&
                              role[0] != role[2];
        if (c == TransECase::kZeroLoss && !distinct) continue;
        for (float lr : {0.05f, 0.37f}) {
          const TransERows start = MakeTransERows(n, c, &rng);
          for (const simd::Ops* ops : AllTables()) {
            TransERows fused = start, composed = start;
            const float got = ops->transe_step(
                fused.Ent(role[0]), fused.rel.data(), fused.Ent(role[1]),
                fused.Ent(role[2]), n, margin, lr);
            const float want = ComposedTransEStep(
                *ops, composed.Ent(role[0]), composed.rel.data(),
                composed.Ent(role[1]), composed.Ent(role[2]), n, margin, lr);
            const std::string what =
                std::string(ops->name) + " n=" + std::to_string(n) +
                " case=" + std::to_string(static_cast<int>(c)) + " roles=" +
                std::to_string(role[0]) + std::to_string(role[1]) +
                std::to_string(role[2]) + " lr=" + std::to_string(lr);
            EXPECT_TRUE(SameFloat(got, want))
                << what << ": loss " << got << " vs " << want;
            ExpectSameFloats(fused.ent, composed.ent, what + " entities");
            ExpectSameFloats(fused.rel, composed.rel, what + " relation");
            if (c == TransECase::kZeroLoss && n > 0) {
              // A satisfied margin returns 0 and writes no row.
              EXPECT_EQ(got, 0.0f) << what;
              ExpectSameFloats(fused.ent, start.ent, what + " unwritten");
              ExpectSameFloats(fused.rel, start.rel, what + " unwritten");
            }
          }
        }
      }
    }
  }
}

// The A_ent update and product as the composed axpy row pass that
// simd::Ops::add_outer_then_tmv replaced.
void ComposedAddOuterThenTmv(const simd::Ops& ops, float alpha, const float* a,
                             const float* b, float* m, size_t rows,
                             size_t cols, float* y) {
  std::fill(y, y + cols, 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    const float ar = alpha * a[r];
    if (ar != 0.0f) ops.axpy(ar, b, row, cols);
    if (a[r] != 0.0f) ops.axpy(a[r], row, y, cols);
  }
}

TEST(SimdTest, AddOuterThenTmvMatchesComposedKernelsOnEveryBackend) {
  Rng rng(48);
  for (size_t cols : kFusedSizes) {
    for (size_t rows : {1u, 5u, 64u}) {
      for (bool non_finite : {false, true}) {
        std::vector<float> m(rows * cols), a(rows), b(cols);
        for (float& v : m) v = static_cast<float>(0.3 * rng.NextGaussian());
        for (float& v : a) v = static_cast<float>(rng.NextGaussian());
        for (float& v : b) v = static_cast<float>(0.3 * rng.NextGaussian());
        // Zero coefficients skip both the update and the sum; -0 == 0
        // skips too. A coefficient whose alpha * a[r] underflows to zero
        // skips the update only.
        a[0] = 0.0f;
        if (rows > 1) a[1] = -0.0f;
        if (rows > 2) a[2] = std::numeric_limits<float>::denorm_min();
        if (non_finite && cols > 0) {
          b[cols - 1] = std::numeric_limits<float>::infinity();
          m[(rows - 1) * cols] = std::numeric_limits<float>::quiet_NaN();
        }
        for (float alpha : {-0.05f, 0.37f}) {
          for (const simd::Ops* ops : AllTables()) {
            std::vector<float> m_fused = m, m_composed = m;
            std::vector<float> y_fused(cols, 7.0f), y_composed(cols, -7.0f);
            ops->add_outer_then_tmv(alpha, a.data(), b.data(),
                                    m_fused.data(), rows, cols,
                                    y_fused.data());
            ComposedAddOuterThenTmv(*ops, alpha, a.data(), b.data(),
                                    m_composed.data(), rows, cols,
                                    y_composed.data());
            const std::string what =
                std::string(ops->name) + " " + std::to_string(rows) + "x" +
                std::to_string(cols) + " alpha=" + std::to_string(alpha) +
                (non_finite ? " non-finite" : "");
            ExpectSameFloats(m_fused, m_composed, what + " matrix");
            ExpectSameFloats(y_fused, y_composed, what + " y");
            // Row 0's zero coefficient leaves it as it was.
            for (size_t c = 0; c < cols; ++c) {
              EXPECT_TRUE(SameFloat(m_fused[c], m[c])) << what << " c=" << c;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace daakg
