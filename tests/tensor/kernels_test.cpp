#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandVec(std::size_t n, std::uint64_t seed,
                           float scale = 1.0f) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = rng.NextGaussian() * scale;
  return v;
}

// Central-difference check: for scalar L = sum(w .* f(x)), compare
// analytic dL/dx against finite differences.
void CheckGradient(const std::function<float(const std::vector<float>&)>& f,
                   const std::vector<float>& x,
                   const std::vector<float>& analytic_dx, float tol) {
  ASSERT_EQ(x.size(), analytic_dx.size());
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<float> xp = x;
    std::vector<float> xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float numeric = (f(xp) - f(xm)) / (2 * eps);
    EXPECT_NEAR(analytic_dx[i], numeric,
                tol * std::max(1.0f, std::abs(numeric)))
        << "index " << i;
  }
}

TEST(GemmTest, AllTransposeCombinationsAgainstNaive) {
  const std::int64_t m = 5, n = 4, k = 3;
  auto a_mn = RandVec(static_cast<std::size_t>(m * k), 1);
  auto b_kn = RandVec(static_cast<std::size_t>(k * n), 2);

  // Reference NN.
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t kk = 0; kk < k; ++kk)
        ref[static_cast<std::size_t>(i * n + j)] +=
            a_mn[static_cast<std::size_t>(i * k + kk)] *
            b_kn[static_cast<std::size_t>(kk * n + j)];

  // NN
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a_mn.data(), b_kn.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // NT: B stored as [n, k].
  std::vector<float> b_nk(static_cast<std::size_t>(n * k));
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t j = 0; j < n; ++j)
      b_nk[static_cast<std::size_t>(j * k + kk)] =
          b_kn[static_cast<std::size_t>(kk * n + j)];
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(false, true, m, n, k, 1.0f, a_mn.data(), b_nk.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // TN: A stored as [k, m].
  std::vector<float> a_km(static_cast<std::size_t>(k * m));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk)
      a_km[static_cast<std::size_t>(kk * m + i)] =
          a_mn[static_cast<std::size_t>(i * k + kk)];
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(true, false, m, n, k, 1.0f, a_km.data(), b_kn.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);

  // TT
  std::fill(c.begin(), c.end(), 0.0f);
  Gemm(true, true, m, n, k, 1.0f, a_km.data(), b_nk.data(), 0.0f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-5f);
}

TEST(GemmTest, AlphaBetaSemantics) {
  const std::int64_t m = 2, n = 2, k = 2;
  std::vector<float> a{1, 2, 3, 4};
  std::vector<float> b{1, 0, 0, 1};  // identity
  std::vector<float> c{10, 10, 10, 10};
  Gemm(false, false, m, n, k, 2.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_EQ(c[0], 12.0f);  // 10 + 2*1
  EXPECT_EQ(c[3], 18.0f);  // 10 + 2*4
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_EQ(c[0], 1.0f);  // beta=0 overwrites
}

TEST(GeluTest, ForwardKnownValues) {
  std::vector<float> x{0.0f, 1.0f, -1.0f, 3.0f};
  std::vector<float> bias(4, 0.0f), z(4), y(4);
  BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), 1, 4);
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3f);
  EXPECT_NEAR(y[3], 2.9964f, 1e-3f);
}

TEST(GeluTest, BackwardMatchesFiniteDifference) {
  auto x = RandVec(8, 3);
  auto w = RandVec(8, 4);
  std::vector<float> dx(8), dbias(8, 0.0f);
  BiasGeluBackward(x.data(), w.data(), dx.data(), dbias.data(), 1, 8);
  CheckGradient(
      [&](const std::vector<float>& xv) {
        std::vector<float> bias(8, 0.0f), z(8), y(8);
        BiasGeluForward(xv.data(), bias.data(), z.data(), y.data(), 1, 8);
        float loss = 0;
        for (int i = 0; i < 8; ++i) loss += w[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        return loss;
      },
      x, dx, 2e-2f);
}

std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

// The tanh-approximation GELU and its derivative, in double.
double GeluRef(double v) {
  const double c = std::sqrt(2.0 / std::numbers::pi), a = 0.044715;
  return 0.5 * v * (1.0 + std::tanh(c * (v + a * v * v * v)));
}
double GeluGradRef(double v) {
  const double c = std::sqrt(2.0 / std::numbers::pi), a = 0.044715;
  const double t = std::tanh(c * (v + a * v * v * v));
  return 0.5 * (1.0 + t) +
         0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * a * v * v);
}

TEST(GeluTest, DenseSweepMatchesDoubleReference) {
  const std::int64_t rows = 1025, cols = 1024;  // > 1M points
  const std::int64_t n = rows * cols;
  std::vector<float> x(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>(
        -12.0 + 24.0 * static_cast<double>(i) / static_cast<double>(n - 1));
  }
  std::vector<float> bias(static_cast<std::size_t>(cols), 0.0f);
  std::vector<float> z(x.size()), y(x.size()), dx(x.size());
  std::vector<float> ones(x.size(), 1.0f), dbias(bias.size(), 0.0f);
  BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), rows, cols);
  BiasGeluBackward(z.data(), ones.data(), dx.data(), dbias.data(), rows,
                   cols);
  double max_val_err = 0.0, max_grad_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_val_err = std::max(max_val_err, std::abs(y[i] - GeluRef(x[i])));
    max_grad_err =
        std::max(max_grad_err, std::abs(dx[i] - GeluGradRef(x[i])));
  }
  RecordProperty("max_value_abs_err", Sci(max_val_err));
  RecordProperty("max_grad_abs_err", Sci(max_grad_err));
  EXPECT_LE(max_val_err, 1e-6);
  EXPECT_LE(max_grad_err, 1e-6);
}

TEST(GeluTest, SpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x{nan, inf}, bias(2, 0.0f), z(2), y(2);
  BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), 1, 2);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(y[1], inf);
  std::vector<float> dy(2, 1.0f), dx(2), dbias(2, 0.0f);
  BiasGeluBackward(z.data(), dy.data(), dx.data(), dbias.data(), 1, 2);
  EXPECT_TRUE(std::isnan(dx[0]));
  EXPECT_TRUE(std::isnan(dbias[0]));
}

// A vector body and its scalar remainder must round alike: each output
// of a row of any length, starting at any offset, is bit-identical to
// the same element computed alone.
TEST(GeluTest, OutputsIndependentOfPosition) {
  auto src = RandVec(48, 40, 4.0f);
  auto bsrc = RandVec(48, 41);
  auto dsrc = RandVec(48, 42);
  for (std::int64_t len = 1; len <= 40; ++len) {
    for (std::size_t off = 0; off <= 4; ++off) {
      const auto n = static_cast<std::size_t>(len);
      std::vector<float> x(off + n), bias(off + n), dy(off + n);
      std::copy_n(src.begin(), n, x.begin() + off);
      std::copy_n(bsrc.begin(), n, bias.begin() + off);
      std::copy_n(dsrc.begin(), n, dy.begin() + off);
      std::vector<float> z(off + n), y(off + n), dx(off + n);
      std::vector<float> dbias(off + n, 0.0f);
      BiasGeluForward(x.data() + off, bias.data() + off, z.data() + off,
                      y.data() + off, 1, len);
      BiasGeluBackward(z.data() + off, dy.data() + off, dx.data() + off,
                       dbias.data() + off, 1, len);
      for (std::size_t i = 0; i < n; ++i) {
        float z1 = 0.0f, y1 = 0.0f, dx1 = 0.0f, db1 = 0.0f;
        BiasGeluForward(&src[i], &bsrc[i], &z1, &y1, 1, 1);
        BiasGeluBackward(&z1, &dsrc[i], &dx1, &db1, 1, 1);
        EXPECT_EQ(std::memcmp(&y[off + i], &y1, sizeof(float)), 0)
            << "len " << len << " offset " << off << " index " << i;
        EXPECT_EQ(std::memcmp(&dx[off + i], &dx1, sizeof(float)), 0)
            << "len " << len << " offset " << off << " index " << i;
      }
    }
  }
}

TEST(LayerNormTest, ForwardNormalizesRows) {
  const std::int64_t rows = 3, cols = 16;
  auto x = RandVec(static_cast<std::size_t>(rows * cols), 5, 2.0f);
  std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(cols), 0.0f);
  std::vector<float> y(x.size()), mean(3), rstd(3);
  LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                   rstd.data(), rows, cols, 1e-5f);
  for (std::int64_t r = 0; r < rows; ++r) {
    float mu = 0, var = 0;
    for (std::int64_t c = 0; c < cols; ++c) mu += y[static_cast<std::size_t>(r * cols + c)];
    mu /= cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = y[static_cast<std::size_t>(r * cols + c)] - mu;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mu, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(LayerNormTest, BackwardMatchesFiniteDifference) {
  const std::int64_t rows = 2, cols = 6;
  const std::size_t n = static_cast<std::size_t>(rows * cols);
  auto x = RandVec(n, 6);
  auto gamma = RandVec(static_cast<std::size_t>(cols), 7, 0.5f);
  for (float& g : gamma) g += 1.0f;
  auto beta = RandVec(static_cast<std::size_t>(cols), 8, 0.1f);
  auto w = RandVec(n, 9);

  auto loss_fn = [&](const std::vector<float>& xv, const std::vector<float>& gv,
                     const std::vector<float>& bv) {
    std::vector<float> y(n), mean(2), rstd(2);
    LayerNormForward(xv.data(), gv.data(), bv.data(), y.data(), mean.data(),
                     rstd.data(), rows, cols, 1e-5f);
    float loss = 0;
    for (std::size_t i = 0; i < n; ++i) loss += w[i] * y[i];
    return loss;
  };

  std::vector<float> y(n), mean(2), rstd(2);
  LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                   rstd.data(), rows, cols, 1e-5f);
  std::vector<float> dx(n), dgamma(static_cast<std::size_t>(cols), 0.0f),
      dbeta(static_cast<std::size_t>(cols), 0.0f);
  LayerNormBackward(x.data(), gamma.data(), mean.data(), rstd.data(), w.data(),
                    dx.data(), dgamma.data(), dbeta.data(), rows, cols);

  CheckGradient([&](const std::vector<float>& xv) { return loss_fn(xv, gamma, beta); },
                x, dx, 2e-2f);
  CheckGradient([&](const std::vector<float>& gv) { return loss_fn(x, gv, beta); },
                gamma, dgamma, 2e-2f);
  CheckGradient([&](const std::vector<float>& bv) { return loss_fn(x, gamma, bv); },
                beta, dbeta, 2e-2f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  auto x = RandVec(24, 10, 3.0f);
  SoftmaxRows(x.data(), 4, 6);
  for (int r = 0; r < 4; ++r) {
    float sum = 0;
    for (int c = 0; c < 6; ++c) sum += x[static_cast<std::size_t>(r * 6 + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  std::vector<float> x{1000.0f, 1001.0f, 999.0f};
  SoftmaxRows(x.data(), 1, 3);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_GT(x[1], x[0]);
  EXPECT_GT(x[0], x[2]);
}

TEST(SoftmaxTest, RowsMatchDoubleReference) {
  double max_rel_err = 0.0;
  for (std::int64_t len = 1; len <= 512; ++len) {
    auto x = RandVec(static_cast<std::size_t>(len),
                     100 + static_cast<std::uint64_t>(len), 3.0f);
    std::vector<double> ref(x.begin(), x.end());
    const double mx = *std::max_element(ref.begin(), ref.end());
    double sum = 0.0;
    for (double& v : ref) sum += (v = std::exp(v - mx));
    SoftmaxRows(x.data(), 1, len);
    for (std::size_t c = 0; c < x.size(); ++c) {
      const double p = ref[c] / sum;
      max_rel_err = std::max(max_rel_err, std::abs(x[c] - p) / p);
    }
  }
  RecordProperty("max_rel_err", Sci(max_rel_err));
  EXPECT_LE(max_rel_err, 4e-6);
}

TEST(SoftmaxTest, SpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  // Masked (-inf) scores get probability exactly 0.
  std::vector<float> masked{0.5f, ninf, -1.0f, ninf};
  SoftmaxRows(masked.data(), 1, 4);
  EXPECT_EQ(masked[1], 0.0f);
  EXPECT_EQ(masked[3], 0.0f);
  EXPECT_NEAR(masked[0] + masked[2], 1.0f, 1e-6f);
  // A NaN score poisons its row, as the loss scaler needs.
  std::vector<float> poisoned{0.5f, nan, -1.0f};
  SoftmaxRows(poisoned.data(), 1, 3);
  for (float v : poisoned) EXPECT_TRUE(std::isnan(v));
}

// The row routine's bits depend only on the row's values: surrounding a
// row with -inf entries, or starting it at another offset, moves each
// element to another vector lane or into the remainder and must not
// change a single bit.
TEST(SoftmaxTest, OutputsIndependentOfPositionAndMaskedPadding) {
  const float ninf = -std::numeric_limits<float>::infinity();
  for (std::int64_t len = 1; len <= 40; ++len) {
    const auto n = static_cast<std::size_t>(len);
    const auto src =
        RandVec(n, 200 + static_cast<std::uint64_t>(len), 3.0f);
    std::vector<float> want = src;
    SoftmaxRows(want.data(), 1, len);
    for (std::size_t off = 0; off <= 4; ++off) {
      const std::size_t cols = off + n + 3;
      std::vector<float> row(cols, ninf);
      std::copy(src.begin(), src.end(), row.begin() + off);
      SoftmaxRows(row.data(), 1, static_cast<std::int64_t>(cols));
      EXPECT_EQ(std::memcmp(row.data() + off, want.data(), n * sizeof(float)),
                0)
          << "len " << len << " offset " << off;

      std::vector<float> shifted(off + n);
      std::copy(src.begin(), src.end(), shifted.begin() + off);
      SoftmaxRows(shifted.data() + off, 1, len);
      EXPECT_EQ(
          std::memcmp(shifted.data() + off, want.data(), n * sizeof(float)),
          0)
          << "len " << len << " offset " << off;
    }
  }
}

TEST(CrossEntropyTest, UniformLogitsGiveLogVocab) {
  const std::int64_t rows = 2, vocab = 8;
  std::vector<float> logits(static_cast<std::size_t>(rows * vocab), 0.0f);
  std::vector<std::int32_t> targets{3, 5};
  const float loss =
      CrossEntropyLoss(logits.data(), targets.data(), rows, vocab, nullptr);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(CrossEntropyTest, GradientMatchesFiniteDifference) {
  const std::int64_t rows = 2, vocab = 5;
  auto logits = RandVec(static_cast<std::size_t>(rows * vocab), 14);
  std::vector<std::int32_t> targets{1, 4};
  std::vector<float> dlogits(logits.size());
  CrossEntropyLoss(logits.data(), targets.data(), rows, vocab,
                   dlogits.data());
  CheckGradient(
      [&](const std::vector<float>& lv) {
        return CrossEntropyLoss(lv.data(), targets.data(), rows, vocab,
                                nullptr);
      },
      logits, dlogits, 2e-2f);
}

TEST(CrossEntropyTest, PerfectPredictionNearZeroLoss) {
  std::vector<float> logits{20.0f, 0.0f, 0.0f};
  std::vector<std::int32_t> targets{0};
  EXPECT_NEAR(CrossEntropyLoss(logits.data(), targets.data(), 1, 3, nullptr),
              0.0f, 1e-4f);
}

TEST(CrossEntropyTest, NaNLogitGivesNaNLossAndGradient) {
  std::vector<float> logits{0.5f, std::numeric_limits<float>::quiet_NaN(),
                            -1.0f};
  std::vector<std::int32_t> targets{0};
  std::vector<float> dlogits(3);
  EXPECT_TRUE(std::isnan(CrossEntropyLoss(logits.data(), targets.data(), 1,
                                          3, dlogits.data())));
  for (float v : dlogits) EXPECT_TRUE(std::isnan(v));
}

TEST(CrossEntropyTest, OutputsIndependentOfPositionAndMaskedPadding) {
  const float ninf = -std::numeric_limits<float>::infinity();
  for (std::int64_t len = 1; len <= 40; ++len) {
    const auto n = static_cast<std::size_t>(len);
    const auto src = RandVec(n, 300 + static_cast<std::uint64_t>(len), 3.0f);
    const std::vector<std::int32_t> target{static_cast<std::int32_t>(n / 2)};
    std::vector<float> want_d(n);
    const float want =
        CrossEntropyLoss(src.data(), target.data(), 1, len, want_d.data());
    for (std::size_t off = 0; off <= 4; ++off) {
      const std::size_t vocab = off + n + 3;
      std::vector<float> row(vocab, ninf), d(vocab);
      std::copy(src.begin(), src.end(), row.begin() + off);
      const std::vector<std::int32_t> t{
          target[0] + static_cast<std::int32_t>(off)};
      const float got = CrossEntropyLoss(row.data(), t.data(), 1,
                                         static_cast<std::int64_t>(vocab),
                                         d.data());
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "len " << len << " offset " << off;
      EXPECT_EQ(std::memcmp(d.data() + off, want_d.data(), n * sizeof(float)),
                0)
          << "len " << len << " offset " << off;
    }
  }
}

TEST(EmbeddingTest, GatherScatterAreAdjoint) {
  const std::int64_t vocab = 6, dim = 3, n = 4;
  auto table = RandVec(static_cast<std::size_t>(vocab * dim), 15);
  std::vector<std::int32_t> ids{2, 0, 2, 5};
  std::vector<float> out(static_cast<std::size_t>(n * dim));
  EmbeddingGather(table.data(), ids.data(), out.data(), n, dim);
  EXPECT_EQ(out[0], table[static_cast<std::size_t>(2 * dim)]);
  // Scatter-add of ones counts occurrences.
  std::vector<float> dtable(table.size(), 0.0f);
  std::vector<float> dout(out.size(), 1.0f);
  EmbeddingScatterAdd(dtable.data(), ids.data(), dout.data(), n, dim);
  EXPECT_EQ(dtable[static_cast<std::size_t>(2 * dim)], 2.0f);  // id 2 twice
  EXPECT_EQ(dtable[static_cast<std::size_t>(0 * dim)], 1.0f);
  EXPECT_EQ(dtable[static_cast<std::size_t>(1 * dim)], 0.0f);
}

TEST(BlasLikeTest, AxpyScaleNormDot) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  Axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_EQ(y[2], 36.0f);
  Scale(y.data(), 0.5f, 3);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_NEAR(SquaredNorm(x.data(), 3), 14.0f, 1e-6f);
  EXPECT_NEAR(Dot(x.data(), x.data(), 3), 14.0f, 1e-6f);
}

TEST(BiasTest, AddAndGradAreAdjoint) {
  const std::int64_t rows = 3, cols = 4;
  auto x = RandVec(static_cast<std::size_t>(rows * cols), 16);
  std::vector<float> bias{1, 2, 3, 4};
  auto x2 = x;
  AddBiasRows(x2.data(), bias.data(), rows, cols);
  EXPECT_NEAR(x2[5], x[5] + 2.0f, 1e-6f);
  std::vector<float> dbias(4, 0.0f);
  std::vector<float> dy(static_cast<std::size_t>(rows * cols), 1.0f);
  BiasGradFromRows(dy.data(), dbias.data(), rows, cols);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(dbias[static_cast<std::size_t>(c)], 3.0f);
}

}  // namespace
}  // namespace zero::tensor
