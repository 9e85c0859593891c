// The kernels' determinism contract: bitwise-identical results at any
// intra-op worker count. Chunk boundaries depend only on the problem
// shape, each output element is produced by one chunk, and reduction
// partials combine in chunk-index order — so 1 worker, N workers, and
// the serial fallback must agree exactly, which is what keeps the ZeRO
// stage-equivalence tests exact when the pool is enabled.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "tensor/kernels.hpp"
#include "tensor/parallel_for.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

// Runs `fn` (which must write its float results through the returned
// vector) at each worker count and asserts all outputs are bitwise
// identical to the serial run.
template <typename Fn>
void ExpectBitwiseStable(const Fn& fn) {
  std::vector<float> want;
  {
    IntraOpWorkersGuard guard(1);
    want = fn();
  }
  for (int workers : {2, 3, 4}) {
    IntraOpWorkersGuard guard(workers);
    const std::vector<float> got = fn();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(DeterminismTest, GemmBitwiseAcrossWorkerCounts) {
  Rng rng(7);
  const std::int64_t m = 70, n = 90, k = 150;  // packed path
  const auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
  const auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
  const auto c0 = RandomVec(static_cast<std::size_t>(m * n), rng);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      ExpectBitwiseStable([&] {
        std::vector<float> c = c0;
        Gemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, c.data());
        return c;
      });
    }
  }
}

TEST(DeterminismTest, LayerNormForwardBackwardBitwise) {
  Rng rng(11);
  const std::int64_t rows = 333, cols = 65;
  const auto x = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  const auto gamma = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto beta = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto dy = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  ExpectBitwiseStable([&] {
    std::vector<float> y(static_cast<std::size_t>(rows * cols));
    std::vector<float> mean(static_cast<std::size_t>(rows));
    std::vector<float> rstd(static_cast<std::size_t>(rows));
    std::vector<float> dx(y.size());
    std::vector<float> dgamma(static_cast<std::size_t>(cols), 0.5f);
    std::vector<float> dbeta(static_cast<std::size_t>(cols), -0.5f);
    LayerNormForward(x.data(), gamma.data(), beta.data(), y.data(),
                     mean.data(), rstd.data(), rows, cols, 1e-5f);
    LayerNormBackward(x.data(), gamma.data(), mean.data(), rstd.data(),
                      dy.data(), dx.data(), dgamma.data(), dbeta.data(),
                      rows, cols);
    std::vector<float> out;
    for (auto& v : {y, dx, dgamma, dbeta}) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  });
}

TEST(DeterminismTest, FusedBiasActivationBitwise) {
  Rng rng(13);
  const std::int64_t rows = 257, cols = 48;
  const auto x = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  const auto bias = RandomVec(static_cast<std::size_t>(cols), rng);
  const auto dy = RandomVec(static_cast<std::size_t>(rows * cols), rng);
  ExpectBitwiseStable([&] {
    std::vector<float> z(x.size()), y(x.size()), dx(x.size());
    std::vector<float> dbias(static_cast<std::size_t>(cols), 0.0f);
    BiasGeluForward(x.data(), bias.data(), z.data(), y.data(), rows, cols);
    BiasGeluBackward(z.data(), dy.data(), dx.data(), dbias.data(), rows,
                     cols);
    std::vector<float> out;
    for (auto& v : {z, y, dx, dbias}) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  });
}

TEST(DeterminismTest, CausalAttentionForwardBackwardBitwise) {
  Rng rng(31);
  const std::int64_t seqs = 3, s = 70, heads = 3, hd = 20;
  const std::int64_t width = heads * hd;
  const auto qkv = RandomVec(static_cast<std::size_t>(seqs * s * 3 * width),
                             rng);
  const auto dctx = RandomVec(static_cast<std::size_t>(seqs * s * width), rng);
  std::vector<const float*> k(static_cast<std::size_t>(seqs * s));
  std::vector<const float*> v(k.size());
  for (std::size_t r = 0; r < k.size(); ++r) {
    k[r] = qkv.data() + static_cast<std::int64_t>(r) * 3 * width + width;
    v[r] = k[r] + width;
  }
  ExpectBitwiseStable([&] {
    std::vector<float> out(static_cast<std::size_t>(seqs * s * 4 * width));
    std::vector<AttentionSeq> views;
    for (std::int64_t b = 0; b < seqs; ++b) {
      views.push_back({0, s, qkv.data() + b * s * 3 * width,
                       k.data() + b * s, v.data() + b * s,
                       out.data() + b * s * width});
    }
    CausalAttentionForward(views, heads, hd, 0.2236068f, 3 * width, width);
    CausalAttentionBackward(seqs, s, heads, hd, 0.2236068f, qkv.data(),
                            dctx.data(), out.data() + seqs * s * width);
    return out;
  });
}

TEST(DeterminismTest, ReductionsBitwise) {
  Rng rng(17);
  const std::int64_t n = 100000;  // several kRedChunk chunks
  const auto a = RandomVec(static_cast<std::size_t>(n), rng);
  const auto b = RandomVec(static_cast<std::size_t>(n), rng);
  std::vector<Half> h(static_cast<std::size_t>(n));
  FloatToHalf(a.data(), h.data(), h.size());
  ExpectBitwiseStable([&] {
    return std::vector<float>{SquaredNorm(a.data(), n),
                              SquaredNormF16(h.data(), n),
                              Dot(a.data(), b.data(), n)};
  });
}

TEST(DeterminismTest, CrossEntropyBitwise) {
  Rng rng(19);
  const std::int64_t rows = 100, vocab = 73;
  const auto logits = RandomVec(static_cast<std::size_t>(rows * vocab), rng);
  std::vector<std::int32_t> targets(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = static_cast<std::int32_t>(
        rng.NextBelow(static_cast<std::uint64_t>(vocab)));
  }
  ExpectBitwiseStable([&] {
    std::vector<float> dlogits(logits.size());
    const float loss = CrossEntropyLoss(logits.data(), targets.data(), rows,
                                        vocab, dlogits.data());
    std::vector<float> out{loss};
    out.insert(out.end(), dlogits.begin(), dlogits.end());
    return out;
  });
}

TEST(DeterminismTest, AdamUpdateBitwise) {
  Rng rng(23);
  const std::int64_t n = 20000;  // several kAdamChunk chunks
  const auto master0 = RandomVec(static_cast<std::size_t>(n), rng);
  const auto grad = RandomVec(static_cast<std::size_t>(n), rng);
  optim::AdamConfig cfg;
  cfg.weight_decay = 0.01f;
  ExpectBitwiseStable([&] {
    std::vector<float> master = master0;
    std::vector<float> m(static_cast<std::size_t>(n), 0.0f);
    std::vector<float> v(static_cast<std::size_t>(n), 0.0f);
    for (std::int64_t t = 1; t <= 3; ++t) {
      optim::AdamUpdate(cfg, t, master, grad, m, v);
    }
    std::vector<float> out;
    for (auto& s : {master, m, v}) out.insert(out.end(), s.begin(), s.end());
    return out;
  });
}

TEST(DeterminismTest, CastRoundTripBitwise) {
  Rng rng(29);
  const std::int64_t n = 50000;
  const auto src = RandomVec(static_cast<std::size_t>(n), rng);
  ExpectBitwiseStable([&] {
    std::vector<Half> h(static_cast<std::size_t>(n));
    std::vector<float> back(static_cast<std::size_t>(n));
    CastFloatToHalf(src.data(), h.data(), n);
    CastHalfToFloat(h.data(), back.data(), n);
    return back;
  });
}

}  // namespace
}  // namespace zero::tensor
