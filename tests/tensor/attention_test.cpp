// The causal attention kernels: the forward's row contract (a row's bits
// depend only on its query, its keys/values up to its position and the
// scale), its agreement with a double-precision reference, and the
// recomputing backward against the reference gradient.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/kernels.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandVec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// Dense sequences over a [seqs * s, 3 * heads * hd] qkv buffer.
struct Problem {
  std::int64_t seqs, s, heads, hd;
  std::vector<float> qkv;

  Problem(std::int64_t seqs_, std::int64_t s_, std::int64_t heads_,
          std::int64_t hd_, std::uint64_t seed)
      : seqs(seqs_), s(s_), heads(heads_), hd(hd_),
        qkv(RandVec(static_cast<std::size_t>(seqs_ * s_ * 3 * heads_ * hd_),
                    seed)) {}

  [[nodiscard]] std::int64_t width() const { return heads * hd; }
  [[nodiscard]] std::int64_t ld() const { return 3 * width(); }
  [[nodiscard]] float scale() const {
    return 1.0f / std::sqrt(static_cast<float>(hd));
  }
  [[nodiscard]] const float* row(std::int64_t r) const {
    return qkv.data() + r * ld();
  }

  // Full-sequence forward through trivial row tables.
  [[nodiscard]] std::vector<float> Forward() const {
    std::vector<const float*> k(static_cast<std::size_t>(seqs * s));
    std::vector<const float*> v(k.size());
    for (std::size_t r = 0; r < k.size(); ++r) {
      k[r] = row(static_cast<std::int64_t>(r)) + width();
      v[r] = k[r] + width();
    }
    std::vector<float> ctx(static_cast<std::size_t>(seqs * s * width()));
    std::vector<AttentionSeq> views;
    for (std::int64_t b = 0; b < seqs; ++b) {
      views.push_back({0, s, row(b * s), k.data() + b * s, v.data() + b * s,
                       ctx.data() + b * s * width()});
    }
    CausalAttentionForward(views, heads, hd, scale(), ld(), width());
    return ctx;
  }

  // Double-precision forward of one (sequence, head): probabilities
  // [s, s] (zero above the diagonal) and context [s, hd].
  void Reference(std::int64_t b, std::int64_t h, std::vector<double>& p,
                 std::vector<double>& ctx) const {
    p.assign(static_cast<std::size_t>(s * s), 0.0);
    ctx.assign(static_cast<std::size_t>(s * hd), 0.0);
    const double sc = 1.0 / std::sqrt(static_cast<double>(hd));
    for (std::int64_t i = 0; i < s; ++i) {
      const float* q = row(b * s + i) + h * hd;
      double mx = -std::numeric_limits<double>::infinity();
      for (std::int64_t j = 0; j <= i; ++j) {
        const float* k = row(b * s + j) + width() + h * hd;
        double dot = 0.0;
        for (std::int64_t d = 0; d < hd; ++d) dot += double{q[d]} * k[d];
        p[static_cast<std::size_t>(i * s + j)] = dot * sc;
        mx = std::max(mx, dot * sc);
      }
      double sum = 0.0;
      for (std::int64_t j = 0; j <= i; ++j) {
        double& e = p[static_cast<std::size_t>(i * s + j)];
        sum += (e = std::exp(e - mx));
      }
      for (std::int64_t j = 0; j <= i; ++j) {
        const double pij = p[static_cast<std::size_t>(i * s + j)] /= sum;
        const float* v = row(b * s + j) + 2 * width() + h * hd;
        for (std::int64_t d = 0; d < hd; ++d) {
          ctx[static_cast<std::size_t>(i * hd + d)] += pij * v[d];
        }
      }
    }
  }
};

TEST(CausalAttentionTest, ForwardMatchesDoubleReference) {
  // s and hd straddle the key, query and column tiles.
  const Problem pb(2, 37, 3, 20, 1);
  const std::vector<float> ctx = pb.Forward();
  std::vector<double> p, ref;
  double max_err = 0.0;
  for (std::int64_t b = 0; b < pb.seqs; ++b) {
    for (std::int64_t h = 0; h < pb.heads; ++h) {
      pb.Reference(b, h, p, ref);
      for (std::int64_t i = 0; i < pb.s; ++i) {
        for (std::int64_t d = 0; d < pb.hd; ++d) {
          const float got = ctx[static_cast<std::size_t>(
              (b * pb.s + i) * pb.width() + h * pb.hd + d)];
          max_err = std::max(
              max_err,
              std::abs(got - ref[static_cast<std::size_t>(i * pb.hd + d)]));
        }
      }
    }
  }
  RecordProperty("max_abs_err", std::to_string(max_err));
  EXPECT_LE(max_err, 2e-6);
}

// Masking: a NaN in the last key and value row may reach only the last
// query row; every earlier row keeps its exact bits.
TEST(CausalAttentionTest, LaterKeysNeverReachEarlierRows) {
  Problem pb(1, 45, 2, 16, 2);
  const std::vector<float> want = pb.Forward();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float* last = pb.qkv.data() + (pb.s - 1) * pb.ld();
  std::fill(last + pb.width(), last + 3 * pb.width(), nan);
  const std::vector<float> got = pb.Forward();
  const std::size_t kept = static_cast<std::size_t>((pb.s - 1) * pb.width());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), kept * sizeof(float)), 0);
  for (std::size_t i = kept; i < got.size(); ++i) {
    EXPECT_TRUE(std::isnan(got[i])) << i;
  }
}

// Decode and prefill call the forward on a chunk of a sequence against
// a paged cache: every chunk's rows must be bitwise the full-sequence
// forward's rows, wherever the chunk starts and however the key/value
// rows are scattered.
TEST(CausalAttentionTest, RowSubsetsBitwiseEqualFullSequence) {
  const std::int64_t s = 200;  // crosses kKc = 128 and several key tiles
  for (const std::int64_t hd : {4, 20, 32}) {
    const Problem pb(1, s, 2, hd, 10 + static_cast<std::uint64_t>(hd));
    const std::vector<float> want = pb.Forward();
    const std::int64_t w = pb.width();

    // A paged copy of the K/V rows: 16-row blocks stored in reverse
    // order with a gap between blocks, so no two neighbours are adjacent.
    const std::int64_t block = 16;
    const std::int64_t n_blocks = (s + block - 1) / block;
    std::vector<float> pool(static_cast<std::size_t>(
        n_blocks * (block + 1) * 2 * w));
    std::vector<const float*> pk(static_cast<std::size_t>(s));
    std::vector<const float*> pv(pk.size());
    for (std::int64_t j = 0; j < s; ++j) {
      float* slot = pool.data() +
                    ((n_blocks - 1 - j / block) * (block + 1) + j % block) *
                        2 * w;
      std::memcpy(slot, pb.row(j) + w,
                  static_cast<std::size_t>(2 * w) * sizeof(float));
      pk[static_cast<std::size_t>(j)] = slot;
      pv[static_cast<std::size_t>(j)] = slot + w;
    }
    std::vector<const float*> dk(pk.size()), dv(pk.size());
    for (std::int64_t j = 0; j < s; ++j) {
      dk[static_cast<std::size_t>(j)] = pb.row(j) + w;
      dv[static_cast<std::size_t>(j)] = pb.row(j) + 2 * w;
    }

    for (const std::int64_t chunk : {1, 3, 4, 5, 7, 31, 33, 64, 127, 128,
                                     129, 199}) {
      for (const bool paged : {false, true}) {
        std::vector<float> got(want.size(),
                               std::numeric_limits<float>::quiet_NaN());
        for (std::int64_t pos0 = 0; pos0 < s; pos0 += chunk) {
          const AttentionSeq view{pos0,
                                  std::min(chunk, s - pos0),
                                  pb.row(pos0),
                                  paged ? pk.data() : dk.data(),
                                  paged ? pv.data() : dv.data(),
                                  got.data() + pos0 * w};
          CausalAttentionForward({&view, 1}, pb.heads, hd, pb.scale(),
                                 pb.ld(), w);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "hd " << hd << " chunk " << chunk << " paged " << paged;
      }
    }
  }
}

// Backward against the double-precision gradient of L = sum(w .* ctx),
// whose formula is itself checked by central differences.
TEST(CausalAttentionTest, BackwardMatchesDoubleReference) {
  const Problem pb(2, 37, 3, 20, 3);
  const std::int64_t w = pb.width();
  const std::vector<float> dctx =
      RandVec(static_cast<std::size_t>(pb.seqs * pb.s * w), 4);
  std::vector<float> dqkv(pb.qkv.size(),
                          std::numeric_limits<float>::quiet_NaN());
  CausalAttentionBackward(pb.seqs, pb.s, pb.heads, pb.hd, pb.scale(),
                          pb.qkv.data(), dctx.data(), dqkv.data());

  const double sc = 1.0 / std::sqrt(static_cast<double>(pb.hd));
  std::vector<double> ref(pb.qkv.size(), 0.0);
  std::vector<double> p, ctx;
  for (std::int64_t b = 0; b < pb.seqs; ++b) {
    for (std::int64_t h = 0; h < pb.heads; ++h) {
      pb.Reference(b, h, p, ctx);
      auto at = [&](std::int64_t r, std::int64_t part, std::int64_t d) {
        return static_cast<std::size_t>((b * pb.s + r) * pb.ld() + part * w +
                                        h * pb.hd + d);
      };
      auto g = [&](std::int64_t r, std::int64_t d) {
        return double{dctx[static_cast<std::size_t>((b * pb.s + r) * w +
                                                    h * pb.hd + d)]};
      };
      for (std::int64_t i = 0; i < pb.s; ++i) {
        std::vector<double> dp(static_cast<std::size_t>(i + 1));
        double dot = 0.0;
        for (std::int64_t j = 0; j <= i; ++j) {
          double acc = 0.0;
          for (std::int64_t d = 0; d < pb.hd; ++d) {
            acc += g(i, d) * pb.qkv[at(j, 2, d)];
          }
          dp[static_cast<std::size_t>(j)] = acc;
          dot += p[static_cast<std::size_t>(i * pb.s + j)] * acc;
        }
        for (std::int64_t j = 0; j <= i; ++j) {
          const double pij = p[static_cast<std::size_t>(i * pb.s + j)];
          const double dsij = pij * (dp[static_cast<std::size_t>(j)] - dot);
          for (std::int64_t d = 0; d < pb.hd; ++d) {
            ref[at(i, 0, d)] += sc * dsij * pb.qkv[at(j, 1, d)];
            ref[at(j, 1, d)] += sc * dsij * pb.qkv[at(i, 0, d)];
            ref[at(j, 2, d)] += pij * g(i, d);
          }
        }
      }
    }
  }

  double max_err = 0.0, max_ref = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, std::abs(dqkv[i] - ref[i]));
    max_ref = std::max(max_ref, std::abs(ref[i]));
  }
  RecordProperty("max_abs_err", std::to_string(max_err));
  EXPECT_LE(max_err, 1e-5 * max_ref);

  // The reference formula, by central differences of the double forward.
  auto loss = [&](const Problem& x) {
    double l = 0.0;
    std::vector<double> pp, cc;
    for (std::int64_t b = 0; b < x.seqs; ++b) {
      for (std::int64_t h = 0; h < x.heads; ++h) {
        x.Reference(b, h, pp, cc);
        for (std::int64_t i = 0; i < x.s; ++i) {
          for (std::int64_t d = 0; d < x.hd; ++d) {
            l += cc[static_cast<std::size_t>(i * x.hd + d)] *
                 dctx[static_cast<std::size_t>((b * x.s + i) * w + h * x.hd +
                                               d)];
          }
        }
      }
    }
    return l;
  };
  Rng pick(5);
  for (int t = 0; t < 12; ++t) {
    const std::size_t i = pick.NextU64() % ref.size();
    Problem plus = pb, minus = pb;
    const float eps = 1e-2f;
    plus.qkv[i] += eps;
    minus.qkv[i] -= eps;
    const double h = double{plus.qkv[i]} - minus.qkv[i];
    EXPECT_NEAR(ref[i], (loss(plus) - loss(minus)) / h, 1e-3) << i;
  }
}

}  // namespace
}  // namespace zero::tensor
