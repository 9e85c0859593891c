// Brute-force reference checks for the GPT block: attention computed
// element by element from first principles, compared against the
// library's tiled causal-attention kernel (tensor::CausalAttention*)
// through the public FlatParamModel interface.
#include <gtest/gtest.h>

#include <cmath>

#include "model/gpt.hpp"

namespace zero::model {
namespace {

// Direct scalar implementation of one pre-norm transformer block (no
// batching tricks, no head splitting) for a single sequence.
struct ScalarRef {
  std::int64_t seq, hidden, heads;
  float eps;

  std::vector<float> LayerNorm(const std::vector<float>& x,
                               const float* gamma, const float* beta) const {
    std::vector<float> y(x.size());
    for (std::int64_t t = 0; t < seq; ++t) {
      double mu = 0;
      for (std::int64_t d = 0; d < hidden; ++d) {
        mu += x[static_cast<std::size_t>(t * hidden + d)];
      }
      mu /= hidden;
      double var = 0;
      for (std::int64_t d = 0; d < hidden; ++d) {
        const double diff = x[static_cast<std::size_t>(t * hidden + d)] - mu;
        var += diff * diff;
      }
      var /= hidden;
      const double rs = 1.0 / std::sqrt(var + eps);
      for (std::int64_t d = 0; d < hidden; ++d) {
        y[static_cast<std::size_t>(t * hidden + d)] = static_cast<float>(
            (x[static_cast<std::size_t>(t * hidden + d)] - mu) * rs *
                gamma[d] +
            beta[d]);
      }
    }
    return y;
  }

  // y[t, o] = sum_d x[t, d] * w[o, d] + b[o]
  std::vector<float> Linear(const std::vector<float>& x, const float* w,
                            const float* b, std::int64_t in,
                            std::int64_t out_dim) const {
    std::vector<float> y(static_cast<std::size_t>(seq * out_dim), 0.0f);
    for (std::int64_t t = 0; t < seq; ++t) {
      for (std::int64_t o = 0; o < out_dim; ++o) {
        double acc = b != nullptr ? b[o] : 0.0;
        for (std::int64_t d = 0; d < in; ++d) {
          acc += static_cast<double>(x[static_cast<std::size_t>(t * in + d)]) *
                 w[o * in + d];
        }
        y[static_cast<std::size_t>(t * out_dim + o)] =
            static_cast<float>(acc);
      }
    }
    return y;
  }

  std::vector<float> CausalAttention(const std::vector<float>& q,
                                     const std::vector<float>& k,
                                     const std::vector<float>& v) const {
    const std::int64_t hd = hidden / heads;
    const double scale = 1.0 / std::sqrt(static_cast<double>(hd));
    std::vector<float> ctx(static_cast<std::size_t>(seq * hidden), 0.0f);
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t t = 0; t < seq; ++t) {
        // Scores against positions 0..t.
        std::vector<double> scores(static_cast<std::size_t>(t + 1));
        double mx = -1e300;
        for (std::int64_t u = 0; u <= t; ++u) {
          double dot = 0;
          for (std::int64_t d = 0; d < hd; ++d) {
            dot += static_cast<double>(
                       q[static_cast<std::size_t>(t * hidden + h * hd + d)]) *
                   k[static_cast<std::size_t>(u * hidden + h * hd + d)];
          }
          scores[static_cast<std::size_t>(u)] = dot * scale;
          mx = std::max(mx, scores[static_cast<std::size_t>(u)]);
        }
        double z = 0;
        for (auto& s : scores) {
          s = std::exp(s - mx);
          z += s;
        }
        for (std::int64_t u = 0; u <= t; ++u) {
          const double w = scores[static_cast<std::size_t>(u)] / z;
          for (std::int64_t d = 0; d < hd; ++d) {
            ctx[static_cast<std::size_t>(t * hidden + h * hd + d)] +=
                static_cast<float>(
                    w * v[static_cast<std::size_t>(u * hidden + h * hd + d)]);
          }
        }
      }
    }
    return ctx;
  }
};

TEST(GptReferenceTest, LossMatchesScalarReference) {
  GptConfig cfg;
  cfg.vocab = 13;
  cfg.seq = 6;
  cfg.hidden = 12;
  cfg.layers = 1;
  cfg.heads = 3;
  GptModel model(cfg, {});
  const auto& layout = model.layout();
  std::vector<float> params(static_cast<std::size_t>(layout.total_numel()));
  model.InitParameters(params, 77);

  Batch batch;
  batch.rows = 1;
  batch.cols = cfg.seq;
  batch.inputs = {1, 4, 7, 2, 9, 12};
  batch.targets = {4, 7, 2, 9, 12, 0};

  // Library loss.
  std::vector<float> grads(params.size(), 0.0f);
  DirectParamProvider provider(layout, params);
  AccumulatingGradSink sink(layout, grads);
  const float lib_loss = model.Step(batch, provider, sink);

  // Scalar reference, reading parameters via the layout names.
  const auto at = [&](const std::string& name) {
    return params.data() + layout.Find(name).offset;
  };
  ScalarRef ref{cfg.seq, cfg.hidden, cfg.heads, cfg.ln_eps};
  const std::int64_t H = cfg.hidden;

  // Embedding.
  std::vector<float> x(static_cast<std::size_t>(cfg.seq * H));
  for (std::int64_t t = 0; t < cfg.seq; ++t) {
    for (std::int64_t d = 0; d < H; ++d) {
      x[static_cast<std::size_t>(t * H + d)] =
          at("wte")[batch.inputs[static_cast<std::size_t>(t)] * H + d] +
          at("wpe")[t * H + d];
    }
  }

  // Block 0.
  const auto a = ref.LayerNorm(x, at("h0.ln1.g"), at("h0.ln1.b"));
  const auto qkv =
      ref.Linear(a, at("h0.attn.w_qkv"), at("h0.attn.b_qkv"), H, 3 * H);
  std::vector<float> q(static_cast<std::size_t>(cfg.seq * H)),
      k(q.size()), v(q.size());
  for (std::int64_t t = 0; t < cfg.seq; ++t) {
    for (std::int64_t d = 0; d < H; ++d) {
      q[static_cast<std::size_t>(t * H + d)] =
          qkv[static_cast<std::size_t>(t * 3 * H + d)];
      k[static_cast<std::size_t>(t * H + d)] =
          qkv[static_cast<std::size_t>(t * 3 * H + H + d)];
      v[static_cast<std::size_t>(t * H + d)] =
          qkv[static_cast<std::size_t>(t * 3 * H + 2 * H + d)];
    }
  }
  const auto ctx = ref.CausalAttention(q, k, v);
  auto o = ref.Linear(ctx, at("h0.attn.w_o"), at("h0.attn.b_o"), H, H);
  for (std::size_t i = 0; i < x.size(); ++i) o[i] += x[i];  // residual 1
  const auto b2 = ref.LayerNorm(o, at("h0.ln2.g"), at("h0.ln2.b"));
  auto h1 = ref.Linear(b2, at("h0.mlp.w_fc"), at("h0.mlp.b_fc"), H, 4 * H);
  for (auto& u : h1) {  // GELU (tanh approximation)
    const double c = 0.7978845608028654;
    u = static_cast<float>(
        0.5 * u * (1.0 + std::tanh(c * (u + 0.044715 * u * u * u))));
  }
  auto p = ref.Linear(h1, at("h0.mlp.w_pr"), at("h0.mlp.b_pr"), 4 * H, H);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] += o[i];  // residual 2

  // Final norm + tied logits + cross entropy.
  const auto y = ref.LayerNorm(p, at("lnf.g"), at("lnf.b"));
  double total = 0;
  for (std::int64_t t = 0; t < cfg.seq; ++t) {
    std::vector<double> logits(static_cast<std::size_t>(cfg.vocab));
    double mx = -1e300;
    for (std::int64_t w = 0; w < cfg.vocab; ++w) {
      double acc = 0;
      for (std::int64_t d = 0; d < H; ++d) {
        acc += static_cast<double>(
                   y[static_cast<std::size_t>(t * H + d)]) *
               at("wte")[w * H + d];
      }
      logits[static_cast<std::size_t>(w)] = acc;
      mx = std::max(mx, acc);
    }
    double z = 0;
    for (double l : logits) z += std::exp(l - mx);
    total += -(logits[static_cast<std::size_t>(
                   batch.targets[static_cast<std::size_t>(t)])] -
               mx - std::log(z));
  }
  const float ref_loss = static_cast<float>(total / cfg.seq);

  EXPECT_NEAR(lib_loss, ref_loss, 1e-4f * std::abs(ref_loss));
}

TEST(GptReferenceTest, TiedEmbeddingGetsBothGradientContributions) {
  // wte's gradient must include both the logits-projection term and the
  // input-embedding scatter term. Zeroing out one path (by checking the
  // gradient differs from a logits-only model would need surgery);
  // instead verify the cheap invariant: tokens that never appear in the
  // input still receive gradient through the logits path.
  GptConfig cfg;
  cfg.vocab = 11;
  cfg.seq = 4;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.heads = 2;
  GptModel model(cfg, {});
  std::vector<float> params(
      static_cast<std::size_t>(model.layout().total_numel()));
  model.InitParameters(params, 5);
  std::vector<float> grads(params.size(), 0.0f);
  DirectParamProvider provider(model.layout(), params);
  AccumulatingGradSink sink(model.layout(), grads);
  Batch batch;
  batch.rows = 1;
  batch.cols = 4;
  batch.inputs = {1, 2, 3, 4};
  batch.targets = {2, 3, 4, 5};
  (void)model.Step(batch, provider, sink);

  const auto& wte = model.layout().Find("wte");
  // Token 9 is neither input nor target, yet softmax normalization
  // pushes probability mass off it: nonzero gradient via logits.
  double unused_norm = 0;
  for (std::int64_t d = 0; d < cfg.hidden; ++d) {
    unused_norm += std::abs(
        grads[static_cast<std::size_t>(wte.offset + 9 * cfg.hidden + d)]);
  }
  EXPECT_GT(unused_norm, 0.0);

  // Positional embeddings beyond... every position is used here; check
  // wpe rows all received gradient.
  const auto& wpe = model.layout().Find("wpe");
  for (std::int64_t t = 0; t < cfg.seq; ++t) {
    double row = 0;
    for (std::int64_t d = 0; d < cfg.hidden; ++d) {
      row += std::abs(
          grads[static_cast<std::size_t>(wpe.offset + t * cfg.hidden + d)]);
    }
    EXPECT_GT(row, 0.0) << "position " << t;
  }
}

TEST(GptReferenceTest, CausalityHoldsEndToEnd) {
  // Changing a *later* input token must not change the loss contribution
  // of earlier positions. Verify via total loss on a prefix-identical
  // pair: per-position CE for early positions is unchanged, so the loss
  // difference equals the late positions' difference. Cheap proxy:
  // freeze targets to the same values and check the loss changes only
  // through positions >= the edit point by comparing against a
  // recomputed suffix. Here: simply assert loss with a changed LAST
  // input differs, while a model evaluated on seq-1 prefix is identical.
  GptConfig cfg;
  cfg.vocab = 11;
  cfg.seq = 4;
  cfg.hidden = 8;
  cfg.layers = 2;
  cfg.heads = 2;
  GptModel model(cfg, {});
  std::vector<float> params(
      static_cast<std::size_t>(model.layout().total_numel()));
  model.InitParameters(params, 5);

  auto loss_of = [&](std::vector<std::int32_t> inputs) {
    GptModel m(cfg, {});
    std::vector<float> g(params.size(), 0.0f);
    DirectParamProvider provider(m.layout(), params);
    AccumulatingGradSink sink(m.layout(), g);
    Batch b;
    b.rows = 1;
    b.cols = 4;
    b.inputs = std::move(inputs);
    b.targets = {1, 1, 1, 1};
    // Return the summed per-position losses via mean * positions.
    return m.Step(b, provider, sink) * 4.0f;
  };

  const float base = loss_of({3, 4, 5, 6});
  const float changed_last = loss_of({3, 4, 5, 9});
  EXPECT_NE(base, changed_last);
  // The first three positions' contributions are identical, so the
  // difference is bounded by one position's worst-case CE: |dl| <=
  // max single-token CE (~log V plus margin).
  EXPECT_LT(std::abs(base - changed_last),
            2.0f * std::log(static_cast<float>(cfg.vocab)));
}

}  // namespace
}  // namespace zero::model
