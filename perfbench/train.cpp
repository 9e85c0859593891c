// Training workloads: one ZeroDpEngine per rank thread over a GptModel,
// driven step by step the way core/trainer.cpp does, with every layer
// timed from outside:
//   - TimedModel wraps the GptModel and hands it a forwarding
//     ParamProvider/GradSink, so each engine AcquireUnit, ReleaseUnit and
//     EmitUnitGrad call is a span inside the model's Step span;
//   - the driver times ZeroDpEngine::TrainStep around Step;
//   - constructors (DeviceMemory + CachingAllocator, GptModel,
//     ZeroDpEngine) are timed for the set-up split;
//   - counts come from Communicator::stats(), CachingAllocator::Stats()
//     and the prefetch / stage-3 counters in obs::Metrics().
// Self times: core.update = TrainStep - Step (gradient reduction,
// overflow check, Adam, parameter all-gather); model.compute = Step -
// acquire - release - emit (the tensor kernels and their pool).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "alloc/caching_allocator.hpp"
#include "alloc/device_memory.hpp"
#include "bench.hpp"
#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"
#include "core/dp_engine.hpp"
#include "model/checkpoint_store.hpp"
#include "model/corpus.hpp"
#include "model/gpt.hpp"
#include "model/transformer_spec.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace zero;

struct TrainShape {
  model::ZeroStage stage = model::ZeroStage::kOsG;
  int ranks = 1;
  int intra_op_workers = 1;
  int prefetch_lookahead = 0;
  model::GptConfig gpt;
  std::int64_t batch_per_rank = 1;
  // Batches per rank; step i trains on batch i % distinct_batches.
  // 0 = a fresh batch every step.
  int distinct_batches = 0;
  // Untimed steps first: stage-3 schedule recording, prefetch pipeline
  // fill, allocator caches.
  int warmup_steps = 0;
  int timed_steps = 0;
};

// Per-rank simulated device capacity: the trainer's default.
constexpr std::size_t kDeviceBytes = 256ull << 20;
constexpr std::uint64_t kModelSeed = 1234;
// One successor per (prev2, prev1) context: next-token prediction is
// learnable within a trial's few dozen steps. (Shapes, and so the
// measured work, do not depend on the data.)
constexpr int kCorpusBranching = 1;
constexpr int kMinTrials = 3;
// Step-time tail reported when the run has at least ten steps beyond it.
constexpr double kTailPct = 90.0;

TrainShape ShapeFor(const std::string& workload) {
  TrainShape s;
  s.gpt.vocab = 128;
  s.gpt.heads = 4;
  if (workload == "train_zero3_comm") {
    s.stage = model::ZeroStage::kOsGP;
    s.ranks = 4;
    s.intra_op_workers = 1;
    s.prefetch_lookahead = 2;
    // The 1.57M block parameters, and so the comm-bound regime, do not
    // depend on the vocabulary.
    s.gpt.vocab = 32;
    s.gpt.hidden = 128;
    s.gpt.layers = 8;
    s.gpt.seq = 16;
    s.gpt.activation_checkpointing = true;
    s.batch_per_rank = 1;
    // 16 fresh tokens a step are too few to learn from in 27 steps: on
    // some seeds the loss stays within batch-to-batch noise of ln(32),
    // at stage 0 as at stage 3. Every step retrains the same batch, so
    // the loss check compares the same tokens before and after training.
    s.distinct_batches = 1;
    s.warmup_steps = 3;
    s.timed_steps = 24;
  } else {
    s.stage = model::ZeroStage::kOsG;
    s.ranks = 2;
    s.intra_op_workers = 2;
    s.prefetch_lookahead = 0;
    s.gpt.hidden = 128;
    s.gpt.layers = 4;
    s.gpt.seq = 128;
    s.gpt.activation_checkpointing = false;
    s.batch_per_rank = 4;
    s.warmup_steps = 2;
    s.timed_steps = 16;
  }
  return s;
}

// Every field the workload depends on is set here, so no ZERO_* fallback
// can apply (main() also refuses to run with one set).
core::EngineConfig EngineFor(const TrainShape& s) {
  core::EngineConfig c;
  c.stage = s.stage;
  c.fp16 = true;
  // Static scaling never skips a step, so the scale must keep every
  // scaled fp16 gradient finite: at 1024 some inputs overflow to a NaN
  // loss within a trial.
  c.loss_scale = 128.0f;
  c.dynamic_loss_scale = false;
  c.accumulation_steps = 1;
  c.max_grad_norm = 0.0f;
  c.offload_optimizer = false;
  c.offload_tier = alloc::TierKind::kDevice;
  c.offload_bandwidth = 0.0;
  c.bucket_elems = 1 << 16;
  c.exact_reductions = false;
  c.intra_op_workers = s.intra_op_workers;
  c.adam = optim::AdamConfig{};
  c.adam.lr = 6e-3f;
  c.prefetch_lookahead = s.prefetch_lookahead;
  c.prefetch_max_bytes = 0;
  c.hierarchical_comm = false;
  c.ranks_per_node = 1;
  c.qwz = false;
  c.hpz = false;
  c.qgz = false;
  c.quant_block = 64;
  c.hpz_max_bytes = 0;
  c.telemetry = obs::TelemetryOptions{};
  c.comm_deadline_ms = 0;
  c.checkpoint_every_n_steps = 0;
  c.checkpoint_path.clear();
  c.fault_spec.clear();
  return c;
}

// Decorator over the real model: Step hands the wrapped model this object
// as its ParamProvider/GradSink, which forwards to the engine and, on
// traced steps, records a span per call.
class TimedModel final : public model::FlatParamModel,
                         public model::ParamProvider,
                         public model::GradSink {
 public:
  TimedModel(model::FlatParamModel& inner, std::vector<Span>& spans, int lane)
      : inner_(inner), spans_(spans), lane_(lane) {}

  [[nodiscard]] const model::ParamLayout& layout() const override {
    return inner_.layout();
  }
  void InitParameters(std::span<float> flat,
                      std::uint64_t seed) const override {
    inner_.InitParameters(flat, seed);
  }

  void Arm(std::int64_t step, bool traced) {
    step_ = step;
    traced_ = traced;
  }

  float Step(const model::Batch& batch, model::ParamProvider& params,
             model::GradSink& grads) override {
    params_ = &params;
    grads_ = &grads;
    if (!traced_) return inner_.Step(batch, *this, *this);
    const std::int64_t t0 = NowNs();
    const float loss = inner_.Step(batch, *this, *this);
    Record("Step", -1, t0);
    return loss;
  }

  std::span<const float> AcquireUnit(int u, model::Phase phase) override {
    if (!traced_) return params_->AcquireUnit(u, phase);
    const std::int64_t t0 = NowNs();
    std::span<const float> p = params_->AcquireUnit(u, phase);
    Record("AcquireUnit", u, t0);
    return p;
  }
  void ReleaseUnit(int u, model::Phase phase) override {
    if (!traced_) return params_->ReleaseUnit(u, phase);
    const std::int64_t t0 = NowNs();
    params_->ReleaseUnit(u, phase);
    Record("ReleaseUnit", u, t0);
  }
  void EmitUnitGrad(int u, std::span<const float> grad) override {
    if (!traced_) return grads_->EmitUnitGrad(u, grad);
    const std::int64_t t0 = NowNs();
    grads_->EmitUnitGrad(u, grad);
    Record("EmitUnitGrad", u, t0);
  }

 private:
  void Record(const char* name, std::int64_t key, std::int64_t t0) {
    spans_.push_back(Span{name, lane_, step_, key, t0, NowNs()});
  }

  model::FlatParamModel& inner_;
  std::vector<Span>& spans_;
  int lane_;
  model::ParamProvider* params_ = nullptr;
  model::GradSink* grads_ = nullptr;
  std::int64_t step_ = -1;
  bool traced_ = false;
};

// What one rank thread measured in one trial.
struct RankTrial {
  std::vector<Span> spans;
  std::vector<float> losses;          // every step, warm-up included
  std::vector<std::int64_t> step_ns;  // TrainStep wall, timed steps
  double device_init_ms = 0, model_init_ms = 0, engine_init_ms = 0;
  comm::CommStats comm;  // DP ledger over the timed steps
  std::uint64_t cache_hits = 0, cache_misses = 0;  // over the timed steps
  std::size_t peak_cached = 0, peak_live = 0;
  std::string error;  // device OOM
};

struct Trial {
  std::vector<RankTrial> ranks;
  double setup_s = 0;   // trial start to every engine constructed
  double window_s = 0;  // wall of the timed steps (barrier to barrier)
  double prefetch_hits = 0, prefetch_misses = 0, materializations = 0;
};

bool Failed(const Trial& t) {
  for (const RankTrial& rt : t.ranks) {
    if (!rt.error.empty()) return true;
  }
  return false;
}

bool IsTracedStep(bool trace, int timed_index) {
  return trace && timed_index % 2 == 1;
}

Trial RunTrial(const TrainShape& s, const core::EngineConfig& ecfg,
               std::uint64_t seed, bool trace) {
  Trial t;
  t.ranks.resize(static_cast<std::size_t>(s.ranks));
  const std::int64_t start = NowNs();
  std::int64_t setup_end = 0, window0 = 0, window1 = 0;
  double hits0 = 0, misses0 = 0, mats0 = 0;
  obs::Counter& hits = obs::Metrics().counter("prefetch.hits");
  obs::Counter& misses = obs::Metrics().counter("prefetch.misses");
  obs::Counter& mats = obs::Metrics().counter("stage3.unit_materializations");
  const int total = s.warmup_steps + s.timed_steps;

  comm::World world(s.ranks);
  world.Run([&](comm::RankContext& ctx) {
    RankTrial& rt = t.ranks[static_cast<std::size_t>(ctx.rank)];
    const bool lead = ctx.rank == 0;
    try {
      const std::int64_t a = NowNs();
      alloc::DeviceMemory device(kDeviceBytes,
                                 "rank" + std::to_string(ctx.rank));
      alloc::CachingAllocator cache(device);
      const std::int64_t b = NowNs();
      comm::Communicator dp = comm::Communicator::WholeWorld(ctx);
      model::DeviceCheckpointStore store(&cache);
      model::GptModel gpt(s.gpt, model::GptSession{&cache, &store, nullptr});
      const std::int64_t c = NowNs();
      TimedModel timed(gpt, rt.spans, ctx.rank);
      core::ZeroDpEngine engine(ecfg, timed, dp, &cache, kModelSeed);
      const std::int64_t d = NowNs();
      rt.device_init_ms = NsToMs(b - a);
      rt.model_init_ms = NsToMs(c - b);
      rt.engine_init_ms = NsToMs(d - c);
      dp.Barrier();
      if (lead) setup_end = NowNs();

      // The run's inputs: ranks shard one seeded stream, so batch j of
      // rank r is batch j * ranks + r of the stream.
      model::MarkovCorpus corpus(s.gpt.vocab, kCorpusBranching, seed);
      const int distinct =
          s.distinct_batches > 0 ? s.distinct_batches : total;
      std::vector<model::Batch> batches;
      for (int j = 0; j < distinct; ++j) {
        for (int r = 0; r < s.ranks; ++r) {
          model::Batch b = corpus.NextBatch(s.batch_per_rank, s.gpt.seq);
          if (r == ctx.rank) batches.push_back(std::move(b));
        }
      }
      rt.losses.resize(static_cast<std::size_t>(total));
      comm::CommStats comm0;
      alloc::CacheStats cache0;
      for (int step = 0; step < total; ++step) {
        if (step == s.warmup_steps) {
          dp.Barrier();
          if (lead) {
            hits0 = static_cast<double>(hits.value());
            misses0 = static_cast<double>(misses.value());
            mats0 = static_cast<double>(mats.value());
            window0 = NowNs();
          }
          dp.Barrier();
          comm0 = dp.stats();
          cache0 = cache.Stats();
        }
        const int timed_index = step - s.warmup_steps;
        const bool traced =
            timed_index >= 0 && IsTracedStep(trace, timed_index);
        timed.Arm(step, traced);
        const std::int64_t t0 = NowNs();
        rt.losses[static_cast<std::size_t>(step)] = engine.TrainStep(
            batches[static_cast<std::size_t>(step % distinct)]);
        const std::int64_t t1 = NowNs();
        if (timed_index >= 0) rt.step_ns.push_back(t1 - t0);
        if (traced) {
          rt.spans.push_back(Span{"TrainStep", ctx.rank, step, -1, t0, t1});
        }
      }
      rt.comm = dp.stats() - comm0;
      const alloc::CacheStats cache1 = cache.Stats();
      rt.cache_hits = cache1.cache_hits - cache0.cache_hits;
      rt.cache_misses = cache1.cache_misses - cache0.cache_misses;
      rt.peak_cached = cache1.peak_cached;
      rt.peak_live = cache1.peak_live;
      dp.Barrier();
      if (lead) {
        window1 = NowNs();
        t.prefetch_hits = static_cast<double>(hits.value()) - hits0;
        t.prefetch_misses = static_cast<double>(misses.value()) - misses0;
        t.materializations = static_cast<double>(mats.value()) - mats0;
      }
      dp.Barrier();
    } catch (const DeviceOomError& e) {
      // Configs are symmetric, so every rank hits the same OOM.
      rt.error = e.what();
    }
  });
  t.setup_s = NsToS(setup_end - start);
  t.window_s = NsToS(window1 - window0);
  return t;
}

// DP-mean loss per step (ranks summed in rank order: deterministic).
std::vector<float> MeanLosses(const Trial& t) {
  std::vector<float> out(t.ranks.front().losses.size(), 0.0f);
  for (const RankTrial& rt : t.ranks) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += rt.losses[i];
  }
  for (float& x : out) x /= static_cast<float>(t.ranks.size());
  return out;
}

// The loss at the end of the trial's fixed step count: the median of the
// last five steps' DP-mean losses, so a single-step loss spike (seen at
// lr 6e-3) does not read as a failure to train while a divergence that
// persists still does.
float FinalLoss(const std::vector<float>& losses) {
  constexpr std::size_t kLast = 5;
  std::vector<double> tail(losses.end() - static_cast<std::ptrdiff_t>(kLast),
                           losses.end());
  return static_cast<float>(Median(tail));
}

// Counts that must repeat exactly in every trial of a run.
std::vector<double> ExactCounts(const Trial& t) {
  std::vector<double> v = {t.prefetch_hits, t.prefetch_misses,
                           t.materializations};
  for (const RankTrial& rt : t.ranks) {
    v.push_back(static_cast<double>(rt.comm.bytes_sent));
    v.push_back(static_cast<double>(rt.comm.messages_sent));
    v.push_back(static_cast<double>(rt.comm.collectives));
  }
  return v;
}

}  // namespace

RunResult RunTrain(const RunArgs& args) {
  const TrainShape s = ShapeFor(args.workload);
  const core::EngineConfig ecfg = EngineFor(s);
  RunResult r;

  std::vector<Trial> trials;
  const std::int64_t begin = NowNs();
  while (static_cast<int>(trials.size()) < kMinTrials ||
         NsToS(NowNs() - begin) < args.seconds) {
    trials.push_back(RunTrial(s, ecfg, args.seed, args.trace));
    if (Failed(trials.back())) break;
  }
  r.trials = static_cast<int>(trials.size());

  const int total = s.warmup_steps + s.timed_steps;
  const double tokens_per_step =
      static_cast<double>(s.batch_per_rank * s.gpt.seq * s.ranks);

  // ---- correctness: finite, decreasing, bit-identical across trials ----
  std::vector<float> losses0;
  std::vector<double> counts0;
  std::uint64_t digest0 = 0;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const Trial& t = trials[k];
    const std::string tag = "trial " + std::to_string(k) + ": ";
    r.attempted += total;
    if (Failed(t)) {
      for (const RankTrial& rt : t.ranks) {
        if (!rt.error.empty()) r.Check(false, tag + "device OOM: " + rt.error);
      }
      r.failed += total;
      continue;
    }
    const std::vector<float> losses = MeanLosses(t);
    Digest dg;
    for (float x : losses) {
      dg.Value(x);
      if (!std::isfinite(x)) ++r.failed;
    }
    const float final_loss = FinalLoss(losses);
    r.Check(std::isfinite(final_loss) && final_loss < losses.front(),
            tag + "final loss " + std::to_string(final_loss) +
                " is not below the step-0 loss " +
                std::to_string(losses.front()));
    if (k == 0) {
      losses0 = losses;
      counts0 = ExactCounts(t);
      digest0 = dg.value();
    } else {
      r.Check(dg.value() == digest0,
              tag + "loss sequence digest differs from trial 0");
      r.Check(ExactCounts(t) == counts0,
              tag + "comm / prefetch / materialization counts differ from "
                    "trial 0");
    }
  }
  r.Check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) +
                             " steps failed (OOM or non-finite loss)");
  std::erase_if(trials, Failed);
  if (trials.empty()) return r;

  // ---- end to end ----
  std::vector<double> step_ms, traced_ms, setup_s, device_ms, model_ms,
      engine_ms, trial_tok_s;
  double peak_cached = 0, peak_live = 0;
  double hits = 0, misses = 0;
  for (const Trial& t : trials) {
    setup_s.push_back(t.setup_s);
    trial_tok_s.push_back(tokens_per_step * s.timed_steps / t.window_s);
    double dev = 0, mdl = 0, eng = 0;
    for (const RankTrial& rt : t.ranks) {
      dev = std::max(dev, rt.device_init_ms);
      mdl = std::max(mdl, rt.model_init_ms);
      eng = std::max(eng, rt.engine_init_ms);
      peak_cached = std::max(peak_cached, static_cast<double>(rt.peak_cached));
      peak_live = std::max(peak_live, static_cast<double>(rt.peak_live));
      hits += static_cast<double>(rt.cache_hits);
      misses += static_cast<double>(rt.cache_misses);
    }
    device_ms.push_back(dev);
    model_ms.push_back(mdl);
    engine_ms.push_back(eng);
    // A step is done when its slowest rank is.
    for (int i = 0; i < s.timed_steps; ++i) {
      std::int64_t worst = 0;
      for (const RankTrial& rt : t.ranks) {
        worst = std::max(worst, rt.step_ns[static_cast<std::size_t>(i)]);
      }
      (IsTracedStep(args.trace, i) ? traced_ms : step_ms)
          .push_back(NsToMs(worst));
    }
  }
  // A fixed percentile, so a faster or slower build does not change
  // which one is reported; lower only if the run is too short for it.
  const double tail_pct = std::min(kTailPct, TailPercentile(step_ms.size()));
  const double step_p50 = Median(step_ms);
  const double step_tail = Quantile(step_ms, tail_pct / 100.0);
  // Median over trials: one trial slowed by the host does not move it.
  const double tok_s = Median(trial_tok_s);
  constexpr double kMiB = 1024.0 * 1024.0;
  r.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"tok_s", tok_s, "tok/s"},
      {"latency_ms_p50", step_p50, "ms"},
      {"peak_device_mb", peak_cached / kMiB, "MB"},
  };

  // ---- per layer, from the traced steps' spans ----
  // Self time per (trial, rank, step) summed by span name, then averaged
  // over ranks and traced steps.
  std::map<std::string, double> self_ms;
  std::vector<Span> all_spans;
  int traced_steps = 0;
  for (const Trial& t : trials) {
    std::vector<Span> spans;
    for (const RankTrial& rt : t.ranks) {
      spans.insert(spans.end(), rt.spans.begin(), rt.spans.end());
    }
    const SpanTree tree = BuildSpanTree(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self_ms[spans[i].name] += NsToMs(tree.self_ns[i]);
    }
    for (int i = 0; i < s.timed_steps; ++i) {
      traced_steps += IsTracedStep(args.trace, i) ? 1 : 0;
    }
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  const double per_step =
      traced_steps > 0 ? 1.0 / (traced_steps * s.ranks) : 0.0;
  const double acquire = self_ms["AcquireUnit"] * per_step;
  const double release = self_ms["ReleaseUnit"] * per_step;
  const double emit = self_ms["EmitUnitGrad"] * per_step;
  const double compute = self_ms["Step"] * per_step;
  const double update = self_ms["TrainStep"] * per_step;
  const model::TransformerSpec spec{s.gpt.layers, s.gpt.hidden, s.gpt.heads,
                                    s.gpt.vocab, s.gpt.seq};
  const double gflops =
      compute > 0 ? spec.StepFlops(s.batch_per_rank, false) / (compute * 1e6)
                  : 0.0;
  const Trial& t0 = trials.front();
  const RankTrial& lead = t0.ranks.front();
  const double steps = s.timed_steps;
  const double untraced_mean = Mean(step_ms);
  const double overhead =
      args.trace ? Median(traced_ms) / step_p50 - 1.0 : 0.0;
  r.per_layer = PerLayerMetrics();
  SetMetric(r.per_layer, "core.acquire_ms", acquire);
  SetMetric(r.per_layer, "core.release_ms", release);
  SetMetric(r.per_layer, "core.emit_grad_ms", emit);
  SetMetric(r.per_layer, "core.update_ms", update);
  SetMetric(r.per_layer, "core.prefetch_hit_frac",
            t0.prefetch_hits + t0.prefetch_misses > 0
                ? t0.prefetch_hits / (t0.prefetch_hits + t0.prefetch_misses)
                : 0.0);
  SetMetric(r.per_layer, "core.unit_materializations",
            t0.materializations / steps);
  SetMetric(r.per_layer, "core.engine_init_ms", Median(engine_ms));
  SetMetric(r.per_layer, "model.compute_ms", compute);
  SetMetric(r.per_layer, "model.gflops", gflops);
  SetMetric(r.per_layer, "model.init_ms", Median(model_ms));
  SetMetric(r.per_layer, "comm.bytes_per_step",
            static_cast<double>(lead.comm.bytes_sent) / steps);
  SetMetric(r.per_layer, "comm.msgs_per_step",
            static_cast<double>(lead.comm.messages_sent) / steps);
  SetMetric(r.per_layer, "comm.collectives_per_step",
            static_cast<double>(lead.comm.collectives) / steps);
  SetMetric(r.per_layer, "alloc.device_init_ms", Median(device_ms));
  SetMetric(r.per_layer, "alloc.cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
  SetMetric(r.per_layer, "alloc.peak_live_mb", peak_live / kMiB);
  SetMetric(r.per_layer, "obs.trace_overhead_frac", overhead);
  SetMetric(r.per_layer, "obs.trace_accounted_frac",
            args.trace && untraced_mean > 0
                ? (acquire + release + emit + compute + update) / untraced_mean
                : 0.0);

  r.report = {
      {"train_tok_s", tok_s, "tok/s"},
      {"step_ms_p50", step_p50, "ms"},
      {"step_ms_tail", step_tail, "ms"},
      {"step_tail_pct", tail_pct, "pct"},
      {"step_samples", static_cast<double>(step_ms.size()), "count"},
      {"loss_step0", losses0.front(), "nats"},
      {"loss_final", FinalLoss(losses0), "nats"},
      {"fail_frac",
       r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
       "fraction"},
      {"prefetch_hits_per_step", t0.prefetch_hits / steps, "count"},
      {"prefetch_misses_per_step", t0.prefetch_misses / steps, "count"},
      {"traced_steps", static_cast<double>(traced_steps), "count"},
  };
  r.digest = digest0;

  if (args.trace && !args.trace_out.empty()) {
    r.Check(WriteChromeTrace(args.trace_out, all_spans,
                             BuildSpanTree(all_spans)),
            "cannot write " + args.trace_out);
  }
  return r;
}

}  // namespace perfbench
