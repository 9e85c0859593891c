// Serving workload: closed-loop continuous batching on an InferenceEngine.
//
// The driver runs the same sequence ServeLoop does — AdmissionController::
// Offer, ContinuousBatchScheduler::PlanStep, InferenceEngine::Decode,
// ContinuousBatchScheduler::CommitStep — but passes wall-clock seconds as
// now_s, so TTFT and end-to-end times are real step times. Scheduling
// decisions depend on step count only (admission buckets are unlimited),
// so every trial of a run produces the same tokens in the same steps.
//
// Closed loop: kClients clients each send their next request as soon as
// their previous one completes; more clients than max_running keeps the
// admission queue non-empty. Traffic comes from GenerateOpenLoopTraffic
// (its arrival times are ignored) across four tenants: tenants 0 and 1
// each share a 32-token system prompt, tenants 2 and 3 share nothing.
#include <algorithm>
#include <string>

#include "alloc/caching_allocator.hpp"
#include "alloc/device_memory.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "model/gpt.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic_gen.hpp"

namespace perfbench {
namespace {

using namespace zero;

constexpr std::size_t kDeviceBytes = 256ull << 20;
constexpr std::uint64_t kModelSeed = 4321;
constexpr int kClients = 24;
constexpr int kRequestsPerTrial = 600;
constexpr std::int64_t kWarmupSteps = 20;  // untimed: allocator, KV pool
constexpr int kMinTrials = 3;
// TTFT tail reported when the run has at least ten requests beyond it.
constexpr double kTailPct = 95.0;
constexpr std::int32_t kSharedPrefix = 32;

// Every field the workload depends on is set here, so no ZERO_SERVE_*
// fallback can apply.
serve::InferenceOptions EngineOptions() {
  serve::InferenceOptions o;
  o.model.vocab = 128;
  o.model.seq = 128;
  o.model.hidden = 128;
  o.model.layers = 4;
  o.model.heads = 8;
  o.model.activation_checkpointing = false;
  o.kv_block_tokens = 16;
  // 16 running sequences of at most 80 tokens need 80 blocks; the rest
  // holds published prefixes, so no sequence is ever evicted.
  o.kv_max_blocks = 256;
  o.record_metrics = true;
  o.weights = "fp32";
  o.prefix_cache = true;
  return o;
}

serve::SchedulerConfig SchedulerOptions(std::int64_t max_seq) {
  serve::SchedulerConfig c;
  c.max_running = 16;
  c.max_step_tokens = 128;
  c.max_seq = max_seq;
  c.record_metrics = true;
  return c;
}

serve::AdmissionConfig AdmissionOptions() {
  serve::AdmissionConfig c;
  c.tenants.clear();  // unlimited buckets: admission never depends on time
  c.max_queue_requests = 1024;
  c.max_expected_wait_s = 0.0;
  c.record_metrics = true;
  return c;
}

// The run's inputs: alternating requests from the shared-prefix tenants
// (0, 1) and the no-prefix tenants (2, 3). Prompts are 16-48 tokens,
// outputs 8-32.
std::vector<serve::ServeRequest> Traffic(std::uint64_t seed,
                                         std::int64_t vocab) {
  const auto stream = [&](std::uint64_t s, std::int32_t prefix,
                          std::int32_t tail_min, std::int32_t tail_max) {
    serve::TrafficConfig c;
    c.qps = 1000.0;
    c.duration_s = 2.0 * kRequestsPerTrial / c.qps;
    c.tenants = 2;
    c.prompt_min = tail_min;
    c.prompt_max = tail_max;
    c.out_min = 8;
    c.out_max = 32;
    c.vocab = vocab;
    c.seed = s;
    c.prefix_len = prefix;
    return serve::GenerateOpenLoopTraffic(c);
  };
  const auto shared = stream(seed, kSharedPrefix, 4, 16);
  const auto plain = stream(seed ^ 0x9E3779B97F4A7C15ull, 0, 16, 48);
  std::vector<serve::ServeRequest> out;
  for (std::size_t i = 0; out.size() < kRequestsPerTrial; ++i) {
    ZERO_CHECK(i < shared.size() && i < plain.size(),
               "traffic generator produced too few requests");
    out.push_back(shared[i]);
    out.push_back(plain[i]);
    out.back().tenant += 2;
  }
  out.resize(kRequestsPerTrial);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].id = i;
  return out;
}

struct ServeTrial {
  double setup_s = 0, device_init_ms = 0, model_init_ms = 0, load_ms = 0;
  std::vector<double> step_ms, traced_step_ms;  // steps past warm-up
  // Requests offered past warm-up.
  std::vector<double> ttft_ms, e2e_ms, tpot_ms;
  std::vector<Span> spans;
  double window_s = 0;
  std::int64_t window_tokens = 0;  // generated in the timed steps
  // Exact counts: must repeat in every trial.
  std::int64_t steps = 0, packed = 0, prefill = 0, decode = 0, prefix_hit = 0;
  std::int64_t evictions = 0, prompt_tokens = 0, completed = 0;
  std::uint64_t digest = 0;
  std::size_t peak_cached = 0, peak_live = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::vector<std::string> errors;
};

ServeTrial RunTrial(const std::vector<serve::ServeRequest>& traffic,
                    const std::vector<float>& weights, bool trace) {
  ServeTrial t;
  const serve::InferenceOptions opts = EngineOptions();
  const std::int64_t start = NowNs();
  alloc::DeviceMemory device(kDeviceBytes, "serve");
  alloc::CachingAllocator cache(device);
  const std::int64_t a = NowNs();
  serve::InferenceEngine engine(opts,
                                model::GptSession{&cache, nullptr, nullptr});
  const std::int64_t b = NowNs();
  engine.LoadFullWeights(weights);
  const std::int64_t c = NowNs();
  t.device_init_ms = NsToMs(a - start);
  t.model_init_ms = NsToMs(b - a);
  t.load_ms = NsToMs(c - b);
  t.setup_s = NsToS(c - start);

  serve::AdmissionController admission(AdmissionOptions());
  serve::ContinuousBatchScheduler scheduler(SchedulerOptions(opts.model.seq),
                                            &engine.kv(), &admission);
  const alloc::CacheStats cache0 = cache.Stats();
  const std::int64_t vocab = opts.model.vocab;
  const auto seconds = [&](std::int64_t ns) { return NsToS(ns - start); };

  std::vector<serve::RequestOutcome> done;
  std::vector<std::int64_t> offered_step(traffic.size(), -1);
  std::vector<float> logits;
  std::size_t next = 0;
  int idle_clients = kClients;
  std::int64_t window0 = 0, window1 = 0;
  for (std::int64_t step = 0;; ++step) {
    while (idle_clients > 0 && next < traffic.size()) {
      serve::ServeRequest req = traffic[next];
      req.arrival_s = seconds(NowNs());
      offered_step[next] = step;
      t.prompt_tokens += static_cast<std::int64_t>(req.prompt.size());
      const double now = req.arrival_s;
      const serve::RejectReason rej = admission.Offer(std::move(req), now);
      if (rej == serve::RejectReason::kNone) --idle_clients;
      ++next;
    }
    if (scheduler.Idle()) break;

    const bool timed = step >= kWarmupSteps;
    const bool traced = trace && timed && (step - kWarmupSteps) % 2 == 1;
    const std::int64_t t0 = NowNs();
    if (step == kWarmupSteps) window0 = t0;
    const serve::StepPlan plan = scheduler.PlanStep();
    const std::int64_t t1 = NowNs();
    if (plan.empty()) {
      t.errors.push_back("scheduler planned an empty step with work pending");
      break;
    }
    logits.resize(plan.groups() * static_cast<std::size_t>(vocab));
    engine.Decode(plan.tokens, logits);
    const std::int64_t t2 = NowNs();
    const std::size_t before = done.size();
    scheduler.CommitStep(plan, logits.data(), vocab, seconds(t2), done);
    const std::int64_t t3 = NowNs();
    window1 = t3;

    ++t.steps;
    t.packed += static_cast<std::int64_t>(plan.tokens.size());
    if (timed) {
      (traced ? t.traced_step_ms : t.step_ms).push_back(NsToMs(t3 - t0));
      t.window_tokens += std::count(plan.group_samples.begin(),
                                    plan.group_samples.end(), true);
    }
    if (traced) {
      t.spans.push_back(Span{"ServeStep", 0, step, -1, t0, t3});
      t.spans.push_back(Span{"PlanStep", 0, step, -1, t0, t1});
      t.spans.push_back(Span{"Decode", 0, step,
                             static_cast<std::int64_t>(plan.groups()), t1,
                             t2});
      t.spans.push_back(Span{"CommitStep", 0, step, -1, t2, t3});
    }
    for (std::size_t i = before; i < done.size(); ++i) {
      const serve::RequestOutcome& o = done[i];
      ++idle_clients;
      if (!o.completed) continue;
      if (trace) {
        const auto at = [&](double s) {
          return start + static_cast<std::int64_t>(s * 1e9);
        };
        // One lane per request (requests overlap), keyed by its id.
        t.spans.push_back(Span{"Request", 1 + static_cast<int>(o.id),
                               offered_step[o.id],
                               static_cast<std::int64_t>(o.id),
                               at(o.arrival_s), at(o.done_s)});
      }
      if (offered_step[o.id] < kWarmupSteps) continue;
      t.ttft_ms.push_back((o.first_token_s - o.arrival_s) * 1e3);
      t.e2e_ms.push_back((o.done_s - o.arrival_s) * 1e3);
      if (o.output.size() > 1) {
        t.tpot_ms.push_back((o.done_s - o.first_token_s) * 1e3 /
                            static_cast<double>(o.output.size() - 1));
      }
    }
  }
  t.window_s = NsToS(window1 - window0);

  const alloc::CacheStats cache1 = cache.Stats();
  t.cache_hits = cache1.cache_hits - cache0.cache_hits;
  t.cache_misses = cache1.cache_misses - cache0.cache_misses;
  t.peak_cached = cache1.peak_cached;
  t.peak_live = cache1.peak_live;
  t.prefill = scheduler.prefill_tokens();
  t.decode = scheduler.decode_tokens();
  t.prefix_hit = scheduler.prefix_hit_tokens();

  // ---- correctness ----
  std::sort(done.begin(), done.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  Digest dg;
  for (const serve::RequestOutcome& o : done) {
    if (!o.completed) continue;
    ++t.completed;
    t.evictions += o.evictions;
    dg.Value(o.id);
    dg.Bytes(o.output.data(), o.output.size() * sizeof(std::int32_t));
    const auto want = static_cast<std::size_t>(traffic[o.id].max_new_tokens);
    if (o.output.size() != want) {
      t.errors.push_back("request " + std::to_string(o.id) + " generated " +
                         std::to_string(o.output.size()) + " of " +
                         std::to_string(want) + " tokens");
    }
  }
  t.digest = dg.value();
  // Every prompt token is either computed in prefill or adopted from the
  // prefix cache — exactly, while no sequence is evicted (a replay after
  // eviction recomputes its stream).
  const std::int64_t covered = t.prefill + t.prefix_hit;
  if (t.evictions == 0 ? covered != t.prompt_tokens
                       : covered < t.prompt_tokens) {
    t.errors.push_back("prompt tokens not conserved: prefill " +
                       std::to_string(t.prefill) + " + adopted " +
                       std::to_string(t.prefix_hit) + " vs prompts " +
                       std::to_string(t.prompt_tokens));
  }
  return t;
}

std::vector<std::int64_t> ExactCounts(const ServeTrial& t) {
  return {t.steps,     t.packed,        t.prefill,   t.decode,
          t.prefix_hit, t.evictions, t.prompt_tokens, t.completed};
}

}  // namespace

RunResult RunServe(const RunArgs& args) {
  const serve::InferenceOptions opts = EngineOptions();
  const std::vector<serve::ServeRequest> traffic =
      Traffic(args.seed, opts.model.vocab);
  std::vector<float> weights;
  {
    model::GptModel init(opts.model, model::GptSession{});
    weights.resize(static_cast<std::size_t>(init.layout().total_numel()));
    init.InitParameters(weights, kModelSeed);
  }

  RunResult r;
  std::vector<ServeTrial> trials;
  const std::int64_t begin = NowNs();
  while (static_cast<int>(trials.size()) < kMinTrials ||
         NsToS(NowNs() - begin) < args.seconds) {
    trials.push_back(RunTrial(traffic, weights, args.trace));
    if (!trials.back().errors.empty()) break;
  }
  r.trials = static_cast<int>(trials.size());

  const ServeTrial& first = trials.front();
  std::vector<double> setup_s, device_ms, model_ms, load_ms, step_ms,
      traced_step_ms, ttft, e2e, tpot, trial_tok_s;
  double peak_cached = 0, peak_live = 0, hits = 0, misses = 0;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const ServeTrial& t = trials[k];
    const std::string tag = "trial " + std::to_string(k) + ": ";
    for (const std::string& e : t.errors) r.Check(false, tag + e);
    r.attempted += static_cast<std::int64_t>(traffic.size());
    r.failed += static_cast<std::int64_t>(traffic.size()) - t.completed;
    r.Check(t.digest == first.digest,
            tag + "generated-token digest differs from trial 0");
    r.Check(ExactCounts(t) == ExactCounts(first),
            tag + "step / token / prefix counts differ from trial 0");
    setup_s.push_back(t.setup_s);
    device_ms.push_back(t.device_init_ms);
    model_ms.push_back(t.model_init_ms);
    load_ms.push_back(t.load_ms);
    step_ms.insert(step_ms.end(), t.step_ms.begin(), t.step_ms.end());
    traced_step_ms.insert(traced_step_ms.end(), t.traced_step_ms.begin(),
                          t.traced_step_ms.end());
    ttft.insert(ttft.end(), t.ttft_ms.begin(), t.ttft_ms.end());
    e2e.insert(e2e.end(), t.e2e_ms.begin(), t.e2e_ms.end());
    tpot.insert(tpot.end(), t.tpot_ms.begin(), t.tpot_ms.end());
    trial_tok_s.push_back(static_cast<double>(t.window_tokens) / t.window_s);
    peak_cached = std::max(peak_cached, static_cast<double>(t.peak_cached));
    peak_live = std::max(peak_live, static_cast<double>(t.peak_live));
    hits += static_cast<double>(t.cache_hits);
    misses += static_cast<double>(t.cache_misses);
  }
  r.Check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) +
                             " requests were rejected or did not complete");

  constexpr double kMiB = 1024.0 * 1024.0;
  // A fixed percentile, so a faster or slower build does not change
  // which one is reported; lower only if the run is too short for it.
  const double ttft_pct = std::min(kTailPct, TailPercentile(ttft.size()));
  // Median over trials: one trial slowed by the host does not move it.
  const double tok_s = Median(trial_tok_s);
  r.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"tok_s", tok_s, "tok/s"},
      {"latency_ms_p50", Median(ttft), "ms"},
      {"peak_device_mb", peak_cached / kMiB, "MB"},
  };

  // ---- per layer, from the traced steps' spans ----
  std::vector<Span> spans;
  for (const ServeTrial& t : trials) {
    spans.insert(spans.end(), t.spans.begin(), t.spans.end());
  }
  const SpanTree tree = BuildSpanTree(spans);
  std::vector<double> decode_ms, plan_ms, commit_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double ms = NsToMs(tree.self_ns[i]);
    if (name == "Decode") decode_ms.push_back(ms);
    if (name == "PlanStep") plan_ms.push_back(ms);
    if (name == "CommitStep") commit_ms.push_back(ms);
  }
  const double untraced_mean = Mean(step_ms);
  const double steps = static_cast<double>(first.steps);
  r.per_layer = PerLayerMetrics();
  SetMetric(r.per_layer, "model.init_ms", Median(model_ms));
  SetMetric(r.per_layer, "alloc.device_init_ms", Median(device_ms));
  SetMetric(r.per_layer, "alloc.cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
  SetMetric(r.per_layer, "alloc.peak_live_mb", peak_live / kMiB);
  SetMetric(r.per_layer, "serve.decode_ms_p50", Median(decode_ms));
  SetMetric(r.per_layer, "serve.decode_ms_tail",
            Quantile(decode_ms, TailPercentile(decode_ms.size()) / 100.0));
  SetMetric(r.per_layer, "serve.plan_ms", Mean(plan_ms));
  SetMetric(r.per_layer, "serve.commit_ms", Mean(commit_ms));
  SetMetric(r.per_layer, "serve.tokens_per_step",
            static_cast<double>(first.packed) / steps);
  SetMetric(r.per_layer, "serve.steps", steps);
  SetMetric(r.per_layer, "serve.prefix_hit_frac",
            static_cast<double>(first.prefix_hit) /
                static_cast<double>(first.prompt_tokens));
  SetMetric(r.per_layer, "serve.evictions",
            static_cast<double>(first.evictions));
  SetMetric(r.per_layer, "serve.load_ms", Median(load_ms));
  SetMetric(r.per_layer, "obs.trace_overhead_frac",
            args.trace ? Median(traced_step_ms) / Median(step_ms) - 1.0 : 0.0);
  SetMetric(r.per_layer, "obs.trace_accounted_frac",
            args.trace && untraced_mean > 0
                ? (Mean(plan_ms) + Mean(decode_ms) + Mean(commit_ms)) /
                      untraced_mean
                : 0.0);

  r.report = {
      {"serve_tok_s", tok_s, "tok/s"},
      {"ttft_ms_p50", Median(ttft), "ms"},
      {"ttft_ms_tail", Quantile(ttft, ttft_pct / 100.0), "ms"},
      {"ttft_tail_pct", ttft_pct, "pct"},
      {"ttft_samples", static_cast<double>(ttft.size()), "count"},
      {"tpot_ms_p50", Median(tpot), "ms"},
      {"e2e_ms_p50", Median(e2e), "ms"},
      {"step_ms_p50", Median(step_ms), "ms"},
      {"fail_frac",
       r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
       "fraction"},
      {"requests_per_trial", static_cast<double>(traffic.size()), "count"},
      {"prompt_tokens", static_cast<double>(first.prompt_tokens), "tok"},
      {"prefill_tokens", static_cast<double>(first.prefill), "tok"},
      {"prefix_hit_tokens", static_cast<double>(first.prefix_hit), "tok"},
      {"decode_tokens", static_cast<double>(first.decode), "tok"},
  };
  r.digest = first.digest;
  if (args.trace && !args.trace_out.empty()) {
    r.Check(WriteChromeTrace(args.trace_out, spans, tree),
            "cannot write " + args.trace_out);
  }
  return r;
}

}  // namespace perfbench
