// The repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Workloads (see BENCHMARK.json for why each exists):
//   train_zero3_comm     stage 3 across 4 rank threads, few tokens per
//                        parameter: the parameter gather / gradient
//                        reduce-scatter path dominates a step.
//   train_zero2_compute  stage 2 across 2 ranks x 2 intra-op workers,
//                        many tokens per parameter: the tensor kernels
//                        dominate a step.
//   serve_prefix_closed  closed-loop continuous-batching serving with
//                        the prefix cache on half the traffic.
//
// A run repeats fixed, seeded trials (set-up, untimed warm-up, timed
// steps) until --seconds have passed and at least three trials ran.
// Every trial of a run replays the same inputs, so outputs and exact
// counts must agree bit for bit across trials; any failed check makes
// the result line say "correct": false and the exit code 1.
//
// With --trace 0 the result line carries the end-to-end metrics,
// measured with no spans recorded. With --trace 1 every other timed
// step records spans around the calls into each layer; the per-layer
// metrics come from those spans, and obs.trace_overhead_frac compares
// traced against untraced steps of the same run.
//
// Environment: the runtime falls back to ZERO_* variables whenever a
// config field is left at its default; the benchmark sets every field
// it depends on and refuses to run while any ZERO_* variable is set.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

std::vector<Metric> PerLayerMetrics() {
  return {
      {"core.acquire_ms", 0, "ms"},
      {"core.release_ms", 0, "ms"},
      {"core.emit_grad_ms", 0, "ms"},
      {"core.update_ms", 0, "ms"},
      {"core.prefetch_hit_frac", 0, "fraction"},
      {"core.unit_materializations", 0, "count"},
      {"core.engine_init_ms", 0, "ms"},
      {"model.compute_ms", 0, "ms"},
      {"model.gflops", 0, "GFLOP/s"},
      {"model.init_ms", 0, "ms"},
      {"comm.bytes_per_step", 0, "B"},
      {"comm.msgs_per_step", 0, "count"},
      {"comm.collectives_per_step", 0, "count"},
      {"alloc.device_init_ms", 0, "ms"},
      {"alloc.cache_hit_frac", 0, "fraction"},
      {"alloc.peak_live_mb", 0, "MB"},
      {"serve.decode_ms_p50", 0, "ms"},
      {"serve.decode_ms_tail", 0, "ms"},
      {"serve.plan_ms", 0, "ms"},
      {"serve.commit_ms", 0, "ms"},
      {"serve.tokens_per_step", 0, "tok"},
      {"serve.steps", 0, "count"},
      {"serve.prefix_hit_frac", 0, "fraction"},
      {"serve.evictions", 0, "count"},
      {"serve.load_ms", 0, "ms"},
      {"obs.trace_overhead_frac", 0, "fraction"},
      {"obs.trace_accounted_frac", 0, "fraction"},
  };
}

void SetMetric(std::vector<Metric>& metrics, const std::string& name,
               double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: no metric named %s\n", name.c_str());
  std::abort();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double TailPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

SpanTree BuildSpanTree(const std::vector<Span>& spans) {
  SpanTree tree;
  tree.self_ns.resize(spans.size());
  tree.parent.assign(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    tree.self_ns[i] = spans[i].dur();
  }
  // Parents open first; on equal starts the longer span encloses.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.t0 != y.t0) return x.t0 < y.t0;
    return x.t1 > y.t1;
  });
  std::vector<std::size_t> open;
  int lane = -1;
  for (std::size_t i : order) {
    const Span& s = spans[i];
    if (s.lane != lane) {
      open.clear();
      lane = s.lane;
    }
    while (!open.empty() && spans[open.back()].t1 <= s.t0) open.pop_back();
    if (!open.empty() && spans[open.back()].t1 >= s.t1) {
      tree.parent[i] = static_cast<std::int64_t>(open.back());
      tree.self_ns[open.back()] -= s.dur();
    }
    open.push_back(i);
  }
  return tree;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const SpanTree& tree) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) origin = std::min(origin, s.t0);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%" PRId64
                 ",\"key\":%" PRId64 ",\"span\":%zu,\"parent\":%" PRId64
                 ",\"self_us\":%.3f}}%s\n",
                 s.name, s.lane, static_cast<double>(s.t0 - origin) / 1e3,
                 static_cast<double>(s.dur()) / 1e3, s.step, s.key, i,
                 tree.parent[i], static_cast<double>(tree.self_ns[i]) / 1e3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               msg);
  return 2;
}

// Full-precision JSON number (never NaN/Inf: workloads report 0 for
// metrics that do not apply).
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("[%s]\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZERO_", 5) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: ZERO_* knobs "
                   "silently change the workloads\n",
                   *e);
      return 2;
    }
  }

  perfbench::RunResult r;
  if (args.workload == "serve_prefix_closed") {
    r = perfbench::RunServe(args);
  } else if (args.workload == "train_zero3_comm" ||
             args.workload == "train_zero2_compute") {
    r = perfbench::RunTrain(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("workload %s  seed %" PRIu64 "  trials %d  trace %d\n",
              args.workload.c_str(), args.seed, r.trials, args.trace ? 1 : 0);
  PrintTable("end_to_end", r.end_to_end);
  PrintTable("per_layer", r.per_layer);
  PrintTable("report", r.report);
  std::printf("output digest: %016" PRIx64 "\n", r.digest);
  for (const std::string& e : r.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = r.errors.empty();
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");

  const std::vector<Metric>& out = args.trace ? r.per_layer : r.end_to_end;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    line += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            Num(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
