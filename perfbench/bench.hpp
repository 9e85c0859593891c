// Shared pieces of the repository benchmark: run arguments, the result
// every workload fills in, order statistics, an output digest, and the
// in-memory span log the traced run records around calls into the
// program's public functions.
//
// Every span is recorded by the benchmark's own code; nothing under src/
// is instrumented for it. A span's parent is the innermost span of the
// same lane that encloses it, so a layer's self time is its duration
// minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace written by the traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> errors;  // failed correctness checks
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int trials = 0;
  // The metrics BENCHMARK.json names: end_to_end (printed last with
  // --trace 0) and per_layer (with --trace 1).
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Workload-specific user metrics under their own names, sample counts
  // and exact counts: printed for reading, not part of the result line.
  std::vector<Metric> report;
  std::uint64_t digest = 0;  // of the outputs every trial must reproduce

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// Every per_layer metric of BENCHMARK.json with its unit, valued 0; a
// workload sets the ones its layers exercise (0 = the layer is not on
// this workload's path).
std::vector<Metric> PerLayerMetrics();
// Sets an existing metric by name (a misspelt name is a program bug).
void SetMetric(std::vector<Metric>& metrics, const std::string& name,
               double value);

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

// The tail percentile for `n` samples: the highest of 99.9/99/95/90/75/50
// that leaves at least ten samples beyond it.
double TailPercentile(std::size_t n);

// FNV-1a over raw bytes: the bit-exact identity of a run's outputs.
class Digest {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001B3ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// One timed call. `lane` is the recording thread (a rank), `step` the
// training or serving step, `key` the unit or request id (-1 if none).
struct Span {
  const char* name = "";
  int lane = 0;
  std::int64_t step = -1;
  std::int64_t key = -1;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  [[nodiscard]] std::int64_t dur() const { return t1 - t0; }
};

// Per-span self time (duration minus the time enclosed child spans of
// the same lane cover) and parent index (-1 for roots), index-aligned
// with `spans`.
struct SpanTree {
  std::vector<std::int64_t> self_ns;
  std::vector<std::int64_t> parent;
};
SpanTree BuildSpanTree(const std::vector<Span>& spans);

// Writes the spans as Chrome trace_event JSON (one tid per lane, parent
// index and keys in args). Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const SpanTree& tree);

RunResult RunTrain(const RunArgs& args);
RunResult RunServe(const RunArgs& args);

}  // namespace perfbench
