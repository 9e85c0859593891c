// The seam between models and ZeRO-DP engines.
//
// A FlatParamModel exposes its trainable state as one flat fp32 vector
// divided into *units* — contiguous ranges that are needed together
// (for the GPT model: the embedding tables, each transformer block, and
// the final norm). The training engine owns parameter storage; the model
// asks for a unit's parameters right before using them (AcquireUnit) and
// returns them right after (ReleaseUnit), and hands each unit's gradient
// to the engine the moment backward finishes producing it (EmitUnitGrad).
//
// This contract is exactly the "dynamic communication schedule" of
// Sec 4.1/7.2:
//   - stage 1/2 providers keep a full parameter copy, so Acquire is a
//     pointer lookup;
//   - the stage 3 provider stores only this rank's partition and
//     materializes a unit via broadcast/all-gather on Acquire, freeing it
//     on Release ("parameters can be discarded once used");
//   - the stage 2 sink reduce-scatters gradient buckets as they appear
//     during backward and releases the bucket memory afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace zero::model {

enum class Phase : unsigned char { kForward, kBackward, kRecompute };

struct ParamEntry {
  std::string name;
  std::int64_t offset = 0;  // into the flat vector
  std::int64_t numel = 0;
  int unit = 0;
  // Matrix shape ([rows, cols] row-major, rows * cols == numel) for
  // parameters consumed as GEMM operands; 0/0 for everything else.
  // Serving packs every matrix into GEMM micro-panels, which need the
  // shape at pack time.
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

class ParamLayout {
 public:
  // Registers a parameter in `unit`; units must be appended in
  // nondecreasing order so each unit is one contiguous range. Matrix
  // parameters pass their row-major [rows, cols] shape; vectors leave
  // the defaults.
  std::int64_t Add(std::string name, std::int64_t numel, int unit,
                   std::int64_t rows = 0, std::int64_t cols = 0);

  [[nodiscard]] std::int64_t total_numel() const { return total_; }
  [[nodiscard]] int num_units() const {
    return static_cast<int>(unit_ranges_.size());
  }
  [[nodiscard]] const std::vector<ParamEntry>& entries() const {
    return entries_;
  }
  // [begin, end) offsets of a unit in the flat vector.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> UnitRange(int u) const;
  [[nodiscard]] std::int64_t UnitNumel(int u) const {
    auto [b, e] = UnitRange(u);
    return e - b;
  }
  // Entry lookup by name (test convenience); throws if absent.
  [[nodiscard]] const ParamEntry& Find(const std::string& name) const;

 private:
  std::vector<ParamEntry> entries_;
  std::vector<std::pair<std::int64_t, std::int64_t>> unit_ranges_;
  std::int64_t total_ = 0;
};

// Supplied by the engine; used by the model during Step().
class ParamProvider {
 public:
  virtual ~ParamProvider() = default;
  // Returns unit `u`'s parameters; the span stays valid until the
  // matching ReleaseUnit. Acquire/Release must nest per unit.
  virtual std::span<const float> AcquireUnit(int u, Phase phase) = 0;
  virtual void ReleaseUnit(int u, Phase phase) = 0;
};

class GradSink {
 public:
  virtual ~GradSink() = default;
  // Called exactly once per unit per step, in the order backward
  // completes units (highest unit first for sequential models; the
  // embedding unit, if its gradient accumulates across the whole
  // backward, arrives last).
  virtual void EmitUnitGrad(int u, std::span<const float> grad) = 0;
};

// A training batch: integer inputs/targets of shape [rows, cols]
// (tokens/next-tokens for GPT; arbitrary categorical data otherwise).
struct Batch {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> inputs;
  std::vector<std::int32_t> targets;
};

class FlatParamModel {
 public:
  virtual ~FlatParamModel() = default;
  [[nodiscard]] virtual const ParamLayout& layout() const = 0;
  // Writes a deterministic initialization of the full flat vector.
  virtual void InitParameters(std::span<float> flat,
                              std::uint64_t seed) const = 0;
  // Runs forward+backward on `batch`, pulling parameters from `params`
  // and emitting per-unit gradients into `grads`. Returns the mean loss.
  virtual float Step(const Batch& batch, ParamProvider& params,
                     GradSink& grads) = 0;
};

// Trivial provider/sink pair over caller-owned flat buffers; used by
// tests and by single-process reference training.
class DirectParamProvider final : public ParamProvider {
 public:
  DirectParamProvider(const ParamLayout& layout, std::span<const float> flat)
      : layout_(&layout), flat_(flat) {}
  std::span<const float> AcquireUnit(int u, Phase) override {
    auto [b, e] = layout_->UnitRange(u);
    return flat_.subspan(static_cast<std::size_t>(b),
                         static_cast<std::size_t>(e - b));
  }
  void ReleaseUnit(int, Phase) override {}

 private:
  const ParamLayout* layout_;
  std::span<const float> flat_;
};

class AccumulatingGradSink final : public GradSink {
 public:
  AccumulatingGradSink(const ParamLayout& layout, std::span<float> flat)
      : layout_(&layout), flat_(flat) {}
  void EmitUnitGrad(int u, std::span<const float> grad) override {
    auto [b, e] = layout_->UnitRange(u);
    (void)e;
    for (std::size_t i = 0; i < grad.size(); ++i) {
      flat_[static_cast<std::size_t>(b) + i] += grad[i];
    }
  }

 private:
  const ParamLayout* layout_;
  std::span<float> flat_;
};

}  // namespace zero::model
