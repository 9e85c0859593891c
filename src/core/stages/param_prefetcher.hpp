// Look-ahead parameter prefetch for stage 3 (Sec 7.2.2).
//
// The paper's claim that stage 3's extra 1.5x communication volume is
// cheap rests on *pipelining*: "the parameters for each layer can be
// broadcast before the forward/backward on that layer needs them". The
// blocking PosGPStrategy stalls every unit on a cold broadcast at
// AcquireUnit; this class turns those stalls into overlap by walking
// the unit schedule ahead of the compute and keeping up to
// EngineConfig::prefetch_lookahead units' gathers in flight as
// nonblocking collectives (IBroadcast, or IQuantBroadcast under qwZ).
//
// Schedule learning. The model's acquire order is irregular (a GPT
// forward touches the embedding unit again at the head; backward with
// recompute re-acquires in its own order), so the first training step
// runs fully blocking while the materialization order is *recorded*.
// Every later step replays that schedule: AcquireUnit completes the
// already-launched gather for its schedule position instead of starting
// a cold broadcast. If the model ever derails from the recorded order,
// all in-flight gathers are cancelled on every rank, the step finishes
// blocking, and the next step re-records. Conveniently, the recording
// step is step 0 — the same warm-up step the trainer already excludes
// from its communication-volume accounting.
//
// Memory budget. Look-ahead buys overlap with up to `lookahead` extra
// materialized units of device memory. The budget is agreed group-wide
// once (min free device memory across ranks, halved; or the explicit
// EngineConfig::prefetch_max_bytes), and TopUp stops — never skips, so
// launch order stays schedule order — when the next unit would not fit.
// With a tight budget the prefetcher degrades to the blocking path one
// claim at a time.
//
// SPMD safety. Every launch, wait, and cancel decision is a pure
// function of state that is identical on all ranks (the recorded
// schedule, the agreed budget, the claim cursor), so all ranks drive
// the same collectives in the same order — the tag-sequencing contract
// the communicator requires. Bit-exactness vs the blocking path is
// structural: broadcasts are byte moves and parameters are frozen
// between optimizer updates, so *when* a gather runs cannot change
// *what* it delivers.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "comm/nonblocking_collectives.hpp"
#include "core/stages/stage_strategy.hpp"
#include "tensor/tensor.hpp"

namespace zero::core {

class ParamPrefetcher {
 public:
  // `own_params` is the strategy's 1/Nd parameter partition (the local
  // contribution to every gather); must outlive this object. With hpZ,
  // `secondary` / `hpz_part` describe the strategy's intra-node
  // secondary shard, the source of kLocal launches (both null
  // otherwise; also must outlive this object).
  ParamPrefetcher(StageContext& ctx, const tensor::Tensor* own_params,
                  const tensor::Tensor* secondary = nullptr,
                  const Partitioner* hpz_part = nullptr);
  ~ParamPrefetcher();
  ParamPrefetcher(const ParamPrefetcher&) = delete;
  ParamPrefetcher& operator=(const ParamPrefetcher&) = delete;

  // Step bracket, driven by the strategy's OnStepBegin/ReduceGradients.
  // Outside the bracket (EvalLoss, GatherFullParams, checkpointing) the
  // prefetcher is passive and materializations take the blocking path.
  void OnStepBegin();
  void OnStepEnd();

  // Claims the gather for unit `u` if the prefetch path covers this
  // materialization: fills `f16_out` (fp16 mode) or `f32_out` (fp32
  // mode) with the fully gathered unit and returns true. Returns false
  // when the caller must materialize blocking — prefetch off-step,
  // recording, or the model derailed from the recorded schedule.
  // `local` is the caller's gather-kind decision for this
  // materialization (hpZ backward gathers resolve intra-node); a kind
  // mismatch against the recorded schedule derails like a unit mismatch
  // — the launch already happened the recorded way on every rank.
  bool Claim(int u, tensor::Tensor* f16_out, std::vector<float>* f32_out,
             bool local = false);

  // Records a blocking materialization (the schedule being learned).
  void Record(int u, bool local = false);

  // Drives in-flight gathers without blocking. Called from the compute
  // hooks (acquire/release/grad emission) so intermediate ring ranks
  // forward pipeline chunks while they are busy computing — this is
  // where the overlap physically happens.
  void Progress();

  // Abandons everything in flight and forgets the schedule (abort and
  // elastic-resume unwinding; also run by the destructor). Never
  // throws: stale chunks rot in the mailbox under never-reused tags.
  void CancelAll();

  [[nodiscard]] bool replaying() const { return mode_ == Mode::kReplaying; }

 private:
  enum class Mode : unsigned char { kIdle, kRecording, kReplaying };

  // One learned materialization: the unit plus the gather kind used
  // when it was recorded. Replay launches must reproduce the kind —
  // SPMD-consistent because the kind is a pure function of state that
  // is identical on all ranks (phase + per-unit capture flags).
  struct Entry {
    int unit = -1;
    bool local = false;  // hpZ intra-node gather from the secondary shard
  };

  struct InFlight {
    int unit = -1;
    std::size_t schedule_pos = 0;
    std::size_t bytes = 0;
    std::uint64_t launch_ns = 0;
    tensor::Tensor f16;                         // fp16 mode landing buffer
    std::vector<float> f32;                     // fp32 mode landing buffer
    std::vector<comm::CollectiveRequest> reqs;  // one per overlap owner
  };

  void EnsureBudget();
  void TopUp();
  [[nodiscard]] InFlight Launch(Entry e, std::size_t pos);
  [[nodiscard]] std::size_t UnitBytes(int u) const;
  void Derail();

  StageContext* ctx_;
  const tensor::Tensor* own_params_;
  const tensor::Tensor* secondary_;  // hpZ intra-node shard (may be null)
  const Partitioner* hpz_part_;      // partitioning of the above
  int lookahead_;

  Mode mode_ = Mode::kIdle;
  std::vector<Entry> schedule_;   // learned materialization order
  std::vector<Entry> recording_;  // being learned this step
  std::size_t cursor_ = 0;      // next schedule position to be claimed
  std::size_t next_launch_ = 0; // next schedule position to launch
  std::deque<InFlight> inflight_;
  std::size_t inflight_bytes_ = 0;
  std::size_t budget_ = 0;  // 0 = not yet agreed

  // Overlap accounting across the run: active = gather lifetime
  // (launch -> claim), exposed = time the claim actually blocked.
  double active_ns_ = 0.0;
  double exposed_ns_ = 0.0;
};

}  // namespace zero::core
