// Collective communication over a group of in-process ranks.
//
// Algorithms are the bandwidth-optimal ring schedules NCCL uses, executed
// as real message-passing over mailboxes:
//   - ReduceScatter: p-1 steps; rank r ends holding chunk r, fully
//     reduced. Per-rank volume (p-1)/p * M  (~= M, "Psi" in the paper).
//   - AllGather: p-1 steps; per-rank volume (p-1)/p * M.
//   - AllReduce = ReduceScatter + AllGather; per-rank volume ~= 2M —
//     exactly the 2*Psi baseline-DP accounting of Sec 7.1.
//   - Broadcast: ring-pipelined; per-rank volume ~= M, which is what
//     makes the stage-3 schedule cost Psi per pass (Sec 7.2.2).
//   - Reduce: ring accumulation ending at the root; per-rank send volume
//     M — the primitive behind stage-2's bucketized "reduce at the
//     partition owner".
//
// Every byte sent/received is counted in CommStats, so the paper's
// communication-volume claims are verified by measurement in the tests
// and the comm_volume_analysis bench.
//
// SPMD contract: all ranks of a group must call the same collectives in
// the same order (enforced cheaply via a per-group operation sequence
// number embedded in message tags).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "obs/trace.hpp"

namespace zero::comm {

enum class ReduceOp : unsigned char { kSum, kAvg, kMax };

struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t collectives = 0;

  CommStats& operator+=(const CommStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    messages_sent += o.messages_sent;
    collectives += o.collectives;
    return *this;
  }
  // Counters are monotonic, so a-b is only meaningful when a was sampled
  // after b on the same communicator; CommDelta provides that pattern.
  CommStats& operator-=(const CommStats& o) {
    bytes_sent -= o.bytes_sent;
    bytes_received -= o.bytes_received;
    messages_sent -= o.messages_sent;
    collectives -= o.collectives;
    return *this;
  }
  friend CommStats operator+(CommStats a, const CommStats& b) {
    a += b;
    return a;
  }
  friend CommStats operator-(CommStats a, const CommStats& b) {
    a -= b;
    return a;
  }
  friend bool operator==(const CommStats& a, const CommStats& b) {
    return a.bytes_sent == b.bytes_sent &&
           a.bytes_received == b.bytes_received &&
           a.messages_sent == b.messages_sent &&
           a.collectives == b.collectives;
  }
};

namespace detail {
// Element-wise accumulate src into dst. Native types accumulate in
// their own precision; Half is specialized below.
template <typename T>
inline void AccumulateInto(T* dst, const T* src, std::size_t n,
                           ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:
      for (std::size_t i = 0; i < n; ++i) dst[i] = dst[i] + src[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
      break;
  }
}

// Half reduces through fp32 the way tensor-core reductions do: the sum
// runs on the bulk widen-add-narrow kernel. kMax keeps the scalar loop
// (it is never on the training path).
template <>
inline void AccumulateInto<Half>(Half* dst, const Half* src, std::size_t n,
                                 ReduceOp op) {
  if (op != ReduceOp::kMax) {
    HalfAddInto(dst, src, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = Half(std::max(dst[i].ToFloat(), src[i].ToFloat()));
}

template <typename T>
inline void ScaleBy(T* dst, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = static_cast<T>(dst[i] * s);
}

// dst[i] = Half(float(dst[i].ToFloat() * s)) through the bulk
// converters, one stack block at a time.
template <>
inline void ScaleBy<Half>(Half* dst, std::size_t n, double s) {
  constexpr std::size_t kBlock = 256;
  float buf[kBlock];
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = std::min(kBlock, n - b);
    HalfToFloat(dst + b, buf, m);
    for (std::size_t i = 0; i < m; ++i)
      buf[i] = static_cast<float>(buf[i] * s);
    FloatToHalf(buf, dst + b, m);
  }
}
}  // namespace detail

class Communicator;

// Handle to an in-flight nonblocking point-to-point operation started
// with Communicator::IsSend / IsRecv.
//
//   - Wait() blocks until the operation completes (for a recv: until the
//     matching message arrives and has been copied into the caller's
//     buffer).
//   - Test() polls: completes the operation if it can finish without
//     blocking and returns whether it is done.
//   - A default-constructed or already-completed request is done; Wait
//     and Test on it are no-ops. Requests may be completed in any order
//     relative to how they were posted.
//
// Handles are copyable (shared state); the receive buffer passed to
// IsRecv must stay alive and unmodified until the request completes.
class CommRequest {
 public:
  CommRequest() = default;

  void Wait();
  [[nodiscard]] bool Test();
  // Abandons a pending request: a matching message that already arrived
  // is drained and discarded; one that arrives later rots in the mailbox
  // under its never-reused tag. The landing buffer is released (safe to
  // free afterwards) and the request reads as done. Used by the abort /
  // elastic-resume paths to unwind with operations still in flight.
  void Cancel();
  [[nodiscard]] bool done() const { return !state_ || state_->done; }

 private:
  friend class Communicator;
  struct State {
    Communicator* comm = nullptr;
    int peer = -1;             // group-relative rank
    std::uint64_t tag = 0;
    std::span<std::byte> out;  // recv landing buffer (empty for sends)
    bool recv = false;
    bool done = false;
  };
  explicit CommRequest(std::shared_ptr<State> s) : state_(std::move(s)) {}
  void Complete(std::vector<std::byte> msg);

  std::shared_ptr<State> state_;
};

// One Communicator instance exists per rank per group (SPMD style: each
// rank constructs its own over the same member list and group id).
class Communicator {
 public:
  // `members` lists global ranks; this rank must be among them. group_id
  // must be identical on all members and unique per logical group.
  Communicator(RankContext& ctx, std::vector<int> members,
               std::uint64_t group_id);

  // Convenience: the whole world as one group.
  static Communicator WholeWorld(RankContext& ctx);

  [[nodiscard]] int rank() const { return my_index_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] int global_rank() const { return ctx_->rank; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CommStats{}; }

  void Barrier();

  // ---- fault tolerance ----
  // Named injectable point: runs the world's fault hooks (if any),
  // publishes a heartbeat (when a comm deadline is configured), and
  // surfaces a pending step abort as StepAbortedError. One pointer load
  // plus two relaxed atomic loads when fault tolerance is off. Called at
  // every collective entry; the engine calls it at the top of each
  // training step with site "step".
  void FaultPoint(const char* site);

  // ---- point to point (peer is a group-relative rank) ----
  void SendBytes(int peer, std::span<const std::byte> data, std::uint64_t tag);
  // Blocks until the matching message arrives. With a world comm
  // deadline configured, the wait is bounded and failure-aware: a peer
  // declared dead (or heartbeat-silent past the deadline) surfaces as
  // PeerFailedError, a pending step abort as StepAbortedError, and a
  // wait that starves past kStallFactor deadlines with the peer still
  // beating as CommTimeoutError (lost message). With deadline 0 the wait
  // is unbounded but still wakes when the world declares a death.
  [[nodiscard]] std::vector<std::byte> RecvBytes(int peer, std::uint64_t tag);
  // Nonblocking poll for a matching message; nullopt if none is queued.
  [[nodiscard]] std::optional<std::vector<std::byte>> TryRecvBytes(
      int peer, std::uint64_t tag);

  template <typename T>
  void Send(int peer, std::span<const T> data, std::uint64_t tag) {
    SendBytes(peer, std::as_bytes(data), tag);
  }
  template <typename T>
  void Recv(int peer, std::span<T> out, std::uint64_t tag) {
    std::vector<std::byte> raw = RecvBytes(peer, tag);
    ZERO_CHECK(raw.size() == out.size_bytes(),
               "Recv size mismatch: expected " +
                   std::to_string(out.size_bytes()) + ", got " +
                   std::to_string(raw.size()));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  }

  // ---- nonblocking point to point ----
  // IsSend completes immediately: mailbox deposits are buffered, so the
  // payload is copied out before the call returns and the returned
  // request is already done. It exists so call sites can treat both
  // directions uniformly.
  CommRequest IsSendBytes(int peer, std::span<const std::byte> data,
                          std::uint64_t tag);
  // IsRecv registers `out` as the landing buffer for the next message
  // matching (peer, tag) and returns without blocking. The message is
  // consumed (and its size checked against `out`) when the request
  // completes via Wait or a successful Test.
  [[nodiscard]] CommRequest IsRecvBytes(int peer, std::span<std::byte> out,
                                        std::uint64_t tag);

  template <typename T>
  CommRequest IsSend(int peer, std::span<const T> data, std::uint64_t tag) {
    return IsSendBytes(peer, std::as_bytes(data), tag);
  }
  template <typename T>
  [[nodiscard]] CommRequest IsRecv(int peer, std::span<T> out,
                                   std::uint64_t tag) {
    return IsRecvBytes(peer, std::as_writable_bytes(out), tag);
  }

  // ---- collectives ----

  // In-place sum/avg/max across the group. Any length.
  template <typename T>
  void AllReduce(std::span<T> data, ReduceOp op = ReduceOp::kSum) {
    TRACE_SPAN("comm/all_reduce");
    FaultPoint("collective");
    const std::uint64_t seq = NextSeq();
    if (size() == 1) {
      return;  // single rank: reduction is the identity
    }
    RingReduceScatterInPlace(data, op, seq);
    RingAllGatherInPlace(data, seq + kStepStride);
    if (op == ReduceOp::kAvg) {
      detail::ScaleBy(data.data(), data.size(), 1.0 / size());
    }
  }

  // data.size() must be divisible by size(); out.size() == data.size()/p.
  // On return, out holds this rank's fully reduced chunk. `data` is used
  // as scratch and left in an unspecified state.
  template <typename T>
  void ReduceScatter(std::span<T> data, std::span<T> out,
                     ReduceOp op = ReduceOp::kSum) {
    const int p = size();
    ZERO_CHECK(data.size() % static_cast<std::size_t>(p) == 0,
               "ReduceScatter length must divide evenly (pad first)");
    const std::size_t chunk = data.size() / static_cast<std::size_t>(p);
    ZERO_CHECK(out.size() == chunk, "ReduceScatter output size mismatch");
    TRACE_SPAN("comm/reduce_scatter");
    FaultPoint("collective");
    const std::uint64_t seq = NextSeq();
    if (p > 1) RingReduceScatterInPlace(data, op, seq);
    std::copy_n(data.data() + chunk * static_cast<std::size_t>(rank()), chunk,
                out.data());
    if (op == ReduceOp::kAvg) detail::ScaleBy(out.data(), out.size(), 1.0 / p);
  }

  // out.size() must equal chunk.size() * p; rank i's chunk lands at
  // offset i*chunk.size().
  template <typename T>
  void AllGather(std::span<const T> chunk, std::span<T> out) {
    const int p = size();
    ZERO_CHECK(out.size() == chunk.size() * static_cast<std::size_t>(p),
               "AllGather output size mismatch");
    TRACE_SPAN("comm/all_gather");
    FaultPoint("collective");
    std::copy(chunk.begin(), chunk.end(),
              out.begin() + chunk.size() * static_cast<std::size_t>(rank()));
    const std::uint64_t seq = NextSeq();
    if (p > 1) RingAllGatherInPlace(out, seq);
  }

  // Ring-pipelined broadcast from group rank `root`; per-rank volume ~= M.
  template <typename T>
  void Broadcast(std::span<T> data, int root) {
    TRACE_SPAN("comm/broadcast");
    FaultPoint("collective");
    const std::uint64_t seq = NextSeq();
    if (size() == 1) return;
    RingBroadcast(std::as_writable_bytes(data), root, seq);
  }

  // Ring reduce. Contract (relied on by the stage-2 gradient path and
  // documented here because every clause is asymmetric by design):
  //   - The fully reduced result lands in `root`'s buffer ONLY; every
  //     other rank's buffer is left exactly as it was passed in.
  //   - kAvg divides by the group size at the root only — non-root
  //     buffers never see the scaling, since they hold unreduced local
  //     data, not a result.
  //   - Accumulation walks the ring root+1, root+2, ..., root: the rank
  //     immediately after root forwards its own buffer verbatim (it has
  //     nothing to receive), every later rank folds its contribution
  //     into the running partial sum. The bracketing is therefore fixed
  //     by ring position and deterministic for a given root.
  //   - Per-rank send volume is M on every non-root rank and 0 at the
  //     root; stats_.collectives increments once per rank per call on
  //     every rank, including the degenerate single-rank group.
  template <typename T>
  void Reduce(std::span<T> data, int root, ReduceOp op = ReduceOp::kSum) {
    TRACE_SPAN("comm/reduce");
    FaultPoint("collective");
    const int p = size();
    const std::uint64_t seq = NextSeq();
    ++stats_.collectives;
    if (p == 1) {
      return;  // identity, like the other single-rank collectives
    }
    const int steps_from_root = Distance(root, rank());
    std::vector<T> acc;
    if (steps_from_root != 1) {
      // Everyone but the first hop receives the running sum from the
      // previous ring position and folds in its own contribution.
      acc.resize(data.size());
      Recv(Prev(), std::span<T>(acc), seq | kKindReduce);
      detail::AccumulateInto(acc.data(), data.data(), data.size(), op);
    }
    if (rank() != root) {
      const std::span<const T> fwd =
          steps_from_root == 1
              ? std::span<const T>(data.data(), data.size())
              : std::span<const T>(acc.data(), acc.size());
      Send(Next(), fwd, seq | kKindReduce);
    } else {
      std::memcpy(data.data(), acc.data(), acc.size() * sizeof(T));
      if (op == ReduceOp::kAvg)
        detail::ScaleBy(data.data(), data.size(), 1.0 / p);
    }
  }

  // Every rank's `chunk` lands at offset rank*chunk.size() of the
  // root's `out` (out is only written at the root).
  template <typename T>
  void Gather(std::span<const T> chunk, std::span<T> out, int root) {
    TRACE_SPAN("comm/gather");
    FaultPoint("collective");
    const int p = size();
    const std::uint64_t seq = NextSeq();
    if (rank() == root) {
      ZERO_CHECK(out.size() == chunk.size() * static_cast<std::size_t>(p),
                 "Gather output size mismatch at root");
      std::memcpy(out.data() + chunk.size() * static_cast<std::size_t>(root),
                  chunk.data(), chunk.size_bytes());
      for (int i = 0; i < p; ++i) {
        if (i == root) continue;
        Recv(i,
             out.subspan(chunk.size() * static_cast<std::size_t>(i),
                         chunk.size()),
             seq | kKindGather);
      }
    } else {
      Send(root, chunk, seq | kKindGather);
    }
    ++stats_.collectives;
  }

  // Personalized exchange: send.size() == recv.size() == p * chunk; the
  // i-th chunk of `send` goes to rank i, whose j-th chunk of `recv`
  // comes from rank j.
  template <typename T>
  void AllToAll(std::span<const T> send, std::span<T> recv) {
    const int p = size();
    ZERO_CHECK(send.size() == recv.size() &&
                   send.size() % static_cast<std::size_t>(p) == 0,
               "AllToAll buffers must be p equal chunks");
    const std::size_t chunk = send.size() / static_cast<std::size_t>(p);
    TRACE_SPAN("comm/all_to_all");
    FaultPoint("collective");
    const std::uint64_t seq = NextSeq();
    // Post all sends first (deposits are non-blocking), then receive.
    for (int i = 0; i < p; ++i) {
      std::span<const T> piece =
          send.subspan(chunk * static_cast<std::size_t>(i), chunk);
      if (i == rank()) {
        std::memcpy(recv.data() + chunk * static_cast<std::size_t>(i),
                    piece.data(), piece.size_bytes());
      } else {
        Send(i, piece, seq | kKindAllToAll);
      }
    }
    for (int i = 0; i < p; ++i) {
      if (i == rank()) continue;
      Recv(i, recv.subspan(chunk * static_cast<std::size_t>(i), chunk),
           seq | kKindAllToAll);
    }
    ++stats_.collectives;
  }

  // Root's data is split into p equal chunks; chunk i is delivered to
  // rank i's `out`.
  template <typename T>
  void Scatter(std::span<const T> data, std::span<T> out, int root) {
    TRACE_SPAN("comm/scatter");
    FaultPoint("collective");
    const int p = size();
    ZERO_CHECK(out.size() * static_cast<std::size_t>(p) == data.size() ||
                   rank() != root,
               "Scatter size mismatch at root");
    const std::uint64_t seq = NextSeq();
    if (rank() == root) {
      for (int i = 0; i < p; ++i) {
        std::span<const T> chunk = data.subspan(
            out.size() * static_cast<std::size_t>(i), out.size());
        if (i == rank()) {
          std::memcpy(out.data(), chunk.data(), chunk.size_bytes());
        } else {
          Send(i, chunk, seq | kKindScatter);
        }
      }
    } else {
      Recv(root, out, seq | kKindScatter);
    }
    ++stats_.collectives;
  }

  // A bounded wait gives up with CommTimeoutError (lost message) after
  // this many comm-deadline windows with the peer still heartbeating.
  static constexpr int kStallFactor = 8;

  // ---- nonblocking collective support (nonblocking_collectives.hpp) ----
  // The chunked collective state machines replay the blocking ring
  // schedules above as resumable steps, so they need the same tag
  // arithmetic and ring geometry the blocking templates use.
  static constexpr std::uint64_t kStepStride = 1ull << 20;

  [[nodiscard]] int Next() const { return (rank() + 1) % size(); }
  [[nodiscard]] int Prev() const { return (rank() + size() - 1) % size(); }
  [[nodiscard]] int Distance(int from, int to) const {
    return (to - from + size()) % size();
  }
  // Chunk [begin, end) element range for ring step bookkeeping; chunks
  // are as even as possible (first `rem` chunks one element longer).
  [[nodiscard]] std::pair<std::size_t, std::size_t> ChunkRange(
      std::size_t total, int chunk_index) const;

  // Entry point for one nonblocking collective launch: runs the fault
  // point, counts `sub_ops` collectives in stats, and returns the base
  // tag sequence (two kStepStride slots, like the blocking collectives).
  std::uint64_t BeginCollective(const char* site, int sub_ops = 1);

  // Group introspection for topology builders (comm/topology.hpp).
  [[nodiscard]] const std::vector<int>& members() const { return members_; }
  [[nodiscard]] RankContext& context() const { return *ctx_; }
  [[nodiscard]] std::uint64_t group_id() const { return group_id_; }

 private:
  static constexpr std::uint64_t kKindReduce = 1ull << 18;
  static constexpr std::uint64_t kKindScatter = 2ull << 18;
  static constexpr std::uint64_t kKindGather = 3ull << 18;
  // Kind field is 2 bits wide (18-19); AllToAll shares the unused step
  // range above it.
  static constexpr std::uint64_t kKindAllToAll = 1ull << 17;
  // User-supplied point-to-point tags must stay below this; internal
  // collective tags are allocated above it.
  static constexpr std::uint64_t kUserTagLimit = 1ull << 40;

  std::uint64_t NextSeq() {
    // Two stride slots per collective so AllReduce's two phases never
    // collide with the next call's tags.
    const std::uint64_t s = op_seq_;
    op_seq_ += 2 * kStepStride;
    return s;
  }

  template <typename T>
  void RingReduceScatterInPlace(std::span<T> data, ReduceOp op,
                                std::uint64_t seq);
  template <typename T>
  void RingAllGatherInPlace(std::span<T> data, std::uint64_t seq);
  void RingBroadcast(std::span<std::byte> data, int root, std::uint64_t seq);

  RankContext* ctx_;
  std::vector<int> members_;
  int my_index_;
  std::uint64_t group_id_;
  std::uint64_t op_seq_ = 0;
  CommStats stats_;
};

// ---- template implementations ----

template <typename T>
void Communicator::RingReduceScatterInPlace(std::span<T> data, ReduceOp op,
                                            std::uint64_t seq) {
  const int p = size();
  const int r = rank();
  std::vector<T> staging;
  for (int s = 0; s < p - 1; ++s) {
    const int send_chunk = (r - s - 1 + 2 * p) % p;
    const int recv_chunk = (r - s - 2 + 2 * p) % p;
    auto [sb, se] = ChunkRange(data.size(), send_chunk);
    auto [rb, re] = ChunkRange(data.size(), recv_chunk);
    Send(Next(), std::span<const T>(data.data() + sb, se - sb),
         seq + static_cast<std::uint64_t>(s));
    staging.resize(re - rb);
    Recv(Prev(), std::span<T>(staging), seq + static_cast<std::uint64_t>(s));
    detail::AccumulateInto(data.data() + rb, staging.data(), re - rb, op);
  }
  ++stats_.collectives;
}

template <typename T>
void Communicator::RingAllGatherInPlace(std::span<T> data, std::uint64_t seq) {
  const int p = size();
  const int r = rank();
  std::vector<T> staging;
  for (int s = 0; s < p - 1; ++s) {
    const int send_chunk = (r - s + 2 * p) % p;
    const int recv_chunk = (r - s - 1 + 2 * p) % p;
    auto [sb, se] = ChunkRange(data.size(), send_chunk);
    auto [rb, re] = ChunkRange(data.size(), recv_chunk);
    Send(Next(), std::span<const T>(data.data() + sb, se - sb),
         seq + static_cast<std::uint64_t>(s));
    staging.resize(re - rb);
    Recv(Prev(), std::span<T>(staging), seq + static_cast<std::uint64_t>(s));
    std::copy(staging.begin(), staging.end(), data.begin() + rb);
  }
  ++stats_.collectives;
}

// Measures the communication attributable to a region of code without
// resetting the communicator's monotonic counters:
//
//   comm::CommDelta step(dp);
//   ... one training step ...
//   comm::CommStats used = step.Delta();
//
// Replaces the old pattern of calling ResetStats() between steps, which
// destroyed the run-lifetime totals other readers (the trainer's
// RankMetrics) depend on.
class CommDelta {
 public:
  explicit CommDelta(const Communicator& comm)
      : comm_(&comm), start_(comm.stats()) {}
  [[nodiscard]] CommStats Delta() const { return comm_->stats() - start_; }
  // Re-bases the helper so the next Delta() starts from now.
  void Rebase() { start_ = comm_->stats(); }

 private:
  const Communicator* comm_;
  CommStats start_;
};

}  // namespace zero::comm
