// ZeRO++ qwZ: quantized nonblocking parameter movement.
//
// IQuantBroadcast and IQuantAllGather run the exact broadcast and
// all-gather rings of communicator.hpp (BroadcastMachine, GatherMachine)
// over a wire buffer in the blockwise int8 format of tensor/quantize.hpp
// (int8 codes + fp16 scales, ~3.8x smaller at block 64). They return the
// same waitable CollectiveRequest and follow the same Test/Wait/Cancel
// and SPMD contracts as the exact nonblocking collectives.
//
// Every rank — the root/chunk owner included — overwrites its fp16
// destination with the dequantized wire contents, so all ranks hold
// bit-identical (lossy) values afterwards; without that, the owner's
// replica would silently diverge from its peers'.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/quantize.hpp"

namespace zero::comm {

namespace nb_detail {

// Wire-precision accounting for the step report's comm.bytes split:
// every quantized payload injected into the network books its int8 and
// fp16-scale byte counts here (process-wide; the report divides by the
// rank count).
inline void WireCounters(std::size_t elems, std::int64_t block) {
  static obs::Counter& int8_bytes = obs::Metrics().counter("comm.wire.int8_bytes");
  static obs::Counter& scale_bytes =
      obs::Metrics().counter("comm.wire.scale_bytes");
  int8_bytes.Add(elems);
  scale_bytes.Add(static_cast<std::size_t>(
      2 * tensor::QuantBlocks(static_cast<std::int64_t>(elems), block)));
}

class QuantBroadcastMachine final : public Machine {
 public:
  QuantBroadcastMachine(Communicator& comm, std::span<Half> data, int root,
                        std::int64_t block, std::uint64_t seq)
      : data_(data), block_(block) {
    wire_.resize(tensor::QuantWireBytes(
        static_cast<std::int64_t>(data.size()), block));
    if (comm.rank() == root) {
      TRACE_SPAN("comm/qwz_quantize");
      tensor::QuantizeHalf(data.data(),
                           static_cast<std::int64_t>(data.size()), block,
                           wire_.data());
      WireCounters(data.size(), block);
    }
    inner_ = std::make_unique<BroadcastMachine>(comm, std::span(wire_), root,
                                                seq);
  }

  bool Advance(bool blocking) override {
    // The root's inner machine is done at construction with no pending
    // receives; advancing it again would walk an empty request list.
    if (!inner_->done() && !inner_->Advance(blocking)) return false;
    if (!done_) {
      TRACE_SPAN("comm/qwz_dequantize");
      tensor::DequantizeHalf(wire_.data(),
                             static_cast<std::int64_t>(data_.size()), block_,
                             data_.data());
      done_ = true;
    }
    return true;
  }

  void Cancel() override {
    inner_->Cancel();
    done_ = true;
  }

 private:
  std::span<Half> data_;
  std::int64_t block_;
  std::vector<std::byte> wire_;
  std::unique_ptr<BroadcastMachine> inner_;
};

class QuantAllGatherMachine final : public Machine {
 public:
  QuantAllGatherMachine(Communicator& comm, std::span<const Half> chunk,
                        std::span<Half> out, std::int64_t block,
                        std::uint64_t seq)
      : comm_(&comm), out_(out), block_(block) {
    chunk_elems_ = static_cast<std::int64_t>(chunk.size());
    wire_chunk_ = tensor::QuantWireBytes(chunk_elems_, block);
    // One equal-size wire slot per rank, so the byte-level ring chunks
    // of GatherMachine coincide exactly with the rank slots.
    wire_.resize(wire_chunk_ * static_cast<std::size_t>(comm.size()));
    {
      TRACE_SPAN("comm/qwz_quantize");
      tensor::QuantizeHalf(chunk.data(), chunk_elems_, block,
                           wire_.data() +
                               wire_chunk_ *
                                   static_cast<std::size_t>(comm.rank()));
      WireCounters(chunk.size(), block);
    }
    inner_ = std::make_unique<GatherMachine>(comm, wire_.data(), wire_.size(),
                                             /*elem_size=*/1, seq);
  }

  bool Advance(bool blocking) override {
    if (!inner_->done() && !inner_->Advance(blocking)) return false;
    if (!done_) {
      TRACE_SPAN("comm/qwz_dequantize");
      for (int i = 0; i < comm_->size(); ++i) {
        tensor::DequantizeHalf(
            wire_.data() + wire_chunk_ * static_cast<std::size_t>(i),
            chunk_elems_, block_,
            out_.data() + chunk_elems_ * static_cast<std::size_t>(i));
      }
      done_ = true;
    }
    return true;
  }

  void Cancel() override {
    inner_->Cancel();
    done_ = true;
  }

 private:
  Communicator* comm_;
  std::span<Half> out_;
  std::int64_t block_;
  std::int64_t chunk_elems_ = 0;
  std::size_t wire_chunk_ = 0;
  std::vector<std::byte> wire_;
  std::unique_ptr<GatherMachine> inner_;
};

}  // namespace nb_detail

// qwZ broadcast: the root's fp16 span travels as int8 codes + fp16
// scales and every rank (root included) lands the dequantized values in
// `data`. Same ring schedule and tag bookkeeping as IBroadcast, ~1/3.8
// of the bytes at block 64. Lossy: NOT bit-exact vs IBroadcast, but
// deterministic and rank-identical.
[[nodiscard]] inline CollectiveRequest IQuantBroadcast(Communicator& comm,
                                                       std::span<Half> data,
                                                       int root,
                                                       std::int64_t block) {
  TRACE_SPAN("comm/iquant_broadcast");
  const std::uint64_t seq =
      comm.BeginCollective("collective", comm.size() > 1 ? 1 : 0);
  return CollectiveRequest(std::make_shared<nb_detail::QuantBroadcastMachine>(
      comm, data, root, block, seq));
}

// qwZ all-gather: each rank contributes `chunk` (equal sizes), the wire
// carries quantized slots, and `out` receives the dequantized
// concatenation — including this rank's own chunk, re-read through the
// quantizer so replicas agree bitwise across the group.
[[nodiscard]] inline CollectiveRequest IQuantAllGather(
    Communicator& comm, std::span<const Half> chunk, std::span<Half> out,
    std::int64_t block) {
  ZERO_CHECK(out.size() ==
                 chunk.size() * static_cast<std::size_t>(comm.size()),
             "IQuantAllGather output size mismatch");
  TRACE_SPAN("comm/iquant_all_gather");
  const std::uint64_t seq =
      comm.BeginCollective("collective", comm.size() > 1 ? 1 : 0);
  return CollectiveRequest(std::make_shared<nb_detail::QuantAllGatherMachine>(
      comm, chunk, out, block, seq));
}

}  // namespace zero::comm
