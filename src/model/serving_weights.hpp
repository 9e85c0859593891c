// Engine-resident serving weights, packed per layout entry in a GEMM
// backend's native precision (tensor/gemm_backend.hpp).
//
// The trainer keeps everything fp32; the serving path re-encodes the
// local shard once at engine-load time. Matrix entries (the token
// embedding and every projection weight) are packed with their
// [rows, cols] layout shape into the backend's load-time GEMM
// micro-panels, one layout for every precision, and consumed through
// the backend's GemmWeightT — no fp32 copy of a weight matrix is ever
// materialized after packing, and no GEMM packs its weight operand per
// call. A matrix entry without a layout shape is a load-time
// ZERO_CHECK failure. Vector-class entries (biases, layer-norm gains,
// the positional table) stay fp32 in a sidecar: they are O(hidden)
// each, consumed by elementwise kernels, and keeping them exact means
// the "fp32" backend makes the whole serving forward memcmp-bit-exact
// with the trainer's eval forward.
//
// Lookups are keyed by (unit, unit-relative offset) — the coordinates
// GptModel::DecodeForward uses for every parameter access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/flat_model.hpp"
#include "tensor/gemm_backend.hpp"

namespace zero::model {

class ServingWeights {
 public:
  ServingWeights() = default;

  // Packs this rank's local flat shard (`local.size() ==
  // layout.total_numel()`). The backend reference must outlive this
  // object (registry-owned backends always do).
  ServingWeights(const ParamLayout& layout, std::span<const float> local,
                 const tensor::GemmBackend& backend);

  [[nodiscard]] bool loaded() const { return backend_ != nullptr; }
  [[nodiscard]] const tensor::GemmBackend& backend() const;

  // Bytes held: packed matrices + fp32 sidecar.
  [[nodiscard]] std::size_t weight_bytes() const {
    return packed_.size() + f32_.size() * sizeof(float);
  }

  // fp32 pointer to the start of a vector-class entry; indexable across
  // the whole entry (the positional table is gathered by row offset).
  [[nodiscard]] const float* Vec(int unit, std::int64_t off) const;

  // C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C for the matrix entry
  // at (unit, off).
  void GemmWeightT(int unit, std::int64_t off, std::int64_t m,
                   std::int64_t n, std::int64_t k, float alpha,
                   const float* a, float beta, float* c) const;

  // Decodes row `row` of the [rows, cols] matrix entry at (unit, off)
  // to fp32 (embedding gathers, equivalence tests).
  void DecodeRow(int unit, std::int64_t off, std::int64_t row,
                 std::int64_t cols, float* dst) const;

  // Storage class of a layout entry: matrices go backend-native,
  // everything else stays fp32.
  [[nodiscard]] static bool IsMatrixEntry(std::string_view name);

 private:
  struct Entry {
    bool matrix = false;
    // Matrix shape from the layout ([rows, cols]); 0/0 for vectors.
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::size_t pos = 0;  // byte offset in packed_ / float offset in f32_
  };

  [[nodiscard]] const Entry& Lookup(int unit, std::int64_t off,
                                    bool want_matrix) const;

  const tensor::GemmBackend* backend_ = nullptr;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::byte> packed_;  // matrix entries, 64-byte-aligned each
  std::vector<float> f32_;         // vector entries, contiguous
};

}  // namespace zero::model
