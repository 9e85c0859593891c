#include "model/serving_weights.hpp"

#include <string>

#include "common/error.hpp"

namespace zero::model {

namespace {

constexpr std::size_t kEntryAlign = 64;

// (unit, unit-relative offset) -> map key. Offsets are bounded by a
// unit's numel, far below 2^40 for any model this runtime hosts.
std::uint64_t Key(int unit, std::int64_t off) {
  ZERO_CHECK(unit >= 0 && off >= 0 && off < (std::int64_t{1} << 40),
             "serving weight key out of range");
  return (static_cast<std::uint64_t>(unit) << 40) |
         static_cast<std::uint64_t>(off);
}

}  // namespace

bool ServingWeights::IsMatrixEntry(std::string_view name) {
  return name == "wte" || name.find(".w_") != std::string_view::npos;
}

ServingWeights::ServingWeights(const ParamLayout& layout,
                               std::span<const float> local,
                               const tensor::GemmBackend& backend)
    : backend_(&backend) {
  ZERO_CHECK(local.size() ==
                 static_cast<std::size_t>(layout.total_numel()),
             "serving weights need the full local shard");

  // Pass 1: assign positions (matrix entries 64-byte-aligned in the
  // packed arena, vector entries packed tight in the fp32 sidecar).
  std::size_t packed_bytes = 0;
  std::size_t f32_floats = 0;
  for (const ParamEntry& e : layout.entries()) {
    const auto [ubegin, uend] = layout.UnitRange(e.unit);
    (void)uend;
    Entry ent;
    ent.matrix = IsMatrixEntry(e.name);
    if (ent.matrix) {
      ZERO_CHECK(e.rows > 0 && e.rows * e.cols == e.numel,
                 "serving matrix entry " + e.name +
                     " has no [rows, cols] shape in the layout");
      ent.rows = e.rows;
      ent.cols = e.cols;
      packed_bytes = (packed_bytes + kEntryAlign - 1) / kEntryAlign *
                     kEntryAlign;
      ent.pos = packed_bytes;
      packed_bytes += backend.PackedBytes(ent.rows, ent.cols);
    } else {
      ent.pos = f32_floats;
      f32_floats += static_cast<std::size_t>(e.numel);
    }
    entries_.emplace(Key(e.unit, e.offset - ubegin), ent);
  }
  packed_.resize(packed_bytes);
  f32_.resize(f32_floats);

  // Pass 2: encode.
  for (const ParamEntry& e : layout.entries()) {
    const auto [ubegin, uend] = layout.UnitRange(e.unit);
    (void)uend;
    const Entry& ent = entries_.at(Key(e.unit, e.offset - ubegin));
    const float* src = local.data() + e.offset;
    if (ent.matrix) {
      backend.Pack(src, ent.rows, ent.cols, packed_.data() + ent.pos);
    } else {
      std::copy(src, src + e.numel, f32_.data() + ent.pos);
    }
  }
}

const tensor::GemmBackend& ServingWeights::backend() const {
  ZERO_CHECK(backend_ != nullptr, "serving weights not loaded");
  return *backend_;
}

const ServingWeights::Entry& ServingWeights::Lookup(int unit,
                                                    std::int64_t off,
                                                    bool want_matrix) const {
  ZERO_CHECK(backend_ != nullptr, "serving weights not loaded");
  auto it = entries_.find(Key(unit, off));
  ZERO_CHECK(it != entries_.end(),
             "no serving weight entry at unit " + std::to_string(unit) +
                 " offset " + std::to_string(off));
  ZERO_CHECK(it->second.matrix == want_matrix,
             "serving weight entry storage class mismatch");
  return it->second;
}

const float* ServingWeights::Vec(int unit, std::int64_t off) const {
  return f32_.data() + Lookup(unit, off, /*want_matrix=*/false).pos;
}

void ServingWeights::GemmWeightT(int unit, std::int64_t off, std::int64_t m,
                                 std::int64_t n, std::int64_t k, float alpha,
                                 const float* a, float beta, float* c) const {
  const Entry& ent = Lookup(unit, off, /*want_matrix=*/true);
  ZERO_CHECK(n == ent.rows && k == ent.cols,
             "serving weight GEMM shape disagrees with the layout");
  backend_->GemmWeightT(m, n, k, alpha, a, packed_.data() + ent.pos, beta, c);
}

void ServingWeights::DecodeRow(int unit, std::int64_t off, std::int64_t row,
                               std::int64_t cols, float* dst) const {
  const Entry& ent = Lookup(unit, off, /*want_matrix=*/true);
  ZERO_CHECK(cols == ent.cols,
             "serving weight row decode disagrees with the layout");
  backend_->DecodeRow(packed_.data() + ent.pos, ent.rows, ent.cols, row, dst);
}

}  // namespace zero::model
