// Runtime-dispatched GEMM backends for reduced-precision serving
// weights, registered and selected by name (the Dali idiom: every
// precision implements one interface, a registry maps names to
// implementations, and callers pick one at load time — the hot path
// then runs identical call sites for every precision).
//
// A backend owns the *encoding* of a weight tensor plus the matching
// GEMM against it:
//
//   C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C
//
// with A fp32 activations and W a packed weight matrix in the backend's
// native storage. Built-in backends:
//
//   "fp32"  — the identical floats. Shaped matrices are stored as the
//             GEMM's micro-panels (PackPanelsT), which the micro-kernel
//             reads in place, so serving through it is memcmp-bit-exact
//             with tensor::Gemm on the trainer's weights and packs no B
//             operand per call.
//   "fp16"  — Half storage (2 bytes/elem), decoded inside the GEMM's
//             pack step (kernels.hpp GemmHalfWeightT) — no fp32 copy of
//             the weights is ever materialized. Shaped matrices use the
//             same micro-panel layout as fp32 (PackHalfPanelsT), so the
//             per-call B pack is one contiguous bulk decode per tile.
//   "int8"  — blockwise-int8 codes (tensor/quantize wire discipline)
//             with the per-block scales pre-decoded to fp32; ~4x
//             smaller than fp32, bounded per-element error absmax/127.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace zero::tensor {

enum class WeightPrecision : unsigned char { kF32, kF16, kInt8 };

[[nodiscard]] const char* WeightPrecisionName(WeightPrecision p);

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual WeightPrecision precision() const = 0;

  // Bytes of packed storage an n-element weight tensor needs.
  [[nodiscard]] virtual std::size_t PackedBytes(std::int64_t n) const = 0;

  // Encode n fp32 weights into `dst` (PackedBytes(n) bytes, at least
  // 4-byte aligned).
  virtual void Pack(const float* src, std::int64_t n, std::byte* dst) const = 0;

  // Decode elements [off, off+count) of a packed tensor back to fp32 —
  // embedding-row gathers and the equivalence tests.
  virtual void Decode(const std::byte* packed, std::int64_t off,
                      std::int64_t count, float* dst) const = 0;

  // C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C for the weight matrix
  // starting at element `off` of the packed tensor.
  virtual void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                           float alpha, const float* a,
                           const std::byte* packed, std::int64_t off,
                           float beta, float* c) const = 0;

  // Shape-aware matrix encoding: a [n, k] weight matrix packed as one
  // unit, with the shape known at pack time. The defaults reuse the
  // flat row-major encoding above; fp32 and fp16 override them with
  // pre-packed GEMM micro-panels. Every override must keep
  // MatrixGemmWeightT bitwise equal to GemmWeightT on the flat encoding
  // of the same floats — the layout is a storage choice, never a
  // numerics choice.
  [[nodiscard]] virtual std::size_t PackedMatrixBytes(std::int64_t n,
                                                      std::int64_t k) const;
  virtual void PackMatrix(const float* src, std::int64_t n, std::int64_t k,
                          std::byte* dst) const;
  // Row `row` of the [n, k] matrix back to fp32 (embedding gathers).
  virtual void DecodeMatrixRow(const std::byte* packed, std::int64_t n,
                               std::int64_t k, std::int64_t row,
                               float* dst) const;
  virtual void MatrixGemmWeightT(std::int64_t m, std::int64_t n,
                                 std::int64_t k, float alpha, const float* a,
                                 const std::byte* packed, float beta,
                                 float* c) const;
};

// Registers a backend under backend->name(); replaces an existing
// registration of the same name (latest wins, so tests can shadow).
void RegisterGemmBackend(std::unique_ptr<GemmBackend> backend);

// Lookup by name; throws ZeroError on unknown names, listing what is
// registered. The returned reference stays valid for process lifetime.
[[nodiscard]] const GemmBackend& GemmBackendByName(std::string_view name);

// Registered names, registration order (built-ins first).
[[nodiscard]] std::vector<std::string> GemmBackendNames();

}  // namespace zero::tensor
