// Runtime-dispatched GEMM backends for reduced-precision serving
// weights, registered and selected by name (the Dali idiom: every
// precision implements one interface, a registry maps names to
// implementations, and callers pick one at load time — the hot path
// then runs identical call sites for every precision).
//
// A backend owns the *encoding* of a [n, k] weight matrix plus the
// matching GEMM against it:
//
//   C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C
//
// with A fp32 activations and W packed in the backend's native storage.
// Every built-in backend stores W as the blocked GEMM's load-time
// micro-panels (kernels.hpp), so no backend packs a B operand per call,
// and GemmWeightT is bitwise Gemm(false, true, ...) on the fp32 rows
// DecodeRow returns:
//
//   "fp32"  — the identical floats, read by the micro-kernel in place,
//             so serving through it is memcmp-bit-exact with
//             tensor::Gemm on the trainer's weights.
//   "fp16"  — Half panels (2 bytes/elem), bulk-decoded one tile per
//             call — no fp32 copy of the weights is ever materialized.
//   "int8"  — blockwise-int8 panels: each row quantized in 64-element
//             blocks by tensor/quantize's wire discipline, fp32 scales
//             stored next to their codes; ~4x smaller than fp32,
//             bounded per-element error absmax/127.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace zero::tensor {

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Bytes of packed storage a [n, k] weight matrix needs.
  [[nodiscard]] virtual std::size_t PackedBytes(std::int64_t n,
                                                std::int64_t k) const = 0;

  // Encodes the row-major [n, k] fp32 matrix `src` into `dst`
  // (PackedBytes(n, k) bytes, at least 4-byte aligned).
  virtual void Pack(const float* src, std::int64_t n, std::int64_t k,
                    std::byte* dst) const = 0;

  // Row `row` of the packed [n, k] matrix back to fp32, k floats
  // (embedding gathers and the equivalence tests).
  virtual void DecodeRow(const std::byte* packed, std::int64_t n,
                         std::int64_t k, std::int64_t row,
                         float* dst) const = 0;

  // C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C for the packed [n, k]
  // matrix W.
  virtual void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                           float alpha, const float* a,
                           const std::byte* packed, float beta,
                           float* c) const = 0;
};

// Registers a backend under backend->name(); replaces an existing
// registration of the same name (latest wins, so tests can shadow).
void RegisterGemmBackend(std::unique_ptr<GemmBackend> backend);

// Lookup by name; throws ZeroError on unknown names, listing what is
// registered. The returned reference stays valid until a backend of the
// same name is registered (built-ins: process lifetime).
[[nodiscard]] const GemmBackend& GemmBackendByName(std::string_view name);

}  // namespace zero::tensor
