#include "tensor/gemm_backend.hpp"

#include <cstring>
#include <mutex>

#include "common/error.hpp"
#include "common/half.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {

std::size_t GemmBackend::PackedMatrixBytes(std::int64_t n,
                                           std::int64_t k) const {
  return PackedBytes(n * k);
}

void GemmBackend::PackMatrix(const float* src, std::int64_t n, std::int64_t k,
                             std::byte* dst) const {
  Pack(src, n * k, dst);
}

void GemmBackend::DecodeMatrixRow(const std::byte* packed, std::int64_t n,
                                  std::int64_t k, std::int64_t row,
                                  float* dst) const {
  ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
  Decode(packed, row * k, k, dst);
}

void GemmBackend::MatrixGemmWeightT(std::int64_t m, std::int64_t n,
                                    std::int64_t k, float alpha,
                                    const float* a, const std::byte* packed,
                                    float beta, float* c) const {
  GemmWeightT(m, n, k, alpha, a, packed, /*off=*/0, beta, c);
}

const char* WeightPrecisionName(WeightPrecision p) {
  switch (p) {
    case WeightPrecision::kF32: return "fp32";
    case WeightPrecision::kF16: return "fp16";
    case WeightPrecision::kInt8: return "int8";
  }
  return "?";
}

namespace {

class F32Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp32"; }
  [[nodiscard]] WeightPrecision precision() const override {
    return WeightPrecision::kF32;
  }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n) const override {
    return static_cast<std::size_t>(n) * sizeof(float);
  }
  void Pack(const float* src, std::int64_t n, std::byte* dst) const override {
    std::memcpy(dst, src, PackedBytes(n));
  }
  void Decode(const std::byte* packed, std::int64_t off, std::int64_t count,
              float* dst) const override {
    std::memcpy(dst, reinterpret_cast<const float*>(packed) + off,
                static_cast<std::size_t>(count) * sizeof(float));
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   std::int64_t off, float beta, float* c) const override {
    // Exact passthrough: identical floats through the identical kernel
    // and dispatch.
    Gemm(false, true, m, n, k, alpha, a,
         reinterpret_cast<const float*>(packed) + off, beta, c);
  }

  // Matrix entries are stored as the GEMM's micro-panels, which the
  // micro-kernel reads in place: no per-call B pack at all.
  [[nodiscard]] std::size_t PackedMatrixBytes(
      std::int64_t n, std::int64_t k) const override {
    return static_cast<std::size_t>(PanelElems(n, k)) * sizeof(float);
  }
  void PackMatrix(const float* src, std::int64_t n, std::int64_t k,
                  std::byte* dst) const override {
    PackPanelsT(src, n, k, reinterpret_cast<float*>(dst));
  }
  void DecodeMatrixRow(const std::byte* packed, std::int64_t n,
                       std::int64_t k, std::int64_t row,
                       float* dst) const override {
    ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
    DecodePanelRow(reinterpret_cast<const float*>(packed), n, k, row, dst);
  }
  void MatrixGemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                         float alpha, const float* a, const std::byte* packed,
                         float beta, float* c) const override {
    GemmPanelsT(m, n, k, alpha, a, reinterpret_cast<const float*>(packed),
                beta, c);
  }
};

class F16Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp16"; }
  [[nodiscard]] WeightPrecision precision() const override {
    return WeightPrecision::kF16;
  }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n) const override {
    return static_cast<std::size_t>(n) * sizeof(Half);
  }
  void Pack(const float* src, std::int64_t n, std::byte* dst) const override {
    FloatToHalf(src, reinterpret_cast<Half*>(dst),
                static_cast<std::size_t>(n));
  }
  void Decode(const std::byte* packed, std::int64_t off, std::int64_t count,
              float* dst) const override {
    HalfToFloat(reinterpret_cast<const Half*>(packed) + off, dst,
                static_cast<std::size_t>(count));
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   std::int64_t off, float beta, float* c) const override {
    GemmHalfWeightT(m, n, k, alpha, a,
                    reinterpret_cast<const Half*>(packed) + off, beta, c);
  }

  // Matrix entries use the same micro-panel layout as fp32, stored as
  // fp16: per call the B pack is one contiguous bulk decode per tile.
  [[nodiscard]] std::size_t PackedMatrixBytes(
      std::int64_t n, std::int64_t k) const override {
    return static_cast<std::size_t>(PanelElems(n, k)) * sizeof(Half);
  }
  void PackMatrix(const float* src, std::int64_t n, std::int64_t k,
                  std::byte* dst) const override {
    PackHalfPanelsT(src, n, k, reinterpret_cast<Half*>(dst));
  }
  void DecodeMatrixRow(const std::byte* packed, std::int64_t n,
                       std::int64_t k, std::int64_t row,
                       float* dst) const override {
    ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
    DecodeHalfPanelRow(reinterpret_cast<const Half*>(packed), n, k, row, dst);
  }
  void MatrixGemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                         float alpha, const float* a, const std::byte* packed,
                         float beta, float* c) const override {
    GemmHalfPanelsT(m, n, k, alpha, a,
                    reinterpret_cast<const Half*>(packed), beta, c);
  }
};

// Packed layout (self-describing, 8-byte aligned):
//   [ int64 n ][ float scale[ceil(n/block)] ][ int8 code[n] ]
// Codes and scales come from tensor/quantize's fp32 quantizer (same
// rounding, same poison-block policy); the fp16 wire scales are
// pre-decoded to fp32 once at pack time so the GEMM reader is one
// multiply per element.
class Int8Backend final : public GemmBackend {
 public:
  explicit Int8Backend(std::int64_t block) : block_(block) {}

  [[nodiscard]] std::string_view name() const override { return "int8"; }
  [[nodiscard]] WeightPrecision precision() const override {
    return WeightPrecision::kInt8;
  }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n) const override {
    return sizeof(std::int64_t) +
           static_cast<std::size_t>(QuantBlocks(n, block_)) * sizeof(float) +
           static_cast<std::size_t>(n);
  }
  void Pack(const float* src, std::int64_t n, std::byte* dst) const override {
    std::vector<std::byte> wire(QuantWireBytes(n, block_));
    QuantizeF32(src, n, block_, wire.data());
    std::memcpy(dst, &n, sizeof(n));
    const std::int64_t blocks = QuantBlocks(n, block_);
    const Half* wire_scales = reinterpret_cast<const Half*>(wire.data());
    float* scales = reinterpret_cast<float*>(dst + sizeof(n));
    for (std::int64_t b = 0; b < blocks; ++b) {
      scales[b] = wire_scales[b].ToFloat();
    }
    std::memcpy(dst + sizeof(n) + static_cast<std::size_t>(blocks) *
                                      sizeof(float),
                wire.data() + static_cast<std::size_t>(2 * blocks),
                static_cast<std::size_t>(n));
  }
  void Decode(const std::byte* packed, std::int64_t off, std::int64_t count,
              float* dst) const override {
    const View v = ViewOf(packed);
    ZERO_CHECK(off >= 0 && off + count <= v.n,
               "int8 weight decode outside the packed tensor");
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t e = off + i;
      dst[i] = static_cast<float>(v.codes[e]) * v.scales[e / block_];
    }
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   std::int64_t off, float beta, float* c) const override {
    const View v = ViewOf(packed);
    ZERO_CHECK(off % block_ == 0,
               "int8 weight GEMM needs a block-aligned matrix offset");
    ZERO_CHECK(off >= 0 && off + n * k <= v.n,
               "int8 weight GEMM outside the packed tensor");
    GemmQuantWeightT(m, n, k, alpha, a, v.codes + off,
                     v.scales + off / block_, block_, beta, c);
  }

 private:
  struct View {
    std::int64_t n;
    const float* scales;
    const std::int8_t* codes;
  };
  [[nodiscard]] View ViewOf(const std::byte* packed) const {
    View v;
    std::memcpy(&v.n, packed, sizeof(v.n));
    v.scales = reinterpret_cast<const float*>(packed + sizeof(v.n));
    v.codes = reinterpret_cast<const std::int8_t*>(
        packed + sizeof(v.n) +
        static_cast<std::size_t>(QuantBlocks(v.n, block_)) * sizeof(float));
    return v;
  }
  std::int64_t block_;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<GemmBackend>> backends;

  Registry() {
    backends.push_back(std::make_unique<F32Backend>());
    backends.push_back(std::make_unique<F16Backend>());
    backends.push_back(std::make_unique<Int8Backend>(64));
  }
};

Registry& TheRegistry() {
  static Registry r;
  return r;
}

}  // namespace

void RegisterGemmBackend(std::unique_ptr<GemmBackend> backend) {
  ZERO_CHECK(backend != nullptr, "null GEMM backend registration");
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.backends) {
    if (b->name() == backend->name()) {
      b = std::move(backend);
      return;
    }
  }
  r.backends.push_back(std::move(backend));
}

const GemmBackend& GemmBackendByName(std::string_view name) {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.backends) {
    if (b->name() == name) return *b;
  }
  std::string known;
  for (const auto& b : r.backends) {
    if (!known.empty()) known += ", ";
    known += std::string(b->name());
  }
  throw Error("unknown GEMM backend '" + std::string(name) +
              "' (registered: " + known + ")");
}

std::vector<std::string> GemmBackendNames() {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const auto& b : r.backends) names.emplace_back(b->name());
  return names;
}

}  // namespace zero::tensor
