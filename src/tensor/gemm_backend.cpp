#include "tensor/gemm_backend.hpp"

#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "tensor/kernels.hpp"

namespace zero::tensor {

namespace {

class F32Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp32"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return static_cast<std::size_t>(PanelElems(n, k)) * sizeof(float);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    PackPanelsT(src, n, k, reinterpret_cast<float*>(dst));
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    DecodePanelRow(reinterpret_cast<const float*>(packed), n, k, row, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    GemmPanelsT(m, n, k, alpha, a, reinterpret_cast<const float*>(packed),
                beta, c);
  }
};

class F16Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp16"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return static_cast<std::size_t>(PanelElems(n, k)) * sizeof(Half);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    PackHalfPanelsT(src, n, k, reinterpret_cast<Half*>(dst));
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    DecodeHalfPanelRow(reinterpret_cast<const Half*>(packed), n, k, row, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    GemmHalfPanelsT(m, n, k, alpha, a, reinterpret_cast<const Half*>(packed),
                    beta, c);
  }
};

class Int8Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "int8"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return static_cast<std::size_t>(QuantPanelBytes(n, k));
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    PackQuantPanelsT(src, n, k, dst);
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    DecodeQuantPanelRow(packed, n, k, row, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    GemmQuantPanelsT(m, n, k, alpha, a, packed, beta, c);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<GemmBackend>> backends;

  Registry() {
    backends.push_back(std::make_unique<F32Backend>());
    backends.push_back(std::make_unique<F16Backend>());
    backends.push_back(std::make_unique<Int8Backend>());
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

}  // namespace zero::tensor
