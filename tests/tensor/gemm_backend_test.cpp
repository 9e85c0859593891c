// GEMM backend registry + weight-panel GEMM equivalence.
//
// The contract under test (gemm_backend.hpp, kernels.hpp): every
// backend's GemmWeightT is bitwise Gemm(false, true, ...) on the fp32
// rows its DecodeRow returns — one accumulation order — at tiny and
// multi-panel shapes alike, and each DecodeRow
// reproduces its precision's rounding of the source rows (exact for
// fp32, RNE Half for fp16, the per-row blockwise wire round trip for
// int8). The registry is the Dali-style name dispatch the serving
// engine selects a precision through.
#include "tensor/gemm_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {
namespace {

constexpr const char* kBackends[] = {"fp32", "fp16", "int8"};

std::vector<float> RandVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

std::vector<std::byte> PackWith(const GemmBackend& b,
                                const std::vector<float>& w, std::int64_t n,
                                std::int64_t k) {
  std::vector<std::byte> packed(b.PackedBytes(n, k));
  b.Pack(w.data(), n, k, packed.data());
  return packed;
}

// All n rows of a packed [n, k] matrix, decoded row-major.
std::vector<float> DecodeAll(const GemmBackend& b,
                             const std::vector<std::byte>& packed,
                             std::int64_t n, std::int64_t k) {
  std::vector<float> out(static_cast<std::size_t>(n * k));
  for (std::int64_t r = 0; r < n; ++r) {
    b.DecodeRow(packed.data(), n, k, r, out.data() + r * k);
  }
  return out;
}

// Each row through tensor/quantize's fp32 wire round trip, 64-blocks.
std::vector<float> WireRoundTripRows(const std::vector<float>& w,
                                     std::int64_t n, std::int64_t k) {
  std::vector<std::byte> wire(QuantWireBytes(k, kPanelQuantBlock));
  std::vector<float> out(static_cast<std::size_t>(n * k));
  for (std::int64_t r = 0; r < n; ++r) {
    QuantizeF32(w.data() + r * k, k, kPanelQuantBlock, wire.data());
    DequantizeF32(wire.data(), k, kPanelQuantBlock, out.data() + r * k);
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(GemmBackendRegistry, BuiltinsAreRegistered) {
  for (const char* name : kBackends) {
    EXPECT_EQ(GemmBackendByName(name).name(), name);
  }
}

TEST(GemmBackendRegistry, UnknownNameThrowsListingRegistered) {
  try {
    (void)GemmBackendByName("no-such-backend");
    FAIL() << "expected ZeroError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fp32"), std::string::npos);
  }
}

// A throwaway backend that forwards to fp32 under its own name, so
// re-registration is observable by object identity.
class ShadowBackend : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "test-shadow";
  }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return Fp32().PackedBytes(n, k);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    Fp32().Pack(src, n, k, dst);
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    Fp32().DecodeRow(packed, n, k, row, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    Fp32().GemmWeightT(m, n, k, alpha, a, packed, beta, c);
  }

 private:
  static const GemmBackend& Fp32() { return GemmBackendByName("fp32"); }
};

TEST(GemmBackendRegistry, ReRegistrationLatestWins) {
  auto first = std::make_unique<ShadowBackend>();
  const GemmBackend* first_raw = first.get();
  RegisterGemmBackend(std::move(first));
  EXPECT_EQ(&GemmBackendByName("test-shadow"), first_raw);

  auto second = std::make_unique<ShadowBackend>();
  const GemmBackend* second_raw = second.get();
  RegisterGemmBackend(std::move(second));
  EXPECT_EQ(&GemmBackendByName("test-shadow"), second_raw);
}

struct GemmShape {
  std::int64_t m, n, k;
};
// Tiny and panel-aligned shapes, ragged shapes that force partial
// panels and partial k-blocks, a decode-style single row, and one
// matrix spanning two kNc column blocks.
const GemmShape kMatrixShapes[] = {
    {2, 8, 8},       // tiny: one partial panel
    {8, 96, 64},     // panel-aligned n
    {4, 33, 129},    // ragged: partial panel + odd k
    {8, 33, 129},    // ragged, two row panels
    {1, 40, 160},    // decode-style m=1 row
    {1, 4100, 72},   // two column blocks, short last quant block
};

TEST(GemmBackendGemm, WeightTBitwiseEqualsGemmOnDecodedRows) {
  for (const char* name : kBackends) {
    const auto& b = GemmBackendByName(name);
    for (const GemmShape& s : kMatrixShapes) {
      const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 50);
      const auto wf = RandVec(static_cast<std::size_t>(s.n * s.k), 51);
      const auto packed = PackWith(b, wf, s.n, s.k);
      const auto wd = DecodeAll(b, packed, s.n, s.k);

      auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 52);
      auto c1 = c0;
      Gemm(false, true, s.m, s.n, s.k, 1.25f, a.data(), wd.data(), 0.5f,
           c0.data());
      b.GemmWeightT(s.m, s.n, s.k, 1.25f, a.data(), packed.data(), 0.5f,
                    c1.data());
      EXPECT_TRUE(BitwiseEqual(c0, c1))
          << name << " shape " << s.m << "x" << s.n << "x" << s.k;
    }
  }
}

constexpr std::int64_t kRaggedN = 33, kRaggedK = 129;

TEST(GemmBackendDecodeRow, Fp32RoundTripsExactly) {
  const auto& b = GemmBackendByName("fp32");
  const auto w = RandVec(static_cast<std::size_t>(kRaggedN * kRaggedK), 1);
  const auto packed = PackWith(b, w, kRaggedN, kRaggedK);
  EXPECT_TRUE(BitwiseEqual(DecodeAll(b, packed, kRaggedN, kRaggedK), w));
}

TEST(GemmBackendDecodeRow, Fp16MatchesHalfRoundTrip) {
  const auto& b = GemmBackendByName("fp16");
  const auto w = RandVec(static_cast<std::size_t>(kRaggedN * kRaggedK), 2);
  const auto packed = PackWith(b, w, kRaggedN, kRaggedK);

  std::vector<Half> half(w.size());
  FloatToHalf(w.data(), half.data(), w.size());
  std::vector<float> want(w.size());
  HalfToFloat(half.data(), want.data(), w.size());
  EXPECT_TRUE(BitwiseEqual(DecodeAll(b, packed, kRaggedN, kRaggedK), want));
}

TEST(GemmBackendDecodeRow, Int8MatchesPerRowWireRoundTrip) {
  const auto& b = GemmBackendByName("int8");
  for (const std::int64_t k : {kRaggedK, std::int64_t{128}, std::int64_t{300}}) {
    const auto w = RandVec(static_cast<std::size_t>(kRaggedN * k), 3);
    const auto packed = PackWith(b, w, kRaggedN, k);
    const auto got = DecodeAll(b, packed, kRaggedN, k);
    EXPECT_TRUE(BitwiseEqual(got, WireRoundTripRows(w, kRaggedN, k)))
        << "k " << k;
    if (k % kPanelQuantBlock == 0) {
      // Row-aligned blocks: the per-row blocks are the blocks of one
      // flat quantization of the whole matrix.
      EXPECT_TRUE(BitwiseEqual(got, WireRoundTripRows(w, 1, kRaggedN * k)))
          << "k " << k;
    }
  }
}

TEST(GemmBackendDecodeRow, OutOfRangeRowThrows) {
  const auto w = RandVec(static_cast<std::size_t>(kRaggedN * kRaggedK), 4);
  std::vector<float> row(static_cast<std::size_t>(kRaggedK));
  for (const char* name : kBackends) {
    const auto& b = GemmBackendByName(name);
    const auto packed = PackWith(b, w, kRaggedN, kRaggedK);
    EXPECT_THROW(b.DecodeRow(packed.data(), kRaggedN, kRaggedK, kRaggedN,
                             row.data()),
                 Error)
        << name;
    EXPECT_THROW(
        b.DecodeRow(packed.data(), kRaggedN, kRaggedK, -1, row.data()), Error)
        << name;
  }
}

// The wire discipline's edge-case policy survives the panel layout: a
// block holding a NaN (or an Inf) decodes to NaN (Inf) throughout, an
// all-zero row to +0, and a ragged k's short last block keeps its own
// scale. Edge rows sit in the first panel and in the partial last one.
TEST(GemmBackendInt8, EdgeRowsDecodeLikeTheWire) {
  const auto& b = GemmBackendByName("int8");
  const std::int64_t n = kRaggedN, k = kRaggedK;
  auto w = RandVec(static_cast<std::size_t>(n * k), 5);
  const std::int64_t nan_row = 0, inf_row = 1, zero_row = n - 1;
  w[nan_row * k + 70] = std::numeric_limits<float>::quiet_NaN();
  w[inf_row * k + 3] = std::numeric_limits<float>::infinity();
  std::fill(w.begin() + zero_row * k, w.begin() + (zero_row + 1) * k, 0.0f);

  const auto packed = PackWith(b, w, n, k);
  const auto got = DecodeAll(b, packed, n, k);
  EXPECT_TRUE(BitwiseEqual(got, WireRoundTripRows(w, n, k)));

  for (std::int64_t i = 64; i < 128; ++i) {
    EXPECT_TRUE(std::isnan(got[nan_row * k + i])) << "nan block elem " << i;
  }
  EXPECT_FALSE(std::isnan(got[nan_row * k + 0]));
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(std::isinf(got[inf_row * k + i])) << "inf block elem " << i;
  }
  EXPECT_TRUE(std::isfinite(got[inf_row * k + 64]));
  for (std::int64_t i = 0; i < k; ++i) {
    const float x = got[zero_row * k + i];
    EXPECT_TRUE(x == 0.0f && !std::signbit(x)) << "zero row elem " << i;
  }
}

TEST(GemmBackendPackedBytes, PanelPaddingOnly) {
  // Panel-aligned n: exactly the dense storage; n = 33 rounds up to the
  // next kNr = 32 panel boundary, 64 rows.
  const auto& f32 = GemmBackendByName("fp32");
  EXPECT_EQ(f32.PackedBytes(96, 64), std::size_t{96 * 64} * sizeof(float));
  EXPECT_EQ(f32.PackedBytes(33, 64), std::size_t{64 * 64} * sizeof(float));
  const auto& f16 = GemmBackendByName("fp16");
  EXPECT_EQ(f16.PackedBytes(96, 64), std::size_t{96 * 64} * sizeof(Half));
  EXPECT_EQ(f16.PackedBytes(33, 64), std::size_t{64 * 64} * sizeof(Half));
  // int8: per padded row, k codes plus one fp32 scale per 64-block of k.
  const auto& i8 = GemmBackendByName("int8");
  EXPECT_EQ(i8.PackedBytes(96, 64), std::size_t{96 * (64 + 1 * 4)});
  EXPECT_EQ(i8.PackedBytes(33, 129), std::size_t{64 * (129 + 3 * 4)});
  EXPECT_EQ(i8.PackedBytes(40, 300), std::size_t{64 * (300 + 5 * 4)});
  EXPECT_EQ(i8.PackedBytes(4100, 200),
            std::size_t{(4100 + 28) * (200 + 4 * 4)});
}

}  // namespace
}  // namespace zero::tensor
