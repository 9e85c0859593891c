// GEMM backend registry + mixed-precision weight-GEMM equivalence.
//
// The contract under test (kernels.hpp): GemmHalfWeightT /
// GemmQuantWeightT produce bitwise the result of decoding W to fp32 and
// calling Gemm(false, true, ...) — one accumulation order — on both
// sides of Gemm's small-GEMM / packed-GEMM split. The registry is the Dali-style name dispatch the
// serving engine selects a precision through.
#include "tensor/gemm_backend.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {
namespace {

std::vector<float> RandVec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

std::vector<std::byte> PackWith(const GemmBackend& b,
                                const std::vector<float>& w) {
  std::vector<std::byte> packed(
      b.PackedBytes(static_cast<std::int64_t>(w.size())));
  b.Pack(w.data(), static_cast<std::int64_t>(w.size()), packed.data());
  return packed;
}

TEST(GemmBackendRegistry, BuiltinsAreRegistered) {
  const auto names = GemmBackendNames();
  auto has = [&](const char* n) {
    for (const auto& s : names) {
      if (s == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("fp32"));
  EXPECT_TRUE(has("fp16"));
  EXPECT_TRUE(has("int8"));
  EXPECT_EQ(GemmBackendByName("fp32").precision(), WeightPrecision::kF32);
  EXPECT_EQ(GemmBackendByName("fp16").precision(), WeightPrecision::kF16);
  EXPECT_EQ(GemmBackendByName("int8").precision(), WeightPrecision::kInt8);
}

TEST(GemmBackendRegistry, UnknownNameThrowsListingRegistered) {
  try {
    (void)GemmBackendByName("no-such-backend");
    FAIL() << "expected ZeroError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fp32"), std::string::npos);
  }
}

// A throwaway backend that forwards to fp32 but reports a marker
// precision, so re-registration under the same name is observable.
class ShadowBackend : public GemmBackend {
 public:
  explicit ShadowBackend(WeightPrecision marker) : marker_(marker) {}
  [[nodiscard]] std::string_view name() const override {
    return "test-shadow";
  }
  [[nodiscard]] WeightPrecision precision() const override { return marker_; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n) const override {
    return GemmBackendByName("fp32").PackedBytes(n);
  }
  void Pack(const float* src, std::int64_t n, std::byte* dst) const override {
    GemmBackendByName("fp32").Pack(src, n, dst);
  }
  void Decode(const std::byte* packed, std::int64_t off, std::int64_t count,
              float* dst) const override {
    GemmBackendByName("fp32").Decode(packed, off, count, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   std::int64_t off, float beta, float* c) const override {
    GemmBackendByName("fp32").GemmWeightT(m, n, k, alpha, a, packed, off,
                                          beta, c);
  }

 private:
  WeightPrecision marker_;
};

TEST(GemmBackendRegistry, ReRegistrationLatestWins) {
  RegisterGemmBackend(std::make_unique<ShadowBackend>(WeightPrecision::kF32));
  EXPECT_EQ(GemmBackendByName("test-shadow").precision(),
            WeightPrecision::kF32);
  RegisterGemmBackend(std::make_unique<ShadowBackend>(WeightPrecision::kF16));
  EXPECT_EQ(GemmBackendByName("test-shadow").precision(),
            WeightPrecision::kF16);
}

TEST(GemmBackendPack, Fp32RoundTripsExactly) {
  const auto& b = GemmBackendByName("fp32");
  const auto w = RandVec(129, 1);
  const auto packed = PackWith(b, w);
  ASSERT_EQ(packed.size(), w.size() * sizeof(float));
  std::vector<float> out(5);
  b.Decode(packed.data(), 7, 5, out.data());
  EXPECT_EQ(std::memcmp(out.data(), w.data() + 7, 5 * sizeof(float)), 0);
}

TEST(GemmBackendPack, Fp16DecodeMatchesHalfRoundTrip) {
  const auto& b = GemmBackendByName("fp16");
  const auto w = RandVec(100, 2);
  const auto packed = PackWith(b, w);
  ASSERT_EQ(packed.size(), w.size() * sizeof(Half));

  std::vector<Half> half(w.size());
  FloatToHalf(w.data(), half.data(), w.size());
  std::vector<float> want(w.size());
  HalfToFloat(half.data(), want.data(), w.size());

  std::vector<float> got(w.size());
  b.Decode(packed.data(), 0, static_cast<std::int64_t>(w.size()),
           got.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), w.size() * sizeof(float)),
            0);
  // Mid-range decode indexes absolutely.
  std::vector<float> mid(10);
  b.Decode(packed.data(), 33, 10, mid.data());
  EXPECT_EQ(std::memcmp(mid.data(), want.data() + 33, 10 * sizeof(float)),
            0);
}

TEST(GemmBackendPack, Int8DecodeMatchesQuantizeWire) {
  const auto& b = GemmBackendByName("int8");
  const std::int64_t n = 200;  // not a multiple of the 64-elem block
  const auto w = RandVec(static_cast<std::size_t>(n), 3);
  const auto packed = PackWith(b, w);

  std::vector<std::byte> wire(QuantWireBytes(n, 64));
  QuantizeF32(w.data(), n, 64, wire.data());
  std::vector<float> want(static_cast<std::size_t>(n));
  DequantizeF32(wire.data(), n, 64, want.data());

  std::vector<float> got(static_cast<std::size_t>(n));
  b.Decode(packed.data(), 0, n, got.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(n) * sizeof(float)),
            0);
  // Offsets inside the tensor decode the same elements.
  std::vector<float> mid(70);
  b.Decode(packed.data(), 65, 70, mid.data());
  EXPECT_EQ(std::memcmp(mid.data(), want.data() + 65, 70 * sizeof(float)),
            0);
}

// Both sides of the kSmallGemmFlops dispatch: (2,8,8) stays on the
// small kernel, (8,96,64) crosses into the packed path.
struct GemmShape {
  std::int64_t m, n, k;
};
const GemmShape kShapes[] = {{2, 8, 8}, {8, 96, 64}};

TEST(MixedPrecisionGemm, HalfWeightBitwiseEqualsDecodedGemm) {
  for (const GemmShape& s : kShapes) {
    const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 10);
    const auto wf = RandVec(static_cast<std::size_t>(s.n * s.k), 11);
    std::vector<Half> wh(wf.size());
    FloatToHalf(wf.data(), wh.data(), wf.size());
    std::vector<float> wd(wf.size());
    HalfToFloat(wh.data(), wd.data(), wh.size());

    auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 12);
    auto c1 = c0;
    Gemm(false, true, s.m, s.n, s.k, 1.25f, a.data(), wd.data(), 0.5f,
         c0.data());
    GemmHalfWeightT(s.m, s.n, s.k, 1.25f, a.data(), wh.data(), 0.5f,
                    c1.data());
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(MixedPrecisionGemm, QuantWeightBitwiseEqualsDequantizedGemm) {
  const std::int64_t qblock = 64;
  for (const GemmShape& s : kShapes) {
    const std::int64_t nelem = s.n * s.k;
    const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 20);
    const auto wf = RandVec(static_cast<std::size_t>(nelem), 21);

    std::vector<std::byte> wire(QuantWireBytes(nelem, qblock));
    QuantizeF32(wf.data(), nelem, qblock, wire.data());
    std::vector<float> wd(static_cast<std::size_t>(nelem));
    DequantizeF32(wire.data(), nelem, qblock, wd.data());

    // Split the wire into the kernel's operands: int8 codes plus
    // pre-decoded fp32 scales.
    const std::int64_t blocks = QuantBlocks(nelem, qblock);
    const auto* scales_h = reinterpret_cast<const Half*>(wire.data());
    std::vector<float> scales(static_cast<std::size_t>(blocks));
    HalfToFloat(scales_h, scales.data(), scales.size());
    const auto* codes =
        reinterpret_cast<const std::int8_t*>(wire.data() + 2 * blocks);

    auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 22);
    auto c1 = c0;
    Gemm(false, true, s.m, s.n, s.k, 1.0f, a.data(), wd.data(), 1.0f,
         c0.data());
    GemmQuantWeightT(s.m, s.n, s.k, 1.0f, a.data(), codes, scales.data(),
                     qblock, 1.0f, c1.data());
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(MixedPrecisionGemm, BackendGemmMatchesKernelEntryPoints) {
  const GemmShape s{4, 32, 16};
  const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 30);
  const auto wf = RandVec(static_cast<std::size_t>(s.n * s.k), 31);

  // fp32 backend is a passthrough to Gemm — memcmp-bit-exact.
  {
    const auto& b = GemmBackendByName("fp32");
    const auto packed = PackWith(b, wf);
    auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 32);
    auto c1 = c0;
    Gemm(false, true, s.m, s.n, s.k, 1.0f, a.data(), wf.data(), 0.0f,
         c0.data());
    b.GemmWeightT(s.m, s.n, s.k, 1.0f, a.data(), packed.data(), 0, 0.0f,
                  c1.data());
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0);
  }
  // fp16 backend delegates to GemmHalfWeightT.
  {
    const auto& b = GemmBackendByName("fp16");
    const auto packed = PackWith(b, wf);
    std::vector<Half> wh(wf.size());
    FloatToHalf(wf.data(), wh.data(), wf.size());
    auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 33);
    auto c1 = c0;
    GemmHalfWeightT(s.m, s.n, s.k, 1.0f, a.data(), wh.data(), 0.0f,
                    c0.data());
    b.GemmWeightT(s.m, s.n, s.k, 1.0f, a.data(), packed.data(), 0, 0.0f,
                  c1.data());
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0);
  }
}

// Packed tensors hold several matrices back to back in the serving
// layout; `off` selects one without re-slicing the storage.
TEST(MixedPrecisionGemm, OffsetSelectsTheRightMatrix) {
  const GemmShape s{3, 8, 8};
  const std::int64_t per = s.n * s.k;  // 64 = one int8 block exactly
  const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 40);
  const auto two = RandVec(static_cast<std::size_t>(2 * per), 41);
  const std::vector<float> second(two.begin() + per, two.end());

  for (const char* name : {"fp32", "fp16", "int8"}) {
    const auto& b = GemmBackendByName(name);
    const auto packed = PackWith(b, two);
    std::vector<float> dec(static_cast<std::size_t>(per));
    b.Decode(packed.data(), per, per, dec.data());

    std::vector<float> c0(static_cast<std::size_t>(s.m * s.n), 0.0f);
    auto c1 = c0;
    Gemm(false, true, s.m, s.n, s.k, 1.0f, a.data(), dec.data(), 0.0f,
         c0.data());
    b.GemmWeightT(s.m, s.n, s.k, 1.0f, a.data(), packed.data(), per, 0.0f,
                  c1.data());
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0)
        << name;
    // And the decoded second matrix approximates the source under the
    // backend's error model (exact for fp32).
    if (std::string_view(name) == "fp32") {
      EXPECT_EQ(std::memcmp(dec.data(), second.data(),
                            dec.size() * sizeof(float)),
                0);
    }
  }
}

// Shape-aware matrix encodings. The default implementation reuses the
// flat row-major storage; fp16 overrides it with load-time micro-panel
// pre-packing. The contract is that the layout is invisible to the
// numerics: MatrixGemmWeightT must stay bitwise equal to GemmWeightT on
// the flat encoding of the same floats, and DecodeMatrixRow must
// reproduce the flat row decode — across the small/packed dispatch and
// on ragged shapes that force partial panels and partial k-blocks.
const GemmShape kMatrixShapes[] = {
    {2, 8, 8},      // small-GEMM path
    {8, 96, 64},    // packed path, panel-aligned n
    {4, 33, 129},   // small-path ragged: partial panel + odd k
    {8, 33, 129},   // packed-path ragged (just over the flops threshold)
    {1, 40, 160},   // decode-style m=1 row
};

TEST(MatrixEncoding, MatrixGemmBitwiseEqualsFlatGemm) {
  for (const char* name : {"fp32", "fp16", "int8"}) {
    const auto& b = GemmBackendByName(name);
    for (const GemmShape& s : kMatrixShapes) {
      if (std::string_view(name) == "int8" && (s.n * s.k) % 64 != 0) {
        continue;  // flat int8 GEMM needs block-aligned matrices
      }
      const auto a = RandVec(static_cast<std::size_t>(s.m * s.k), 50);
      const auto wf = RandVec(static_cast<std::size_t>(s.n * s.k), 51);

      const auto flat = PackWith(b, wf);
      std::vector<std::byte> shaped(b.PackedMatrixBytes(s.n, s.k));
      b.PackMatrix(wf.data(), s.n, s.k, shaped.data());

      auto c0 = RandVec(static_cast<std::size_t>(s.m * s.n), 52);
      auto c1 = c0;
      b.GemmWeightT(s.m, s.n, s.k, 1.25f, a.data(), flat.data(), 0, 0.5f,
                    c0.data());
      b.MatrixGemmWeightT(s.m, s.n, s.k, 1.25f, a.data(), shaped.data(),
                          0.5f, c1.data());
      EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
                0)
          << name << " shape " << s.m << "x" << s.n << "x" << s.k;
    }
  }
}

TEST(MatrixEncoding, DecodeMatrixRowMatchesFlatDecode) {
  const std::int64_t n = 33, k = 129;  // ragged: partial panel + odd k
  const auto wf = RandVec(static_cast<std::size_t>(n * k), 60);
  for (const char* name : {"fp32", "fp16", "int8"}) {
    const auto& b = GemmBackendByName(name);
    const auto flat = PackWith(b, wf);
    std::vector<std::byte> shaped(b.PackedMatrixBytes(n, k));
    b.PackMatrix(wf.data(), n, k, shaped.data());
    std::vector<float> want(static_cast<std::size_t>(k));
    std::vector<float> got(static_cast<std::size_t>(k));
    for (std::int64_t row : {std::int64_t{0}, std::int64_t{17}, n - 1}) {
      b.Decode(flat.data(), row * k, k, want.data());
      b.DecodeMatrixRow(shaped.data(), n, k, row, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() *
                            sizeof(float)),
                0)
          << name << " row " << row;
    }
  }
}

TEST(MatrixEncoding, Fp16PanelStorageAddsOnlyPanelPadding) {
  const auto& b = GemmBackendByName("fp16");
  // Panel-aligned n: storage matches the flat fp16 encoding exactly.
  EXPECT_EQ(b.PackedMatrixBytes(96, 64),
            static_cast<std::size_t>(96 * 64) * sizeof(Half));
  // n=33 rounds up to the next panel boundary (kNr=32 -> 64 rows).
  EXPECT_EQ(b.PackedMatrixBytes(33, 64),
            static_cast<std::size_t>(64 * 64) * sizeof(Half));
}

}  // namespace
}  // namespace zero::tensor
