// The fp16 fast paths (decode LUT, batched encode, and the gradient-path
// kernels ScaledFloatToHalf / HalfAddInto / HalfAddIntoFloat) must be
// bit-exact with the scalar Half expressions they replace — exhaustively
// over the half operand (only 65536 inputs exist), and across the
// interesting boundary cases for the round-to-nearest-even encoder.
// One exception is part of the kernels' contract: when both addends are
// NaN the result need only be a NaN, because which payload a scalar add
// returns depends on the operand order the compiler picks.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.hpp"
#include "common/rng.hpp"

namespace zero {
namespace {

std::uint32_t BitsOf(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FromBits32(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

std::vector<Half> AllHalves() {
  std::vector<Half> all(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    all[b] = Half::FromBits(static_cast<std::uint16_t>(b));
  }
  return all;
}

// fp16 operands the kernels must handle like the scalar code: signed
// zeros, subnormals, normal boundaries, max finite, infinities, and
// signalling / quiet NaNs with payloads.
const std::vector<std::uint16_t> kSpecialHalfBits = {
    0x0000, 0x8000,          // +-0
    0x0001, 0x8001, 0x03FF,  // subnormals
    0x0400, 0x3C00, 0xBC00,  // min normal, +-1
    0x3C01, 0x7BFF, 0xFBFF,  // 1+ulp, +-max finite
    0x7C00, 0xFC00,          // +-Inf
    0x7C01, 0xFD55,          // sNaN with payloads
    0x7E00, 0xFE01, 0x7FFF,  // qNaN with payloads
};

// fp32 values for the scaled cast: everything above in fp32 form plus
// values that round, overflow or underflow into half subnormals once
// scaled.
std::vector<float> SpecialFloats() {
  std::vector<float> v = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      Half::kMinSubnormal,
      Half::kMinSubnormal * 0.5f,
      Half::kMinSubnormal * 0.75f,
      -Half::kMinSubnormal * 1.5f,
      Half::kMinNormal,
      1.0f + Half::kEpsilon * 0.5f,
      1.0f + Half::kEpsilon * 1.5f,
      Half::kMax,
      -Half::kMax,
      65520.0f,
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      FromBits32(0x7F800001u),  // sNaN, low payload
      FromBits32(0xFFA00000u),  // sNaN, high payload
      FromBits32(0x7FC00000u),  // canonical qNaN
      FromBits32(0xFFC12345u),  // qNaN with payload
  };
  for (float scale = 1e-9f; scale < 1e6f; scale *= 7.0f) {
    v.push_back(scale);
    v.push_back(-scale * 1.3f);
  }
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    const float mag = std::ldexp(1.0f, static_cast<int>(rng.NextU64() % 60) - 40);
    v.push_back(rng.NextGaussian() * mag);
  }
  return v;
}

// Bit equality, except that NaN + NaN need only be some NaN.
void ExpectSameHalf(Half want, Half got, bool both_nan, const char* what,
                    std::size_t i) {
  if (both_nan) {
    EXPECT_TRUE(got.IsNan()) << what << " i=" << i;
  } else {
    ASSERT_EQ(want.bits(), got.bits()) << what << " i=" << i;
  }
}

const float kScales[] = {1.0f, 128.0f, 1024.0f, 65536.0f, 3.7f};

TEST(HalfLutTest, DecodeTableMatchesScalarDecoderExhaustively) {
  const float* table = HalfDecodeTable();
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const float want = Half::ToFloatImpl(static_cast<std::uint16_t>(b));
    const float got = table[b];
    // Bit equality, not ==: NaN payloads must survive the table.
    ASSERT_EQ(BitsOf(want), BitsOf(got)) << "half bits " << b;
  }
}

TEST(HalfLutTest, BulkDecodeMatchesScalarExhaustively) {
  std::vector<Half> src(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    src[b] = Half::FromBits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> dst(src.size());
  HalfToFloat(src.data(), dst.data(), src.size());
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    ASSERT_EQ(BitsOf(Half::ToFloatImpl(static_cast<std::uint16_t>(b))),
              BitsOf(dst[b]))
        << "half bits " << b;
  }
}

TEST(HalfLutTest, BulkEncodeMatchesScalarEncoder) {
  // Boundary cases plus a random sweep. Every bulk-encoded value must
  // equal Half::FromFloat bit for bit.
  std::vector<float> inputs = {
      0.0f,
      -0.0f,
      1.0f,
      -1.0f,
      Half::kMax,
      -Half::kMax,
      65520.0f,  // rounds to Inf
      Half::kMinNormal,
      Half::kMinSubnormal,
      Half::kMinSubnormal * 0.5f,   // rounds to zero (ties-to-even)
      Half::kMinSubnormal * 0.75f,  // rounds up to min subnormal
      1.0f + Half::kEpsilon * 0.5f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
  };
  Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    inputs.push_back(rng.NextGaussian() * 100.0f);
  }
  std::vector<Half> bulk(inputs.size());
  FloatToHalf(inputs.data(), bulk.data(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(Half::FromFloat(inputs[i]), bulk[i].bits()) << "i=" << i;
  }
}

TEST(HalfLutTest, RoundTripThroughBulkConvertersIsExact) {
  // Any value that is exactly representable in fp16 must survive
  // float -> half -> float unchanged through the bulk converters.
  std::vector<Half> all(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    all[b] = Half::FromBits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> f32(all.size());
  HalfToFloat(all.data(), f32.data(), all.size());
  std::vector<Half> back(f32.size());
  FloatToHalf(f32.data(), back.data(), f32.size());
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    if (Half::FromBits(static_cast<std::uint16_t>(b)).IsNan()) {
      EXPECT_TRUE(back[b].IsNan()) << "half bits " << b;
    } else {
      EXPECT_EQ(back[b].bits(), b) << "half bits " << b;
    }
  }
}

TEST(HalfLutTest, ScaledCastMatchesScalarForEveryScale) {
  const std::vector<float> src = SpecialFloats();
  std::vector<Half> got(src.size());
  for (float scale : kScales) {
    ScaledFloatToHalf(src.data(), got.data(), src.size(), scale);
    for (std::size_t i = 0; i < src.size(); ++i) {
      ExpectSameHalf(Half(src[i] * scale), got[i], false, "scaled cast", i);
    }
  }
}

TEST(HalfLutTest, HalfAddIntoMatchesScalarOverEveryDstPattern) {
  const std::vector<Half> all = AllHalves();
  std::vector<std::vector<Half>> srcs;
  for (std::uint16_t b : kSpecialHalfBits) {
    srcs.emplace_back(all.size(), Half::FromBits(b));
  }
  Rng rng(9);
  for (int k = 0; k < 4; ++k) {
    std::vector<Half> rnd(all.size());
    for (Half& h : rnd) {
      h = Half::FromBits(static_cast<std::uint16_t>(rng.NextU64()));
    }
    srcs.push_back(std::move(rnd));
  }
  for (const std::vector<Half>& src : srcs) {
    std::vector<Half> got = all;
    HalfAddInto(got.data(), src.data(), got.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Half want(all[i].ToFloat() + src[i].ToFloat());
      ExpectSameHalf(want, got[i], all[i].IsNan() && src[i].IsNan(),
                     "half add", i);
    }
  }
}

TEST(HalfLutTest, HalfAddIntoFloatMatchesScalarOverEveryHalfPattern) {
  const std::vector<Half> all = AllHalves();
  std::vector<float> dsts = SpecialFloats();
  dsts.resize(120);  // the special values, the magnitude sweep, some random
  for (std::uint16_t b : kSpecialHalfBits) {
    dsts.push_back(Half::ToFloatImpl(b));
  }
  for (float d : dsts) {
    std::vector<float> got(all.size(), d);
    HalfAddIntoFloat(got.data(), all.data(), got.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const float want = d + all[i].ToFloat();
      if (std::isnan(d) && all[i].IsNan()) {
        EXPECT_TRUE(std::isnan(got[i])) << "i=" << i;
      } else {
        ASSERT_EQ(BitsOf(want), BitsOf(got[i])) << "d=" << d << " i=" << i;
      }
    }
  }
}

TEST(HalfLutTest, GradientKernelsMatchScalarAtEveryLengthAndOffset) {
  // Lengths 0-40 from unaligned starts cover empty calls, tail-only
  // calls and vector body + tail; the guard elements around each range
  // must stay untouched.
  constexpr std::size_t kCap = 64;
  Rng rng(123);
  std::vector<float> f32(kCap), acc0(kCap);
  std::vector<Half> h0(kCap), h1(kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    f32[i] = rng.NextGaussian() * 30.0f;
    acc0[i] = rng.NextGaussian();
    h0[i] = Half(rng.NextGaussian() * 4.0f);
    h1[i] = Half(rng.NextGaussian() * 4.0f);
  }
  for (std::size_t off = 0; off < 5; ++off) {
    for (std::size_t len = 0; len <= 40; ++len) {
      std::vector<Half> cast = h0;
      ScaledFloatToHalf(f32.data() + off, cast.data() + off, len, 128.0f);
      std::vector<Half> add = h0;
      HalfAddInto(add.data() + off, h1.data() + off, len);
      std::vector<float> addf = acc0;
      HalfAddIntoFloat(addf.data() + off, h1.data() + off, len);
      for (std::size_t i = 0; i < kCap; ++i) {
        const bool in = i >= off && i < off + len;
        const Half want_cast = in ? Half(f32[i] * 128.0f) : h0[i];
        const Half want_add =
            in ? Half(h0[i].ToFloat() + h1[i].ToFloat()) : h0[i];
        const float want_addf = in ? acc0[i] + h1[i].ToFloat() : acc0[i];
        ASSERT_EQ(want_cast.bits(), cast[i].bits())
            << "off " << off << " len " << len << " i " << i;
        ASSERT_EQ(want_add.bits(), add[i].bits())
            << "off " << off << " len " << len << " i " << i;
        ASSERT_EQ(BitsOf(want_addf), BitsOf(addf[i]))
            << "off " << off << " len " << len << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace zero
