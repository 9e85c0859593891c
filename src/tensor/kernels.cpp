#include "tensor/kernels.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "alloc/scratch.hpp"
#include "common/error.hpp"
#include "tensor/parallel_for.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// The micro-kernel computes a kMr x kNr register tile: 4x32 floats is 8
// AVX-512 (or 16 AVX2) accumulator vectors, leaving room for the A
// broadcast and B loads. Panel sizes keep the packed B strip (kKc x kNr
// = 16 KiB) L1-resident and the packed A block (kMc x kKc = 128 KiB)
// L2-resident.
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 32;
constexpr std::int64_t kMc = 256;
constexpr std::int64_t kKc = 128;
constexpr std::int64_t kNc = 4096;

// Chunk sizes for deterministic parallel partitioning. These are part
// of each kernel's numeric contract: partials are combined in
// chunk-index order, so results are bitwise-stable for any worker
// count (the chunking depends only on the problem shape).
constexpr std::int64_t kElemChunk = 1 << 13;  // elementwise kernels
constexpr std::int64_t kRedChunk = 1 << 14;   // scalar reductions
constexpr std::int64_t kRowChunk = 64;        // column-reduction partials
constexpr std::int64_t kCeRowChunk = 16;      // cross-entropy rows

std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, kElemChunk / std::max<std::int64_t>(cols, 1));
}

// op(A)[i, kk] for A stored row-major as [m, k] (or [k, m] transposed).
inline float OpA(const float* a, bool trans, std::int64_t m, std::int64_t k,
                 std::int64_t i, std::int64_t kk) {
  return trans ? a[kk * m + i] : a[i * k + kk];
}

// op(B)[kk, j] for B stored row-major as [k, n] (or [n, k] transposed).
inline float OpB(const float* b, bool trans, std::int64_t k, std::int64_t n,
                 std::int64_t kk, std::int64_t j) {
  return trans ? b[j * k + kk] : b[kk * n + j];
}

// C = beta * C ahead of the accumulation (beta == 0 overwrites, so
// NaN/Inf already in C do not leak through).
void ApplyBeta(float beta, float* c, std::int64_t mn) {
  if (beta == 0.0f) {
    ParallelFor(0, mn, kElemChunk, [&](std::int64_t b0, std::int64_t e0) {
      std::memset(c + b0, 0, static_cast<std::size_t>(e0 - b0) * sizeof(float));
    });
  } else if (beta != 1.0f) {
    Scale(c, beta, mn);
  }
}

// ---------------------------------------------------------------------------
// The blocked driver below follows the accumulation contract in
// kernels.hpp at every shape: per kKc block of k, a fresh std::fma chain
// over (alpha * a) * b in kk order, added to C once. The explicit fma
// matters: under GCC's default -ffp-contract=fast the compiler may fuse
// a plain `acc += a * b` differently in a vector body than in its
// remainder, and then an element's bits would depend on its position in
// a tile.

// Packs rows [i0, i0+mc) x k-range [p0, p0+kc) of op(A) into micro-panels
// of kMr rows: dst[(panel * kc + kk) * kMr + r], zero-padded past mc.
// alpha is folded in here, as the contract's (alpha * a) operand.
void PackA(const float* a, bool trans, std::int64_t m, std::int64_t k,
           std::int64_t i0, std::int64_t mc, std::int64_t p0, std::int64_t kc,
           float alpha, float* dst) {
  const std::int64_t panels = (mc + kMr - 1) / kMr;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dp = dst + p * kc * kMr;
    const std::int64_t rbase = i0 + p * kMr;
    const std::int64_t rvalid = std::min<std::int64_t>(kMr, i0 + mc - rbase);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* drow = dp + kk * kMr;
      for (std::int64_t r = 0; r < rvalid; ++r) {
        drow[r] = alpha * OpA(a, trans, m, k, rbase + r, p0 + kk);
      }
      for (std::int64_t r = rvalid; r < kMr; ++r) drow[r] = 0.0f;
    }
  }
}

// Packs k-range [p0, p0+kc) x cols [j0, j0+nc) of op(B) into micro-panels
// of kNr columns: dst[(panel * kc + kk) * kNr + j], zero-padded past nc.
void PackB(const float* b, bool trans, std::int64_t k, std::int64_t n,
           std::int64_t p0, std::int64_t kc, std::int64_t j0, std::int64_t nc,
           float* dst) {
  const std::int64_t panels = (nc + kNr - 1) / kNr;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dp = dst + p * kc * kNr;
    const std::int64_t cbase = j0 + p * kNr;
    const std::int64_t cvalid = std::min<std::int64_t>(kNr, j0 + nc - cbase);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* drow = dp + kk * kNr;
      for (std::int64_t j = 0; j < cvalid; ++j) {
        drow[j] = OpB(b, trans, k, n, p0 + kk, cbase + j);
      }
      for (std::int64_t j = cvalid; j < kNr; ++j) drow[j] = 0.0f;
    }
  }
}

// C_tile[mr_e, nr_e] += packed-A panel x packed-B panel. The accumulator
// tile lives in registers across the whole kc loop; compile-time bounds
// let the compiler unroll and vectorize the j loop. Padded lanes (r >=
// mr_e, j >= nr_e) compute garbage that is never written back.
void MicroKernel(std::int64_t kc, const float* pa, const float* pb, float* c,
                 std::int64_t ldc, std::int64_t mr_e, std::int64_t nr_e) {
  float acc[kMr][kNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = pa + kk * kMr;
    const float* brow = pb + kk * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  if (mr_e == kMr && nr_e == kNr) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      for (std::int64_t j = 0; j < kNr; ++j) cr[j] += acc[r][j];
    }
  } else {
    for (std::int64_t r = 0; r < mr_e; ++r) {
      float* cr = c + r * ldc;
      for (std::int64_t j = 0; j < nr_e; ++j) cr[j] += acc[r][j];
    }
  }
}

// The B-side tile walk of the blocked driver (jc outer over kNc column
// blocks, pc inner over kKc k-blocks), which is also the storage order
// of pre-packed weight panels. `fn(jc, nc, pc, kc, base)` sees each
// tile's geometry and its element offset into the panel stream; returns
// the total panel element count.
template <class Fn>
std::int64_t ForEachPanelTile(std::int64_t n, std::int64_t k, Fn&& fn) {
  std::int64_t base = 0;
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      fn(jc, nc, pc, kc, base);
      base += panels * kc * kNr;
    }
  }
  return base;
}

// The one blocked GEMM driver. `src.Tile(jc, nc, pc, kc, base, buf)`
// returns the kNr-column micro-panels of op(B)'s tile (zero-padded past
// n), either packed into `buf` or pointing at pre-packed storage; A is
// packed per kMc row block and everything downstream is shared.
template <class BSource>
void BlockedGemm(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
                 float alpha, const float* a, const BSource& src, float* c) {
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  const std::int64_t b_panels = (std::min(n, kNc) + kNr - 1) / kNr;
  float* buf = scratch.AllocateT<float>(
      static_cast<std::size_t>(b_panels * kKc * kNr));
  const std::int64_t n_iblocks = (m + kMc - 1) / kMc;

  ForEachPanelTile(n, k, [&](std::int64_t jc, std::int64_t nc,
                             std::int64_t pc, std::int64_t kc,
                             std::int64_t base) {
    const float* pb = src.Tile(jc, nc, pc, kc, base, buf);
    const std::int64_t jr_panels = (nc + kNr - 1) / kNr;
    // Row blocks are independent: each C element accumulates its
    // kc-block contribution in the same serial order no matter which
    // worker owns the block (the tile loop is a barrier).
    ParallelFor(0, n_iblocks, 1, [&](std::int64_t ib0, std::int64_t ib1) {
      alloc::ScratchArena& task_scratch = alloc::ThreadScratch();
      alloc::ScratchGuard task_guard(task_scratch);
      float* pa = task_scratch.AllocateT<float>(
          static_cast<std::size_t>(((kMc + kMr - 1) / kMr) * kMr * kKc));
      for (std::int64_t ib = ib0; ib < ib1; ++ib) {
        const std::int64_t i0 = ib * kMc;
        const std::int64_t mc = std::min(kMc, m - i0);
        PackA(a, trans_a, m, k, i0, mc, pc, kc, alpha, pa);
        const std::int64_t ir_panels = (mc + kMr - 1) / kMr;
        for (std::int64_t jr = 0; jr < jr_panels; ++jr) {
          const float* pbp = pb + jr * kc * kNr;
          const std::int64_t j0 = jc + jr * kNr;
          const std::int64_t nr_e = std::min<std::int64_t>(kNr, n - j0);
          for (std::int64_t ir = 0; ir < ir_panels; ++ir) {
            const std::int64_t r0 = i0 + ir * kMr;
            const std::int64_t mr_e = std::min<std::int64_t>(kMr, m - r0);
            MicroKernel(kc, pa + ir * kc * kMr, pbp, c + r0 * n + j0, n,
                        mr_e, nr_e);
          }
        }
      }
    });
  });
}

// B-tile sources for BlockedGemm.

// fp32 op(B), packed per call with the strided walk.
struct StridedB {
  const float* b;
  bool trans;
  std::int64_t k, n;
  const float* Tile(std::int64_t jc, std::int64_t nc, std::int64_t pc,
                    std::int64_t kc, std::int64_t, float* buf) const {
    PackB(b, trans, k, n, pc, kc, jc, nc, buf);
    return buf;
  }
};

// Pre-packed fp16 panels: one contiguous bulk decode per tile.
struct HalfPanelB {
  const Half* panels;
  const float* Tile(std::int64_t, std::int64_t nc, std::int64_t,
                    std::int64_t kc, std::int64_t base, float* buf) const {
    const std::int64_t jr_panels = (nc + kNr - 1) / kNr;
    HalfToFloat(panels + base, buf,
                static_cast<std::size_t>(jr_panels * kc * kNr));
    return buf;
  }
};

// Pre-packed fp32 panels: the tile is already in place.
struct PanelB {
  const float* panels;
  const float* Tile(std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t base, float*) const {
    return panels + base;
  }
};

// int8 panels. A kNr-column panel over kc k-steps stores its fp32
// scales [ceil(kc / kPanelQuantBlock)][kNr], then its int8 codes
// [kc][kNr]. Quant blocks tile every k-block exactly, so a tile holds
// whole blocks of the weight rows' own quantization, and one column
// spans k codes plus ceil(k / kPanelQuantBlock) scales over all tiles.
static_assert(kKc % kPanelQuantBlock == 0,
              "an int8 quant block must not straddle a k-block");

// Bytes one panel column spends on scales, and in all, over kc k-steps;
// a panel's codes start kNr * QuantScaleBytes(kc) bytes in.
std::int64_t QuantScaleBytes(std::int64_t kc) {
  return QuantBlocks(kc, kPanelQuantBlock) *
         static_cast<std::int64_t>(sizeof(float));
}
std::int64_t QuantColumnBytes(std::int64_t kc) {
  return kc + QuantScaleBytes(kc);
}

// Byte offset of tile (jc, pc) in the int8 panel stream of a [n, k]
// matrix: every earlier column block spans all of k, and every earlier
// k-block of this column block is a full kKc.
std::int64_t QuantTileOffset(std::int64_t k, std::int64_t jc,
                             std::int64_t nc, std::int64_t pc) {
  const std::int64_t panels = (nc + kNr - 1) / kNr;
  return jc * QuantColumnBytes(k) + panels * kNr * QuantColumnBytes(pc);
}

// Pre-packed int8 panels: one tile decoded per call, code * scale.
struct QuantPanelB {
  const std::byte* panels;
  std::int64_t k;
  const float* Tile(std::int64_t jc, std::int64_t nc, std::int64_t pc,
                    std::int64_t kc, std::int64_t, float* buf) const {
    const std::int64_t jr_panels = (nc + kNr - 1) / kNr;
    const std::byte* src = panels + QuantTileOffset(k, jc, nc, pc);
    for (std::int64_t p = 0; p < jr_panels; ++p) {
      const auto* scales = reinterpret_cast<const float*>(src);
      const auto* codes =
          reinterpret_cast<const std::int8_t*>(src + kNr * QuantScaleBytes(kc));
      float* dp = buf + p * kc * kNr;
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* s = scales + kk / kPanelQuantBlock * kNr;
        const std::int8_t* cr = codes + kk * kNr;
        float* dr = dp + kk * kNr;
        for (std::int64_t j = 0; j < kNr; ++j) {
          dr[j] = static_cast<float>(cr[j]) * s[j];
        }
      }
      src += kNr * QuantColumnBytes(kc);
    }
    return buf;
  }
};

// beta, then the blocked driver over pre-packed panels from `src`.
template <class BSource>
void GemmPanelSource(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const BSource& src,
                     float beta, float* c) {
  ApplyBeta(beta, c, m * n);
  if (m <= 0 || n <= 0 || k <= 0) return;
  BlockedGemm(false, m, n, k, alpha, a, src, c);
}

// Scatters a row-major [n, k] matrix into panel order, `zero` in the
// padded lanes past n.
template <class T>
void PackPanels(const T* rows, std::int64_t n, std::int64_t k, T zero,
                T* dst) {
  ForEachPanelTile(n, k, [&](std::int64_t jc, std::int64_t nc,
                             std::int64_t pc, std::int64_t kc,
                             std::int64_t base) {
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    for (std::int64_t p = 0; p < panels; ++p) {
      T* dp = dst + base + p * kc * kNr;
      const std::int64_t cbase = jc + p * kNr;
      const std::int64_t cvalid = std::min<std::int64_t>(kNr, jc + nc - cbase);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        T* drow = dp + kk * kNr;
        for (std::int64_t j = 0; j < cvalid; ++j) {
          drow[j] = rows[(cbase + j) * k + pc + kk];
        }
        for (std::int64_t j = cvalid; j < kNr; ++j) drow[j] = zero;
      }
    }
  });
}

// Row `row` of a panel-packed matrix, element by element through `cvt`.
template <class T, class Cvt>
void PanelRow(const T* panels, std::int64_t n, std::int64_t k,
              std::int64_t row, float* dst, Cvt cvt) {
  ZERO_CHECK(row >= 0 && row < n, "panel row decode out of range");
  ForEachPanelTile(n, k, [&](std::int64_t jc, std::int64_t nc,
                             std::int64_t pc, std::int64_t kc,
                             std::int64_t base) {
    if (row < jc || row >= jc + nc) return;
    const std::int64_t j = row - jc;
    const T* dp = panels + base + j / kNr * kc * kNr + j % kNr;
    for (std::int64_t kk = 0; kk < kc; ++kk) dst[pc + kk] = cvt(dp[kk * kNr]);
  });
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  ApplyBeta(beta, c, m * n);
  if (m <= 0 || n <= 0 || k <= 0) return;
  BlockedGemm(trans_a, m, n, k, alpha, a, StridedB{b, trans_b, k, n}, c);
}

std::int64_t PanelElems(std::int64_t n, std::int64_t k) {
  return ForEachPanelTile(n, k,
                          [](std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t) {});
}

std::int64_t QuantPanelBytes(std::int64_t n, std::int64_t k) {
  return (n + kNr - 1) / kNr * kNr * QuantColumnBytes(k);
}

void PackPanelsT(const float* w, std::int64_t n, std::int64_t k,
                 float* dst) {
  PackPanels(w, n, k, 0.0f, dst);
}

void PackHalfPanelsT(const float* w, std::int64_t n, std::int64_t k,
                     Half* dst) {
  // Encode with the bulk round-to-nearest-even converter, then scatter —
  // load-time only.
  std::vector<Half> rows(static_cast<std::size_t>(n * k));
  FloatToHalf(w, rows.data(), rows.size());
  PackPanels(rows.data(), n, k, Half::FromBits(0), dst);
}

void PackQuantPanelsT(const float* w, std::int64_t n, std::int64_t k,
                      std::byte* dst) {
  // Quantize each row on the wire, split it into row-major int8 codes
  // and fp32-decoded scales, then scatter both — load-time only.
  const std::int64_t blocks = QuantBlocks(k, kPanelQuantBlock);
  std::vector<std::byte> wire(QuantWireBytes(k, kPanelQuantBlock));
  std::vector<float> scales(static_cast<std::size_t>(n * blocks));
  std::vector<std::int8_t> codes(static_cast<std::size_t>(n * k));
  for (std::int64_t r = 0; r < n; ++r) {
    QuantizeF32(w + r * k, k, kPanelQuantBlock, wire.data());
    HalfToFloat(reinterpret_cast<const Half*>(wire.data()),
                scales.data() + r * blocks, static_cast<std::size_t>(blocks));
    std::memcpy(codes.data() + r * k, wire.data() + 2 * blocks,
                static_cast<std::size_t>(k));
  }
  ForEachPanelTile(n, k, [&](std::int64_t jc, std::int64_t nc,
                             std::int64_t pc, std::int64_t kc,
                             std::int64_t) {
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    const std::int64_t tile_blocks = QuantBlocks(kc, kPanelQuantBlock);
    std::byte* dp = dst + QuantTileOffset(k, jc, nc, pc);
    for (std::int64_t p = 0; p < panels; ++p) {
      auto* ps = reinterpret_cast<float*>(dp);
      auto* pcodes =
          reinterpret_cast<std::int8_t*>(dp + kNr * QuantScaleBytes(kc));
      const std::int64_t cbase = jc + p * kNr;
      const std::int64_t cvalid = std::min<std::int64_t>(kNr, jc + nc - cbase);
      for (std::int64_t j = 0; j < kNr; ++j) {
        const std::int64_t row = cbase + j;
        for (std::int64_t b = 0; b < tile_blocks; ++b) {
          ps[b * kNr + j] =
              j < cvalid
                  ? scales[row * blocks + pc / kPanelQuantBlock + b]
                  : 0.0f;
        }
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          pcodes[kk * kNr + j] = j < cvalid ? codes[row * k + pc + kk] : 0;
        }
      }
      dp += kNr * QuantColumnBytes(kc);
    }
  });
}

void DecodePanelRow(const float* panels, std::int64_t n, std::int64_t k,
                    std::int64_t row, float* dst) {
  PanelRow(panels, n, k, row, dst, [](float x) { return x; });
}

void DecodeHalfPanelRow(const Half* panels, std::int64_t n, std::int64_t k,
                        std::int64_t row, float* dst) {
  const float* lut = HalfDecodeTable();
  PanelRow(panels, n, k, row, dst, [lut](Half x) { return lut[x.bits()]; });
}

void DecodeQuantPanelRow(const std::byte* panels, std::int64_t n,
                         std::int64_t k, std::int64_t row, float* dst) {
  ZERO_CHECK(row >= 0 && row < n, "panel row decode out of range");
  ForEachPanelTile(n, k, [&](std::int64_t jc, std::int64_t nc,
                             std::int64_t pc, std::int64_t kc,
                             std::int64_t) {
    if (row < jc || row >= jc + nc) return;
    const std::int64_t j = row - jc;
    const std::byte* panel = panels + QuantTileOffset(k, jc, nc, pc) +
                             j / kNr * kNr * QuantColumnBytes(kc);
    const auto* scales = reinterpret_cast<const float*>(panel) + j % kNr;
    const auto* codes = reinterpret_cast<const std::int8_t*>(
                            panel + kNr * QuantScaleBytes(kc)) +
                        j % kNr;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      dst[pc + kk] = static_cast<float>(codes[kk * kNr]) *
                     scales[kk / kPanelQuantBlock * kNr];
    }
  });
}

void GemmPanelsT(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, const float* panels, float beta, float* c) {
  GemmPanelSource(m, n, k, alpha, a, PanelB{panels}, beta, c);
}

void GemmHalfPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const Half* panels,
                     float beta, float* c) {
  GemmPanelSource(m, n, k, alpha, a, HalfPanelB{panels}, beta, c);
}

void GemmQuantPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                      float alpha, const float* a, const std::byte* panels,
                      float beta, float* c) {
  GemmPanelSource(m, n, k, alpha, a, QuantPanelB{panels, k}, beta, c);
}

void AddBiasRows(float* x, const float* bias, std::int64_t rows,
                 std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* xr = x + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) xr[c] += bias[c];
    }
  });
}

void BiasGradFromRows(const float* dy, float* dbias, std::int64_t rows,
                      std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* p = partials + ch * cols;
      std::memset(p, 0, static_cast<std::size_t>(cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* dyr = dy + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) p[c] += dyr[c];
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* p = partials + ch * cols;
    for (std::int64_t c = 0; c < cols; ++c) dbias[c] += p[c];
  }
}

namespace {
// ---------------------------------------------------------------------------
// Activation math: one vectorizable exp for the GELU, softmax and
// cross-entropy epilogues (DESIGN.md §9 "Activation math").
//
// Straight-line float code that GCC vectorizes in every loop calling it:
// clamp, x = n*ln2 + r with |r| <= ln2/2, e^r by a degree-6 polynomial
// (max relative error 3.7e-9 with these float coefficients), and 2^n
// built in the exponent field. Every a*b+c is an explicit std::fma: under
// GCC's default -ffp-contract=fast the compiler could otherwise fuse
// differently in a vector body than in its remainder, and an element's
// bits would depend on its position in the row.
//
// Special values: NaN -> NaN; x below kExpLo ~ -126*ln2 (including -inf)
// -> exactly 0, so masked scores get probability 0 and no result is
// subnormal; x above kExpHi ~ 127.5*ln2 (including +inf) -> +inf.
constexpr float kExpLo = -0x1.5d589ep+6f;  // n = -126 with r >= 0
constexpr float kExpHi = 0x1.61814cp+6f;   // n = 127
constexpr float kLog2e = 0x1.715476p+0f;
constexpr float kLn2Hi = 0x1.62e430p-1f;   // ln2 = kLn2Hi + kLn2Lo
constexpr float kLn2Lo = -0x1.05c610p-29f;
// Adding 1.5*2^23 rounds to an integer and leaves it, two's complement,
// in the low mantissa bits.
constexpr float kRoundShift = 0x1.8p23f;

inline float Exp(float x) {
  // The clamp keeps every lane's intermediates finite and normal (a
  // subnormal product costs a microcode assist); the selects at the end
  // give the out-of-range results. Comparisons with NaN are false, so
  // NaN passes through unchanged, and there is no float->int conversion
  // for it to make UB.
  const float xc = x < kExpLo ? kExpLo : (x > kExpHi ? kExpHi : x);
  const float shifted = std::fma(xc, kLog2e, kRoundShift);
  const float n = shifted - kRoundShift;
  const float r = std::fma(n, -kLn2Lo, std::fma(n, -kLn2Hi, xc));
  float p = 0x1.68532cp-10f;
  p = std::fma(p, r, 0x1.123bccp-7f);
  p = std::fma(p, r, 0x1.555b96p-5f);
  p = std::fma(p, r, 0x1.55548ep-3f);
  p = std::fma(p, r, 0x1.fffff8p-2f);
  p = std::fma(p, r, 1.0f);
  p = std::fma(p, r, 1.0f);
  // n in [-126, 127]: (n + 127) << 23 is the biased exponent of 2^n.
  const float scale = std::bit_cast<float>(
      (std::bit_cast<std::uint32_t>(shifted) << 23) + 0x3f800000u);
  const float y = p * scale;
  return x < kExpLo ? 0.0f
                    : (x > kExpHi ? std::numeric_limits<float>::infinity()
                                  : y);
}

// tanh-approximation GELU (the GPT-2 variant), in its sigmoid form
//   0.5*v*(1 + tanh u) = v * sigmoid(2u),  u = c*(v + a*v^3),
// which has no 1 + tanh cancellation. sigmoid(+-2u) come from
// e = Exp(-2|u|) <= 1, so nothing overflows for large |v|.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluCA = kGeluC * 0.044715f;  // c*a

inline float GeluVal(float v) {
  const float u = v * std::fma(kGeluCA, v * v, kGeluC);
  const float e = Exp(-2.0f * std::fabs(u));
  const float q = 1.0f / (1.0f + e);
  return v * (u >= 0.0f ? q : e * q);
}

// d/dv [v * s] = s + 2*v*s*(1 - s)*du with s = sigmoid(2u) and
// du = c*(1 + 3*a*v^2); 1 - s = sigmoid(-2u) is formed without
// cancellation.
inline float GeluGrad(float v) {
  const float v2 = v * v;
  const float u = v * std::fma(kGeluCA, v2, kGeluC);
  const float du = std::fma(3.0f * kGeluCA, v2, kGeluC);
  const float e = Exp(-2.0f * std::fabs(u));
  const float q = 1.0f / (1.0f + e);
  const float eq = e * q;
  const float s = u >= 0.0f ? q : eq;
  const float sm = u >= 0.0f ? eq : q;
  return std::fma(s, 2.0f * v * sm * du, s);
}
}  // namespace

void BiasGeluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* zr = z + r * cols;
      float* yr = y + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float v = xr[c] + bias[c];
        zr[c] = v;
        yr[c] = GeluVal(v);
      }
    }
  });
}

void BiasGeluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* p = partials + ch * cols;
      std::memset(p, 0, static_cast<std::size_t>(cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* zr = z + r * cols;
        const float* dyr = dy + r * cols;
        float* dxr = dx + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
          const float g = dyr[c] * GeluGrad(zr[c]);
          dxr[c] = g;
          p[c] += g;
        }
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* p = partials + ch * cols;
    for (std::int64_t c = 0; c < cols; ++c) dbias[c] += p[c];
  }
}

void BiasReluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* zr = z + r * cols;
      float* yr = y + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float v = xr[c] + bias[c];
        zr[c] = v;
        yr[c] = v > 0.0f ? v : 0.0f;
      }
    }
  });
}

void BiasReluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* p = partials + ch * cols;
      std::memset(p, 0, static_cast<std::size_t>(cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* zr = z + r * cols;
        const float* dyr = dy + r * cols;
        float* dxr = dx + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
          const float g = zr[c] > 0.0f ? dyr[c] : 0.0f;
          dxr[c] = g;
          p[c] += g;
        }
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* p = partials + ch * cols;
    for (std::int64_t c = 0; c < cols; ++c) dbias[c] += p[c];
  }
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* y, float* mean, float* rstd, std::int64_t rows,
                      std::int64_t cols, float eps) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float mu = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) mu += xr[c];
      mu /= static_cast<float>(cols);
      float var = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float d = xr[c] - mu;
        var += d * d;
      }
      var /= static_cast<float>(cols);
      const float rs = 1.0f / std::sqrt(var + eps);
      mean[r] = mu;
      rstd[r] = rs;
      float* yr = y + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        yr[c] = (xr[c] - mu) * rs * gamma[c] + beta[c];
      }
    }
  });
}

void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dy, float* dx,
                       float* dgamma, float* dbeta, std::int64_t rows,
                       std::int64_t cols) {
  const std::int64_t nchunks = (rows + kRowChunk - 1) / kRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  // Per-chunk [dgamma; dbeta] partials, combined in chunk order below.
  float* partials =
      scratch.AllocateT<float>(static_cast<std::size_t>(nchunks * 2 * cols));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float* pg = partials + ch * 2 * cols;
      float* pb = pg + cols;
      std::memset(pg, 0, static_cast<std::size_t>(2 * cols) * sizeof(float));
      const std::int64_t r1 = std::min(rows, (ch + 1) * kRowChunk);
      for (std::int64_t r = ch * kRowChunk; r < r1; ++r) {
        const float* xr = x + r * cols;
        const float* dyr = dy + r * cols;
        float* dxr = dx + r * cols;
        const float mu = mean[r];
        const float rs = rstd[r];

        float sum_dy_g = 0.0f;   // sum of dy * gamma
        float sum_dy_gx = 0.0f;  // sum of dy * gamma * xhat
        for (std::int64_t c = 0; c < cols; ++c) {
          const float xhat = (xr[c] - mu) * rs;
          const float g = dyr[c] * gamma[c];
          sum_dy_g += g;
          sum_dy_gx += g * xhat;
          pg[c] += dyr[c] * xhat;
          pb[c] += dyr[c];
        }
        const float inv_cols = 1.0f / static_cast<float>(cols);
        for (std::int64_t c = 0; c < cols; ++c) {
          const float xhat = (xr[c] - mu) * rs;
          const float g = dyr[c] * gamma[c];
          dxr[c] = rs * (g - inv_cols * (sum_dy_g + xhat * sum_dy_gx));
        }
      }
    }
  });
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const float* pg = partials + ch * 2 * cols;
    const float* pb = pg + cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      dgamma[c] += pg[c];
      dbeta[c] += pb[c];
    }
  }
}

namespace {
// Row maximum with kMaxLanes independent running maxima, so the loop
// vectorizes (a serial max chain does not without -ffast-math). Each
// lane keeps std::max's `x > lane` selection, so NaN is never picked
// and the result is the serial loop's value, up to the sign of a zero
// maximum, which no caller can see: Exp(x - (+0)) == Exp(x - (-0)).
constexpr std::int64_t kMaxLanes = 16;

inline float RowMax(const float* x, std::int64_t n) {
  float lane[kMaxLanes];
  for (float& l : lane) l = -std::numeric_limits<float>::infinity();
  std::int64_t c = 0;
  for (; c + kMaxLanes <= n; c += kMaxLanes) {
    // Kept a loop: fully unrolled, the selects stay scalar (vmaxss);
    // as a loop, the vectorizer turns them into one vmaxps.
#pragma GCC unroll 1
    for (std::int64_t l = 0; l < kMaxLanes; ++l) {
      lane[l] = x[c + l] > lane[l] ? x[c + l] : lane[l];
    }
  }
  for (std::int64_t l = 0; c < n; ++c, ++l) {
    lane[l] = x[c] > lane[l] ? x[c] : lane[l];
  }
  float mx = lane[0];
  for (std::int64_t l = 1; l < kMaxLanes; ++l) {
    mx = lane[l] > mx ? lane[l] : mx;
  }
  return mx;
}

// SoftmaxRows' row routine on R rows in place (row stride ld), row r
// over its first len[r] columns: the max, Exp(x - max), a serial sum in
// column order, then one multiply by the sum's reciprocal. The rows'
// sums run interleaved, so a tile of query rows in the attention kernels
// overlaps R serial chains; each row's bits are the same for any R.
template <int R>
void SoftmaxTile(float* x, std::int64_t ld, const std::int64_t (&len)[R]) {
  float sum[R] = {};
  std::int64_t common = len[0];
  for (int r = 0; r < R; ++r) {
    float* xr = x + r * ld;
    const float mx = RowMax(xr, len[r]);
    // Exp pass, then a separate serial sum: the first vectorizes and the
    // second keeps a fixed summation order.
    for (std::int64_t c = 0; c < len[r]; ++c) xr[c] = Exp(xr[c] - mx);
    common = std::min(common, len[r]);
  }
  for (std::int64_t c = 0; c < common; ++c) {
    for (int r = 0; r < R; ++r) sum[r] += x[r * ld + c];
  }
  for (int r = 0; r < R; ++r) {
    float* xr = x + r * ld;
    for (std::int64_t c = common; c < len[r]; ++c) sum[r] += xr[c];
    const float inv = 1.0f / sum[r];
    for (std::int64_t c = 0; c < len[r]; ++c) xr[c] *= inv;
  }
}
}  // namespace

void SoftmaxRows(float* x, std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      SoftmaxTile<1>(x + r * cols, cols, {cols});
    }
  });
}

namespace {
// ---------------------------------------------------------------------------
// Causal attention (DESIGN.md §9 "Attention row contract").
//
// One task per (sequence, head). A task transposes its head's keys once
// into kNr-key tiles (the micro-kernel's B-panel layout), then walks its
// queries in tiles of up to kMr rows: a tile's scores are kNr-key
// chains over the key tiles up to its last position (later tiles are
// fully masked and skipped), and its context chains run over value rows
// read in place. Tile loops are templated on their row count R: a
// decode step's single query takes R = 1, so it computes no padding
// rows. Each row's chains are the same for any R.
//
// The loops hold their accumulator tiles in registers as Lanes, sixteen
// floats with an explicit fused multiply-add per lane; left to the
// auto-vectorizer, these shapes compile to scalar or spilling code.
// Loads and stores take a mask of leading lanes: lanes past it read as
// zero and are not written, so no row is touched past its head.
using Lanes = float __attribute__((vector_size(64)));
#if defined(__AVX512F__)
using LaneMask = __mmask16;
inline LaneMask FirstLanes(std::int64_t n) {
  return n >= 16 ? LaneMask{0xFFFF}
                 : static_cast<LaneMask>(
                       (1u << std::max<std::int64_t>(n, 0)) - 1);
}
inline Lanes LoadLanes(const float* p, LaneMask m) {
  return _mm512_maskz_loadu_ps(m, p);
}
inline void StoreLanes(float* p, const Lanes& x, LaneMask m) {
  _mm512_mask_storeu_ps(p, m, x);
}
inline Lanes FmaLanes(float a, const Lanes& b, const Lanes& c) {
  return _mm512_fmadd_ps(_mm512_set1_ps(a), b, c);
}
#else
// Returning a 64-byte vector has no settled ABI without AVX-512; these
// helpers are file-local and inlined.
#pragma GCC diagnostic ignored "-Wpsabi"
using LaneMask = std::int64_t;  // the number of leading lanes
inline LaneMask FirstLanes(std::int64_t n) {
  return std::clamp<std::int64_t>(n, 0, 16);
}
inline Lanes LoadLanes(const float* p, LaneMask m) {
  Lanes x = {};
  for (std::int64_t l = 0; l < m; ++l) x[l] = p[l];
  return x;
}
inline void StoreLanes(float* p, const Lanes& x, LaneMask m) {
  for (std::int64_t l = 0; l < m; ++l) p[l] = x[l];
}
inline Lanes FmaLanes(float a, const Lanes& b, const Lanes& c) {
  Lanes y;
  for (int l = 0; l < 16; ++l) y[l] = std::fma(a, b[l], c[l]);
  return y;
}
#endif
const LaneMask kAllLanes = FirstLanes(16);

// One butterfly stage of a 16 x 16 transpose: row i keeps its element c
// where bit B of i equals bit B of c, and takes element c ^ B of its
// partner row i ^ B elsewhere. Stages B = 1, 2, 4, 8 swap all four bits
// of the row and column index.
template <int B, bool kOdd, std::size_t... C>
Lanes Butterfly(const Lanes& own, const Lanes& partner,
                std::index_sequence<C...>) {
  return __builtin_shufflevector(
      own, partner,
      (((C & B) != 0) == kOdd ? static_cast<int>(C)
                              : static_cast<int>(16 + (C ^ B)))...);
}

template <int B>
void ButterflyStage(Lanes (&r)[16]) {
  constexpr auto lanes = std::make_index_sequence<16>();
  for (int i = 0; i < 16; ++i) {
    if ((i & B) != 0) continue;
    const Lanes even = Butterfly<B, false>(r[i], r[i | B], lanes);
    r[i | B] = Butterfly<B, true>(r[i | B], r[i], lanes);
    r[i] = even;
  }
}

std::int64_t RoundUp(std::int64_t x, std::int64_t m) {
  return (x + m - 1) / m * m;
}

// dst[(j / kNr * hd + d) * kNr + j % kNr] = row(j)[d] for j < n, zero in
// the last tile's lanes past n: 16 x 16 blocks through registers, keys
// past n read from a zero row, columns past hd masked off.
template <class RowFn>
void PackKeyTiles(std::int64_t n, std::int64_t hd, float* dst,
                  const RowFn& row) {
  alignas(64) static constexpr float kZeroRow[16] = {};
  for (std::int64_t j0 = 0; j0 < RoundUp(n, kNr); j0 += 16) {
    float* tile = dst + j0 / kNr * hd * kNr + j0 % kNr;
    for (std::int64_t d0 = 0; d0 < hd; d0 += 16) {
      const LaneMask m = FirstLanes(hd - d0);
      Lanes r[16];
      for (int a = 0; a < 16; ++a) {
        r[a] = LoadLanes(j0 + a < n ? row(j0 + a) + d0 : kZeroRow, m);
      }
      ButterflyStage<1>(r);
      ButterflyStage<2>(r);
      ButterflyStage<4>(r);
      ButterflyStage<8>(r);
      for (std::int64_t b = 0; b < std::min<std::int64_t>(16, hd - d0); ++b) {
        StoreLanes(tile + (d0 + b) * kNr, r[b], kAllLanes);
      }
    }
  }
}

// s[r * lds + jj] for r < R, jj < kNr: an fma chain from +0 over d < hd
// of a[d * R + r] * b[d * kNr + jj] (MicroKernel's tile, stored rather
// than added).
template <int R>
void ChainTile(std::int64_t hd, const float* a, const float* b, float* s,
               std::int64_t lds) {
  static_assert(kNr == 32);
  Lanes acc[R][2] = {};
  for (std::int64_t d = 0; d < hd; ++d) {
    const Lanes b0 = LoadLanes(b + d * kNr, kAllLanes);
    const Lanes b1 = LoadLanes(b + d * kNr + 16, kAllLanes);
    for (int r = 0; r < R; ++r) {
      const float av = a[d * R + r];
      acc[r][0] = FmaLanes(av, b0, acc[r][0]);
      acc[r][1] = FmaLanes(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    StoreLanes(s + r * lds, acc[r][0], kAllLanes);
    StoreLanes(s + r * lds + 16, acc[r][1], kAllLanes);
  }
}

// Scores of one tile of nr <= R rows of a (row stride lda) against
// packed key tiles: row r of s (stride lds) gets, in columns
// 0..RoundUp(keys, kNr), each key's chain over d of
// (scale * a[r][d]) * k[d]. as holds R * hd floats of scratch; rows
// past nr score a zero query.
template <int R>
void ScoreTile(const float* a, std::int64_t lda, std::int64_t nr,
               std::int64_t keys, std::int64_t hd, float scale,
               const float* kt, float* as, float* s, std::int64_t lds) {
  for (std::int64_t d = 0; d < hd; ++d) {
    for (std::int64_t r = 0; r < R; ++r) {
      as[d * R + r] = r < nr ? scale * a[r * lda + d] : 0.0f;
    }
  }
  for (std::int64_t j0 = 0; j0 < keys; j0 += kNr) {
    ChainTile<R>(hd, as, kt + j0 * hd, s + j0, lds);
  }
}

// The forward's row routine for one query tile, whose rows r < nr sit at
// positions base + r: row r of p gets the probabilities of keys
// 0..base+r, softmaxed by SoftmaxRows' row routine. Its later columns
// hold raw scores; padding rows are left as scores.
template <int R>
void ProbTile(const float* q, std::int64_t ldq, std::int64_t nr,
              std::int64_t base, std::int64_t hd, float scale,
              const float* kt, float* qs, float* p, std::int64_t ldp) {
  ScoreTile<R>(q, ldq, nr, base + nr, hd, scale, kt, qs, p, ldp);
  std::int64_t len[R];
  for (std::int64_t r = 0; r < R; ++r) len[r] = r < nr ? base + r + 1 : 0;
  SoftmaxTile<R>(p, ldp, len);
}

// wt[j * R + r] = w[r * ldw + j] for j < keys: the tile's weights as
// the broadcast operand of the loops below (the PackA layout).
template <int R>
void TransposeTile(const float* w, std::int64_t ldw, std::int64_t keys,
                   float* wt) {
  for (std::int64_t j = 0; j < keys; ++j) {
    for (std::int64_t r = 0; r < R; ++r) wt[j * R + r] = w[r * ldw + j];
  }
}

// out[r * ldo + c] for r < nr, c < hd: an fma chain from +0 over keys
// j = 0..base+r in order of wt[j * R + r] * row(j)[c].
template <int R, class RowFn>
void WeightedRowsTile(const float* wt, std::int64_t nr, std::int64_t base,
                      const RowFn& row, std::int64_t hd, float* out,
                      std::int64_t ldo) {
  for (std::int64_t c0 = 0; c0 < hd; c0 += 32) {
    // Columns [c0, c0 + 16) and [c1, c1 + 16), masked to the head.
    const std::int64_t c1 = std::min(c0 + 16, hd);
    const LaneMask m0 = FirstLanes(hd - c0);
    const LaneMask m1 = FirstLanes(hd - c1);
    Lanes acc[R][2] = {};
    // Keys every row of the tile reaches.
    for (std::int64_t j = 0; j <= base; ++j) {
      const Lanes x0 = LoadLanes(row(j) + c0, m0);
      const Lanes x1 = LoadLanes(row(j) + c1, m1);
      for (int r = 0; r < R; ++r) {
        const float w = wt[j * R + r];
        acc[r][0] = FmaLanes(w, x0, acc[r][0]);
        acc[r][1] = FmaLanes(w, x1, acc[r][1]);
      }
    }
    // The tile's diagonal: key base + i reaches rows i and later.
    for (std::int64_t i = 1; i < nr; ++i) {
      const Lanes x0 = LoadLanes(row(base + i) + c0, m0);
      const Lanes x1 = LoadLanes(row(base + i) + c1, m1);
      for (int r = 0; r < R; ++r) {
        if (r < i) continue;
        const float w = wt[(base + i) * R + r];
        acc[r][0] = FmaLanes(w, x0, acc[r][0]);
        acc[r][1] = FmaLanes(w, x1, acc[r][1]);
      }
    }
    for (std::int64_t r = 0; r < nr; ++r) {
      StoreLanes(out + r * ldo + c0, acc[r][0], m0);
      StoreLanes(out + r * ldo + c1, acc[r][1], m1);
    }
  }
}

// One query tile of the forward: probabilities into p (kMr * ldp
// floats), their transpose into pt, context rows into ctx.
template <int R>
void AttendTile(const AttentionSeq& s, std::int64_t i, std::int64_t col,
                std::int64_t hd, float scale, std::int64_t ldq,
                std::int64_t ldc, const float* kt, float* qs, float* p,
                float* pt, std::int64_t ldp) {
  const std::int64_t nr = std::min<std::int64_t>(R, s.q_len - i);
  const std::int64_t base = s.pos0 + i;
  ProbTile<R>(s.q + i * ldq + col, ldq, nr, base, hd, scale, kt, qs, p, ldp);
  TransposeTile<R>(p, ldp, base + nr, pt);
  WeightedRowsTile<R>(
      pt, nr, base, [&](std::int64_t j) { return s.v[j] + col; }, hd,
      s.ctx + i * ldc + col, ldc);
}
}  // namespace

void CausalAttentionForward(std::span<const AttentionSeq> seqs,
                            std::int64_t heads, std::int64_t hd, float scale,
                            std::int64_t ldq, std::int64_t ldc) {
  const auto n_seqs = static_cast<std::int64_t>(seqs.size());
  ParallelFor(0, n_seqs * heads, 1, [&](std::int64_t t0, std::int64_t t1) {
    alloc::ScratchArena& scratch = alloc::ThreadScratch();
    for (std::int64_t task = t0; task < t1; ++task) {
      alloc::ScratchGuard guard(scratch);
      const AttentionSeq& s = seqs[static_cast<std::size_t>(task / heads)];
      const std::int64_t col = task % heads * hd;
      const std::int64_t keys = s.pos0 + s.q_len;
      const std::int64_t ldp = RoundUp(keys, kNr);
      auto alloc = [&](std::int64_t n) {
        return scratch.AllocateT<float>(static_cast<std::size_t>(n));
      };
      float* kt = alloc(ldp * hd);
      float* qs = alloc(kMr * hd);
      float* p = alloc(kMr * ldp);
      float* pt = alloc(ldp * kMr);
      PackKeyTiles(keys, hd, kt, [&](std::int64_t j) { return s.k[j] + col; });
      for (std::int64_t i = 0; i < s.q_len; i += kMr) {
        if (s.q_len - i == 1) {
          AttendTile<1>(s, i, col, hd, scale, ldq, ldc, kt, qs, p, pt, ldp);
        } else {
          AttendTile<kMr>(s, i, col, hd, scale, ldq, ldc, kt, qs, p, pt,
                          ldp);
        }
      }
    }
  });
}

void CausalAttentionBackward(std::int64_t seqs, std::int64_t seq_len,
                             std::int64_t heads, std::int64_t hd, float scale,
                             const float* qkv, const float* dctx,
                             float* dqkv) {
  const std::int64_t width = heads * hd;
  const std::int64_t ld = 3 * width;
  const std::int64_t hdp = RoundUp(hd, 16);
  const std::int64_t ldp = RoundUp(seq_len, kNr);
  ParallelFor(0, seqs * heads, 1, [&](std::int64_t t0, std::int64_t t1) {
    alloc::ScratchArena& scratch = alloc::ThreadScratch();
    for (std::int64_t task = t0; task < t1; ++task) {
      alloc::ScratchGuard guard(scratch);
      const std::int64_t row0 = task / heads * seq_len;
      const std::int64_t col = task % heads * hd;
      const float* q = qkv + row0 * ld + col;
      const float* k = q + width;
      const float* v = k + width;
      const float* dout = dctx + row0 * width + col;
      float* dq = dqkv + row0 * ld + col;
      auto alloc = [&](std::int64_t n) {
        return scratch.AllocateT<float>(static_cast<std::size_t>(n));
      };
      float* kt = alloc(ldp * hd);
      float* vt = alloc(ldp * hd);
      float* dk = alloc(seq_len * hdp);
      float* dv = alloc(seq_len * hdp);
      float* qs = alloc(kMr * hd);
      float* p = alloc(kMr * ldp);
      float* ds = alloc(kMr * ldp);
      float* pt = alloc(ldp * kMr);
      float* dst = alloc(ldp * kMr);
      PackKeyTiles(seq_len, hd, kt, [&](std::int64_t j) { return k + j * ld; });
      PackKeyTiles(seq_len, hd, vt, [&](std::int64_t j) { return v + j * ld; });
      const auto acc_bytes =
          static_cast<std::size_t>(seq_len * hdp) * sizeof(float);
      std::memset(dk, 0, acc_bytes);
      std::memset(dv, 0, acc_bytes);
      for (std::int64_t i = 0; i < seq_len; i += kMr) {
        const std::int64_t nr = std::min(kMr, seq_len - i);
        const std::int64_t keys = i + nr;
        // P, recomputed by the forward's row routine; then
        // dP = dO V^T by the same chains (dO needs no scale).
        ProbTile<kMr>(q + i * ld, ld, nr, i, hd, scale, kt, qs, p, ldp);
        ScoreTile<kMr>(dout + i * width, width, nr, keys, hd, 1.0f, vt, qs,
                       ds, ldp);
        // dS = scale * P (dP - rowsum(P dP)); keys a row does not reach,
        // and the padding rows, get P = dS = 0.
        // The rowsums' serial chains run interleaved, as SoftmaxTile's do.
        float dot[kMr] = {};
        for (std::int64_t j = 0; j <= i; ++j) {
          for (int r = 0; r < kMr; ++r) {
            dot[r] = std::fma(p[r * ldp + j], ds[r * ldp + j], dot[r]);
          }
        }
        for (std::int64_t r = 0; r < kMr; ++r) {
          float* pr = p + r * ldp;
          float* dr = ds + r * ldp;
          const std::int64_t len = r < nr ? i + r + 1 : 0;
          for (std::int64_t j = i + 1; j < len; ++j) {
            dot[r] = std::fma(pr[j], dr[j], dot[r]);
          }
          for (std::int64_t j = 0; j < len; ++j) {
            dr[j] = scale * pr[j] * (dr[j] - dot[r]);
          }
          for (std::int64_t j = len; j < keys; ++j) pr[j] = dr[j] = 0.0f;
        }
        TransposeTile<kMr>(p, ldp, keys, pt);
        TransposeTile<kMr>(ds, ldp, keys, dst);
        // dQ rows = dS K.
        WeightedRowsTile<kMr>(
            dst, nr, i, [&](std::int64_t j) { return k + j * ld; }, hd,
            dq + i * ld, ld);
        // dK_j += dS[:, j]^T Q and dV_j += P[:, j]^T dO over the tile's
        // rows, in row order.
        for (std::int64_t c0 = 0; c0 < hd; c0 += 16) {
          const LaneMask m = FirstLanes(hd - c0);
          Lanes qv[kMr] = {}, dov[kMr] = {};
          for (std::int64_t r = 0; r < nr; ++r) {
            qv[r] = LoadLanes(q + (i + r) * ld + c0, m);
            dov[r] = LoadLanes(dout + (i + r) * width + c0, m);
          }
          for (std::int64_t j = 0; j < keys; ++j) {
            Lanes dkj = LoadLanes(dk + j * hdp + c0, kAllLanes);
            Lanes dvj = LoadLanes(dv + j * hdp + c0, kAllLanes);
            for (int r = 0; r < kMr; ++r) {
              dkj = FmaLanes(dst[j * kMr + r], qv[r], dkj);
              dvj = FmaLanes(pt[j * kMr + r], dov[r], dvj);
            }
            StoreLanes(dk + j * hdp + c0, dkj, kAllLanes);
            StoreLanes(dv + j * hdp + c0, dvj, kAllLanes);
          }
        }
      }
      for (std::int64_t j = 0; j < seq_len; ++j) {
        std::memcpy(dq + j * ld + width, dk + j * hdp,
                    static_cast<std::size_t>(hd) * sizeof(float));
        std::memcpy(dq + j * ld + 2 * width, dv + j * hdp,
                    static_cast<std::size_t>(hd) * sizeof(float));
      }
    }
  });
}

float CrossEntropyLoss(const float* logits, const std::int32_t* targets,
                       std::int64_t rows, std::int64_t vocab, float* dlogits) {
  const std::int64_t nchunks = (rows + kCeRowChunk - 1) / kCeRowChunk;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  double* partials =
      scratch.AllocateT<double>(static_cast<std::size_t>(nchunks));
  const float inv_rows = 1.0f / static_cast<float>(rows);
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    // Probability rows live in the executing thread's scratch, not a
    // per-call heap vector (this runs rows x per step at vocab size).
    alloc::ScratchArena& task_scratch = alloc::ThreadScratch();
    alloc::ScratchGuard task_guard(task_scratch);
    float* probs =
        task_scratch.AllocateT<float>(static_cast<std::size_t>(vocab));
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      double total = 0.0;
      const std::int64_t r1 = std::min(rows, (ch + 1) * kCeRowChunk);
      for (std::int64_t r = ch * kCeRowChunk; r < r1; ++r) {
        const float* lr = logits + r * vocab;
        const float mx = RowMax(lr, vocab);
        for (std::int64_t c = 0; c < vocab; ++c) probs[c] = Exp(lr[c] - mx);
        double sum = 0.0;
        for (std::int64_t c = 0; c < vocab; ++c) sum += probs[c];
        const std::int32_t t = targets[r];
        ZERO_CHECK(t >= 0 && t < vocab, "target out of vocab range");
        const double pt = static_cast<double>(probs[t]) / sum;
        total += -std::log(std::max(pt, 1e-30));
        if (dlogits != nullptr) {
          float* dr = dlogits + r * vocab;
          const float inv_sum = static_cast<float>(1.0 / sum);
          for (std::int64_t c = 0; c < vocab; ++c) {
            dr[c] = probs[c] * inv_sum * inv_rows;
          }
          dr[t] -= inv_rows;
        }
      }
      partials[ch] = total;
    }
  });
  double total = 0.0;
  for (std::int64_t ch = 0; ch < nchunks; ++ch) total += partials[ch];
  return static_cast<float>(total / static_cast<double>(rows));
}

void EmbeddingGather(const float* table, const std::int32_t* ids, float* out,
                     std::int64_t n_ids, std::int64_t dim) {
  ParallelFor(0, n_ids, RowGrain(dim), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::memcpy(out + i * dim,
                  table + static_cast<std::int64_t>(ids[i]) * dim,
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  });
}

void EmbeddingScatterAdd(float* dtable, const std::int32_t* ids,
                         const float* dout, std::int64_t n_ids,
                         std::int64_t dim) {
  for (std::int64_t i = 0; i < n_ids; ++i) {
    float* dst = dtable + static_cast<std::int64_t>(ids[i]) * dim;
    const float* src = dout + i * dim;
    for (std::int64_t d = 0; d < dim; ++d) dst[d] += src[d];
  }
}

void Axpy(float a, const float* x, float* y, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) y[i] += a * x[i];
  });
}

void Scale(float* x, float a, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) x[i] *= a;
  });
}

namespace {
// Shared shape of the deterministic scalar reductions: fixed kRedChunk
// element chunks accumulate in double, partials combine in chunk order.
template <typename ChunkFn>
float ChunkedReduce(std::int64_t n, const ChunkFn& chunk_fn) {
  const std::int64_t nchunks = (n + kRedChunk - 1) / kRedChunk;
  if (nchunks <= 0) return 0.0f;
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  double* partials =
      scratch.AllocateT<double>(static_cast<std::size_t>(nchunks));
  ParallelFor(0, nchunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      partials[ch] =
          chunk_fn(ch * kRedChunk, std::min(n, (ch + 1) * kRedChunk));
    }
  });
  double acc = 0.0;
  for (std::int64_t ch = 0; ch < nchunks; ++ch) acc += partials[ch];
  return static_cast<float>(acc);
}
}  // namespace

float SquaredNorm(const float* x, std::int64_t n) {
  return ChunkedReduce(n, [&](std::int64_t b, std::int64_t e) {
    double acc = 0.0;
    for (std::int64_t i = b; i < e; ++i) {
      acc += static_cast<double>(x[i]) * x[i];
    }
    return acc;
  });
}

float SquaredNormF16(const Half* x, std::int64_t n) {
  const float* lut = HalfDecodeTable();
  return ChunkedReduce(n, [&](std::int64_t b, std::int64_t e) {
    double acc = 0.0;
    for (std::int64_t i = b; i < e; ++i) {
      const double v = lut[x[i].bits()];
      acc += v * v;
    }
    return acc;
  });
}

float Dot(const float* a, const float* b, std::int64_t n) {
  return ChunkedReduce(n, [&](std::int64_t b0, std::int64_t e0) {
    double acc = 0.0;
    for (std::int64_t i = b0; i < e0; ++i) {
      acc += static_cast<double>(a[i]) * b[i];
    }
    return acc;
  });
}

void CastHalfToFloat(const Half* src, float* dst, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    HalfToFloat(src + b, dst + b, static_cast<std::size_t>(e - b));
  });
}

void CastFloatToHalf(const float* src, Half* dst, std::int64_t n) {
  ParallelFor(0, n, kElemChunk, [&](std::int64_t b, std::int64_t e) {
    FloatToHalf(src + b, dst + b, static_cast<std::size_t>(e - b));
  });
}

}  // namespace zero::tensor
