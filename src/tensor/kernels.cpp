#include "tensor/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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

// Below this flop count the packing overhead dominates; use a direct
// strided path (attention runs many tiny per-head GEMMs).
constexpr std::int64_t kSmallGemmFlops = 1 << 15;

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
// Every path below follows the accumulation contract in kernels.hpp: per
// kKc block of k, a fresh std::fma chain over (alpha * a) * b in kk
// order, added to C once. The explicit fma matters: under GCC's default
// -ffp-contract=fast the compiler may fuse a plain `acc += a * b`
// differently in a vector body than in its remainder, and then an
// element's bits would depend on its position in a tile.

// Direct path for small problems. The output columns are the SIMD lanes
// and each lane keeps its own serial chain, so the inner loop
// vectorizes without reassociating anything; up to kMr rows share each
// pass over B for instruction-level parallelism. A rows are pre-scaled
// by alpha, and a transposed B is copied to [k, n] rows first. No
// zero-multiplicand skipping: 0 * Inf must produce NaN for the
// loss-scaler's overflow detection.
void SmallGemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float* a, const float* b,
               float* c) {
  alloc::ScratchArena& scratch = alloc::ThreadScratch();
  alloc::ScratchGuard guard(scratch);
  const float* bk = b;
  if (trans_b) {
    float* t = scratch.AllocateT<float>(static_cast<std::size_t>(k * n));
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t kk = 0; kk < k; ++kk) t[kk * n + j] = b[j * k + kk];
    }
    bk = t;
  }
  const std::int64_t groups = (m + kMr - 1) / kMr;
  ParallelFor(0, groups, RowGrain(kMr * n * k), [&](std::int64_t g0,
                                                    std::int64_t g1) {
    alloc::ScratchArena& task_scratch = alloc::ThreadScratch();
    alloc::ScratchGuard task_guard(task_scratch);
    float* as =
        task_scratch.AllocateT<float>(static_cast<std::size_t>(kMr * k));
    float* acc =
        task_scratch.AllocateT<float>(static_cast<std::size_t>(kMr * n));
    for (std::int64_t g = g0; g < g1; ++g) {
      const std::int64_t i0 = g * kMr;
      const std::int64_t rows = std::min(kMr, m - i0);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          as[r * k + kk] = alpha * OpA(a, trans_a, m, k, i0 + r, kk);
        }
      }
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t p1 = std::min(k, pc + kKc);
        std::memset(acc, 0, static_cast<std::size_t>(rows * n) * sizeof(float));
        for (std::int64_t kk = pc; kk < p1; ++kk) {
          const float* brow = bk + kk * n;
          for (std::int64_t r = 0; r < rows; ++r) {
            const float av = as[r * k + kk];
            float* ar = acc + r * n;
            for (std::int64_t j = 0; j < n; ++j) {
              ar[j] = std::fma(av, brow[j], ar[j]);
            }
          }
        }
        for (std::int64_t r = 0; r < rows; ++r) {
          float* ci = c + (i0 + r) * n;
          const float* ar = acc + r * n;
          for (std::int64_t j = 0; j < n; ++j) ci[j] += ar[j];
        }
      }
    }
  });
}

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
  if (m * n * k <= kSmallGemmFlops) {
    SmallGemm(trans_a, trans_b, m, n, k, alpha, a, b, c);
  } else {
    BlockedGemm(trans_a, m, n, k, alpha, a, StridedB{b, trans_b, k, n}, c);
  }
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

// One row, in place — shared by the softmax entry points so the causal
// and paged-attention kernels can fuse masking without a nested
// parallel call.
inline void SoftmaxRow(float* xr, std::int64_t cols) {
  const float mx = RowMax(xr, cols);
  // Exp pass, then a separate serial sum: the first vectorizes and the
  // second keeps a fixed summation order.
  for (std::int64_t c = 0; c < cols; ++c) xr[c] = Exp(xr[c] - mx);
  float sum = 0.0f;
  for (std::int64_t c = 0; c < cols; ++c) sum += xr[c];
  const float inv = 1.0f / sum;
  for (std::int64_t c = 0; c < cols; ++c) xr[c] *= inv;
}
}  // namespace

void SoftmaxRows(float* x, std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) SoftmaxRow(x + r * cols, cols);
  });
}

void SoftmaxBackwardRows(const float* y, const float* dy, float* dx,
                         std::int64_t rows, std::int64_t cols) {
  ParallelFor(0, rows, RowGrain(cols), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* yr = y + r * cols;
      const float* dyr = dy + r * cols;
      float* dxr = dx + r * cols;
      float dot = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) dot += yr[c] * dyr[c];
      for (std::int64_t c = 0; c < cols; ++c) {
        dxr[c] = yr[c] * (dyr[c] - dot);
      }
    }
  });
}

void CausalMaskedSoftmax(float* scores, std::int64_t batch_heads,
                         std::int64_t q_len, std::int64_t k_len) {
  ZERO_CHECK(k_len >= q_len, "causal mask assumes k_len >= q_len");
  const std::int64_t offset = k_len - q_len;
  ParallelFor(0, batch_heads * q_len, RowGrain(k_len),
              [&](std::int64_t r0, std::int64_t r1) {
                for (std::int64_t r = r0; r < r1; ++r) {
                  const std::int64_t i = r % q_len;
                  float* row = scores + r * k_len;
                  for (std::int64_t j = offset + i + 1; j < k_len; ++j) {
                    row[j] = -std::numeric_limits<float>::infinity();
                  }
                  SoftmaxRow(row, k_len);
                }
              });
}

void PackKeyRow(const float* k, std::int64_t heads, std::int64_t hd,
                float* dst) {
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t d = 0; d < hd; ++d) dst[d * heads + h] = k[h * hd + d];
  }
}

void PagedCausalAttention(std::int64_t q_len, std::int64_t pos0,
                          std::int64_t heads, std::int64_t hd, float scale,
                          const float* q, std::int64_t ldq,
                          const float* const* k_rows,
                          const float* const* v_rows, float* ctx,
                          std::int64_t ldc) {
  // Score tiles: kKeyTile keys x kHeadLanes heads of independent chains.
  constexpr std::int64_t kKeyTile = 8;
  constexpr std::int64_t kHeadLanes = 8;
  const std::int64_t width = heads * hd;
  const std::int64_t k_len = pos0 + q_len;
  ParallelFor(0, q_len, RowGrain(k_len * width), [&](std::int64_t t0,
                                                      std::int64_t t1) {
    alloc::ScratchArena& scratch = alloc::ThreadScratch();
    alloc::ScratchGuard guard(scratch);
    float* qs = scratch.AllocateT<float>(static_cast<std::size_t>(width));
    float* att =
        scratch.AllocateT<float>(static_cast<std::size_t>(heads * k_len));
    float* cacc = scratch.AllocateT<float>(static_cast<std::size_t>(width));
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t len = pos0 + t + 1;
      // (alpha * a) operand of the score GEMM, dimension-major like K.
      PackKeyRow(q + t * ldq, heads, hd, qs);
      for (std::int64_t c = 0; c < width; ++c) qs[c] *= scale;
      // Scores, att[h * k_len + j]: C starts at +0 (beta = 0) and takes
      // one chain per kKc block of d. A key's heads are contiguous lanes.
      for (std::int64_t j0 = 0; j0 < len; j0 += kKeyTile) {
        const std::int64_t nj = std::min(kKeyTile, len - j0);
        for (std::int64_t h0 = 0; h0 < heads; h0 += kHeadLanes) {
          const std::int64_t nh = std::min(kHeadLanes, heads - h0);
          float s[kKeyTile][kHeadLanes] = {};
          for (std::int64_t d0 = 0; d0 < hd; d0 += kKc) {
            const std::int64_t d1 = std::min(hd, d0 + kKc);
            float acc[kKeyTile][kHeadLanes] = {};
            for (std::int64_t d = d0; d < d1; ++d) {
              const float* qd = qs + d * heads + h0;
              for (std::int64_t jj = 0; jj < nj; ++jj) {
                const float* kd = k_rows[j0 + jj] + d * heads + h0;
                for (std::int64_t l = 0; l < nh; ++l) {
                  acc[jj][l] = std::fma(qd[l], kd[l], acc[jj][l]);
                }
              }
            }
            for (std::int64_t jj = 0; jj < kKeyTile; ++jj) {
              for (std::int64_t l = 0; l < kHeadLanes; ++l) {
                s[jj][l] += acc[jj][l];
              }
            }
          }
          for (std::int64_t jj = 0; jj < nj; ++jj) {
            for (std::int64_t l = 0; l < nh; ++l) {
              att[(h0 + l) * k_len + j0 + jj] = s[jj][l];
            }
          }
        }
      }
      // The full forward softmaxes over seq columns, the masked ones at
      // -inf: they do not move the max, Exp maps them to exactly 0, and
      // adding 0 leaves the positive sum unchanged.
      for (std::int64_t h = 0; h < heads; ++h) SoftmaxRow(att + h * k_len, len);
      // Context: each head's hd columns are the lanes, chained over keys
      // in kKc blocks. The full forward's extra terms multiply +0
      // probabilities by finite V entries, so they can at most flip the
      // sign of a zero chain; C starts at +0, is never -0 after an add,
      // and so sees neither that sign nor the +0 a fully masked block
      // adds. Both are skipped.
      float* out = ctx + t * ldc;
      for (std::int64_t c = 0; c < width; ++c) out[c] = 0.0f;
      for (std::int64_t j0 = 0; j0 < len; j0 += kKc) {
        const std::int64_t j1 = std::min(len, j0 + kKc);
        for (std::int64_t c = 0; c < width; ++c) cacc[c] = 0.0f;
        for (std::int64_t j = j0; j < j1; ++j) {
          const float* vr = v_rows[j];
          for (std::int64_t h = 0; h < heads; ++h) {
            const float p = att[h * k_len + j];
            float* ch = cacc + h * hd;
            const float* vh = vr + h * hd;
            for (std::int64_t d = 0; d < hd; ++d) {
              ch[d] = std::fma(p, vh[d], ch[d]);
            }
          }
        }
        for (std::int64_t c = 0; c < width; ++c) out[c] += cacc[c];
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
