// fp32 compute kernels (forward + backward) for the transformer runtime.
//
// These are the CPU stand-ins for the cuBLAS/cuDNN calls the paper's
// implementation makes. The GEMM is a packed, register-blocked
// micro-kernel (BLIS-style: A/B panels are packed into contiguous tile
// buffers from thread-local scratch so all four transpose cases hit the
// same cache-friendly inner loop), and the large kernels partition their
// output rows across the opt-in intra-op worker pool (parallel_for.hpp).
// Causal attention is one forward/backward pair over (sequence, head)
// tasks with the GEMM's kMr x kNr register tile: it reads Q/K/V rows in
// place and recomputes probabilities in backward, as FlashAttention
// does, so no [seq, seq] tensor outlives a call.
//
// Determinism contract: every kernel returns bitwise-identical results
// at any worker count. Elementwise and per-row kernels get this for
// free (each output element is produced by exactly one chunk in serial
// order); reductions (bias grads, dgamma/dbeta, squared norms, the
// cross-entropy total) use fixed-size chunks whose partials are
// combined in chunk-index order on the calling thread; the attention
// backward gives each (sequence, head) task its own dK/dV columns. This
// is what keeps the ZeRO stage-equivalence tests exact while the kernels
// run parallel. Nothing here requires -ffast-math, and NaN/Inf propagate
// exactly (0 * Inf = NaN is preserved — the fp16 overflow detection in
// the loss scaler depends on seeing it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/half.hpp"

namespace zero::tensor {

// C[m,n] = alpha * op(A)[m,k] * op(B)[k,n] + beta * C[m,n].
// op(X) = X or X^T according to the trans flags; dimensions m/n/k always
// refer to the post-op shapes. Row-major storage.
//
// Accumulation contract, shared by every GEMM entry point below
// (DESIGN.md §9): after beta is applied, each C element takes, for
// every kKc-long block of the k range in order, one fresh explicit-fma
// chain acc = fma(alpha * op(A)[i,kk], op(B)[kk,j], acc) over the
// block's kk in order, then C += acc. An element's bits
// therefore depend only on its row of op(A), its column of op(B), alpha
// and k: never on m, n or the weight layout. Any row subset of a GEMM is bitwise the same rows of the
// full GEMM.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

// Pre-packed weight panels. Serving weights are static, so re-packing
// the B operand on every GEMM call is pure waste: these entry points
// store a [n, k] weight matrix W (used transposed, as every projection
// in the model is:  C[m,n] = alpha * A[m,k] * W[n,k]^T + beta * C[m,n])
// ONCE in the micro-panel layout the blocked GEMM's B pack produces:
// kNr-column panels per (column-block, k-block) tile, zero-padded past
// n. One layout serves every precision:
//   fp32 — the panels feed the micro-kernel in place;
//   fp16 — Half panels, bulk-decoded one tile at a time;
//   int8 — each panel carries its fp32 scales, [ceil(kc/64)][kNr],
//          ahead of its [kc][kNr] int8 codes. Every weight row is
//          quantized as tensor/quantize's QuantizeF32(row, k, 64) does
//          (same rounding, poison-block and zero-scale policy), and a
//          tile is decoded per call as code * scale, which is
//          DequantizeF32's product. Padding lanes get scale 0, code 0.
// All three run the blocked driver at every shape, so results are
// bitwise Gemm(false, true, ...) on the fp32 rows the matching
// Decode*PanelRow returns.
inline constexpr std::int64_t kPanelQuantBlock = 64;
[[nodiscard]] std::int64_t PanelElems(std::int64_t n, std::int64_t k);
[[nodiscard]] std::int64_t QuantPanelBytes(std::int64_t n, std::int64_t k);
void PackPanelsT(const float* w, std::int64_t n, std::int64_t k,
                 float* dst);
void PackHalfPanelsT(const float* w, std::int64_t n, std::int64_t k,
                     Half* dst);
void PackQuantPanelsT(const float* w, std::int64_t n, std::int64_t k,
                      std::byte* dst);
// Row `row` of the panel-packed [n, k] matrix as fp32 (embedding
// gathers); a row outside [0, n) is a ZERO_CHECK failure.
void DecodePanelRow(const float* panels, std::int64_t n, std::int64_t k,
                    std::int64_t row, float* dst);
void DecodeHalfPanelRow(const Half* panels, std::int64_t n, std::int64_t k,
                        std::int64_t row, float* dst);
void DecodeQuantPanelRow(const std::byte* panels, std::int64_t n,
                         std::int64_t k, std::int64_t row, float* dst);
void GemmPanelsT(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, const float* panels, float beta, float* c);
void GemmHalfPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const Half* panels,
                     float beta, float* c);
void GemmQuantPanelsT(std::int64_t m, std::int64_t n, std::int64_t k,
                      float alpha, const float* a, const std::byte* panels,
                      float beta, float* c);

// Causal attention: the one implementation behind training, eval,
// prefill and decode.
//
// One sequence of a batch. Its q_len query rows sit at positions
// pos0..pos0+q_len-1, and the query at position p attends keys 0..p.
// Rows are head-major, head h at columns [h*hd, (h+1)*hd): query row t
// at q + t * ldq, key and value row j at k[j] and v[j], context row t
// at ctx + t * ldc. The key/value tables hold pos0 + q_len rows at any
// addresses: a dense sequence's table lists its own rows, a paged
// cache's points into its blocks.
struct AttentionSeq {
  std::int64_t pos0 = 0;
  std::int64_t q_len = 0;
  const float* q = nullptr;
  const float* const* k = nullptr;
  const float* const* v = nullptr;
  float* ctx = nullptr;
};

// Row contract (DESIGN.md §9). For the query at position p and head h:
//   s_j    = fma chain from +0 over d = 0..hd-1 of (scale * q[d]) * k_j[d],
//            for each key j <= p;
//   prob   = SoftmaxRows' row routine over exactly those p + 1 scores;
//   ctx[d] = fma chain from +0 over j = 0..p of prob_j * v_j[d].
// An output row's bits therefore depend only on its query row, key and
// value rows 0..p and scale: never on pos0, q_len, the other sequences
// or the worker count, so decoding a token gives bitwise the row the
// full-sequence forward gives. Parallel over (sequence, head); key
// tiles past a query tile's last position are skipped.
void CausalAttentionForward(std::span<const AttentionSeq> seqs,
                            std::int64_t heads, std::int64_t hd, float scale,
                            std::int64_t ldq, std::int64_t ldc);

// Backward of CausalAttentionForward over `seqs` dense sequences of
// seq_len rows each, read in place from the qkv projection: row r of
// qkv holds q | k | v, each [heads * hd] head-major; row r of dctx is
// the context gradient [heads * hd]. Overwrites dqkv (qkv's layout) with
// dQ | dK | dV. Each probability row is recomputed by the forward's row
// routine, so nothing [seq_len, seq_len] is kept between the passes.
// Parallel over (sequence, head); a task owns its head's dQ/dK/dV
// columns, so the result does not depend on the worker count.
void CausalAttentionBackward(std::int64_t seqs, std::int64_t seq_len,
                             std::int64_t heads, std::int64_t hd, float scale,
                             const float* qkv, const float* dctx,
                             float* dqkv);

// x[rows, cols] += bias[cols] broadcast over rows.
void AddBiasRows(float* x, const float* bias, std::int64_t rows,
                 std::int64_t cols);
// dbias[cols] += sum over rows of dy[rows, cols].
void BiasGradFromRows(const float* dy, float* dbias, std::int64_t rows,
                      std::int64_t cols);

// Fused bias + activation epilogues: one pass over the activations
// instead of separate bias-add and activation kernels. GELU is the
// tanh approximation GPT-2 uses.
//   forward:  z = x + bias (saved for backward), y = act(z); z may alias x.
//   backward: dx = dy * act'(z), dbias[cols] += column sums of dx;
//             dx may alias dy.
void BiasGeluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols);
void BiasGeluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols);
void BiasReluForward(const float* x, const float* bias, float* z, float* y,
                     std::int64_t rows, std::int64_t cols);
void BiasReluBackward(const float* z, const float* dy, float* dx,
                      float* dbias, std::int64_t rows, std::int64_t cols);

// Row-wise layer norm over `cols` features. mean/rstd ([rows]) are saved
// for backward.
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* y, float* mean, float* rstd, std::int64_t rows,
                      std::int64_t cols, float eps);
// dgamma/dbeta are accumulated (+=); dx is overwritten.
void LayerNormBackward(const float* x, const float* gamma, const float* mean,
                       const float* rstd, const float* dy, float* dx,
                       float* dgamma, float* dbeta, std::int64_t rows,
                       std::int64_t cols);

// In-place row-wise softmax: max, Exp(x - max), a serial sum, then one
// multiply by its reciprocal. The attention kernels run this row routine.
void SoftmaxRows(float* x, std::int64_t rows, std::int64_t cols);

// Mean cross-entropy over rows; writes dlogits = (softmax - onehot)/rows.
// dlogits may be null (loss only). Probability rows live in thread-local
// scratch — no per-call allocation.
float CrossEntropyLoss(const float* logits, const std::int32_t* targets,
                       std::int64_t rows, std::int64_t vocab, float* dlogits);

// out[i, :] = table[ids[i], :].
void EmbeddingGather(const float* table, const std::int32_t* ids, float* out,
                     std::int64_t n_ids, std::int64_t dim);
// dtable[ids[i], :] += dout[i, :]. Serial: ids may repeat, so row
// partitioning would race on dtable.
void EmbeddingScatterAdd(float* dtable, const std::int32_t* ids,
                         const float* dout, std::int64_t n_ids,
                         std::int64_t dim);

void Axpy(float a, const float* x, float* y, std::int64_t n);
void Scale(float* x, float a, std::int64_t n);
[[nodiscard]] float SquaredNorm(const float* x, std::int64_t n);
[[nodiscard]] float SquaredNormF16(const Half* x, std::int64_t n);
[[nodiscard]] float Dot(const float* a, const float* b, std::int64_t n);

// Bulk fp16 <-> fp32 conversion, row-partitioned over the worker pool.
// Same bit-exact semantics as the serial common/half.hpp converters
// (LUT decode, round-to-nearest-even encode).
void CastHalfToFloat(const Half* src, float* dst, std::int64_t n);
void CastFloatToHalf(const float* src, Half* dst, std::int64_t n);

}  // namespace zero::tensor
