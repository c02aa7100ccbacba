#pragma once

/// @file
/// GeMM kernels for every computation scheme compared in the paper
/// (Fig. 8): the FP-FP GPU path, the FP-INT dequantization path, the
/// BFP fake-quantization path used for accuracy evaluation (numerically
/// equivalent to the integer datapath up to FP32 accumulation), and the
/// hardware-faithful Anda bit-plane integer path.
///
/// Convention: activations A are [tokens x K] row-major; weights W are
/// [N x K] (one output channel per row); outputs are [tokens x N].
///
/// Shape preconditions (a.cols() == w.cols()) are enforced with
/// std::invalid_argument in every build type, not assert, so Release
/// builds fail loudly instead of reading out of bounds.
///
/// Threading: every kernel takes a thread count where 0 means all
/// cores and 1 means serial. Callers that already parallelize at a
/// coarser grain (e.g. across sequences) pass 1 so inner kernels do not
/// oversubscribe — see src/common/parallel.h for the ownership
/// convention.
///
/// Dispatch: matmul_wt runs on the widest path the host supports,
/// probed once per process with __builtin_cpu_supports — AVX-512F
/// (4 token rows x 4 outputs per block, lone rows 1 x 16, one zmm
/// accumulator per output) or the 128-bit baseline (one row x 4
/// outputs). No build flag or option selects it.
///
/// Bit identity: every matmul_wt element equals dot_f32 over its row
/// pair on every path. Each output keeps dot_f32's 16 lane
/// accumulators (lane l sums the rounded products a[i + l] * w[i + l]
/// over i in order), reduces them lane 0..15 starting from 0.0f and
/// then adds the serial tail. The AVX-512 path reduces 16 outputs side
/// by side by transposing its accumulator block, which keeps that
/// order.
///
/// Contraction: AVX-512F implies FMA, and a fused a * b + acc rounds
/// once where dot_f32 rounds twice. The AVX-512 functions switch
/// contraction off themselves (optimize("fp-contract=off") on GCC,
/// `#pragma clang fp contract(off)` on Clang); CI fails if the gemm
/// object contains any vfmadd/vfmsub/vfnmadd/vfnmsub instruction.

#include <span>

#include "common/matrix.h"
#include "format/anda_tensor.h"
#include "format/bfp.h"
#include "quant/weight_quant.h"

namespace anda {

/// Activation number format applied at a GeMM input tap.
struct ActFormat {
    enum class Kind {
        kFp32,  ///< No conversion (reference only).
        kFp16,  ///< Round through FP16 (the W4A16 baseline).
        kBfp,   ///< Group-shared exponent + truncated mantissa.
    };
    Kind kind = Kind::kFp16;
    /// BFP parameters (used when kind == kBfp). group_size counts values
    /// along the reduction dimension of each token row.
    BfpParams bfp_params;

    static ActFormat fp32() { return {Kind::kFp32, {}}; }
    static ActFormat fp16() { return {Kind::kFp16, {}}; }
    static ActFormat bfp(int group_size, int mantissa_bits)
    {
        return {Kind::kBfp, {group_size, mantissa_bits}};
    }
};

/// Dot product with deterministic lane-wise accumulation (vectorizes
/// without -ffast-math).
float dot_f32(const float *a, const float *b, std::size_t n);

/// C = A * W^T with float32 inputs, parallelized over token rows.
/// threads = 0 uses all cores; 1 runs serially (callers that already
/// parallelize at a coarser grain pass 1). Every element is bit-equal
/// to dot_f32 over its row pair, on whichever path the host runs.
Matrix matmul_wt(const Matrix &a, const Matrix &w,
                 std::size_t threads = 0);

namespace detail {

/// The instruction-set paths of matmul_wt. Internal: matmul_wt picks
/// one per process; tests name them to check each against dot_f32.
enum class GemmPath {
    kBaseline,  ///< 128-bit vectors, one token row x 4 outputs.
    kAvx512,    ///< zmm, 4 token rows x 4 outputs (lone rows 1 x 16).
};

/// Whether this build and host can run `path`.
bool gemm_path_supported(GemmPath path);

/// matmul_wt on an explicit path; throws if the host cannot run it.
Matrix matmul_wt_on_path(GemmPath path, const Matrix &a, const Matrix &w,
                         std::size_t threads = 0);

}  // namespace detail

/// Reference GeMM in double precision (ground truth for kernel tests).
Matrix gemm_ref(const Matrix &a, const Matrix &w);

/// Applies an activation format in place to each token row of a matrix
/// (BFP groups run along the row/reduction dimension). threads = 0 uses
/// all cores; callers already parallel at sequence level pass 1.
void apply_act_format(Matrix &a, const ActFormat &fmt,
                      std::size_t threads = 0);

/// FP-FP GPU scheme (Fig. 8a): INT4 weights dequantized to FP16, FP16
/// activations, FP32 accumulation.
Matrix gemm_fp16_dequant(const Matrix &a, const QuantizedWeight &w,
                         std::size_t threads = 0);

/// Fake-quantized BFP GeMM used by accuracy experiments: activations are
/// converted through the BFP format, then multiplied against dequantized
/// weights in float32. Numerically equivalent to the grouped integer
/// datapath with exact scaling.
Matrix gemm_bfp_fakequant(const Matrix &a, const QuantizedWeight &w,
                          const BfpParams &params,
                          std::size_t threads = 0);

/// Options of the bit-exact Anda GeMM.
struct AndaGemmOptions {
    /// Mantissa length of the activation tensor (1..16).
    int mantissa_bits = 8;
    /// If true, round each group's dot product through FP16 before the
    /// cross-group FP32 accumulation, exactly as the APU datapath does
    /// (paper Sec. IV-B). Off by default to mirror the fake-quant path.
    bool fp16_group_rounding = false;
    /// If true, round the final accumulator to FP16 on output.
    bool fp16_output = true;
    /// Worker threads for the token-row loop: 0 = all cores, 1 = serial.
    /// Sequence-level callers pass 1, matching matmul_wt's convention.
    std::size_t threads = 0;
};

/// Hardware-faithful Anda GeMM: each token row of A is encoded as an
/// AndaTensor along K; group dot products are scaled by the shared
/// exponent and the weight group scale and FP32-accumulated across
/// groups. Requires the weight scale group size to be a multiple of 64.
///
/// The software implementation reassembles each group's signed integer
/// mantissas from the bit-planes once per (token, group) and computes
/// the group dot as a plain integer dot product, tiled over token and
/// output rows for cache reuse. This is bit-identical to the APU's
/// first-element-then-bit-plane reduction (`anda_group_dot`, which
/// remains the hardware-reference oracle): both are exact integer
/// computations of sum_i sign_i * mantissa_i * w_i, and the float
/// scaling/accumulation sequence is unchanged.
Matrix gemm_anda(const Matrix &a, const QuantizedWeight &w,
                 const AndaGemmOptions &opts);

/// Integer dot product of one Anda group against 64 INT weights via the
/// bit-serial reduction (exposed for unit tests and the APU model).
/// Returns sum_i sign_i * mantissa_i * w_i. This is the
/// hardware-faithful reference; gemm_anda's fast path must stay
/// bit-identical to it (enforced by tests/test_gemm.cpp).
std::int64_t anda_group_dot(const AndaGroup &g, int mantissa_bits,
                            std::span<const std::int8_t> w);

}  // namespace anda
