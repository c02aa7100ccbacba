#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fp16.h"
#include "common/parallel.h"

namespace anda {

namespace {

void
check_gemm_shapes(std::size_t a_cols, std::size_t w_cols, const char *kernel)
{
    ANDA_CHECK_EQ(a_cols, w_cols, kernel,
                  ": activation columns must equal weight columns");
}

}  // namespace

float
dot_f32(const float *a, const float *b, std::size_t n)
{
    float acc[16] = {};
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        for (int l = 0; l < 16; ++l) {
            acc[l] += a[i + l] * b[i + l];
        }
    }
    float s = 0.0f;
    for (int l = 0; l < 16; ++l) {
        s += acc[l];
    }
    for (; i < n; ++i) {
        s += a[i] * b[i];
    }
    return s;
}

namespace {

#if defined(__GNUC__)  // GCC and Clang

/// Four float lanes (GCC/Clang vector extension; lowers to SSE on
/// x86-64 and to scalar code where there is no SIMD unit).
using Vec4 = float __attribute__((vector_size(16)));

inline Vec4
load4(const float *p)
{
    Vec4 v = {};
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Register-blocked dot_f32: four outputs of one A row per pass over
/// it, so each A load feeds four products. Every output keeps
/// dot_f32's 16 lane accumulators (lane l sums a[i + l] * w[i + l] over
/// i in order), then reduces them lane 0..15 and adds the serial tail,
/// so out[o] == dot_f32(a, w[o], n) bit for bit. The four reductions
/// run side by side, one output per lane, instead of as four serial
/// chains.
void
dot_f32_x4(const float *a, const float *const w[4], std::size_t n,
           float out[4])
{
    Vec4 acc[4][4] = {};
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        for (std::size_t c = 0; c < 4; ++c) {
            const Vec4 av = load4(a + i + 4 * c);
            for (std::size_t o = 0; o < 4; ++o) {
                acc[o][c] += av * load4(w[o] + i + 4 * c);
            }
        }
    }
    float lanes[4][16] = {};
    std::memcpy(lanes, acc, sizeof lanes);
    float s[4] = {};
    for (std::size_t l = 0; l < 16; ++l) {
        for (std::size_t o = 0; o < 4; ++o) {
            s[o] += lanes[o][l];
        }
    }
    for (std::size_t o = 0; o < 4; ++o) {
        for (std::size_t j = i; j < n; ++j) {
            s[o] += a[j] * w[o][j];
        }
        out[o] = s[o];
    }
}

#else

/// Compilers without GCC vector extensions: four plain dot_f32 calls.
void
dot_f32_x4(const float *a, const float *const w[4], std::size_t n,
           float out[4])
{
    for (std::size_t o = 0; o < 4; ++o) {
        out[o] = dot_f32(a, w[o], n);
    }
}

#endif

/// The baseline path: one token row at a time, four outputs per pass.
void
matmul_rows_baseline(const Matrix &a, const Matrix &w, Matrix &c,
                     std::size_t lo, std::size_t hi)
{
    const std::size_t k = a.cols();
    const std::size_t n_out = w.rows();
    for (std::size_t t = lo; t < hi; ++t) {
        const float *arow = a.data() + t * k;
        float *crow = c.data() + t * n_out;
        std::size_t n = 0;
        for (; n + 4 <= n_out; n += 4) {
            const float *wrows[4] = {
                w.data() + n * k, w.data() + (n + 1) * k,
                w.data() + (n + 2) * k, w.data() + (n + 3) * k};
            dot_f32_x4(arow, wrows, k, crow + n);
        }
        for (; n < n_out; ++n) {
            crow[n] = dot_f32(arow, w.data() + n * k, k);
        }
    }
}

// The AVX-512 path needs GCC >= 12 or Clang (__builtin_shufflevector on
// 64-byte vectors) and an x86 target (__builtin_cpu_supports).
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__clang__) || __GNUC__ >= 12)
#define ANDA_GEMM_AVX512 1

// avx512f implies FMA, and a fused a * b + acc rounds once where
// dot_f32 rounds twice. GCC contracts by default in C++
// (-ffp-contract=fast), so every function of this path carries
// optimize("fp-contract=off"); Clang contracts within an expression
// (-ffp-contract=on), so every body opens with the clang fp pragma.
#if defined(__clang__)
#define ANDA_AVX512_FN __attribute__((target("avx512f")))
#define ANDA_NO_FP_CONTRACT _Pragma("clang fp contract(off)")
#else
#define ANDA_AVX512_FN \
    __attribute__((target("avx512f"), optimize("fp-contract=off")))
#define ANDA_NO_FP_CONTRACT
#endif

/// Sixteen float lanes, one zmm register.
using Vec16 = float __attribute__((vector_size(64)));

ANDA_AVX512_FN inline Vec16
load16(const float *p)
{
    Vec16 v = {};
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// One stage of a 16 x 16 in-register transpose: in each register
/// pair (x[i], x[i + B]), lanes with bit B clear stay in x[i], lanes
/// with it set stay in x[i + B], and the other halves swap. After the
/// stages B = 1, 2, 4, 8, lane l of x[j] sits in lane j of x[l].
template <std::size_t B, std::size_t... L>
ANDA_AVX512_FN inline void
transpose_stage(Vec16 x[16], std::index_sequence<L...> /*lanes*/)
{
    for (std::size_t i = 0; i < 16; ++i) {
        if ((i & B) != 0) {
            continue;
        }
        const Vec16 lo = x[i];
        const Vec16 hi = x[i + B];
        x[i] = __builtin_shufflevector(
            lo, hi, ((L & B) != 0 ? L + 16 - B : L)...);
        x[i + B] = __builtin_shufflevector(
            lo, hi, ((L & B) != 0 ? L + 16 : L + B)...);
    }
}

/// R token rows x C output rows (R * C == 16) of dot_f32, one zmm
/// accumulator per output holding dot_f32's 16 lane sums. The
/// accumulator block is transposed so lane j of vector l holds lane l
/// of output j, then summed vector 0..15 from zero: every output
/// reduces its lanes in dot_f32's order, all 16 side by side. out[j]
/// is output (j / C, j % C). Duplicate row pointers are allowed (the
/// caller discards their outputs).
template <std::size_t R, std::size_t C>
ANDA_AVX512_FN void
dot_f32_block(const float *const a[R], const float *const w[C],
              std::size_t k, float out[16])
{
    ANDA_NO_FP_CONTRACT
    static_assert(R * C == 16, "one zmm accumulator per output");
    Vec16 acc[16] = {};
    std::size_t i = 0;
    for (; i + 16 <= k; i += 16) {
        Vec16 av[R];
        Vec16 wv[C];
        for (std::size_t r = 0; r < R; ++r) {
            av[r] = load16(a[r] + i);
        }
        for (std::size_t c = 0; c < C; ++c) {
            wv[c] = load16(w[c] + i);
        }
        for (std::size_t r = 0; r < R; ++r) {
            for (std::size_t c = 0; c < C; ++c) {
                acc[r * C + c] += av[r] * wv[c];
            }
        }
    }
    constexpr auto lanes = std::make_index_sequence<16>{};
    transpose_stage<1>(acc, lanes);
    transpose_stage<2>(acc, lanes);
    transpose_stage<4>(acc, lanes);
    transpose_stage<8>(acc, lanes);
    Vec16 s = {};
    for (std::size_t l = 0; l < 16; ++l) {
        s += acc[l];
    }
    std::memcpy(out, &s, sizeof s);
    for (std::size_t j = 0; j < 16 && i < k; ++j) {
        const float *aj = a[j / C];
        const float *wj = w[j % C];
        for (std::size_t ii = i; ii < k; ++ii) {
            out[j] += aj[ii] * wj[ii];
        }
    }
}

/// The AVX-512 path: 4 token rows x 4 outputs per block, lone rows
/// 1 x 16. Output tails reuse the last output row and store only the
/// valid results.
ANDA_AVX512_FN void
matmul_rows_avx512(const Matrix &a, const Matrix &w, Matrix &c,
                   std::size_t lo, std::size_t hi)
{
    ANDA_NO_FP_CONTRACT
    const std::size_t k = a.cols();
    const std::size_t n_out = w.rows();
    float out[16];
    std::size_t t = lo;
    for (; t + 4 <= hi; t += 4) {
        const float *arows[4];
        for (std::size_t r = 0; r < 4; ++r) {
            arows[r] = a.data() + (t + r) * k;
        }
        for (std::size_t n = 0; n < n_out; n += 4) {
            const std::size_t valid = std::min<std::size_t>(4, n_out - n);
            const float *wrows[4];
            for (std::size_t o = 0; o < 4; ++o) {
                wrows[o] = w.data() + (n + std::min(o, valid - 1)) * k;
            }
            dot_f32_block<4, 4>(arows, wrows, k, out);
            for (std::size_t r = 0; r < 4; ++r) {
                std::copy_n(out + 4 * r, valid,
                            c.data() + (t + r) * n_out + n);
            }
        }
    }
    for (; t < hi; ++t) {
        const float *arow[1] = {a.data() + t * k};
        for (std::size_t n = 0; n < n_out; n += 16) {
            const std::size_t valid = std::min<std::size_t>(16, n_out - n);
            const float *wrows[16];
            for (std::size_t o = 0; o < 16; ++o) {
                wrows[o] = w.data() + (n + std::min(o, valid - 1)) * k;
            }
            dot_f32_block<1, 16>(arow, wrows, k, out);
            std::copy_n(out, valid, c.data() + t * n_out + n);
        }
    }
}

#undef ANDA_AVX512_FN
#undef ANDA_NO_FP_CONTRACT

#endif  // AVX-512 path

/// C = A * W^T on one path (support already checked).
Matrix
matmul_wt_impl(detail::GemmPath path, const Matrix &a, const Matrix &w,
               std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "matmul_wt");
    Matrix c(a.rows(), w.rows());
    parallel_for_chunked(
        0, a.rows(),
        [&](std::size_t lo, std::size_t hi) {
#ifdef ANDA_GEMM_AVX512
            if (path == detail::GemmPath::kAvx512) {
                matmul_rows_avx512(a, w, c, lo, hi);
                return;
            }
#endif
            matmul_rows_baseline(a, w, c, lo, hi);
        },
        threads);
    return c;
}

}  // namespace

namespace detail {

bool
gemm_path_supported(GemmPath path)
{
    switch (path) {
    case GemmPath::kBaseline:
        return true;
    case GemmPath::kAvx512:
#ifdef ANDA_GEMM_AVX512
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
    }
    return false;
}

Matrix
matmul_wt_on_path(GemmPath path, const Matrix &a, const Matrix &w,
                  std::size_t threads)
{
    ANDA_CHECK(gemm_path_supported(path),
               "matmul_wt: this host cannot run the requested path");
    return matmul_wt_impl(path, a, w, threads);
}

}  // namespace detail

Matrix
matmul_wt(const Matrix &a, const Matrix &w, std::size_t threads)
{
    // The widest path this host runs, probed once per process.
    static const detail::GemmPath path =
        detail::gemm_path_supported(detail::GemmPath::kAvx512)
            ? detail::GemmPath::kAvx512
            : detail::GemmPath::kBaseline;
    return matmul_wt_impl(path, a, w, threads);
}

Matrix
gemm_ref(const Matrix &a, const Matrix &w)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_ref");
    Matrix c(a.rows(), w.rows());
    for (std::size_t t = 0; t < a.rows(); ++t) {
        for (std::size_t n = 0; n < w.rows(); ++n) {
            double acc = 0.0;
            for (std::size_t kk = 0; kk < a.cols(); ++kk) {
                acc += static_cast<double>(a(t, kk)) * w(n, kk);
            }
            c(t, n) = static_cast<float>(acc);
        }
    }
    return c;
}

void
apply_act_format(Matrix &a, const ActFormat &fmt, std::size_t threads)
{
    switch (fmt.kind) {
    case ActFormat::Kind::kFp32:
        return;
    case ActFormat::Kind::kFp16:
        parallel_for_chunked(
            0, a.rows(),
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t t = lo; t < hi; ++t) {
                    for (float &v : a.row(t)) {
                        v = fp16_round(v);
                    }
                }
            },
            threads);
        return;
    case ActFormat::Kind::kBfp:
        parallel_for_chunked(
            0, a.rows(),
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t t = lo; t < hi; ++t) {
                    auto row = a.row(t);
                    bfp_roundtrip(row, row, fmt.bfp_params);
                }
            },
            threads);
        return;
    }
}

Matrix
gemm_fp16_dequant(const Matrix &a, const QuantizedWeight &w,
                  std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_fp16_dequant");
    Matrix a16 = a;
    apply_act_format(a16, ActFormat::fp16(), threads);
    // Dequantized INT4 weights are exact in FP16 (scale is FP16 and the
    // product q*scale has at most 14 significant bits), so a float
    // matmul of the dequantized matrix models the tensor-core path.
    const Matrix wd = w.dequantize();
    return matmul_wt(a16, wd, threads);
}

Matrix
gemm_bfp_fakequant(const Matrix &a, const QuantizedWeight &w,
                   const BfpParams &params, std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_bfp_fakequant");
    Matrix ab = a;
    apply_act_format(ab, ActFormat::bfp(params.group_size,
                                        params.mantissa_bits),
                     threads);
    const Matrix wd = w.dequantize();
    return matmul_wt(ab, wd, threads);
}

std::int64_t
anda_group_dot(const AndaGroup &g, int mantissa_bits,
               std::span<const std::int8_t> w)
{
    ANDA_CHECK_EQ(w.size(), static_cast<std::size_t>(kAndaGroupSize),
                  "anda_group_dot: weight span must hold exactly one group");
    // Effective signed weights: the sign plane flips the weight feeding
    // the adder tree, so bit-plane partial sums are plain sums.
    std::int32_t signed_w[kAndaGroupSize];
    for (int i = 0; i < kAndaGroupSize; ++i) {
        const bool neg = (g.sign_plane >> i) & 1u;
        signed_w[i] = neg ? -static_cast<std::int32_t>(w[i])
                          : static_cast<std::int32_t>(w[i]);
    }
    // First-element-then-bit-plane reduction: one adder-tree pass per
    // plane, then shift-accumulate the per-plane partial sums. Plane 0
    // is the mantissa MSB.
    std::int64_t acc = 0;
    for (int p = 0; p < mantissa_bits; ++p) {
        const std::uint64_t plane = g.mant_planes[p];
        std::int64_t partial = 0;
        for (int i = 0; i < kAndaGroupSize; ++i) {
            if ((plane >> i) & 1u) {
                partial += signed_w[i];
            }
        }
        acc = (acc << 1) + partial;
    }
    return acc;
}

namespace {

// Reassembles one group's signed integer mantissas from the bit-plane
// layout: out[i] = sign_i * mantissa_i. One branch-free pass per plane,
// done once per (token, group) instead of once per (token, row, group).
void
anda_signed_mantissas(const AndaGroup &g, int mantissa_bits,
                      std::int32_t out[kAndaGroupSize])
{
    for (int i = 0; i < kAndaGroupSize; ++i) {
        out[i] = 0;
    }
    for (int p = 0; p < mantissa_bits; ++p) {
        const std::uint64_t plane = g.mant_planes[p];
        for (int i = 0; i < kAndaGroupSize; ++i) {
            out[i] = (out[i] << 1) |
                     static_cast<std::int32_t>((plane >> i) & 1u);
        }
    }
    for (int i = 0; i < kAndaGroupSize; ++i) {
        const std::int32_t neg =
            -static_cast<std::int32_t>((g.sign_plane >> i) & 1u);
        out[i] = (out[i] ^ neg) - neg;
    }
}

// Integer dot of one group's signed mantissas against its weights.
// No overflow: |sm| < 2^16, |w| <= 127, 64 terms < 2^31.
std::int64_t
anda_int_dot(const std::int32_t *sm, const std::int8_t *w)
{
    std::int32_t acc = 0;
    for (int i = 0; i < kAndaGroupSize; ++i) {
        acc += sm[i] * static_cast<std::int32_t>(w[i]);
    }
    return static_cast<std::int64_t>(acc);
}

}  // namespace

Matrix
gemm_anda(const Matrix &a, const QuantizedWeight &w,
          const AndaGemmOptions &opts)
{
    check_gemm_shapes(a.cols(), w.cols(), "gemm_anda");
    ANDA_CHECK_EQ(w.group_size() % kAndaGroupSize, 0,
                  "weight scale group size must be a multiple of the Anda "
                  "group size (64)");
    const std::size_t k = a.cols();
    const std::size_t n_rows = w.rows();
    const std::size_t n_groups = (k + kAndaGroupSize - 1) / kAndaGroupSize;
    const std::size_t k_pad = n_groups * kAndaGroupSize;
    const std::size_t anda_groups_per_scale =
        static_cast<std::size_t>(w.group_size()) / kAndaGroupSize;

    // Hoisted out of the token loop: a trailing partial group needs
    // zero-padded weights (zeros are exact in BFP, so padding matches
    // the bit-serial reference); full rows are used in place.
    const bool needs_pad = k != k_pad;
    std::vector<std::int8_t> wpad;
    if (needs_pad) {
        wpad.assign(n_rows * k_pad, std::int8_t{0});
        for (std::size_t n = 0; n < n_rows; ++n) {
            const auto wrow = w.row(n);
            std::copy_n(wrow.data(), k, wpad.data() + n * k_pad);
        }
    }

    Matrix c(a.rows(), n_rows);

    // Tile over token rows so each weight row streams through the cache
    // once per tile instead of once per token.
    constexpr std::size_t kTokenTile = 8;

    parallel_for_chunked(
        0, a.rows(),
        [&](std::size_t lo, std::size_t hi) {
            std::vector<std::int32_t> sm(kTokenTile * k_pad);
            std::vector<float> gscale(kTokenTile * n_groups);
            for (std::size_t t0 = lo; t0 < hi; t0 += kTokenTile) {
                const std::size_t tn = std::min(kTokenTile, hi - t0);
                // Decode each group's signed mantissas once per token.
                for (std::size_t ti = 0; ti < tn; ++ti) {
                    const AndaTensor act = AndaTensor::encode(
                        a.row(t0 + ti), opts.mantissa_bits);
                    for (std::size_t g = 0; g < n_groups; ++g) {
                        anda_signed_mantissas(
                            act.group(g), opts.mantissa_bits,
                            &sm[ti * k_pad + g * kAndaGroupSize]);
                        gscale[ti * n_groups + g] = bfp_group_scale(
                            act.group(g).shared_exponent,
                            opts.mantissa_bits);
                    }
                }
                for (std::size_t n = 0; n < n_rows; ++n) {
                    const std::int8_t *wrow =
                        needs_pad ? wpad.data() + n * k_pad
                                  : w.row(n).data();
                    for (std::size_t ti = 0; ti < tn; ++ti) {
                        const std::int32_t *smrow = &sm[ti * k_pad];
                        float acc = 0.0f;
                        for (std::size_t g = 0; g < n_groups; ++g) {
                            const std::int64_t idot = anda_int_dot(
                                smrow + g * kAndaGroupSize,
                                wrow + g * kAndaGroupSize);
                            float gval = static_cast<float>(idot) *
                                         gscale[ti * n_groups + g];
                            if (opts.fp16_group_rounding) {
                                gval = fp16_round(gval);
                            }
                            acc += gval *
                                   w.group_scale(
                                       n, g / anda_groups_per_scale);
                        }
                        c(t0 + ti, n) =
                            opts.fp16_output ? fp16_round(acc) : acc;
                    }
                }
            }
        },
        opts.threads);
    return c;
}

}  // namespace anda
