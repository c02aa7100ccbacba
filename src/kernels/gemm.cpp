#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

}  // namespace

Matrix
matmul_wt(const Matrix &a, const Matrix &w, std::size_t threads)
{
    check_gemm_shapes(a.cols(), w.cols(), "matmul_wt");
    Matrix c(a.rows(), w.rows());
    const std::size_t k = a.cols();
    const std::size_t n_out = w.rows();
    parallel_for_chunked(
        0, a.rows(),
        [&](std::size_t lo, std::size_t hi) {
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
        },
        threads);
    return c;
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
