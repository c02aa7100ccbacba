// Unit + property tests for the BFP conversion (paper Fig. 4 semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "format/bfp.h"

namespace anda {
namespace {

TEST(Bfp, SharedExponentIsGroupMax)
{
    const std::vector<float> vals = {1.0f, 4.0f, 0.25f};
    const BfpGroup g = encode_bfp_group(vals, {3, 8});
    // 4.0 has biased exponent 15 + 2 = 17.
    EXPECT_EQ(g.shared_exponent, 17);
}

TEST(Bfp, ZerosStayExactlyZero)
{
    const std::vector<float> vals = {0.0f, -0.0f, 1000.0f, 0.0f};
    const auto out = bfp_roundtrip(vals, {4, 4});
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 0.0f);
    EXPECT_EQ(out[3], 0.0f);
}

TEST(Bfp, GroupSizeOneFullMantissaIsLosslessForFp16Values)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 200; ++i) {
        const float v = fp16_round(
            static_cast<float>(rng.normal(0.0, 10.0)));
        const auto out = bfp_roundtrip(std::vector<float>{v}, {1, 11});
        EXPECT_EQ(out[0], v) << "i=" << i;
    }
}

TEST(Bfp, TruncationIsTowardZero)
{
    // 1.875 = significand 11110000000_2; with a 3-bit mantissa only the
    // top 3 bits survive -> 111 -> 1.75.
    const auto out = bfp_roundtrip(std::vector<float>{1.875f}, {1, 3});
    EXPECT_FLOAT_EQ(out[0], 1.75f);
    const auto neg = bfp_roundtrip(std::vector<float>{-1.875f}, {1, 3});
    EXPECT_FLOAT_EQ(neg[0], -1.75f);
}

TEST(Bfp, SmallValueFlushedByLargeGroupMax)
{
    // With an outlier 1024 = 2^10 and mantissa 4, a value of 1.0 needs a
    // 10-position shift; only 4 mantissa bits exist, so 1.0 truncates to
    // zero. This is exactly the outlier-induced precision loss the
    // paper's Fig. 4 illustrates.
    const std::vector<float> vals = {1024.0f, 1.0f};
    const auto out = bfp_roundtrip(vals, {2, 4});
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(Bfp, ExtendedMantissaAbsorbsShift)
{
    // Same values with a 14-bit mantissa hold 1.0 exactly
    // (shift 10 <= 14 - 11 + headroom of the value's own bits).
    const std::vector<float> vals = {1024.0f, 1.0f};
    const auto out = bfp_roundtrip(vals, {2, 14});
    EXPECT_FLOAT_EQ(out[0], 1024.0f);
    EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(Bfp, SubnormalsAlignAtMinimumNormalExponent)
{
    const float sub = std::ldexp(3.0f, -24);  // subnormal FP16
    const auto out = bfp_roundtrip(std::vector<float>{sub}, {1, 11});
    EXPECT_EQ(out[0], sub);
}

TEST(Bfp, DecodeMatchesRoundtrip)
{
    SplitMix64 rng(11);
    std::vector<float> vals(64);
    for (auto &v : vals) {
        v = static_cast<float>(rng.normal(0.0, 3.0));
    }
    const BfpParams p{64, 7};
    const BfpGroup g = encode_bfp_group(vals, p);
    const auto direct = decode_bfp_group(g, p);
    const auto rt = bfp_roundtrip(vals, p);
    ASSERT_EQ(direct.size(), rt.size());
    for (std::size_t i = 0; i < rt.size(); ++i) {
        EXPECT_EQ(direct[i], rt[i]);
    }
}

TEST(Bfp, RoundtripBitEqualsEncodeDecode)
{
    // bfp_roundtrip skips materializing BfpGroup; every output must
    // still be bit-equal to decode_bfp_group(encode_bfp_group(...)),
    // across group sizes (with trailing partial groups), mantissa
    // lengths with and without headroom, and zeros of both signs,
    // subnormals, FP16 overflow and ordinary magnitudes.
    SplitMix64 rng(12);
    std::vector<float> vals(300);
    for (auto &v : vals) {
        switch (rng.uniform_index(6)) {
        case 0:
            v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
            break;
        case 1:
            v = static_cast<float>(rng.normal(0.0, 3e-6));
            break;
        case 2:
            v = static_cast<float>(rng.normal(0.0, 1e5));
            break;
        default:
            v = static_cast<float>(rng.normal(0.0, 3.0));
            break;
        }
    }
    for (const int gs : {1, 3, 16, 64, 100, 128}) {
        for (const int m : {1, 4, 7, 8, 11, 16, 24, 31}) {
            const BfpParams p{gs, m};
            const auto rt = bfp_roundtrip(vals, p);
            for (std::size_t base = 0; base < vals.size();
                 base += static_cast<std::size_t>(gs)) {
                const std::size_t len = std::min<std::size_t>(
                    static_cast<std::size_t>(gs), vals.size() - base);
                const auto dec = decode_bfp_group(
                    encode_bfp_group({vals.data() + base, len}, p), p);
                for (std::size_t i = 0; i < len; ++i) {
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(rt[base + i]),
                              std::bit_cast<std::uint32_t>(dec[i]))
                        << "gs=" << gs << " m=" << m
                        << " i=" << base + i;
                }
            }
        }
    }
}

TEST(Bfp, BitsPerElementAccounting)
{
    EXPECT_DOUBLE_EQ(bfp_bits_per_element({64, 7}), 1 + 7 + 8.0 / 64);
    EXPECT_DOUBLE_EQ(bfp_bits_per_element({1, 11}), 1 + 11 + 8.0);
}

struct BfpSweepParam {
    int group_size;
    int mantissa_bits;
};

class BfpPropertyTest
    : public ::testing::TestWithParam<BfpSweepParam> {};

TEST_P(BfpPropertyTest, ErrorBoundedByGroupScale)
{
    // |x - bfp(x)| < 2^(E* - 14 - M + shift-allowance): the truncation
    // error of any element is strictly below one unit of the group scale.
    const auto [gs, m] = GetParam();
    SplitMix64 rng(static_cast<std::uint64_t>(gs * 131 + m));
    std::vector<float> vals(256);
    for (auto &v : vals) {
        // Mix of magnitudes incl. outliers.
        v = static_cast<float>(rng.normal(0.0, 1.0));
        if (rng.uniform() < 0.05) {
            v *= 100.0f;
        }
    }
    const BfpParams p{gs, m};
    for (std::size_t base = 0; base < vals.size();
         base += static_cast<std::size_t>(gs)) {
        const std::size_t len = std::min<std::size_t>(
            static_cast<std::size_t>(gs), vals.size() - base);
        const std::span<const float> group(vals.data() + base, len);
        const BfpGroup enc = encode_bfp_group(group, p);
        const auto dec = decode_bfp_group(enc, p);
        const float ulp = bfp_group_scale(enc.shared_exponent, m);
        for (std::size_t i = 0; i < len; ++i) {
            const float orig = fp16_round(group[i]);
            EXPECT_LT(std::abs(orig - dec[i]), ulp)
                << "gs=" << gs << " m=" << m << " i=" << i;
            // Truncation never increases magnitude.
            EXPECT_LE(std::abs(dec[i]), std::abs(orig));
            // Sign is preserved (or value flushed to zero).
            if (dec[i] != 0.0f) {
                EXPECT_EQ(std::signbit(dec[i]), std::signbit(orig));
            }
        }
    }
}

TEST_P(BfpPropertyTest, MoreMantissaBitsNeverHurt)
{
    const auto [gs, m] = GetParam();
    if (m >= 13) {
        GTEST_SKIP() << "needs m+1 comparison headroom";
    }
    SplitMix64 rng(static_cast<std::uint64_t>(gs * 977 + m));
    std::vector<float> vals(128);
    for (auto &v : vals) {
        v = static_cast<float>(rng.normal(0.0, 2.0));
    }
    const auto lo = bfp_roundtrip(vals, {gs, m});
    const auto hi = bfp_roundtrip(vals, {gs, m + 1});
    double err_lo = 0.0;
    double err_hi = 0.0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const float orig = fp16_round(vals[i]);
        err_lo += std::abs(orig - lo[i]);
        err_hi += std::abs(orig - hi[i]);
    }
    EXPECT_LE(err_hi, err_lo);
}

INSTANTIATE_TEST_SUITE_P(
    GroupAndMantissaSweep, BfpPropertyTest,
    ::testing::Values(BfpSweepParam{1, 4}, BfpSweepParam{1, 11},
                      BfpSweepParam{8, 4}, BfpSweepParam{8, 8},
                      BfpSweepParam{16, 6}, BfpSweepParam{32, 7},
                      BfpSweepParam{64, 4}, BfpSweepParam{64, 8},
                      BfpSweepParam{64, 11}, BfpSweepParam{64, 13},
                      BfpSweepParam{128, 5}, BfpSweepParam{256, 9}));

}  // namespace
}  // namespace anda
