#include "common/fp16.h"

#include <bit>
#include <cstring>

namespace anda {

namespace {

/// Reinterprets a float as its bit pattern.
inline std::uint32_t bits_of(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

inline float float_of(std::uint32_t b)
{
    return std::bit_cast<float>(b);
}

}  // namespace

std::uint16_t
Fp16::from_float_bits(float value)
{
    const std::uint32_t f = bits_of(value);
    const std::uint32_t sign = (f >> 16) & 0x8000u;
    const std::int32_t exp32 = static_cast<std::int32_t>((f >> 23) & 0xff);
    std::uint32_t mant32 = f & 0x7fffffu;

    if (exp32 == 0xff) {
        // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
        if (mant32 != 0) {
            return static_cast<std::uint16_t>(sign | 0x7e00u);
        }
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    // Unbiased exponent, re-biased for FP16.
    std::int32_t exp16 = exp32 - 127 + kBias;

    if (exp16 >= 0x1f) {
        // Overflow: round-to-nearest maps large values to infinity.
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }

    if (exp16 <= 0) {
        // Subnormal or zero. The significand (with hidden bit when the
        // source is normal) must be shifted right by (1 - exp16) extra
        // positions on top of the 13-bit narrowing shift.
        if (exp16 < -10) {
            return static_cast<std::uint16_t>(sign);  // Rounds to +-0.
        }
        std::uint32_t sig = mant32 | (exp32 == 0 ? 0u : 0x800000u);
        const int shift = 13 + (1 - exp16);
        const std::uint32_t kept = sig >> shift;
        const std::uint32_t round_bit = (sig >> (shift - 1)) & 1u;
        const std::uint32_t sticky =
            (sig & ((1u << (shift - 1)) - 1u)) != 0 ? 1u : 0u;
        // Round half to even, without a data-dependent branch. May
        // carry into the exponent field: that is correct.
        const std::uint32_t out =
            kept + (round_bit & (sticky | (kept & 1u)));
        return static_cast<std::uint16_t>(sign | out);
    }

    // Normal range: narrow the 23-bit mantissa to 10 bits with RNE.
    const std::uint32_t kept = mant32 >> 13;
    const std::uint32_t round_bit = (mant32 >> 12) & 1u;
    const std::uint32_t sticky = (mant32 & 0xfffu) != 0 ? 1u : 0u;
    // Round half to even; the carry may bump the exponent (possibly
    // to infinity).
    const std::uint32_t out =
        ((static_cast<std::uint32_t>(exp16) << 10) | kept) +
        (round_bit & (sticky | (kept & 1u)));
    return static_cast<std::uint16_t>(sign | out);
}

float
Fp16::to_float() const
{
    const std::uint32_t sign = static_cast<std::uint32_t>(bits_ & 0x8000u)
                               << 16;
    const int exp16 = biased_exponent();
    const std::uint32_t mant = static_cast<std::uint32_t>(mantissa_field());

    if (exp16 == 0) {
        if (mant == 0) {
            return float_of(sign);  // Signed zero.
        }
        // Subnormal: value = mant * 2^-24. Normalize into float32.
        int e = 0;
        std::uint32_t m = mant;
        while ((m & 0x400u) == 0) {
            m <<= 1;
            --e;
        }
        m &= 0x3ffu;
        const std::uint32_t exp32 =
            static_cast<std::uint32_t>(e + 1 - kBias + 127);
        return float_of(sign | (exp32 << 23) | (m << 13));
    }
    if (exp16 == 0x1f) {
        return float_of(sign | 0x7f800000u | (mant << 13));
    }
    const std::uint32_t exp32 = static_cast<std::uint32_t>(exp16 - kBias + 127);
    return float_of(sign | (exp32 << 23) | (mant << 13));
}

float
fp16_round(float value)
{
    return Fp16(value).to_float();
}

}  // namespace anda
