#include "format/bfp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace anda {

namespace {

/// Effective biased exponent of an FP16 value: subnormals live at the
/// minimum normal exponent (1) with hidden bit 0.
inline int
effective_exponent(Fp16 h)
{
    return std::max(h.biased_exponent(), 1);
}

}  // namespace

BfpGroup
encode_bfp_group(std::span<const float> values, const BfpParams &params)
{
    ANDA_CHECK(params.mantissa_bits >= 1 && params.mantissa_bits < 32,
               "BFP mantissa length out of range");
    BfpGroup group;
    group.elems.resize(values.size());

    // Pass 1: find the shared (maximum effective) exponent.
    int max_exp = 1;
    std::vector<Fp16> halves(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        halves[i] = Fp16(values[i]);
        if (!halves[i].is_zero()) {
            max_exp = std::max(max_exp, effective_exponent(halves[i]));
        }
    }
    group.shared_exponent = max_exp;

    // Pass 2: align each significand to the shared exponent and truncate
    // to the mantissa length. total_shift < 0 means headroom bits (the
    // extended-mantissa case); shifts are saturated so that large
    // exponent distances cleanly flush to zero.
    const int m = params.mantissa_bits;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const Fp16 h = halves[i];
        BfpElement &e = group.elems[i];
        e.sign = static_cast<std::uint8_t>(h.sign());
        if (h.is_zero()) {
            e.mantissa = 0;
            e.shift = 0;
            continue;
        }
        const int dist = max_exp - effective_exponent(h);
        const int total_shift = dist + (Fp16::kMantissaBits + 1 - m);
        e.shift = static_cast<std::uint8_t>(std::min(dist, 31));
        const std::uint32_t sig =
            static_cast<std::uint32_t>(h.significand());
        if (total_shift >= 32) {
            e.mantissa = 0;
        } else if (total_shift >= 0) {
            e.mantissa = sig >> total_shift;
        } else {
            e.mantissa = sig << (-total_shift);
        }
        ANDA_DCHECK(m >= 32 ||
                        e.mantissa < (static_cast<std::uint32_t>(1) << m),
                    "BFP mantissa overflows its bit budget");
    }
    return group;
}

float
bfp_group_scale(int shared_exponent, int mantissa_bits)
{
    // value = mantissa * 2^(E* - bias - kMantissaBits + (11 - m))
    //       = mantissa * 2^(E* - 14 - m)
    return std::ldexp(1.0f, shared_exponent - 14 - mantissa_bits);
}

std::vector<float>
decode_bfp_group(const BfpGroup &group, const BfpParams &params)
{
    const float scale =
        bfp_group_scale(group.shared_exponent, params.mantissa_bits);
    std::vector<float> out(group.elems.size());
    for (std::size_t i = 0; i < group.elems.size(); ++i) {
        const BfpElement &e = group.elems[i];
        const float mag = static_cast<float>(e.mantissa) * scale;
        out[i] = e.sign ? -mag : mag;
    }
    return out;
}

void
bfp_roundtrip(std::span<const float> input, std::span<float> output,
              const BfpParams &params)
{
    ANDA_CHECK_EQ(input.size(), output.size(),
                  "BFP round-trip spans must match");
    ANDA_CHECK_GE(params.group_size, 1);
    ANDA_CHECK(params.mantissa_bits >= 1 && params.mantissa_bits < 32,
               "BFP mantissa length out of range");
    // decode_bfp_group(encode_bfp_group(...)) without materializing the
    // group: each value is converted to FP16 once into fixed scratch
    // (the heap only for groups above 64), and the mantissa, scale and
    // sign expressions are the encoder's and decoder's.
    const std::size_t gs = static_cast<std::size_t>(params.group_size);
    const int m = params.mantissa_bits;
    std::array<Fp16, 64> fixed;
    std::vector<Fp16> heap;
    Fp16 *halves = fixed.data();
    if (gs > fixed.size()) {
        heap.resize(gs);
        halves = heap.data();
    }
    for (std::size_t base = 0; base < input.size(); base += gs) {
        const std::size_t len = std::min(gs, input.size() - base);
        // Zeros need no special case: their effective exponent (1)
        // never raises the shared one and their significand is 0.
        int max_exp = 1;
        for (std::size_t i = 0; i < len; ++i) {
            halves[i] = Fp16(input[base + i]);
            max_exp = std::max(max_exp, effective_exponent(halves[i]));
        }
        const float scale = bfp_group_scale(max_exp, m);
        for (std::size_t i = 0; i < len; ++i) {
            const Fp16 h = halves[i];
            // total_shift <= 40 and significands are 11 bits, so a
            // 64-bit shift flushes total_shift >= 32 to 0 as the
            // encoder does.
            const int total_shift =
                max_exp - effective_exponent(h) +
                (Fp16::kMantissaBits + 1 - m);
            const std::uint64_t sig =
                static_cast<std::uint64_t>(h.significand())
                << std::max(-total_shift, 0);
            const auto mantissa = static_cast<std::uint32_t>(
                sig >> std::max(total_shift, 0));
            output[base + i] =
                bfp_apply_sign(static_cast<float>(mantissa) * scale,
                               static_cast<std::uint32_t>(h.sign()));
        }
    }
}

std::vector<float>
bfp_roundtrip(std::span<const float> input, const BfpParams &params)
{
    std::vector<float> out(input.size());
    bfp_roundtrip(input, std::span<float>(out), params);
    return out;
}

double
bfp_bits_per_element(const BfpParams &params)
{
    // sign + mantissa + amortized 8-bit exponent word per group.
    return 1.0 + params.mantissa_bits +
           8.0 / static_cast<double>(params.group_size);
}

}  // namespace anda
