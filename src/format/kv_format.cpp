#include "format/kv_format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/check.h"

namespace anda {

namespace {

/// Effective biased exponent of an FP16 value: subnormals live at the
/// minimum normal exponent (1) with hidden bit 0 (format/bfp.cpp
/// keeps the same convention, so truncating KV quantization is
/// bit-identical to encode_bfp_group).
inline int
effective_exponent(Fp16 h)
{
    return std::max(h.biased_exponent(), 1);
}

/// Quantizes one group: shared max effective exponent, significands
/// aligned by their exponent distance and cut to `m` bits — truncated
/// (the hardware path) or rounded to nearest with saturation at the
/// mantissa ceiling. Each value is converted to FP16 once, into `h`.
/// Zeros need no special case: their effective exponent (1) never
/// raises the shared one and their significand (0) quantizes to 0.
/// Returns the shared biased exponent.
std::uint8_t
quantize_group(std::span<const float> vals, int m, bool round_nearest,
               Fp16 *h, std::uint32_t *mant, std::uint8_t *sign)
{
    int max_exp = 1;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        h[i] = Fp16(vals[i]);
        max_exp = std::max(max_exp, effective_exponent(h[i]));
    }
    const std::uint64_t ceiling = (std::uint64_t{1} << m) - 1;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        sign[i] = static_cast<std::uint8_t>(h[i].sign());
        const int dist = max_exp - effective_exponent(h[i]);
        // Right shift aligning the 11-bit significand to m bits; a
        // negative shift is headroom (m > 11 - dist), a lossless left
        // shift. Round-to-nearest adds half of the dropped range.
        const int ts = dist + (Fp16::kMantissaBits + 1 - m);
        const int rs = std::max(ts, 0);
        const std::uint64_t sig =
            static_cast<std::uint64_t>(h[i].significand())
            << std::max(-ts, 0);
        const std::uint64_t half =
            round_nearest ? (std::uint64_t{1} << rs) >> 1 : 0;
        const std::uint64_t q = (sig + half) >> rs;
        mant[i] = static_cast<std::uint32_t>(std::min(q, ceiling));
        ANDA_DCHECK(round_nearest || q <= ceiling,
                    "truncated KV mantissa overflows its bit budget");
    }
    return static_cast<std::uint8_t>(max_exp);
}

inline void
store_u64_le(std::uint64_t w, std::byte *out)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &w, 8);
    } else {
        for (int b = 0; b < 8; ++b) {
            out[b] = static_cast<std::byte>((w >> (8 * b)) & 0xff);
        }
    }
}

inline std::uint64_t
load_u64_le(const std::byte *in)
{
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, in, 8);
    } else {
        for (int b = 0; b < 8; ++b) {
            w |= static_cast<std::uint64_t>(
                     std::to_integer<std::uint8_t>(in[b]))
                 << (8 * b);
        }
    }
    return w;
}

/// Packed bytes of one kBfp group of `len` elements: exponent byte +
/// bit-packed (1 + m)-bit fields, padded to a byte boundary.
inline std::size_t
bfp_group_bytes(std::size_t len, int m)
{
    return 1 +
           (len * static_cast<std::size_t>(1 + m) + 7) / 8;
}

/// Packed bytes of one kAnda group: exponent byte + sign plane + m
/// mantissa planes (constant in the group's fill, per Fig. 10).
inline std::size_t
anda_group_bytes(int m)
{
    return 1 + 8 * static_cast<std::size_t>(1 + m);
}

/// Scratch for one group's quantization (kAndaGroupSize is the
/// largest fixed group; kBfp groups above 64 fall back to the heap).
struct GroupScratch {
    Fp16 h_fixed[kAndaGroupSize];
    std::uint32_t mant_fixed[kAndaGroupSize];
    std::uint8_t sign_fixed[kAndaGroupSize];
    std::vector<Fp16> h_heap;
    std::vector<std::uint32_t> mant_heap;
    std::vector<std::uint8_t> sign_heap;
    Fp16 *h = nullptr;
    std::uint32_t *mant = nullptr;
    std::uint8_t *sign = nullptr;

    explicit GroupScratch(std::size_t group_size)
    {
        if (group_size <= kAndaGroupSize) {
            h = h_fixed;
            mant = mant_fixed;
            sign = sign_fixed;
        } else {
            h_heap.resize(group_size);
            mant_heap.resize(group_size);
            sign_heap.resize(group_size);
            h = h_heap.data();
            mant = mant_heap.data();
            sign = sign_heap.data();
        }
    }
};

/// Eight bits in byte lanes: bit j of the index lands as 0 or 1 in
/// byte j. Spreads one plane byte (8 members) into 8 lanes.
constexpr std::array<std::uint64_t, 256> kByteSpread = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::uint64_t b = 0; b < 256; ++b) {
        for (int j = 0; j < 8; ++j) {
            t[b] |= ((b >> j) & 1) << (8 * j);
        }
    }
    return t;
}();

/// Lowest bit of every byte lane.
constexpr std::uint64_t kLaneLsb = 0x0101010101010101ull;

/// Gathers the lowest bit of each byte lane into one byte: for
/// x = lanes & kLaneLsb, (x * kLaneGather) >> 56 has bit j = lane j.
/// Lane j's bit times the multiplier's 2^(7(7-j)+7) term lands on bit
/// 56 + j; all 64 partial products sit on distinct bits, so nothing
/// carries into the top byte.
constexpr std::uint64_t kLaneGather = 0x0102040810204080ull;

/// Plane -> lane transpose of one Anda group: member i's mantissa
/// (the sum over planes p of bit i of planes[p] << (m - 1 - p); plane
/// 0 is the MSB) comes back as lo[i] | hi[i] << 8. Each 64-bit word
/// holds 8 members in byte lanes; a lane takes at most 8 plane bits,
/// so the low 8 mantissa bits and the (m - 8) high bits are shifted in
/// as two separate lane words. Fixed work per group, no data-dependent
/// branch.
void
anda_planes_to_lanes(const std::uint64_t *planes, int m,
                     std::uint8_t *lo, std::uint8_t *hi)
{
    const int hi_planes = std::max(0, m - 8);
    for (int k = 0; k < 8; ++k) {
        const int sh = 8 * k;
        std::uint64_t hw = 0;
        for (int p = 0; p < hi_planes; ++p) {
            hw = (hw << 1) | kByteSpread[(planes[p] >> sh) & 0xff];
        }
        std::uint64_t lw = 0;
        for (int p = hi_planes; p < m; ++p) {
            lw = (lw << 1) | kByteSpread[(planes[p] >> sh) & 0xff];
        }
        store_u64_le(lw, reinterpret_cast<std::byte *>(lo + sh));
        store_u64_le(hw, reinterpret_cast<std::byte *>(hi + sh));
    }
}

/// Lane -> plane transpose, the inverse of anda_planes_to_lanes:
/// bit b of mant[i] becomes bit i of plane 1 + (m - 1 - b) and sign[i]
/// bit i of plane 0. Members are taken 8 at a time into byte lanes
/// (low and high mantissa bytes separately), and each plane byte is
/// one masked multiply-gather.
void
anda_mantissas_to_planes(const std::uint32_t *mant,
                         const std::uint8_t *sign, int m,
                         std::uint64_t *planes)
{
    for (int k = 0; k < 8; ++k) {
        const int sh = 8 * k;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        std::uint64_t sg = 0;
        for (int j = 0; j < 8; ++j) {
            const std::uint32_t v = mant[8 * k + j];
            lo |= static_cast<std::uint64_t>(v & 0xff) << (8 * j);
            hi |= static_cast<std::uint64_t>((v >> 8) & 0xff) << (8 * j);
            sg |= static_cast<std::uint64_t>(sign[8 * k + j] & 1)
                  << (8 * j);
        }
        planes[0] |= ((sg * kLaneGather) >> 56) << sh;
        for (int b = 0; b < m; ++b) {
            const std::uint64_t lanes = b < 8 ? lo >> b : hi >> (b - 8);
            planes[1 + (m - 1 - b)] |=
                (((lanes & kLaneLsb) * kLaneGather) >> 56) << sh;
        }
    }
}

void
pack_bfp(const KvFormat &fmt, std::span<const float> row,
         std::span<std::byte> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    const int w = 1 + m;
    const std::size_t gs = static_cast<std::size_t>(fmt.group_size);
    GroupScratch scratch(gs);
    std::size_t off = 0;
    for (std::size_t base = 0; base < row.size(); base += gs) {
        const std::size_t len = std::min(gs, row.size() - base);
        const std::uint8_t exp = quantize_group(
            row.subspan(base, len), m, fmt.round_nearest, scratch.h,
            scratch.mant, scratch.sign);
        out[off] = static_cast<std::byte>(exp);
        std::byte *bits = out.data() + off + 1;
        if (serial) {
            // Bit-serial emission: one field bit per step, LSB first
            // (bit 0 = sign, bits 1..m = mantissa).
            std::size_t bitpos = 0;
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint32_t field =
                    (scratch.mant[i] << 1) | scratch.sign[i];
                for (int b = 0; b < w; ++b, ++bitpos) {
                    const std::uint8_t bit = (field >> b) & 1;
                    bits[bitpos / 8] |= static_cast<std::byte>(
                        bit << (bitpos % 8));
                }
            }
        } else {
            // Word-level fast path: a 64-bit accumulator flushes
            // whole bytes (w <= 17, so it never overflows between
            // flushes).
            std::uint64_t acc = 0;
            int nbits = 0;
            std::size_t byte = 0;
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint64_t field =
                    (static_cast<std::uint64_t>(scratch.mant[i]) << 1) |
                    scratch.sign[i];
                acc |= field << nbits;
                nbits += w;
                while (nbits >= 8) {
                    bits[byte++] =
                        static_cast<std::byte>(acc & 0xff);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if (nbits > 0) {
                bits[byte++] = static_cast<std::byte>(acc & 0xff);
            }
        }
        off += bfp_group_bytes(len, m);
    }
    ANDA_DCHECK_EQ(off, out.size(), "BFP KV row size mismatch");
}

void
unpack_bfp(const KvFormat &fmt, std::span<const std::byte> in,
           std::span<float> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    const int w = 1 + m;
    const std::size_t gs = static_cast<std::size_t>(fmt.group_size);
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const float scale = bfp_group_scale(exp, m);
        const std::byte *bits = in.data() + off + 1;
        if (serial) {
            std::size_t bitpos = 0;
            for (std::size_t i = 0; i < len; ++i) {
                std::uint32_t field = 0;
                for (int b = 0; b < w; ++b, ++bitpos) {
                    const std::uint32_t bit =
                        (std::to_integer<std::uint32_t>(
                             bits[bitpos / 8]) >>
                         (bitpos % 8)) &
                        1;
                    field |= bit << b;
                }
                const float mag =
                    static_cast<float>(field >> 1) * scale;
                out[base + i] = (field & 1) ? -mag : mag;
            }
        } else {
            std::uint64_t acc = 0;
            int nbits = 0;
            std::size_t byte = 0;
            const std::uint64_t mask =
                (std::uint64_t{1} << w) - 1;
            for (std::size_t i = 0; i < len; ++i) {
                while (nbits < w) {
                    acc |= static_cast<std::uint64_t>(
                               std::to_integer<std::uint8_t>(
                                   bits[byte++]))
                           << nbits;
                    nbits += 8;
                }
                const std::uint64_t field = acc & mask;
                acc >>= w;
                nbits -= w;
                const float mag =
                    static_cast<float>(field >> 1) * scale;
                out[base + i] = bfp_apply_sign(
                    mag, static_cast<std::uint32_t>(field & 1));
            }
        }
        off += bfp_group_bytes(len, m);
    }
}

void
pack_anda(const KvFormat &fmt, std::span<const float> row,
          std::span<std::byte> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    constexpr std::size_t gs = kAndaGroupSize;
    GroupScratch scratch(gs);
    std::size_t off = 0;
    for (std::size_t base = 0; base < row.size(); base += gs) {
        const std::size_t len = std::min(gs, row.size() - base);
        const std::uint8_t exp = quantize_group(
            row.subspan(base, len), m, fmt.round_nearest, scratch.h,
            scratch.mant, scratch.sign);
        out[off] = static_cast<std::byte>(exp);
        std::uint64_t planes[1 + kAndaMaxMantissa] = {};
        if (serial) {
            // Plane-by-plane, one member bit per step — the order the
            // bit-serial APU consumes them (plane p holds mantissa
            // bit m-1-p, matching format/anda_tensor.h).
            for (std::size_t i = 0; i < len; ++i) {
                planes[0] |= static_cast<std::uint64_t>(
                                 scratch.sign[i] & 1)
                             << i;
            }
            for (int p = 0; p < m; ++p) {
                for (std::size_t i = 0; i < len; ++i) {
                    planes[1 + p] |=
                        static_cast<std::uint64_t>(
                            (scratch.mant[i] >> (m - 1 - p)) & 1)
                        << i;
                }
            }
        } else {
            // Word-level fast path: a trailing partial group's padding
            // members are zero (exact in BFP), then all 64 members go
            // through the lane -> plane transpose.
            std::fill(scratch.mant + len, scratch.mant + gs, 0u);
            std::fill(scratch.sign + len, scratch.sign + gs,
                      std::uint8_t{0});
            anda_mantissas_to_planes(scratch.mant, scratch.sign, m,
                                     planes);
        }
        for (int p = 0; p < 1 + m; ++p) {
            store_u64_le(planes[p], out.data() + off + 1 + 8 * p);
        }
        off += anda_group_bytes(m);
    }
    ANDA_DCHECK_EQ(off, out.size(), "Anda KV row size mismatch");
}

void
unpack_anda(const KvFormat &fmt, std::span<const std::byte> in,
            std::span<float> out, bool serial)
{
    const int m = fmt.mantissa_bits;
    constexpr std::size_t gs = kAndaGroupSize;
    std::size_t off = 0;
    for (std::size_t base = 0; base < out.size(); base += gs) {
        const std::size_t len = std::min(gs, out.size() - base);
        const int exp = std::to_integer<int>(in[off]);
        const float scale = bfp_group_scale(exp, m);
        const std::byte *body = in.data() + off + 1;
        const std::uint64_t sign_plane = load_u64_le(body);
        if (serial) {
            std::uint32_t mant[gs] = {};
            for (std::size_t i = 0; i < len; ++i) {
                for (int p = 0; p < m; ++p) {
                    const std::uint64_t plane =
                        load_u64_le(body + 8 * (1 + p));
                    mant[i] = (mant[i] << 1) |
                              static_cast<std::uint32_t>(
                                  (plane >> i) & 1);
                }
            }
            for (std::size_t i = 0; i < len; ++i) {
                const float mag = static_cast<float>(mant[i]) * scale;
                out[base + i] = ((sign_plane >> i) & 1) ? -mag : mag;
            }
        } else {
            std::uint64_t planes[kAndaMaxMantissa] = {};
            for (int p = 0; p < m; ++p) {
                planes[p] = load_u64_le(body + 8 * (1 + p));
            }
            std::uint8_t lo[gs] = {};
            std::uint8_t hi[gs] = {};
            std::uint8_t neg[gs] = {};
            anda_planes_to_lanes(planes, m, lo, hi);
            for (int k = 0; k < 8; ++k) {
                store_u64_le(kByteSpread[(sign_plane >> (8 * k)) & 0xff],
                             reinterpret_cast<std::byte *>(neg + 8 * k));
            }
            // Mantissas are below 2^16: exact through int32 -> float.
            for (std::size_t i = 0; i < len; ++i) {
                const auto mant = static_cast<std::int32_t>(
                    (static_cast<std::uint32_t>(hi[i]) << 8) | lo[i]);
                out[base + i] = bfp_apply_sign(
                    static_cast<float>(mant) * scale, neg[i]);
            }
        }
        off += anda_group_bytes(m);
    }
}

void
pack_row(const KvFormat &fmt, std::span<const float> row,
         std::span<std::byte> out, bool serial)
{
    ANDA_DCHECK_EQ(out.size(), kv_row_bytes(fmt, row.size()),
                   "packed KV row span size mismatch");
    if (fmt.quantized()) {
        // Fields and planes are OR-ed into a zeroed row.
        std::fill(out.begin(), out.end(), std::byte{0});
    }
    switch (fmt.kind) {
    case KvKind::kFp32:
        // Raw float bytes, no FP16 rounding: an FP32 row is stored
        // exactly.
        std::memcpy(out.data(), row.data(), 4 * row.size());
        break;
    case KvKind::kBfp:
        pack_bfp(fmt, row, out, serial);
        break;
    case KvKind::kAnda:
        pack_anda(fmt, row, out, serial);
        break;
    }
}

void
unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
           std::span<float> out, bool serial)
{
    ANDA_DCHECK_EQ(in.size(), kv_row_bytes(fmt, out.size()),
                   "packed KV row span size mismatch");
    switch (fmt.kind) {
    case KvKind::kFp32:
        std::memcpy(out.data(), in.data(), 4 * out.size());
        break;
    case KvKind::kBfp:
        unpack_bfp(fmt, in, out, serial);
        break;
    case KvKind::kAnda:
        unpack_anda(fmt, in, out, serial);
        break;
    }
}

}  // namespace

double
KvFormat::bits_per_element() const
{
    switch (kind) {
    case KvKind::kFp32:
        return 32.0;
    case KvKind::kBfp:
        return bfp_bits_per_element({group_size, mantissa_bits});
    case KvKind::kAnda:
        return AndaTensor::bits_per_element(mantissa_bits);
    }
    return 32.0;
}

std::string
KvFormat::name() const
{
    std::string n;
    switch (kind) {
    case KvKind::kFp32:
        return "fp32";
    case KvKind::kBfp:
        n = "bfp-g" + std::to_string(group_size) + "-m" +
            std::to_string(mantissa_bits);
        break;
    case KvKind::kAnda:
        n = "anda-m" + std::to_string(mantissa_bits);
        break;
    }
    if (round_nearest) {
        n += "-rn";
    }
    return n;
}

void
kv_validate(const KvFormat &fmt)
{
    if (fmt.kind == KvKind::kFp32) {
        return;
    }
    ANDA_CHECK(fmt.mantissa_bits >= 1 &&
                   fmt.mantissa_bits <= kAndaMaxMantissa,
               "KV mantissa length out of range");
    ANDA_CHECK_GE(fmt.group_size, 1, "KV group size out of range");
    if (fmt.kind == KvKind::kAnda) {
        ANDA_CHECK_EQ(fmt.group_size, kAndaGroupSize,
                      "Anda KV groups are fixed at 64");
    }
}

std::size_t
kv_row_bytes(const KvFormat &fmt, std::size_t n)
{
    switch (fmt.kind) {
    case KvKind::kFp32:
        return 4 * n;
    case KvKind::kBfp: {
        const std::size_t gs =
            static_cast<std::size_t>(fmt.group_size);
        const std::size_t full = n / gs;
        const std::size_t rem = n % gs;
        std::size_t bytes = full * bfp_group_bytes(gs, fmt.mantissa_bits);
        if (rem != 0) {
            bytes += bfp_group_bytes(rem, fmt.mantissa_bits);
        }
        return bytes;
    }
    case KvKind::kAnda:
        return ((n + kAndaGroupSize - 1) / kAndaGroupSize) *
               anda_group_bytes(fmt.mantissa_bits);
    }
    return 4 * n;
}

void
kv_pack_row(const KvFormat &fmt, std::span<const float> row,
            std::span<std::byte> out)
{
    pack_row(fmt, row, out, /*serial=*/false);
}

void
kv_unpack_row(const KvFormat &fmt, std::span<const std::byte> in,
              std::span<float> out)
{
    unpack_row(fmt, in, out, /*serial=*/false);
}

void
kv_pack_row_serial(const KvFormat &fmt, std::span<const float> row,
                   std::span<std::byte> out)
{
    pack_row(fmt, row, out, /*serial=*/true);
}

void
kv_unpack_row_serial(const KvFormat &fmt, std::span<const std::byte> in,
                     std::span<float> out)
{
    unpack_row(fmt, in, out, /*serial=*/true);
}

std::vector<float>
kv_roundtrip(const KvFormat &fmt, std::span<const float> row)
{
    std::vector<std::byte> packed(kv_row_bytes(fmt, row.size()));
    kv_pack_row(fmt, row, packed);
    std::vector<float> out(row.size());
    kv_unpack_row(fmt, packed, out);
    return out;
}

}  // namespace anda
