#include "llm/kv_cache.h"

#include <algorithm>

#include "common/check.h"

namespace anda {

namespace {

/// First non-trivial allocation: small enough that a short prompt
/// stays cheap, large enough that tiny prompts don't immediately
/// regrow.
constexpr std::size_t kMinCapacity = 16;

}  // namespace

KvRows::KvRows(std::size_t n_layers, std::size_t d_model, KvFormat fmt,
               std::size_t rows)
    : d_model_(d_model),
      fmt_(fmt),
      row_bytes_(kv_row_bytes(fmt, d_model)),
      layers_(n_layers)
{
    kv_validate(fmt_);
    resize(rows);
}

void
KvRows::resize(std::size_t rows)
{
    // Whole floats per layer, rounded up: a quantized record need not
    // be a multiple of four bytes.
    const std::size_t floats = (2 * rows * row_bytes_ + 3) / 4;
    for (std::vector<float> &layer : layers_) {
        layer.resize(floats);
    }
    rows_ = rows;
}

void
KvRows::store(Tensor t, std::size_t layer, std::size_t row,
              std::span<const float> in)
{
    kv_pack_row(fmt_, in, records(layer, row).subspan(t * row_bytes_,
                                                      row_bytes_));
}

void
KvRows::load(Tensor t, std::size_t layer, std::size_t row,
             std::span<float> out) const
{
    kv_unpack_row(fmt_, records(layer, row).subspan(t * row_bytes_,
                                                    row_bytes_),
                  out);
}

std::span<const float>
KvRows::float_row(Tensor t, std::size_t layer, std::size_t row) const
{
    ANDA_CHECK(!fmt_.quantized(), "KvRows: float view of a quantized row");
    ANDA_DCHECK_LT(row, rows_, "KvRows: row out of range");
    // An FP32 record is 2 * d_model floats, K then V.
    return {layers_[layer].data() + (2 * row + t) * d_model_, d_model_};
}

std::span<std::byte>
KvRows::records(std::size_t layer, std::size_t row, std::size_t n)
{
    ANDA_DCHECK_LE(row + n, rows_, "KvRows: records out of range");
    return {reinterpret_cast<std::byte *>(layers_[layer].data()) +
                2 * row * row_bytes_,
            2 * n * row_bytes_};
}

std::span<const std::byte>
KvRows::records(std::size_t layer, std::size_t row, std::size_t n) const
{
    ANDA_DCHECK_LE(row + n, rows_, "KvRows: records out of range");
    return {reinterpret_cast<const std::byte *>(layers_[layer].data()) +
                2 * row * row_bytes_,
            2 * n * row_bytes_};
}

KvCache::KvCache(std::size_t n_layers, std::size_t d_model,
                 std::size_t max_seq, KvFormat fmt)
    : max_seq_(max_seq), rows_(n_layers, d_model, fmt)
{
    ANDA_CHECK(n_layers > 0 && d_model > 0 && max_seq > 0,
               "degenerate KvCache dimensions");
}

void
KvCache::reserve(std::size_t rows)
{
    ANDA_CHECK_LE(rows, max_seq_, "KvCache: sequence exceeds max_seq");
    if (rows <= capacity()) {
        return;
    }
    const std::size_t grown =
        std::max({rows, 2 * capacity(), kMinCapacity});
    rows_.resize(std::min(grown, max_seq_));
}

void
KvCache::advance(std::size_t n)
{
    ANDA_CHECK_LE(length_ + n, capacity(),
                  "KvCache: advance past allocated capacity");
    length_ += n;
}

void
BatchKvCache::add(KvSeq &cache)
{
    for (const KvSeq *c : caches_) {
        ANDA_CHECK(c != &cache, "BatchKvCache: duplicate cache in batch");
    }
    caches_.push_back(&cache);
}

}  // namespace anda
