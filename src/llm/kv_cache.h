#pragma once

/// @file
/// Per-sequence key/value caches for incremental decode.
///
/// KvRows is the one row store every cache layout keeps its K/V rows
/// in: packed rows of kv_row_bytes(fmt, d_model) bytes, whatever the
/// KvFormat (FP32 is simply the widest one). KvSeq is the interface
/// the transformer decodes against: one cached sequence exposing
/// committed length, growth, and row-level K/V access per layer. Two
/// layouts implement it — the slab KvCache below (one KvRows per
/// sequence, grown geometrically) and the paged PagedKvCache
/// (llm/kv_pages.h; fixed pages of a pool's shared KvRows, prefix
/// sharing, preemption support). Because the transformer only ever
/// reads and writes single rows, decode is bit-identical across
/// layouts. A BatchKvCache is a non-owning view packing B independent
/// sequences so one ragged decode step (one new token per sequence,
/// heterogeneous cache lengths) can run through the same fused GeMM
/// taps as prefill — see Transformer::decode_step.

#include <cstddef>
#include <span>
#include <vector>

#include "format/kv_format.h"

namespace anda {

/// Packed K/V rows in one KvFormat: per layer, `rows()` records, where
/// record r is row r's K bytes followed by its V bytes
/// (kv_row_bytes(fmt, d_model) each). A row's whole cached state is
/// therefore one contiguous byte run — the unit swap and
/// copy-on-extend move, as bytes. Values enter only through
/// kv_pack_row and leave only through kv_unpack_row, except that the
/// storage is float-typed and handed out as byte views, so an FP32
/// row's floats stay addressable in place (float_row): attention
/// reads FP32 caches through row pointers, with no copy.
class KvRows {
  public:
    /// Which tensor of a cached row.
    enum Tensor : std::size_t { kK = 0, kV = 1 };

    KvRows(std::size_t n_layers, std::size_t d_model, KvFormat fmt,
           std::size_t rows = 0);

    std::size_t n_layers() const { return layers_.size(); }
    std::size_t d_model() const { return d_model_; }
    const KvFormat &format() const { return fmt_; }
    /// Packed bytes of one K or V row.
    std::size_t row_bytes() const { return row_bytes_; }
    /// Records per layer.
    std::size_t rows() const { return rows_; }

    /// Resizes every layer to `rows` records, preserving the leading
    /// ones (records are fixed-width, so they stay in place).
    void resize(std::size_t rows);

    /// Packs `in` (d_model floats) into tensor `t` of record `row`.
    void store(Tensor t, std::size_t layer, std::size_t row,
               std::span<const float> in);
    /// Unpacks tensor `t` of record `row` into `out` (d_model floats).
    void load(Tensor t, std::size_t layer, std::size_t row,
              std::span<float> out) const;
    /// In-place float view of tensor `t` of record `row`. FP32 only:
    /// throws anda::CheckError on a quantized format, whose rows have
    /// no float image.
    std::span<const float> float_row(Tensor t, std::size_t layer,
                                     std::size_t row) const;

    /// Bytes of records [row, row + n) of one layer.
    std::span<std::byte> records(std::size_t layer, std::size_t row,
                                 std::size_t n = 1);
    std::span<const std::byte> records(std::size_t layer,
                                       std::size_t row,
                                       std::size_t n = 1) const;

  private:
    std::size_t d_model_ = 0;
    KvFormat fmt_;
    std::size_t row_bytes_ = 0;
    std::size_t rows_ = 0;
    std::vector<std::vector<float>> layers_;
};

/// One cached sequence: committed K/V rows across all layers, with
/// row-level access so the attention gather and the append path do not
/// depend on the physical layout (contiguous slab or paged).
///
/// Rows are stored in the cache's KvFormat: store() packs a float row
/// at write time (quantize-on-append), load() unpacks it back to
/// float32 (dequantize-on-attend). Because quantization happens at
/// the single store of each row, every read — including same-step
/// reads of freshly appended rows — observes the same values, so
/// decode remains invariant to prefill chunking and to the
/// slab/paged layout choice for every format, not just FP32.
class KvSeq {
  public:
    virtual ~KvSeq() = default;

    virtual std::size_t n_layers() const = 0;
    virtual std::size_t d_model() const = 0;
    virtual std::size_t max_seq() const = 0;

    /// Storage format of the cached rows.
    virtual const KvFormat &format() const = 0;

    /// Committed (cached) tokens.
    virtual std::size_t length() const = 0;

    /// Grows storage so at least `rows` cached rows fit, preserving
    /// the committed prefix; called immediately before appending rows
    /// [length(), rows). Throws std::invalid_argument when rows
    /// exceeds max_seq (paged layouts additionally throw
    /// std::runtime_error when the backing pool is exhausted).
    virtual void reserve(std::size_t rows) = 0;

    /// Commits `n` rows appended past length() via store(). The rows
    /// must already fit (reserve first).
    virtual void advance(std::size_t n) = 0;

    /// Packs `row` (d_model floats) into row `pos` of the layer's K or
    /// V block in the cache's format. Rows [0, length()) are
    /// committed; rows past length() are scratch for the step in
    /// flight (up to the reserved capacity). In FP32 this stores the
    /// raw float bytes.
    virtual void store(KvRows::Tensor t, std::size_t layer,
                       std::size_t pos, std::span<const float> row) = 0;

    /// Unpacks row `pos` back to float32 into `out` (d_model floats) —
    /// the values attention computes on.
    virtual void load(KvRows::Tensor t, std::size_t layer,
                      std::size_t pos, std::span<float> out) const = 0;

    /// In-place float view of row `pos` — FP32 caches only (throws on
    /// a quantized cache). Quantization-agnostic callers use load().
    virtual std::span<const float> float_row(KvRows::Tensor t,
                                             std::size_t layer,
                                             std::size_t pos) const = 0;
};

/// Slab layout: one KvRows of capacity() rows per layer, of which the
/// first length() are committed. Storage grows geometrically on demand
/// from the actual prefix length (a cache never eagerly reserves
/// max_seq rows — with max_batch concurrent sequences that would be
/// prohibitive), and the committed length / allocated capacity are
/// first-class accounting the serving scheduler reads as state.
class KvCache final : public KvSeq {
  public:
    /// An empty cache for a model with `n_layers` layers, head
    /// dimension summing to `d_model`, and a hard `max_seq` row bound,
    /// storing rows in `fmt`. Allocates nothing until reserve() is
    /// called.
    KvCache(std::size_t n_layers, std::size_t d_model,
            std::size_t max_seq, KvFormat fmt = KvFormat::fp32());

    std::size_t n_layers() const override { return rows_.n_layers(); }
    std::size_t d_model() const override { return rows_.d_model(); }
    std::size_t max_seq() const override { return max_seq_; }
    std::size_t length() const override { return length_; }
    const KvFormat &format() const override { return rows_.format(); }

    /// Allocated rows per layer (>= length()).
    std::size_t capacity() const { return rows_.rows(); }
    /// Packed bytes of one K or V row in this cache's format.
    std::size_t row_bytes() const { return rows_.row_bytes(); }
    /// Physically allocated bytes across all layers (K and V) — what
    /// a byte budget is charged.
    std::size_t allocated_bytes() const
    {
        return 2 * n_layers() * capacity() * row_bytes();
    }

    /// Growth is geometric (capacity at least doubles) so a decode
    /// loop performs O(log max_seq) copies.
    void reserve(std::size_t rows) override;
    void advance(std::size_t n) override;

    void store(KvRows::Tensor t, std::size_t layer, std::size_t pos,
               std::span<const float> row) override
    {
        rows_.store(t, layer, pos, row);
    }
    void load(KvRows::Tensor t, std::size_t layer, std::size_t pos,
              std::span<float> out) const override
    {
        rows_.load(t, layer, pos, out);
    }
    std::span<const float> float_row(KvRows::Tensor t,
                                     std::size_t layer,
                                     std::size_t pos) const override
    {
        return rows_.float_row(t, layer, pos);
    }

  private:
    std::size_t max_seq_ = 0;
    std::size_t length_ = 0;
    KvRows rows_;
};

/// Non-owning view packing B independent per-sequence caches into one
/// ragged decode batch. Sequence i of the packed activation matrix
/// reads and extends seq(i); the caches must outlive the view, and
/// must be distinct objects (add() throws on a duplicate — two slots
/// writing one cache would silently corrupt it). Slab and paged
/// sequences may mix freely within one batch.
class BatchKvCache {
  public:
    BatchKvCache() = default;

    void add(KvSeq &cache);

    std::size_t size() const { return caches_.size(); }
    bool empty() const { return caches_.empty(); }

    KvSeq &seq(std::size_t i) { return *caches_[i]; }
    const KvSeq &seq(std::size_t i) const { return *caches_[i]; }

  private:
    std::vector<KvSeq *> caches_;
};

}  // namespace anda
