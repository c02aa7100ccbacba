#pragma once

/// @file
/// Elementwise / normalization / attention primitives of the
/// transformer substrate. Non-GeMM operations run in float32 and are
/// rounded through FP16 at module boundaries, matching the paper's
/// deployment assumption (only the four FP-INT GeMMs change format).

#include <span>
#include <vector>

#include "common/matrix.h"

namespace anda {

/// LayerNorm over the last dimension with per-channel gain (bias-free).
void layer_norm(std::span<const float> x, std::span<const float> gain,
                std::span<float> out, float eps = 1e-5f);

/// RMSNorm over the last dimension with per-channel gain.
void rms_norm(std::span<const float> x, std::span<const float> gain,
              std::span<float> out, float eps = 1e-5f);

/// In-place numerically-stable softmax.
void softmax_inplace(std::span<float> x);

/// ReLU.
inline float relu(float x) { return x > 0.0f ? x : 0.0f; }

/// SiLU (x * sigmoid(x)).
float silu(float x);

/// Applies rotary position embedding to one head vector (dim must be
/// even); `pos` is the absolute token position. Evaluates pow/cos/sin
/// per element: the reference for RopeTable.
void rope_inplace(std::span<float> head, int pos);

/// The RoPE rotations of positions [0, max_pos) for one head width,
/// evaluated once with rope_inplace's expressions: apply() is
/// bit-identical to rope_inplace at every covered position.
class RopeTable {
  public:
    RopeTable() = default;
    RopeTable(std::size_t head_dim, std::size_t max_pos);

    /// Rotates one head_dim-wide head vector to position `pos`.
    void apply(std::span<float> head, std::size_t pos) const;

  private:
    std::size_t half_ = 0;
    std::vector<float> cos_;  ///< [max_pos x head_dim / 2]
    std::vector<float> sin_;  ///< [max_pos x head_dim / 2]
};

/// Causal single-head attention: q, k, v are [t x head_dim] for one
/// head; writes the context into out (same shape). `kv_len` rows of
/// k/v are valid; query row i attends to keys [0, q_offset + i].
/// The copied-head reference for causal_attention_view.
void causal_attention_head(const Matrix &q, const Matrix &k,
                           const Matrix &v, std::size_t kv_len,
                           std::size_t q_offset, Matrix &out);

/// Causal single-head attention on heads seen in place: row t of the
/// head is the `head_dim` floats at rows[t] + col, a column slice of a
/// projection block or of a cached K/V row, so no head is copied out.
/// q and out hold one row per query, k and v one per key (kv_len =
/// k.size()); query row i attends to keys [0, q_offset + i]. `scratch`
/// is grown as needed and reused across calls; it also holds the
/// head's K, transposed once per call in blocks of 16 keys, so scores
/// are computed 16 keys per vector, each lane running the reference's
/// own q[c] * k[j][c] chain in c order (keys past the last full block
/// take the scalar loop). Bit-identical to causal_attention_head on
/// the copied heads.
void causal_attention_view(std::span<const float *const> q,
                           std::span<const float *const> k,
                           std::span<const float *const> v,
                           std::span<float *const> out, std::size_t col,
                           std::size_t head_dim, std::size_t q_offset,
                           std::vector<float> &scratch);

/// Log-softmax of one row returned as the log-probability of `target`.
double log_prob_of(std::span<const float> logits, int target);

/// Samples from softmax(logits / temperature) with the given uniform
/// random draw u in [0, 1).
int sample_from_logits(std::span<const float> logits, double temperature,
                       double u);

}  // namespace anda
