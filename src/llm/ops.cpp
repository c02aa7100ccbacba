#include "llm/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace anda {

void
layer_norm(std::span<const float> x, std::span<const float> gain,
           std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sum = 0.0;
    for (float v : x) {
        sum += v;
    }
    const double m = sum / static_cast<double>(x.size());
    double var = 0.0;
    for (float v : x) {
        var += (v - m) * (v - m);
    }
    var /= static_cast<double>(x.size());
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = (x[i] - static_cast<float>(m)) * inv * gain[i];
    }
}

void
rms_norm(std::span<const float> x, std::span<const float> gain,
         std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sq = 0.0;
    for (float v : x) {
        sq += static_cast<double>(v) * v;
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(
                                           sq / static_cast<double>(
                                                    x.size())) +
                                       eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = x[i] * inv * gain[i];
    }
}

void
softmax_inplace(std::span<float> x)
{
    if (x.empty()) {
        return;
    }
    float mx = x[0];
    for (float v : x) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float &v : x) {
        v = std::exp(v - mx);
        sum += v;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (float &v : x) {
        v *= inv;
    }
}

float
silu(float x)
{
    return x / (1.0f + std::exp(-x));
}

namespace {

/// The rotation angle of pair i of a head_dim-wide head at `pos`.
inline double
rope_angle(double pos, std::size_t i, std::size_t head_dim)
{
    const double freq =
        std::pow(10000.0, -2.0 * static_cast<double>(i) /
                              static_cast<double>(head_dim));
    return pos * freq;
}

/// Rotates pair (head[i], head[i + half]) by (c, s).
inline void
rope_rotate(std::span<float> head, std::size_t i, std::size_t half,
            float c, float s)
{
    const float a = head[i];
    const float b = head[i + half];
    head[i] = a * c - b * s;
    head[i + half] = a * s + b * c;
}

}  // namespace

void
rope_inplace(std::span<float> head, int pos)
{
    ANDA_DCHECK_EQ(head.size() % 2, 0u,
                   "RoPE head dimension must be even");
    const std::size_t half = head.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        const double angle =
            rope_angle(static_cast<double>(pos), i, head.size());
        rope_rotate(head, i, half, static_cast<float>(std::cos(angle)),
                    static_cast<float>(std::sin(angle)));
    }
}

RopeTable::RopeTable(std::size_t head_dim, std::size_t max_pos)
    : half_(head_dim / 2), cos_(max_pos * half_), sin_(max_pos * half_)
{
    ANDA_CHECK_EQ(head_dim % 2, 0u, "RoPE head dimension must be even");
    for (std::size_t pos = 0; pos < max_pos; ++pos) {
        for (std::size_t i = 0; i < half_; ++i) {
            const double angle =
                rope_angle(static_cast<double>(pos), i, head_dim);
            cos_[pos * half_ + i] = static_cast<float>(std::cos(angle));
            sin_[pos * half_ + i] = static_cast<float>(std::sin(angle));
        }
    }
}

void
RopeTable::apply(std::span<float> head, std::size_t pos) const
{
    ANDA_DCHECK_EQ(head.size(), 2 * half_, "RoPE head width mismatch");
    ANDA_DCHECK_LE((pos + 1) * half_, cos_.size(),
                   "RoPE position outside the table");
    const float *c = cos_.data() + pos * half_;
    const float *s = sin_.data() + pos * half_;
    for (std::size_t i = 0; i < half_; ++i) {
        rope_rotate(head, i, half_, c[i], s[i]);
    }
}

void
causal_attention_head(const Matrix &q, const Matrix &k, const Matrix &v,
                      std::size_t kv_len, std::size_t q_offset,
                      Matrix &out)
{
    ANDA_DCHECK(q.cols() == k.cols() && k.cols() == v.cols(),
                "attention head dims must agree");
    ANDA_DCHECK_LE(kv_len, k.rows());
    ANDA_DCHECK(out.rows() == q.rows() && out.cols() == v.cols(),
                "attention output shape mismatch");
    const float scale =
        1.0f / std::sqrt(static_cast<float>(q.cols()));
    std::vector<float> scores(kv_len);
    for (std::size_t i = 0; i < q.rows(); ++i) {
        const std::size_t visible =
            std::min(kv_len, q_offset + i + 1);
        for (std::size_t j = 0; j < visible; ++j) {
            float s = 0.0f;
            for (std::size_t c = 0; c < q.cols(); ++c) {
                s += q(i, c) * k(j, c);
            }
            scores[j] = s * scale;
        }
        std::span<float> row(scores.data(), visible);
        softmax_inplace(row);
        for (std::size_t c = 0; c < v.cols(); ++c) {
            float acc = 0.0f;
            for (std::size_t j = 0; j < visible; ++j) {
                acc += scores[j] * v(j, c);
            }
            out(i, c) = acc;
        }
    }
}

#if defined(__GNUC__)  // GCC and Clang
/// Sixteen float lanes (GCC/Clang vector extension; lowers to whatever
/// the baseline ISA offers, four SSE registers on x86-64).
using Vec16 = float __attribute__((vector_size(64)));
#endif

void
causal_attention_view(std::span<const float *const> q,
                      std::span<const float *const> k,
                      std::span<const float *const> v,
                      std::span<float *const> out, std::size_t col,
                      std::size_t head_dim, std::size_t q_offset,
                      std::vector<float> &scratch)
{
    ANDA_DCHECK(q.size() == out.size() && k.size() == v.size(),
                "attention view row counts must agree");
    constexpr std::size_t kLanes = 16;
    const std::size_t kv_len = k.size();
#if defined(__GNUC__)
    const std::size_t key_blocks = kv_len / kLanes;
#else
    const std::size_t key_blocks = 0;
#endif
    const float scale =
        1.0f / std::sqrt(static_cast<float>(head_dim));
    const std::size_t kt_len = key_blocks * head_dim * kLanes;
    if (scratch.size() < kv_len + head_dim + kt_len) {
        scratch.resize(kv_len + head_dim + kt_len);
    }
    float *scores = scratch.data();
    float *acc = scores + kv_len;
    // Full blocks of 16 keys, transposed once per call: column c of
    // key 16 * b + l sits at kt[(b * head_dim + c) * 16 + l].
    float *kt = acc + head_dim;
    for (std::size_t b = 0; b < key_blocks; ++b) {
        float *block = kt + b * head_dim * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
            const float *kj = k[b * kLanes + l] + col;
            for (std::size_t c = 0; c < head_dim; ++c) {
                block[c * kLanes + l] = kj[c];
            }
        }
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
        const std::size_t visible =
            std::min(kv_len, q_offset + i + 1);
        const float *qi = q[i] + col;
        std::size_t j = 0;
#if defined(__GNUC__)
        // 16 keys per vector: lane l runs the reference's own
        // s += q[c] * k[j + l][c] chain in c order.
        for (; j + kLanes <= visible; j += kLanes) {
            const float *block = kt + (j / kLanes) * head_dim * kLanes;
            Vec16 s = {};
            for (std::size_t c = 0; c < head_dim; ++c) {
                Vec16 kc = {};
                std::memcpy(&kc, block + c * kLanes, sizeof kc);
                s += qi[c] * kc;
            }
            s *= scale;
            std::memcpy(scores + j, &s, sizeof s);
        }
#endif
        for (; j < visible; ++j) {
            const float *kj = k[j] + col;
            float s = 0.0f;
            for (std::size_t c = 0; c < head_dim; ++c) {
                s += qi[c] * kj[c];
            }
            scores[j] = s * scale;
        }
        softmax_inplace(std::span<float>(scores, visible));
        // Each output column sums scores[j] * v[j] over j in order, as
        // the reference does, but row by row over contiguous V.
        std::fill(acc, acc + head_dim, 0.0f);
        for (j = 0; j < visible; ++j) {
            const float p = scores[j];
            const float *vj = v[j] + col;
            for (std::size_t c = 0; c < head_dim; ++c) {
                acc[c] += p * vj[c];
            }
        }
        std::copy(acc, acc + head_dim, out[i] + col);
    }
}

double
log_prob_of(std::span<const float> logits, int target)
{
    ANDA_DCHECK(target >= 0 &&
                    static_cast<std::size_t>(target) < logits.size(),
                "target token outside the vocabulary");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float v : logits) {
        sum += std::exp(static_cast<double>(v) - mx);
    }
    return static_cast<double>(logits[static_cast<std::size_t>(target)]) -
           mx - std::log(sum);
}

int
sample_from_logits(std::span<const float> logits, double temperature,
                   double u)
{
    ANDA_CHECK(!logits.empty(), "cannot sample from empty logits");
    ANDA_CHECK_GT(temperature, 0.0,
                  "sampling temperature must be positive");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    std::vector<double> probs(logits.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        probs[i] = std::exp((static_cast<double>(logits[i]) - mx) /
                            temperature);
        sum += probs[i];
    }
    double acc = 0.0;
    const double threshold = u * sum;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        if (acc >= threshold) {
            return static_cast<int>(i);
        }
    }
    return static_cast<int>(probs.size() - 1);
}

}  // namespace anda
