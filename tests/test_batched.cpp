// Bit-exactness of the batched evaluation pipeline: batch_nll /
// forward_logits_batched vs the per-sequence path across activation
// formats and batch sizes, streaming-NLL vs materialized logits, and
// perplexity invariance to batch size and thread count; FNV pins of the
// executor's output bits (NLL, logits, decode logits).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "llm/corpus.h"
#include "llm/kv_cache.h"
#include "llm/ops.h"
#include "llm/transformer.h"

namespace anda {
namespace {

class BatchedTest : public ::testing::Test {
  protected:
    static const Transformer &model()
    {
        static const Transformer m(find_model("llama-7b"));
        return m;
    }

    /// Deterministic distinct token sequences of one length.
    static std::vector<std::vector<int>> sequences(std::size_t count,
                                                   std::size_t len)
    {
        const int vocab = model().dims().vocab;
        std::vector<std::vector<int>> seqs(count);
        for (std::size_t s = 0; s < count; ++s) {
            seqs[s].resize(len);
            for (std::size_t t = 0; t < len; ++t) {
                seqs[s][t] = static_cast<int>(
                    (s * 131 + t * 17 + 3) % static_cast<std::size_t>(
                                                 vocab));
            }
        }
        return seqs;
    }

    static std::vector<RunOptions> tap_formats()
    {
        RunOptions fp16;  // The W4A16 baseline.
        RunOptions fp_weights;
        fp_weights.quantized_weights = false;
        RunOptions bfp;
        bfp.prec = PrecisionConfig::uniform_bfp(64, 5);
        RunOptions anda_tuple;
        anda_tuple.prec = PrecisionConfig::anda({8, 7, 6, 5});
        return {fp16, fp_weights, bfp, anda_tuple};
    }
};

TEST_F(BatchedTest, BatchNllMatchesSequentialBitExactly)
{
    for (const RunOptions &opts : tap_formats()) {
        for (std::size_t b : {1u, 2u, 7u}) {
            const auto seqs = sequences(b, 9);
            const std::vector<double> batched =
                model().batch_nll(seqs, opts);
            ASSERT_EQ(batched.size(), b);
            for (std::size_t s = 0; s < b; ++s) {
                const double single =
                    model().sequence_nll(seqs[s], opts);
                EXPECT_EQ(batched[s], single)
                    << "batch=" << b << " seq=" << s;
            }
        }
    }
}

TEST_F(BatchedTest, ForwardLogitsBatchedMatchesUnbatched)
{
    RunOptions opts;
    const auto seqs = sequences(3, 6);
    const Matrix batched = model().forward_logits_batched(seqs, opts);
    ASSERT_EQ(batched.rows(), 18u);
    for (std::size_t s = 0; s < seqs.size(); ++s) {
        const Matrix single = model().forward_logits(seqs[s], opts);
        for (std::size_t t = 0; t < seqs[s].size(); ++t) {
            for (std::size_t v = 0; v < single.cols(); ++v) {
                ASSERT_EQ(batched(s * seqs[s].size() + t, v),
                          single(t, v))
                    << "s=" << s << " t=" << t << " v=" << v;
            }
        }
    }
}

TEST_F(BatchedTest, StreamedNllMatchesMaterializedLogits)
{
    // sequence_nll no longer materializes [T x vocab]; its streamed
    // log-sum-exp must still reproduce the logits-matrix computation
    // bit for bit.
    RunOptions opts;
    const auto seqs = sequences(1, 11);
    const Matrix logits = model().forward_logits(seqs[0], opts);
    double want = 0.0;
    for (std::size_t t = 0; t + 1 < seqs[0].size(); ++t) {
        want -= log_prob_of(logits.row(t), seqs[0][t + 1]);
    }
    EXPECT_EQ(model().sequence_nll(seqs[0], opts), want);
}

TEST_F(BatchedTest, RejectsBadBatches)
{
    RunOptions opts;
    std::vector<std::vector<int>> empty;
    EXPECT_THROW(model().batch_nll(empty, opts),
                 std::invalid_argument);
    // Mixed lengths are legal since the ragged generalization (see
    // tests/test_ragged.cpp); an empty sequence inside a batch is not.
    std::vector<std::vector<int>> with_empty = {{0, 1, 2}, {}};
    EXPECT_THROW(model().batch_nll(with_empty, opts),
                 std::invalid_argument);
    EXPECT_THROW(model().forward_logits_batched(with_empty, opts),
                 std::invalid_argument);
    std::vector<std::vector<int>> short_seqs = {{0}, {1}};
    EXPECT_THROW(model().batch_nll(short_seqs, opts),
                 std::invalid_argument);
    std::vector<std::vector<int>> too_long(
        1, std::vector<int>(
               static_cast<std::size_t>(model().dims().max_seq) + 1,
               0));
    EXPECT_THROW(model().batch_nll(too_long, opts),
                 std::invalid_argument);
    EXPECT_THROW(model().forward_logits_batched(empty, opts),
                 std::invalid_argument);
}

TEST_F(BatchedTest, PerplexityInvariantToBatchAndThreads)
{
    const DatasetSpec spec{"batched-test", 1.0, 515, 6, 10};
    const Corpus val =
        generate_corpus(model(), spec, Split::kValidation);
    RunOptions opts;
    const double reference = perplexity(model(), val, opts);
    for (const EvalOptions eval :
         {EvalOptions{1, 1}, EvalOptions{1, 4}, EvalOptions{1, 6},
          EvalOptions{0, 1}, EvalOptions{0, 2}, EvalOptions{2, 0},
          EvalOptions{0, 0}}) {
        EXPECT_EQ(perplexity(model(), val, opts, eval), reference)
            << "threads=" << eval.threads << " batch=" << eval.batch;
    }
}

TEST_F(BatchedTest, MixedLengthCorpusStillEvaluates)
{
    // The batch partitioner packs mixed lengths into one ragged stack;
    // the result still matches the per-sequence sum.
    Corpus corpus;
    corpus.name = "mixed";
    corpus.sequences = sequences(3, 8);
    const auto longer = sequences(2, 13);
    corpus.sequences.insert(corpus.sequences.end(), longer.begin(),
                            longer.end());
    RunOptions opts;
    double total = 0.0;
    for (const auto &s : corpus.sequences) {
        total += model().sequence_nll(s, opts);
    }
    const double want =
        std::exp(total /
                 static_cast<double>(corpus.predicted_tokens()));
    EXPECT_EQ(perplexity(model(), corpus, opts), want);
    EXPECT_EQ(perplexity(model(), corpus, opts, EvalOptions{1, 4}),
              want);
}

/// FNV-1a over the bit patterns of a run of floats or doubles.
template <typename T>
std::uint64_t
fnv_bits(std::span<const T> values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::byte b : std::as_bytes(values)) {
        h ^= std::to_integer<std::uint64_t>(b);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Deterministic tokens of sequence s at length len.
std::vector<int>
pin_tokens(std::size_t s, std::size_t len, int vocab)
{
    std::vector<int> seq(len);
    for (std::size_t t = 0; t < len; ++t) {
        seq[t] = static_cast<int>((s * 131 + t * 17 + 3) %
                                  static_cast<std::size_t>(vocab));
    }
    return seq;
}

TEST(ExecutorBits, NllLogitsAndDecodeArePinned)
{
    // The executor's outputs, bit for bit: ragged batch_nll (lengths
    // below, at and above one 16-wide block, and max_seq), a
    // full-sequence forward_logits, and one 5-sequence decode_step
    // over ragged cached prefixes. Kernel rewrites (wide GeMM, batched
    // logit head, vector attention) must keep every constant.
    struct Golden {
        const char *model;
        const char *taps;
        std::uint64_t nll;
        std::uint64_t logits;
        std::uint64_t decode;
    };
    const Golden goldens[] = {
        {"opt-125m", "fp16", 0x2d63f9eac38ce640ull,
         0x5bcf3c319797b8b0ull, 0x9c8bd6d3a07bb3a3ull},
        {"opt-125m", "anda", 0xcdc3747ca486033bull,
         0xaf3df631e8390634ull, 0xb45d28a7c68e8478ull},
        {"opt-125m", "bfp", 0x97d736d7a2f931bdull,
         0xbb999f35b97e7962ull, 0x4a82e9649c867a3full},
        {"llama-7b", "fp16", 0x398562771c61ada4ull,
         0xba23b7382b9182afull, 0x2652af9d10eddaecull},
        {"llama-7b", "anda", 0x3ed575640a4fc5caull,
         0xdbc59941deda1c59ull, 0xec81dc21875a9d6full},
        {"llama-7b", "bfp", 0x455cf27fcde6ce59ull,
         0xe1e9bcfabd3f437full, 0xeca2e6a0b405d20eull},
    };
    for (const Golden &g : goldens) {
        const Transformer m(find_model(g.model));
        const int vocab = m.dims().vocab;
        RunOptions opts;
        const std::string taps = g.taps;
        if (taps == "anda") {
            opts.prec = PrecisionConfig::anda({7, 7, 7, 6});
        } else if (taps == "bfp") {
            opts.prec = PrecisionConfig::uniform_bfp(64, 5);
        }

        std::vector<std::vector<int>> batch;
        for (const std::size_t len : {2u, 15u, 16u, 17u, 128u}) {
            batch.push_back(pin_tokens(batch.size(), len, vocab));
        }
        const std::vector<double> nll = m.batch_nll(batch, opts);

        const Matrix logits =
            m.forward_logits(pin_tokens(7, 33, vocab), opts);

        constexpr std::array<std::size_t, 5> kPrefix = {1, 2, 16, 17, 40};
        std::vector<KvCache> caches;
        caches.reserve(kPrefix.size());
        BatchKvCache caches_batch;
        std::vector<int> next;
        for (std::size_t s = 0; s < kPrefix.size(); ++s) {
            const auto seq = pin_tokens(s + 11, kPrefix[s] + 1, vocab);
            caches.push_back(m.make_cache());
            m.prefill(caches.back(),
                      std::span<const int>(seq.data(), kPrefix[s]), opts);
            next.push_back(seq.back());
        }
        for (KvCache &c : caches) {
            caches_batch.add(c);
        }
        const Matrix decoded = m.decode_step(caches_batch, next, opts);

        const std::uint64_t got_nll =
            fnv_bits(std::span<const double>(nll));
        const std::uint64_t got_logits = fnv_bits(logits.flat());
        const std::uint64_t got_decode = fnv_bits(decoded.flat());
        const std::string what = std::string(g.model) + ' ' + g.taps;
        EXPECT_EQ(got_nll, g.nll)
            << what << std::hex << " got 0x" << got_nll;
        EXPECT_EQ(got_logits, g.logits)
            << what << std::hex << " got 0x" << got_logits;
        EXPECT_EQ(got_decode, g.decode)
            << what << std::hex << " got 0x" << got_decode;
    }
}

}  // namespace
}  // namespace anda
