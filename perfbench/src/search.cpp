// precision_search: Algorithm 1 over full-sequence forward passes with
// fake-quantized taps, no KV cache, no pricing. Every pass builds its
// own model (private ModelRegistry) and memoizes into its own in-memory
// ResultCache, so no repeat is served from an earlier one.

#include <sys/stat.h>

#include <cmath>
#include <memory>

#include "common/result_cache.h"
#include "common/rng.h"
#include "llm/corpus.h"
#include "search/harness.h"
#include "serving.h"

namespace perfbench {

using namespace anda;

namespace {

constexpr double kTolerance = 0.01;

/// The calibration data the seed draws: the first standard dataset's
/// recipe sampled under a seed of its own. 128 sequences instead of
/// 16 keep the chosen tuple steady across seeds. At 64, 3 of 40 seeds
/// chose a tuple with a BOPs ratio of 0.39 or less; such tuples pass
/// the ladder's 0.1 req/s rung, which moves sim_max_rate_rps by a
/// whole rung. At 128, the cheapest tuple any of the same 40 seeds
/// chose has a ratio of 0.396.
DatasetSpec
calibration_spec(std::uint64_t seed, bool tiny)
{
    DatasetSpec spec = standard_datasets().front();
    spec.seed = SplitMix64(spec.seed ^ seed).next();
    spec.n_sequences = 128;
    if (tiny) {
        spec.n_sequences = 4;
        spec.seq_len = 32;
    }
    return spec;
}

/// Identity of the on-disk evaluation cache in the working directory
/// (0 when absent): the search must neither create nor change it.
long long
eval_cache_stamp()
{
    struct stat st {};
    if (stat("anda_eval_cache.tsv", &st) != 0) {
        return 0;
    }
    return static_cast<long long>(st.st_mtime) * 1000003LL +
           static_cast<long long>(st.st_size);
}

}  // namespace

Outcome
run_precision_search(const Args &args, Tracer &tracer)
{
    Outcome out;
    const ModelConfig &cfg = bench_model();
    const DatasetSpec dataset = calibration_spec(args.seed, args.tiny);
    const int max_iterations = args.tiny ? 12 : 32;
    const long long cache_stamp = eval_cache_stamp();

    std::vector<double> setup_s;
    std::vector<double> build_s;
    std::vector<double> corpus_s;
    std::shared_ptr<const Transformer> model;
    Corpus corpus;
    SearchResult first;
    std::size_t evaluations = 0;

    const auto pass = [&](int index, bool) {
        ModelRegistry registry;
        const double t0 = now_s();
        std::shared_ptr<const Transformer> pass_model;
        {
            auto span = tracer.span("Transformer");
            pass_model = registry.get(cfg);
        }
        const double t1 = now_s();
        Corpus pass_corpus;
        {
            auto span = tracer.span("generate_corpus");
            pass_corpus =
                generate_corpus(*pass_model, dataset, Split::kCalibration);
        }
        const double t2 = now_s();
        setup_s.push_back(t2 - t0);
        build_s.push_back(t1 - t0);
        corpus_s.push_back(t2 - t1);

        // The harness samples its own calibration corpus and scores
        // the W4A16 baseline lazily, on its first evaluation. Do both
        // before the timer, so the timed search is forward passes
        // with fake-quantized taps only: the baseline is then served
        // from the pass's fresh in-memory cache.
        ResultCache cache("");
        SearchHarness harness(cfg, dataset, &cache, &registry);
        {
            auto span = tracer.span("SearchHarness::baseline_ppl");
            harness.baseline_ppl(Split::kCalibration);
        }
        const std::size_t warm_evaluations = harness.evaluations();
        SearchResult result;
        const double t3 = now_s();
        {
            auto span = tracer.span("SearchHarness::search");
            result = harness.search(kTolerance, max_iterations);
        }
        const double elapsed = now_s() - t3;
        const std::size_t pass_evaluations =
            harness.evaluations() - warm_evaluations;

        out.attempted += 1;
        out.failed += result.best.has_value() ? 0 : 1;
        if (index == 0) {
            first = std::move(result);
            evaluations = pass_evaluations;
            model = std::move(pass_model);
            corpus = std::move(pass_corpus);
        } else {
            out.check(result.best == first.best &&
                          pass_evaluations == evaluations,
                      "search repeats chose different tuples");
        }
        return elapsed;
    };
    const PassTimes times = run_passes(args, tracer, pass);

    out.check(eval_cache_stamp() == cache_stamp,
              "the search read or wrote anda_eval_cache.tsv");
    out.check(first.best.has_value(), "the search chose no tuple");
    const PrecisionTuple chosen = first.best.value_or(kFp16Tuple);

    // Re-evaluate the chosen tuple on the calibration corpus, outside
    // the harness and its cache.
    PrecisionTuple checked = chosen;
    if (args.corrupt == "tuple") {
        checked = {1, 1, 1, 1};
    }
    RunOptions base_opts;
    RunOptions tuple_opts;
    tuple_opts.prec = PrecisionConfig::anda(checked);
    const double t0 = now_s();
    double base_ppl = 0.0;
    double tuple_ppl = 0.0;
    {
        auto span = tracer.span("perplexity");
        base_ppl = perplexity(*model, corpus, base_opts);
    }
    {
        auto span = tracer.span("perplexity");
        tuple_ppl = perplexity(*model, corpus, tuple_opts);
    }
    const double forward_s = now_s() - t0;
    const double accuracy = 1.0 - accuracy_loss(tuple_ppl, base_ppl);
    out.check(std::isfinite(accuracy) && accuracy >= 1.0 - kTolerance,
              "chosen tuple " + to_string(checked) +
                  " re-evaluates below 1 - tolerance (accuracy " +
                  std::to_string(accuracy) + ")");
    out.notes.push_back("chosen_tuple " + to_string(chosen) +
                        " accuracy " + std::to_string(accuracy) +
                        " evaluations " + std::to_string(evaluations));

    const auto scored = static_cast<double>(corpus.predicted_tokens());
    out.notes.push_back(pass_note(times));
    out.set("setup_s", median(setup_s));
    out.set("host_tok_per_s", static_cast<double>(evaluations) * scored /
                                  median(times.untraced));
    serving_verdict(args.seed, args.tiny, chosen, out);

    if (args.trace) {
        const double search_s = median(times.traced);
        out.set("search.search_s", search_s);
        out.set("search.evaluations", static_cast<double>(evaluations));
        out.set("search.iterations", first.iterations_used);
        out.set("search.eval_s_mean",
                search_s / static_cast<double>(evaluations));
        out.set("llm.model_build_s", median(build_s));
        out.set("llm.corpus_s", median(corpus_s));
        out.set("llm.forward_tok_per_s", 2.0 * scored / forward_s);
        const ModuleMacs macs = module_macs_per_token(cfg.sim, cfg.family);
        const double rows = static_cast<double>(
            dataset.n_sequences * dataset.seq_len);
        out.set("kernels.matmul_flops",
                2.0 * macs.total() * rows *
                    static_cast<double>(evaluations) / 1e9);
        set_trace_overhead(times, out);
    }
    return out;
}

}  // namespace perfbench
