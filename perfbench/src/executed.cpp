// executed_serving: an offline burst of short, unshared prompts through
// the continuous-batching scheduler with the executor on, so nearly all
// host time is incremental decode on the sim-dims transformer.

#include <memory>
#include <span>

#include "common/rng.h"
#include "hw/accelerator.h"
#include "hw/tech.h"
#include "llm/transformer.h"
#include "serving.h"

namespace perfbench {

using namespace anda;

namespace {

// A model build takes ~40 ms: repeat it so setup_s has enough samples.
constexpr int kSetupRepeats = 3;

std::vector<Request>
burst(std::uint64_t seed, bool tiny, Tracer &tracer)
{
    RequestStreamSpec spec;
    spec.seed = seed;
    spec.n_requests = tiny ? 8 : 128;
    spec.arrival_rate = 0.0;  // Every request arrives at t = 0.
    // prompt + output - 1 stays within the sim max_seq of 128.
    spec.prompt_min = 8;
    spec.prompt_max = 48;
    spec.output_min = 16;
    spec.output_max = 64;
    auto span = tracer.span("generate_requests");
    return generate_requests(spec);
}

ServingOptions
burst_options(const Transformer *executor, std::uint64_t seed)
{
    ServingOptions opts;
    opts.max_batch = 16;
    opts.max_step_tokens = 64;
    opts.tuple = kAndaTuple;
    opts.cache_policy = CachePolicy::kPaged;
    opts.page_size = 16;
    // 40 pages hold ~10 of the 16 batch slots' worst-case footprints,
    // so decode growth swaps requests out.
    opts.page_budget = 40;
    opts.preempt = PreemptPolicy::kSwap;
    opts.swap_gbps = 16.0;
    opts.attn_pricing = true;
    opts.kv_format = KvFormat::anda(7);
    opts.executor = executor;
    opts.exec_run.prec = PrecisionConfig::anda(kAndaTuple);
    opts.exec_seed = seed;
    return opts;
}

double
executed_rows(const ServingReport &report)
{
    double rows = 0.0;
    for (const ServingStep &s : report.steps) {
        rows += static_cast<double>(s.prefill_tokens + s.decode_tokens);
    }
    return rows;
}

/// Regenerates every request outside the scheduler through the public
/// prefill / decode_step API and checks its tokens. Sets the llm.*
/// throughputs and the computed format.kv_rows_unpacked.
void
regenerate(const Transformer &tf, const std::vector<Request> &requests,
           const ServingReport &report, const ServingOptions &opts,
           Tracer &tracer, Outcome &out)
{
    const ModelDims &dims = tf.dims();
    double prefill_s = 0.0;
    double prefill_rows = 0.0;
    double decode_s = 0.0;
    double decode_rows = 0.0;
    double unpacked = 0.0;
    std::size_t mismatched = 0;
    for (const Request &r : requests) {
        const std::vector<int> prompt = exec_prompt_tokens(
            dims.vocab, r.prompt_len, opts.exec_seed, r.id);
        SplitMix64 rng(exec_sampler_seed(opts.exec_seed, r.id));
        KvCache cache = tf.make_cache(opts.kv_format);
        BatchKvCache batch;
        batch.add(cache);
        std::vector<int> tokens;
        double t0 = now_s();
        {
            auto span = tracer.span("prefill", r.id);
            const std::vector<float> logits =
                tf.prefill(cache, prompt, opts.exec_run);
            tokens.push_back(
                exec_pick_token(logits, opts.exec_temperature, rng));
        }
        prefill_s += now_s() - t0;
        prefill_rows += static_cast<double>(prompt.size());
        // Attention dequantizes the whole cached prefix plus the new
        // rows, K and V, once per layer per call.
        unpacked +=
            2.0 * dims.n_layers * static_cast<double>(prompt.size());
        while (static_cast<int>(tokens.size()) < r.output_len) {
            const int token = tokens.back();
            unpacked += 2.0 * dims.n_layers *
                        static_cast<double>(cache.length() + 1);
            t0 = now_s();
            {
                auto span = tracer.span("decode_step", r.id);
                const Matrix logits = tf.decode_step(
                    batch, std::span<const int>(&token, 1), opts.exec_run);
                tokens.push_back(exec_pick_token(
                    logits.row(0), opts.exec_temperature, rng));
            }
            decode_s += now_s() - t0;
            decode_rows += 1.0;
        }
        const auto id = static_cast<std::size_t>(r.id);
        mismatched += id >= report.requests.size() ||
                      report.requests[id].tokens != tokens;
    }
    out.check(mismatched == 0,
              std::to_string(mismatched) +
                  " executed requests differ from their standalone "
                  "regeneration");
    out.set("llm.prefill_rows_per_s", prefill_rows / prefill_s);
    out.set("llm.decode_rows_per_s", decode_rows / decode_s);
    out.set("format.kv_rows_unpacked", unpacked);
}

}  // namespace

Outcome
run_executed_serving(const Args &args, Tracer &tracer)
{
    Outcome out;
    const ModelConfig &model = bench_model();
    std::vector<double> setup_s;
    std::vector<double> build_s;
    std::vector<Request> requests;
    std::unique_ptr<Transformer> tf;
    ServingReport first;
    ServingReport traced_report;
    double traced_scheduler_s = 0.0;
    std::uint64_t first_steps = 0;

    const auto pass = [&](int index, bool traced) {
        std::vector<Request> stream;
        std::unique_ptr<Transformer> model_tf;
        for (int r = 0; r < kSetupRepeats; ++r) {
            const double t0 = now_s();
            stream = burst(args.seed, args.tiny, tracer);
            const double t1 = now_s();
            {
                auto span = tracer.span("Transformer");
                model_tf = std::make_unique<Transformer>(model);
            }
            const double t2 = now_s();
            setup_s.push_back(t2 - t0);
            build_s.push_back(t2 - t1);
        }

        const ServingOptions opts =
            burst_options(model_tf.get(), args.seed);
        ServingReport report;
        const double scheduler_before = tracer.total_s("simulate_serving");
        const double t3 = now_s();
        {
            auto span = tracer.span("simulate_serving");
            report = simulate_serving(model, find_system("anda"), tech16(),
                                      stream, opts);
        }
        const double elapsed = now_s() - t3;

        check_serving_invariants(report, "executed", out);
        count_outcomes(report, out);
        if (index == 0) {
            first_steps = step_fingerprint(report);
            first = std::move(report);
            requests = std::move(stream);
            tf = std::move(model_tf);
        } else {
            out.check(step_fingerprint(report) == first_steps &&
                          report.generated_checksum() ==
                              first.generated_checksum(),
                      "executed repeats of one burst differ");
            if (traced && traced_report.steps.empty()) {
                traced_scheduler_s =
                    tracer.total_s("simulate_serving") - scheduler_before;
                traced_report = std::move(report);
            }
        }
        return elapsed;
    };
    const PassTimes times = run_passes(args, tracer, pass);

    // Parity gate: pricing alone must schedule the identical step log,
    // and every request must regenerate to the same tokens standalone.
    const ServingOptions opts = burst_options(tf.get(), args.seed);
    ServingOptions priced_only = opts;
    priced_only.executor = nullptr;
    ServingReport twin = simulate_serving(
        model, find_system("anda"), tech16(), requests, priced_only);
    if (args.corrupt == "steps") {
        twin.steps.front().cycles += 1;
    }
    if (args.corrupt == "tokens") {
        first.requests.front().tokens.front() ^= 1;
    }
    out.check(step_fingerprint(twin) == first_steps &&
                  twin.steps.size() == first.steps.size(),
              "executed step log differs from the pricing-only run");
    regenerate(*tf, requests, first, opts, tracer, out);

    std::size_t tokens = 0;
    for (const RequestMetrics &m : first.requests) {
        tokens += m.tokens.size();
    }
    out.notes.push_back("step_log_fingerprint " + hex(first_steps) +
                        " over " + std::to_string(first.steps.size()) +
                        " steps");
    out.notes.push_back("token_checksum " +
                        hex(first.generated_checksum()) + " over " +
                        std::to_string(tokens) + " tokens of " +
                        std::to_string(first.requests.size()) +
                        " requests");
    out.notes.push_back("preemptions " +
                        std::to_string(first.preemptions) +
                        " swapped_bytes " +
                        std::to_string(first.swap_bytes));

    out.notes.push_back(pass_note(times));
    out.set("setup_s", median(setup_s));
    out.set("host_tok_per_s",
            executed_rows(first) / median(times.untraced));
    serving_verdict(args.seed, args.tiny, kAndaTuple, out);

    if (args.trace) {
        tally_serve_counts(traced_report, out);
        const ServingReport *const burst_run = &traced_report;
        set_serve_state_metrics(std::span(&burst_run, 1), out);
        const PricedRun run{&traced_report, kAndaTuple};
        set_pricing_layer_metrics(std::span<const PricedRun>(&run, 1), run,
                                  traced_scheduler_s, tracer, out);
        set_trace_overhead(times, out);
        out.set("llm.model_build_s", median(build_s));
        const ModuleMacs macs =
            module_macs_per_token(model.sim, model.family);
        out.set("kernels.matmul_flops",
                2.0 * macs.total() * executed_rows(first) / 1e9);
    }
    return out;
}

}  // namespace perfbench
