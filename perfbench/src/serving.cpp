#include "serving.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "hw/accelerator.h"
#include "hw/perf_model.h"
#include "hw/tech.h"
#include "hw/workload.h"
#include "search/bops.h"

namespace perfbench {

using namespace anda;

namespace {

// Traffic of the ladder. Short interactive prompts sit behind a long
// shared system prefix (prefix adoption); long documents are batch
// jobs whose prefill and attention dominate the simulated cycles.
// The mix is an assumption, not fitted to a published request-length
// or prefix-sharing trace: the 384-token prefix, the 20% long share,
// the length ranges in make_ladder() and the 30/70 interactive/
// standard split are chosen to exercise prefix adoption, preemption
// and attention pricing (see README.md, "Traffic assumptions").
constexpr int kSharedPrefix = 384;
constexpr double kLongShare = 0.2;
constexpr int kLongPromptMin = 1024;

// SLOs, scaled to the modelled accelerator: one step carrying a
// 256-row prefill chunk of LLaMA-7B takes ~3 simulated seconds on the
// 16-APU array at 285 MHz, a pure decode step ~0.18 s.
constexpr double kTtftSloInteractive = 20.0;
constexpr double kTtftSloStandard = 60.0;
constexpr double kTtftSloBatch = 240.0;
constexpr double kTpotSlo = 3.0;
constexpr double kSloShare = 0.95;

// Generating the streams takes well under a millisecond, and the first
// repeat after a pass runs on cold caches at two to three times the
// later ones: repeat it often enough that the median of a run is a
// warm repeat whether the run makes four passes or five.
constexpr int kSetupRepeats = 20;

// The rungs bracket Anda's service rate (~0.15 req/s on this stream):
// 0.05 meets the SLOs, 0.2 saturates both systems, so the top rung's
// makespans compare service times.
const std::vector<double> &
ladder_rates()
{
    static const std::vector<double> rates = {0.05, 0.1, 0.2};
    return rates;
}

int
verdict_requests_per_rung(bool tiny)
{
    // 2000 completed requests put 20 samples beyond the TTFT p99.
    return tiny ? 60 : 2000;
}

int
timed_requests_per_rung(bool tiny)
{
    // Half the verdict's stream: a ~4 s pass, so a 20 s run takes the
    // median of four or five passes instead of two or three.
    return tiny ? 60 : 1000;
}

double
step_seconds(const ServingStep &step)
{
    return static_cast<double>(step.cycles) / tech16().clock_hz +
           step.swap_stall_s;
}

}  // namespace

const ModelConfig &
bench_model()
{
    return find_model("llama-7b");
}

Ladder
make_ladder(std::uint64_t seed, int n, Tracer &tracer)
{
    const int n_long = static_cast<int>(n * kLongShare);
    Ladder ladder;
    ladder.rates = ladder_rates();
    for (const double rate : ladder.rates) {
        RequestStreamSpec short_spec;
        short_spec.seed = seed;
        short_spec.n_requests = n - n_long;
        short_spec.arrival_rate = rate * (1.0 - kLongShare);
        short_spec.prompt_min = kSharedPrefix + 16;
        short_spec.prompt_max = kSharedPrefix + 256;
        short_spec.output_min = 16;
        short_spec.output_max = 128;
        short_spec.classes = {{2, 0.3, kTtftSloInteractive, 0.0},
                              {1, 0.7, kTtftSloStandard, 0.0}};
        RequestStreamSpec long_spec;
        long_spec.seed = SplitMix64(seed).next();
        long_spec.n_requests = n_long;
        long_spec.arrival_rate = rate * kLongShare;
        long_spec.prompt_min = kLongPromptMin;
        long_spec.prompt_max = 3072;
        long_spec.output_min = 16;
        long_spec.output_max = 64;
        long_spec.classes = {{0, 1.0, kTtftSloBatch, 0.0}};

        std::vector<Request> stream;
        {
            auto span = tracer.span("generate_requests");
            stream = generate_requests(short_spec);
        }
        std::vector<Request> long_stream;
        {
            auto span = tracer.span("generate_requests");
            long_stream = generate_requests(long_spec);
        }
        stream.insert(stream.end(), long_stream.begin(),
                      long_stream.end());
        std::stable_sort(stream.begin(), stream.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival_s < b.arrival_s;
                         });
        for (std::size_t i = 0; i < stream.size(); ++i) {
            stream[i].id = static_cast<int>(i);
        }
        ladder.streams.push_back(std::move(stream));
    }
    return ladder;
}

ServingOptions
ladder_options(const PrecisionTuple &tuple)
{
    ServingOptions opts;
    opts.max_batch = 32;
    opts.max_step_tokens = 256;
    opts.tuple = tuple;
    opts.cache_policy = CachePolicy::kPaged;
    opts.page_size = 16;
    opts.preempt = PreemptPolicy::kSwap;
    opts.swap_gbps = 16.0;
    opts.shared_prefix_len = kSharedPrefix;
    opts.attn_pricing = true;
    opts.kv_format = KvFormat::anda(7);
    opts.kv_byte_budget = 4'000'000'000;
    return opts;
}

std::vector<RungRun>
run_ladder(const Ladder &ladder, const PrecisionTuple &tuple,
           Tracer &tracer)
{
    const ModelConfig &model = bench_model();
    const ServingOptions anda_opts = ladder_options(tuple);
    const ServingOptions fpfp_opts = ladder_options(kFp16Tuple);
    std::vector<RungRun> runs;
    for (const auto &stream : ladder.streams) {
        RungRun run;
        {
            auto span = tracer.span("simulate_serving");
            run.anda = simulate_serving(model, find_system("anda"),
                                        tech16(), stream, anda_opts);
        }
        {
            auto span = tracer.span("simulate_serving");
            run.fpfp = simulate_serving(model, find_system("fp-fp"),
                                        tech16(), stream, fpfp_opts);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

void
set_sim_metrics(const Ladder &ladder, std::span<const RungRun> runs,
                const PrecisionTuple &tuple, Outcome &out)
{
    // The traffic mix as drawn, so the assumed shares can be checked.
    double prompt = 0.0;
    double shared = 0.0;
    double output = 0.0;
    std::size_t n_long = 0;
    const std::vector<Request> &stream = ladder.streams.front();
    for (const Request &r : stream) {
        prompt += r.prompt_len;
        shared += std::min(r.prompt_len, kSharedPrefix);
        output += r.output_len;
        n_long += r.prompt_len >= kLongPromptMin ? 1 : 0;
    }
    const auto n = static_cast<double>(stream.size());
    out.notes.push_back(
        "traffic long_share " + std::to_string(n_long / n) +
        " shared_prefix_token_share " + std::to_string(shared / prompt) +
        " mean_prompt " + std::to_string(prompt / n) + " mean_output " +
        std::to_string(output / n));

    // Latency at the lowest rung, the one the ladder is built to meet.
    const ServingReport &ref = runs.front().anda;
    std::vector<double> ttft;
    for (const RequestMetrics &m : ref.requests) {
        if (m.completed()) {
            ttft.push_back(m.ttft_s());
        }
    }
    // Every decode token waited exactly the step that emitted it since
    // its request's previous token (running decoders advance every
    // step); a preempted request's wait to readmission is not counted.
    std::vector<double> gaps;
    for (const ServingStep &step : ref.steps) {
        gaps.insert(gaps.end(), step.decode_tokens, step_seconds(step));
    }
    out.set("sim_ttft_p50_s", percentile(ttft, 0.5));
    out.set("sim_ttft_p99_s", percentile(ttft, 0.99));
    out.set("sim_tpot_p50_ms", percentile(gaps, 0.5) * 1e3);
    out.set("sim_tpot_p99_ms", percentile(gaps, 0.99) * 1e3);
    out.set("serve.ttft_samples", static_cast<double>(ttft.size()));
    out.set("serve.tpot_samples", static_cast<double>(gaps.size()));
    out.check(ttft.size() >= 1000 || ttft.size() == ref.requests.size(),
              "fewer than 1000 TTFT samples behind the p99");

    double max_rate = 0.0;
    std::string shares;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ServingReport &r = runs[i].anda;
        std::size_t met = 0;
        for (const RequestMetrics &m : r.requests) {
            met += m.completed() && m.ttft_s() <= m.ttft_slo_s &&
                   m.decode_s_per_token() <= kTpotSlo;
        }
        const double share = static_cast<double>(met) /
                             static_cast<double>(r.requests.size());
        if (share >= kSloShare) {
            max_rate = std::max(max_rate, ladder.rates[i]);
        }
        shares += " " + std::to_string(ladder.rates[i]) + ":" +
                  std::to_string(share);
    }
    out.notes.push_back("slo_share_per_rate" + shares);
    out.set("sim_max_rate_rps", max_rate);

    const RungRun &top = runs.back();
    out.set("sim_speedup_vs_fpfp",
            top.fpfp.makespan_s / top.anda.makespan_s);
    out.set("bops_ratio",
            tuple_bops_per_token(bench_model(), tuple) /
                uniform_bops_per_token(bench_model(), kFp16EffectiveBits));
}

void
serving_verdict(std::uint64_t seed, bool tiny, const PrecisionTuple &tuple,
                Outcome &out)
{
    Tracer off;
    const Ladder ladder =
        make_ladder(seed, verdict_requests_per_rung(tiny), off);
    const std::vector<RungRun> runs = run_ladder(ladder, tuple, off);
    for (const RungRun &run : runs) {
        check_serving_invariants(run.anda, "verdict anda", out);
        check_serving_invariants(run.fpfp, "verdict fp-fp", out);
    }
    set_sim_metrics(ladder, runs, tuple, out);
}

void
check_serving_invariants(const ServingReport &report,
                         const std::string &label, Outcome &out)
{
    out.check(report.requests.size() == report.completed + report.dropped +
                                            report.shed + report.failed,
              label + ": sent != completed + dropped + shed + failed");
    const auto completed = static_cast<std::size_t>(std::count_if(
        report.requests.begin(), report.requests.end(),
        [](const RequestMetrics &m) { return m.completed(); }));
    out.check(completed == report.completed,
              label + ": completed count disagrees with request outcomes");
    bool pages_ok = true;
    bool finite = std::isfinite(report.makespan_s);
    for (const ServingStep &step : report.steps) {
        pages_ok = pages_ok &&
                   step.used_pages + step.free_pages == report.page_budget;
        finite = finite && std::isfinite(step.start_s) &&
                 std::isfinite(step.swap_stall_s);
    }
    for (const RequestMetrics &m : report.requests) {
        finite = finite && std::isfinite(m.first_token_s) &&
                 std::isfinite(m.finish_s) &&
                 (!m.completed() || m.finish_s >= m.arrival_s);
    }
    out.check(pages_ok, label + ": used + free != page_budget on a step");
    out.check(finite, label + ": non-finite or negative simulated time");
}

std::uint64_t
step_fingerprint(const ServingReport &report)
{
    Fnv fnv;
    for (const ServingStep &s : report.steps) {
        fnv.mix_double(s.start_s);
        fnv.mix(s.cycles);
        fnv.mix(s.prefill_tokens);
        fnv.mix(s.decode_tokens);
        fnv.mix(s.running);
        fnv.mix(s.cache_tokens);
        fnv.mix(s.used_pages);
        fnv.mix(s.free_pages);
        fnv.mix(s.preemptions);
        fnv.mix(s.drops);
        fnv.mix(s.sheds);
        fnv.mix(s.fault_retries);
        fnv.mix(s.failed);
        fnv.mix_double(s.swap_stall_s);
        fnv.mix(s.attn_cycles);
        fnv.mix(s.kv_bytes);
    }
    return fnv.h;
}

void
count_outcomes(const ServingReport &report, Outcome &out)
{
    out.attempted += report.requests.size();
    out.failed += report.dropped + report.shed + report.failed;
}

void
tally_serve_counts(const ServingReport &report, Outcome &out)
{
    const auto add = [&out](const char *name, std::size_t n) {
        out.values[name] += static_cast<double>(n);
    };
    add("serve.sent", report.requests.size());
    add("serve.completed", report.completed);
    add("serve.dropped", report.dropped);
    add("serve.shed", report.shed);
    add("serve.failed", report.failed);
    add("serve.steps", report.steps.size());
}

void
set_serve_state_metrics(std::span<const ServingReport *const> runs,
                        Outcome &out)
{
    const ServingReport &ref = *runs.front();
    std::vector<double> waits;
    for (const RequestMetrics &m : ref.requests) {
        if (m.completed()) {
            waits.push_back(m.admitted_s - m.arrival_s);
        }
    }
    double rows = 0.0;
    for (const ServingStep &s : ref.steps) {
        rows += static_cast<double>(s.prefill_tokens + s.decode_tokens);
    }
    out.set("serve.queue_wait_p50_s", percentile(waits, 0.5));
    const auto steps = static_cast<double>(ref.steps.size());
    out.set("serve.batch_rows_mean", steps > 0 ? rows / steps : 0.0);
    out.set("serve.frag_mean", ref.mean_fragmentation());
    out.set("hw.kv_dram_gb", static_cast<double>(ref.kv_dram_bytes) / 1e9);
    out.set("hw.sim_cycles.attn",
            static_cast<double>(ref.attn_cycles) / 1e9);

    double preemptions = 0.0;
    double recomputed = 0.0;
    double reused = 0.0;
    double swap_bytes = 0.0;
    double stall_s = 0.0;
    for (const ServingReport *r : runs) {
        preemptions += static_cast<double>(r->preemptions);
        recomputed += static_cast<double>(r->recomputed_tokens);
        reused += static_cast<double>(r->reused_prefix_tokens);
        swap_bytes += static_cast<double>(r->swap_bytes);
        stall_s += r->swap_stall_s;
    }
    out.set("serve.preemptions", preemptions);
    out.set("serve.recomputed_tokens", recomputed);
    out.set("serve.reused_prefix_tokens", reused);
    out.set("serve.swap_gb", swap_bytes / 1e9);
    out.set("hw.sim_swap_stall_s", stall_s);
}

void
set_pricing_layer_metrics(std::span<const PricedRun> runs,
                          const PricedRun &ref, double scheduler_s,
                          Tracer &tracer, Outcome &out)
{
    const ModelConfig &model = bench_model();
    const double kv_bits =
        ladder_options(kAndaTuple).kv_format.bits_per_element();

    // The step log keeps row counts, not per-sequence slices: prefill
    // rows are re-priced as one chunk and every decode row over the
    // step's mean resident context. The op count per step — what host
    // pricing time scales with — matches the scheduler's except when
    // several prefill chunks shared a step.
    double price_s = 0.0;
    std::size_t ops = 0;
    for (const PricedRun &run : runs) {
        const AcceleratorConfig &system = find_system(run.report->system);
        for (const ServingStep &s : run.report->steps) {
            const std::uint64_t context =
                s.running > 0 ? s.cache_tokens / s.running : 0;
            std::vector<SeqSlice> prefill;
            if (s.prefill_tokens > 0) {
                prefill.push_back({s.prefill_tokens, 0});
            }
            const std::vector<SeqSlice> decode(s.decode_tokens,
                                               SeqSlice{1, context});
            const double t0 = now_s();
            Workload w;
            {
                auto span = tracer.span("build_step_workload");
                w = build_step_workload(model, prefill, decode, run.tuple,
                                        kv_bits);
            }
            {
                auto span = tracer.span("run_workload");
                const SystemRun priced = run_workload(system, tech16(), w);
                (void)priced;
            }
            price_s += now_s() - t0;
            ops += w.gemms.size() + w.attns.size();
        }
    }
    out.set("hw.price_s", price_s);
    out.set("hw.ns_per_op",
            ops > 0 ? price_s / static_cast<double>(ops) * 1e9 : 0.0);
    out.set("serve.self_s", scheduler_s - price_s);
    std::size_t steps = 0;
    for (const PricedRun &run : runs) {
        steps += run.report->steps.size();
    }
    out.set("serve.host_us_per_step",
            steps > 0 ? scheduler_s / static_cast<double>(steps) * 1e6
                      : 0.0);

    // Exact GeMM split of the reference run: the aggregate step
    // workload repeats one layer's four taps n_layers times, and its
    // cycles are the step's cycles minus attention.
    const AcceleratorConfig &system = find_system(ref.report->system);
    std::uint64_t taps[4] = {0, 0, 0, 0};
    std::uint64_t gemm_cycles = 0;
    for (const ServingStep &s : ref.report->steps) {
        const std::vector<GemmOp> gemms = build_step_workload(
            model, s.prefill_tokens, s.decode_tokens, ref.tuple);
        for (int t = 0; t < 4; ++t) {
            const GemmOp &op = gemms[static_cast<std::size_t>(t)];
            taps[t] += analyze_gemm(system, tech16(), op.shape,
                                    op.act_mantissa)
                           .total_cycles *
                       static_cast<std::uint64_t>(model.real.n_layers);
        }
        gemm_cycles += s.cycles - s.attn_cycles;
    }
    out.check(taps[0] + taps[1] + taps[2] + taps[3] == gemm_cycles,
              "per-tap GeMM cycles do not add up to the step log");
    out.set("hw.sim_cycles.qkv", static_cast<double>(taps[0]) / 1e9);
    out.set("hw.sim_cycles.o", static_cast<double>(taps[1]) / 1e9);
    out.set("hw.sim_cycles.u", static_cast<double>(taps[2]) / 1e9);
    out.set("hw.sim_cycles.d", static_cast<double>(taps[3]) / 1e9);
}

Outcome
run_priced_serving(const Args &args, Tracer &tracer)
{
    Outcome out;
    std::vector<double> setup_s;
    std::vector<RungRun> traced_runs;
    double traced_scheduler_s = 0.0;
    std::uint64_t first_fingerprint = 0;
    double tokens_per_pass = 0.0;
    std::size_t steps_per_pass = 0;

    const auto pass = [&](int index, bool traced) {
        Ladder ladder;
        for (int r = 0; r < kSetupRepeats; ++r) {
            const double t0 = now_s();
            ladder = make_ladder(args.seed,
                                 timed_requests_per_rung(args.tiny), tracer);
            setup_s.push_back(now_s() - t0);
        }
        const double scheduler_before = tracer.total_s("simulate_serving");
        const double t0 = now_s();
        std::vector<RungRun> runs = run_ladder(ladder, kAndaTuple, tracer);
        const double elapsed = now_s() - t0;

        if (args.corrupt == "outcomes") {
            runs.front().anda.completed -= 1;
        }
        Fnv fnv;
        double tokens = 0.0;
        std::size_t steps = 0;
        for (const RungRun &run : runs) {
            for (const ServingReport *r : {&run.anda, &run.fpfp}) {
                check_serving_invariants(*r, r->system, out);
                count_outcomes(*r, out);
                fnv.mix(step_fingerprint(*r));
                tokens += static_cast<double>(r->total_prompt_tokens +
                                              r->total_output_tokens);
                steps += r->steps.size();
            }
        }
        if (index == 0) {
            first_fingerprint = fnv.h;
            tokens_per_pass = tokens;
            steps_per_pass = steps;
        } else {
            out.check(fnv.h == first_fingerprint,
                      "step logs differ between repeats of one stream");
            if (traced && traced_runs.empty()) {
                traced_scheduler_s =
                    tracer.total_s("simulate_serving") - scheduler_before;
                traced_runs = std::move(runs);
            }
        }
        return elapsed;
    };
    const PassTimes times = run_passes(args, tracer, pass);

    out.notes.push_back("step_log_fingerprint " + hex(first_fingerprint) +
                        " over " + std::to_string(steps_per_pass) +
                        " steps of one pass");
    out.notes.push_back(pass_note(times));
    out.set("setup_s", median(setup_s));
    out.set("host_tok_per_s", tokens_per_pass / median(times.untraced));
    serving_verdict(args.seed, args.tiny, kAndaTuple, out);

    if (args.trace) {
        // A traced pass after an untraced first pass always exists.
        std::vector<PricedRun> priced;
        std::vector<const ServingReport *> anda_runs;
        for (const RungRun &run : traced_runs) {
            priced.push_back({&run.anda, kAndaTuple});
            priced.push_back({&run.fpfp, kFp16Tuple});
            anda_runs.push_back(&run.anda);
            tally_serve_counts(run.anda, out);
            tally_serve_counts(run.fpfp, out);
        }
        set_serve_state_metrics(anda_runs, out);
        set_pricing_layer_metrics(priced, priced.front(),
                                  traced_scheduler_s, tracer, out);
        set_trace_overhead(times, out);
    }
    return out;
}

}  // namespace perfbench
