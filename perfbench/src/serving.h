#pragma once

// Serving pieces shared by the workloads: the priced arrival-rate
// ladder every workload's sim_* metrics come from, the serving
// correctness invariants, and the traced re-pricing of step logs.

#include <cstdint>
#include <span>
#include <vector>

#include "bench.h"
#include "serve/serving_sim.h"

namespace perfbench {

/// The model every workload serves or searches (real dims priced, sim
/// dims executed).
const anda::ModelConfig &bench_model();

/// Anda's activation taps in both serving workloads.
inline constexpr anda::PrecisionTuple kAndaTuple{8, 7, 7, 6};
inline constexpr anda::PrecisionTuple kFp16Tuple{16, 16, 16, 16};

/// Open-loop Poisson streams of `requests_per_rung` requests, one per
/// arrival rate of the ladder. The same seed draws the same requests
/// at every rung; only arrival times scale with the rate.
struct Ladder {
    std::vector<double> rates;
    std::vector<std::vector<anda::Request>> streams;
};
Ladder make_ladder(std::uint64_t seed, int requests_per_rung,
                   Tracer &tracer);

/// Pricing-only serving options of the ladder at `tuple`: paged KV in
/// anda-m7 under a byte budget, priced swaps, attention pricing on.
anda::ServingOptions ladder_options(const anda::PrecisionTuple &tuple);

/// One rung: the same stream served by Anda and by the FP-FP system.
struct RungRun {
    anda::ServingReport anda;
    anda::ServingReport fpfp;
};
std::vector<RungRun> run_ladder(const Ladder &ladder,
                                const anda::PrecisionTuple &tuple,
                                Tracer &tracer);

/// Sets every sim_* end-to-end metric and bops_ratio from a ladder run
/// at `tuple`, plus the percentile sample counts (per-layer).
void set_sim_metrics(const Ladder &ladder, std::span<const RungRun> runs,
                     const anda::PrecisionTuple &tuple, Outcome &out);

/// Runs the ladder (2000 requests per rung) at `tuple` untraced and
/// untimed and sets the sim_* metrics: the serving verdict of the
/// precision a workload runs.
void serving_verdict(std::uint64_t seed, bool tiny,
                     const anda::PrecisionTuple &tuple, Outcome &out);

/// Outcome conservation, page conservation on every step, finite
/// simulated times.
void check_serving_invariants(const anda::ServingReport &report,
                              const std::string &label, Outcome &out);

/// Fingerprint of a step log (every field of every step).
std::uint64_t step_fingerprint(const anda::ServingReport &report);

/// Adds a run's requests to the attempted count and its dropped,
/// shed and failed requests to the failed count.
void count_outcomes(const anda::ServingReport &report, Outcome &out);

/// Adds a run's request outcomes and steps to the serve.* volume
/// counters (sent, completed, dropped, shed, failed, steps).
void tally_serve_counts(const anda::ServingReport &report, Outcome &out);

/// serve.* and hw.* state metrics: queueing, batching, fragmentation
/// and simulated cycles of the reference run (the first), and the
/// preemption / swap / prefix-reuse totals over all `runs`.
void set_serve_state_metrics(
    std::span<const anda::ServingReport *const> runs, Outcome &out);

/// A serving run and the tap precision it was priced at.
struct PricedRun {
    const anda::ServingReport *report;
    anda::PrecisionTuple tuple;
};

/// Traced layer split of serving runs. Re-prices every recorded step
/// shape through the public build_*_workload functions (hw.price_s,
/// hw.ns_per_op), splits the GeMM cycles of `ref` by tap and checks
/// they add up to the step log, and takes serve.self_s as the
/// scheduler spans `scheduler_s` minus the re-priced time.
void set_pricing_layer_metrics(std::span<const PricedRun> runs,
                               const PricedRun &ref, double scheduler_s,
                               Tracer &tracer, Outcome &out);

}  // namespace perfbench
