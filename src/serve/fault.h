#pragma once

/// @file
/// Deterministic fault injection for the serving simulator.
///
/// The injector models two failure surfaces of a production serving
/// stack: a scheduler step's accelerator execution failing transiently
/// (an ECC trip, a driver reset, a lost RPC — the work is wasted and
/// retried after a backoff), and a preempted request's swap-in failing
/// (host-side KV rows lost or corrupt — the scheduler falls back to
/// recompute-on-readmit, which the paged pool already proves
/// token-identical).
///
/// Every decision is a pure function of (seed, site, attempt): the
/// step stream is keyed by a monotonically increasing step-attempt
/// counter and the swap stream by (request id, per-request swap-in
/// attempt). Replaying a run therefore replays its fault schedule
/// bit-for-bit — the same guarantee the per-request sampler streams
/// give generated tokens — and a test can query the injector
/// standalone to predict exactly which attempts fail. Faults never
/// consult wall clock, host RNG, or any scheduling state, so priced
/// and executed runs of the same configuration see the identical
/// schedule.

#include <cstddef>
#include <cstdint>

namespace anda {

/// Knobs of one fault-injection campaign. Default-constructed (all
/// probabilities zero) the injector is inert and the scheduler's step
/// log is bit-identical to a fault-free build.
struct FaultSpec {
    /// Seed of the fault streams (independent of the request-stream
    /// and sampler seeds).
    std::uint64_t seed = 0;
    /// Probability that one accelerator execution attempt of a
    /// scheduler step fails transiently. The failed attempt's cycles
    /// are wasted and the step retries after a capped exponential
    /// backoff (in units of the attempt's own duration).
    double step_fail_prob = 0.0;
    /// Probability that restoring a swapped-out request's KV rows
    /// fails; the scheduler falls back to recompute-on-readmit
    /// (PreemptPolicy::kSwap only — recompute readmissions have no
    /// swap-in to fail).
    double swap_fail_prob = 0.0;
    /// Backoff after the a-th failed attempt of one step:
    /// min(backoff_base_steps << a, backoff_cap_steps) extra
    /// step-durations of idle time before the retry.
    std::size_t backoff_base_steps = 1;
    std::size_t backoff_cap_steps = 8;
    /// Transient step failures one request survives before it is
    /// terminally failed (dropped with RequestOutcome::kFailed and its
    /// pages freed). Only requests scheduled into the failing attempt
    /// are charged.
    std::size_t retry_budget = 3;

    /// True when any fault stream can fire.
    bool enabled() const
    {
        return step_fail_prob > 0.0 || swap_fail_prob > 0.0;
    }
};

/// Stateless decision oracle over the FaultSpec streams. Copyable and
/// cheap; the scheduler owns one per run and tests construct twins to
/// verify replay.
class FaultInjector {
  public:
    /// Validates the spec (probabilities in [0, 1]); throws
    /// std::invalid_argument otherwise.
    explicit FaultInjector(const FaultSpec &spec);

    /// Does attempt `attempt` of step-site `step` fail? `step` is the
    /// scheduler's step-attempt site counter, not the recorded step
    /// index (abandoned steps keep their site).
    bool step_attempt_fails(std::uint64_t step,
                            std::size_t attempt) const;

    /// Does swap-in attempt `attempt` of request `request_id` fail?
    bool swap_in_fails(int request_id, std::size_t attempt) const;

    /// Idle backoff (in units of the failed attempt's duration)
    /// charged after the `attempt`-th failed try of one step.
    std::size_t backoff_steps(std::size_t attempt) const;

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultSpec spec_;
};

}  // namespace anda
