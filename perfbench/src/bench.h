#pragma once

// Shared pieces of the anda end-to-end benchmark: arguments, the span
// tracer, metric and gate collection, and small statistics helpers.
// The benchmark reaches the library only through its public headers;
// nothing under src/ is instrumented.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test sizes: every workload shrinks to a few seconds.
    bool tiny = false;
    /// Self-test only: corrupt one output before the correctness gate
    /// looks at it ("steps", "tokens", "outcomes", "tuple").
    std::string corrupt;
    /// Where the traced run writes its spans.
    std::string out_dir = ".";
    /// Identifies the measured sources (git SHA or a content digest).
    std::string source_id = "unknown";
};

/// Monotonic wall clock [s].
double now_s();

/// One recorded span: a public call the benchmark made.
struct Span {
    const char *name = "";   ///< A string literal: spans stay cheap.
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;         ///< Index of the enclosing span, -1 = root.
    long long request = -1;  ///< Request id, -1 when there is none.
};

/// In-memory span recorder. Disabled, span() costs one branch and
/// records nothing; enabled, spans nest by scope and are written out
/// once, at the end of the run.
class Tracer {
  public:
    class Scope {
      public:
        Scope(Tracer *tracer, int index) : tracer_(tracer), index_(index)
        {
        }
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] Scope span(const char *name, long long request = -1);

    /// Summed duration of the spans named `name`.
    double total_s(std::string_view name) const;
    std::size_t size() const { return spans_.size(); }

    /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
    bool write_chrome_trace(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// A reported metric: name and unit. Its direction and bound live in
/// BENCHMARK.json only.
struct MetricSpec {
    const char *name;
    const char *unit;
};
/// Every end-to-end metric (printed with tracing off) and every
/// per-layer metric (printed by the traced run), in print order.
const std::vector<MetricSpec> &end_to_end_specs();
const std::vector<MetricSpec> &per_layer_specs();

/// What one workload run produced.
struct Outcome {
    /// Measured values by metric name. Every end-to-end metric must be
    /// set; a per-layer metric left unset reads 0 (its layer is not on
    /// this workload's timed path).
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Correctness-gate violations; the run is correct when empty.
    std::vector<std::string> violations;
    /// Fingerprints and counts printed beside the result.
    std::vector<std::string> notes;

    void set(const std::string &name, double value)
    {
        values[name] = value;
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            violations.push_back(what);
        }
    }
};

double median(std::vector<double> v);
/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double p);

/// FNV-1a 64 accumulator for fingerprints.
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void mix(std::uint64_t x);
    void mix_double(double x);
};
std::string hex(std::uint64_t x);

/// Peak resident set of this process [MiB].
double peak_rss_mib();

/// Host times of the measured section of every pass.
struct PassTimes {
    std::vector<double> untraced;
    std::vector<double> traced;
};

/// The pass loop of every workload. `pass(index, traced)` runs one
/// pass and returns the host seconds of its measured section. Passes
/// repeat for args.seconds. A traced run spends the first half
/// untraced and the second half with the tracer on (at least one pass
/// each), so tracing overhead is measured within one process; the
/// tracer stays on afterwards for the layer measurements.
template <typename F>
PassTimes
run_passes(const Args &args, Tracer &tracer, F &&pass)
{
    PassTimes times;
    const double t0 = now_s();
    const double split = args.trace ? args.seconds / 2 : args.seconds;
    int index = 0;
    while (times.untraced.empty() || now_s() - t0 < split) {
        times.untraced.push_back(pass(index++, false));
    }
    if (args.trace) {
        tracer.set_enabled(true);
        while (times.traced.empty() || now_s() - t0 < args.seconds) {
            times.traced.push_back(pass(index++, true));
        }
    }
    return times;
}

/// "pass_s ..." note listing the untraced pass times.
std::string pass_note(const PassTimes &times);

/// trace.overhead_pct: median traced pass over median untraced pass.
void set_trace_overhead(const PassTimes &times, Outcome &out);

/// Standalone per-layer probes every traced run reports: KV row
/// pack/unpack (format), matmul_wt and apply_act_format (kernels) on
/// the sim model's tap shapes.
void run_layer_probes(Tracer &tracer, Outcome &out);

Outcome run_priced_serving(const Args &args, Tracer &tracer);
Outcome run_executed_serving(const Args &args, Tracer &tracer);
Outcome run_precision_search(const Args &args, Tracer &tracer);

}  // namespace perfbench
