#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace perfbench {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope
Tracer::span(const char *name, long long request)
{
    if (!enabled_) {
        return Scope(nullptr, -1);
    }
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(index);
    return Scope(this, index);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr) {
        tracer_->spans_[static_cast<std::size_t>(index_)].end_s = now_s();
        tracer_->stack_.pop_back();
    }
}

double
Tracer::total_s(std::string_view name) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name) {
            total += s.end_s - s.start_s;
        }
    }
    return total;
}

bool
Tracer::write_chrome_trace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    out << "{\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d,\"request\":%lld}}%s\n",
                      s.name, (s.start_s - t0) * 1e6,
                      (s.end_s - s.start_s) * 1e6, i, s.parent, s.request,
                      i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

const std::vector<MetricSpec> &
end_to_end_specs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"host_tok_per_s", "tok/s"},
        {"sim_ttft_p50_s", "s"},
        {"sim_ttft_p99_s", "s"},
        {"sim_tpot_p50_ms", "ms"},
        {"sim_tpot_p99_ms", "ms"},
        {"sim_max_rate_rps", "req/s"},
        {"sim_speedup_vs_fpfp", "x"},
        {"bops_ratio", "ratio"},
    };
    return specs;
}

const std::vector<MetricSpec> &
per_layer_specs()
{
    static const std::vector<MetricSpec> specs = {
        {"serve.self_s", "s"},
        {"serve.steps", "count"},
        {"serve.host_us_per_step", "us"},
        {"serve.queue_wait_p50_s", "s"},
        {"serve.batch_rows_mean", "rows"},
        {"serve.preemptions", "count"},
        {"serve.recomputed_tokens", "count"},
        {"serve.reused_prefix_tokens", "count"},
        {"serve.swap_gb", "GB"},
        {"serve.frag_mean", "ratio"},
        {"serve.sent", "count"},
        {"serve.completed", "count"},
        {"serve.dropped", "count"},
        {"serve.shed", "count"},
        {"serve.failed", "count"},
        {"serve.ttft_samples", "count"},
        {"serve.tpot_samples", "count"},
        {"hw.price_s", "s"},
        {"hw.ns_per_op", "ns"},
        {"hw.sim_cycles.qkv", "Gcycles"},
        {"hw.sim_cycles.o", "Gcycles"},
        {"hw.sim_cycles.u", "Gcycles"},
        {"hw.sim_cycles.d", "Gcycles"},
        {"hw.sim_cycles.attn", "Gcycles"},
        {"hw.sim_swap_stall_s", "s"},
        {"hw.kv_dram_gb", "GB"},
        {"llm.prefill_rows_per_s", "rows/s"},
        {"llm.decode_rows_per_s", "rows/s"},
        {"llm.forward_tok_per_s", "tok/s"},
        {"llm.model_build_s", "s"},
        {"llm.corpus_s", "s"},
        {"format.kv_pack_ns_per_row", "ns"},
        {"format.kv_unpack_ns_per_row", "ns"},
        {"format.kv_rows_unpacked", "count"},
        {"kernels.matmul_gflops", "GFLOP/s"},
        {"kernels.matmul_flops", "GFLOP"},
        {"kernels.act_quant_ns_per_elem", "ns"},
        {"search.search_s", "s"},
        {"search.evaluations", "count"},
        {"search.iterations", "count"},
        {"search.eval_s_mean", "s"},
        {"common.threads_created", "count"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void
Fnv::mix(std::uint64_t x)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xffull;
        h *= 0x100000001b3ull;
    }
}

void
Fnv::mix_double(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    mix(bits);
}

std::string
hex(std::uint64_t x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

std::string
pass_note(const PassTimes &times)
{
    std::string note = "pass_s";
    for (const double t : times.untraced) {
        note += " " + std::to_string(t);
    }
    return note;
}

void
set_trace_overhead(const PassTimes &times, Outcome &out)
{
    const double base = median(times.untraced);
    const double traced = median(times.traced);
    out.set("trace.overhead_pct",
            base > 0.0 ? (traced - base) / base * 100.0 : 0.0);
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
