// anda_perfbench: runs one benchmark workload and prints its metrics.
//
//   anda_perfbench --workload <priced_serving|executed_serving|
//                              precision_search>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--source-id <id>]
//                  [--tiny] [--corrupt <steps|tokens|outcomes|tuple>]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// and the run's spans go to <out-dir>/trace-<workload>-<seed>.json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/// Why this binary must not report timings, or nullptr when it may.
const char *
build_refusal()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) ||                                \
    __has_feature(thread_sanitizer) ||                                 \
    __has_feature(undefined_behavior_sanitizer)
    return "sanitizer build";
#endif
#endif
#if defined(ANDA_ENABLE_DCHECKS)
    return "DCHECKs are compiled in";
#endif
#if !defined(NDEBUG)
    return "assertions are compiled in (not NDEBUG)";
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        return "not a Release build";
    }
    return nullptr;
}

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "anda_perfbench: %s\nusage: anda_perfbench "
                 "--workload <w> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--tiny") {
            args.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + flag).c_str());
        } else if (flag == "--workload") {
            args.workload = argv[++i];
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace") {
            args.trace = std::string(argv[++i]) == "1";
        } else if (flag == "--out-dir") {
            args.out_dir = argv[++i];
        } else if (flag == "--source-id") {
            args.source_id = argv[++i];
        } else if (flag == "--corrupt") {
            args.corrupt = argv[++i];
        } else {
            return usage(("unknown argument " + flag).c_str());
        }
    }
    if (!have_workload || !(args.seconds > 0.0)) {
        return usage("--workload and a positive --seconds are required");
    }
    if (const char *why = build_refusal()) {
        std::fprintf(stderr, "anda_perfbench: refusing to report: %s\n",
                     why);
        return 3;
    }

    Tracer tracer;
    Outcome out;
    try {
        if (args.workload == "priced_serving") {
            out = run_priced_serving(args, tracer);
        } else if (args.workload == "executed_serving") {
            out = run_executed_serving(args, tracer);
        } else if (args.workload == "precision_search") {
            out = run_precision_search(args, tracer);
        } else {
            return usage(("unknown workload " + args.workload).c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "anda_perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    out.set("peak_rss_mb", peak_rss_mib());

    if (args.trace) {
        run_layer_probes(tracer, out);
        out.set("common.threads_created",
                static_cast<double>(anda::parallel_threads_created()));
        out.set("trace.spans", static_cast<double>(tracer.size()));
        const std::string path = args.out_dir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        if (!tracer.write_chrome_trace(path)) {
            std::fprintf(stderr, "anda_perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        out.notes.push_back("spans " + path);
    }
    const unsigned nproc = std::thread::hardware_concurrency();
    out.check(anda::parallel_threads_created() <= nproc,
              "the thread pool created more threads than cores");

    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::printf(
        "{\"meta\": {\"host\": %s, \"nproc\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"source\": %s, \"threads\": %zu, "
        "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d}}\n",
        json_string(host).c_str(), nproc,
        json_string(PERFBENCH_COMPILER).c_str(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(),
        json_string(args.source_id).c_str(), anda::default_thread_count(),
        json_string(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        json_number(args.seconds).c_str(), args.trace ? 1 : 0);
    for (const std::string &note : out.notes) {
        std::printf("note: %s\n", note.c_str());
    }

    std::string metrics;
    for (const MetricSpec &m :
         args.trace ? per_layer_specs() : end_to_end_specs()) {
        const auto it = out.values.find(m.name);
        double value = 0.0;
        if (it != out.values.end()) {
            value = it->second;
        } else if (!args.trace) {
            out.check(false,
                      std::string("metric not measured: ") + m.name);
        }
        if (!std::isfinite(value)) {
            out.check(false, std::string("non-finite metric: ") + m.name);
            value = 0.0;
        }
        metrics += std::string(metrics.empty() ? "" : ", ") +
                   json_string(m.name) + ": {\"value\": " +
                   json_number(value) + ", \"unit\": " +
                   json_string(m.unit) + "}";
    }
    for (const std::string &v : out.violations) {
        std::printf("VIOLATION: %s\n", v.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
