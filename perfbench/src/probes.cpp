// Standalone layer probes. Each times one public call in a loop long
// enough to read; the loop is one span, because a span per call would
// cost more than a KV row pack does.

#include <cstddef>
#include <vector>

#include "bench.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "format/kv_format.h"
#include "kernels/gemm.h"
#include "serving.h"

namespace perfbench {

using namespace anda;

namespace {

constexpr double kProbeSeconds = 0.2;

Matrix
random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (float &x : m.row(r)) {
            x = rng.uniform(-2.0f, 2.0f);
        }
    }
    return m;
}

/// Runs `body` in batches until kProbeSeconds elapse; returns seconds
/// per call.
template <typename F>
double
time_per_call(Tracer &tracer, const char *name, int batch, F &&body)
{
    auto span = tracer.span(name);
    const double t0 = now_s();
    long long calls = 0;
    double elapsed = 0.0;
    do {
        for (int i = 0; i < batch; ++i) {
            body();
        }
        calls += batch;
        elapsed = now_s() - t0;
    } while (elapsed < kProbeSeconds);
    return elapsed / static_cast<double>(calls);
}

}  // namespace

void
run_layer_probes(Tracer &tracer, Outcome &out)
{
    const ModelDims &dims = bench_model().sim;
    const auto d = static_cast<std::size_t>(dims.d_model);
    const auto ffn = static_cast<std::size_t>(dims.d_ffn);

    // format: one K or V row of the executed cache (anda-m7, sim d_model).
    const KvFormat fmt = KvFormat::anda(7);
    const Matrix rows = random_matrix(64, d, 1);
    std::vector<std::byte> packed(kv_row_bytes(fmt, d));
    std::vector<float> unpacked(d);
    std::size_t next = 0;
    const double pack_s = time_per_call(tracer, "kv_pack_row", 256, [&] {
        kv_pack_row(fmt, rows.row(next++ % rows.rows()), packed);
    });
    const double unpack_s =
        time_per_call(tracer, "kv_unpack_row", 256,
                      [&] { kv_unpack_row(fmt, packed, unpacked); });
    out.set("format.kv_pack_ns_per_row", pack_s * 1e9);
    out.set("format.kv_unpack_ns_per_row", unpack_s * 1e9);

    // kernels: the four FP-INT taps of one 128-row block (LLaMA's Au
    // feeds gate and up), serial as the executor calls them.
    const std::size_t m = 128;
    const Matrix a_d = random_matrix(m, d, 2);
    const Matrix a_ffn = random_matrix(m, ffn, 3);
    const Matrix w_qkv = random_matrix(3 * d, d, 4);
    const Matrix w_o = random_matrix(d, d, 5);
    const Matrix w_u = random_matrix(2 * ffn, d, 6);
    const Matrix w_d = random_matrix(d, ffn, 7);
    const double flops =
        2.0 * static_cast<double>(m) *
        static_cast<double>(3 * d * d + d * d + 2 * ffn * d + d * ffn);
    const double taps_s = time_per_call(tracer, "matmul_wt", 1, [&] {
        const Matrix q = matmul_wt(a_d, w_qkv, 1);
        const Matrix o = matmul_wt(a_d, w_o, 1);
        const Matrix u = matmul_wt(a_d, w_u, 1);
        const Matrix dn = matmul_wt(a_ffn, w_d, 1);
        if (q.empty() || o.empty() || u.empty() || dn.empty()) {
            out.check(false, "matmul_wt returned an empty matrix");
        }
    });
    out.set("kernels.matmul_gflops", flops / taps_s / 1e9);

    // kernels: BFP fake quantization of one tap input (anda m7, g64),
    // including the copy that gives every call fresh input.
    Matrix input = a_d;
    const double quant_s =
        time_per_call(tracer, "apply_act_format", 16, [&] {
            input = a_d;
            apply_act_format(input, ActFormat::bfp(64, 7), 1);
        });
    out.set("kernels.act_quant_ns_per_elem",
            quant_s / static_cast<double>(m * d) * 1e9);
}

}  // namespace perfbench
