// Micro-benchmarks (google-benchmark) of the format conversion and
// GeMM kernels: the software cost of the operations the Anda hardware
// accelerates.

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "format/compressor.h"
#include "format/kv_format.h"
#include "kernels/gemm.h"

namespace {

using namespace anda;

std::vector<float>
random_values(std::size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (auto &x : v) {
        x = static_cast<float>(rng.normal(0.0, 2.0));
    }
    return v;
}

Matrix
random_matrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    Matrix m(r, c);
    for (auto &x : m.flat()) {
        x = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return m;
}

void
BM_Fp16Round(benchmark::State &state)
{
    const auto vals = random_values(4096, 1);
    for (auto _ : state) {
        float acc = 0.0f;
        for (float v : vals) {
            acc += fp16_round(v);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Fp16Round);

void
BM_BfpRoundtrip(benchmark::State &state)
{
    const auto vals = random_values(4096, 2);
    std::vector<float> out(vals.size());
    const BfpParams params{64, static_cast<int>(state.range(0))};
    for (auto _ : state) {
        bfp_roundtrip(vals, std::span<float>(out), params);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BfpRoundtrip)->Arg(4)->Arg(8)->Arg(13);

void
BM_AndaEncode(benchmark::State &state)
{
    const auto vals = random_values(4096, 3);
    for (auto _ : state) {
        auto t =
            AndaTensor::encode(vals, static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(t.group_count());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AndaEncode)->Arg(4)->Arg(8)->Arg(16);

void
BM_BpcCompressLane(benchmark::State &state)
{
    const auto vals = random_values(64, 4);
    for (auto _ : state) {
        auto lane = bpc_compress_lane(vals, 8);
        benchmark::DoNotOptimize(lane.sign_plane);
    }
}
BENCHMARK(BM_BpcCompressLane);

// KV row pack/unpack at the sim d_model (128 = two Anda groups),
// cycling through many distinct rows: one hot row lets the branch
// predictor learn its bit pattern and hides any data-dependent cost.

constexpr std::size_t kKvRowLen = 128;
constexpr std::size_t kKvRows = 1024;

void
BM_KvPackRow(benchmark::State &state)
{
    const KvFormat fmt = KvFormat::anda(static_cast<int>(state.range(0)));
    const auto vals = random_values(kKvRows * kKvRowLen, 9);
    std::vector<std::byte> out(kv_row_bytes(fmt, kKvRowLen));
    std::size_t r = 0;
    for (auto _ : state) {
        kv_pack_row(fmt,
                    std::span<const float>(vals).subspan(
                        r * kKvRowLen, kKvRowLen),
                    out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        r = (r + 1) % kKvRows;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvPackRow)->Arg(4)->Arg(7)->Arg(8)->Arg(13);

void
BM_KvUnpackRow(benchmark::State &state)
{
    const KvFormat fmt = KvFormat::anda(static_cast<int>(state.range(0)));
    const auto vals = random_values(kKvRows * kKvRowLen, 10);
    const std::size_t bytes = kv_row_bytes(fmt, kKvRowLen);
    std::vector<std::byte> packed(kKvRows * bytes);
    for (std::size_t r = 0; r < kKvRows; ++r) {
        kv_pack_row(fmt,
                    std::span<const float>(vals).subspan(
                        r * kKvRowLen, kKvRowLen),
                    std::span<std::byte>(packed).subspan(r * bytes,
                                                         bytes));
    }
    std::vector<float> out(kKvRowLen);
    std::size_t r = 0;
    for (auto _ : state) {
        kv_unpack_row(fmt,
                      std::span<const std::byte>(packed).subspan(
                          r * bytes, bytes),
                      out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        r = (r + 1) % kKvRows;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvUnpackRow)->Arg(4)->Arg(7)->Arg(8)->Arg(13);

// The four sim-dims taps of the llama family as {K, N}: qkv and o
// (128 -> 128), u (128 -> 384), d (384 -> 128).
constexpr std::array<std::array<std::size_t, 2>, 4> kLlamaSimTaps = {
    {{128, 128}, {128, 128}, {128, 384}, {384, 128}}};

// matmul_wt over `rows` token rows at sim tap state.range(0),
// single-threaded, as in the executor.
void
matmul_wt_tap(benchmark::State &state, std::size_t rows)
{
    const auto [k, n] =
        kLlamaSimTaps[static_cast<std::size_t>(state.range(0))];
    const Matrix a = random_matrix(rows, k, 11);
    const Matrix w = random_matrix(n, k, 12);
    for (auto _ : state) {
        Matrix c = matmul_wt(a, w, /*threads=*/1);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * k * n);
}

// A decode-sized block: 16 rows, one per batch slot.
void
BM_MatmulWtDecode(benchmark::State &state)
{
    matmul_wt_tap(state, 16);
}
BENCHMARK(BM_MatmulWtDecode)->ArgName("tap")->DenseRange(0, 3);

// One perplexity worker's batch: 32 calibration sequences x 128 tokens.
void
BM_MatmulWtPrefill(benchmark::State &state)
{
    matmul_wt_tap(state, 32 * 128);
}
BENCHMARK(BM_MatmulWtPrefill)->ArgName("tap")->DenseRange(0, 3);

// GeMM benchmarks come in a pinned single-threaded variant (the
// machine-independent number used for before/after kernel comparisons)
// and an explicit multithreaded variant (threads = 0, all cores, shows
// the persistent-pool scaling). Timing a kernel that silently grabs
// every core produces machine-dependent noise, so neither variant
// leaves the thread count implicit.

void
BM_GemmFp16Dequant(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Matrix a = random_matrix(32, 512, 5);
    const Matrix w = random_matrix(n, 512, 6);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (auto _ : state) {
        Matrix c = gemm_fp16_dequant(a, q, /*threads=*/1);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 32 * 512 * n);
}
BENCHMARK(BM_GemmFp16Dequant)->Arg(64)->Arg(256);

void
BM_GemmFp16DequantMT(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Matrix a = random_matrix(32, 512, 5);
    const Matrix w = random_matrix(n, 512, 6);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (auto _ : state) {
        Matrix c = gemm_fp16_dequant(a, q, /*threads=*/0);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 32 * 512 * n);
}
BENCHMARK(BM_GemmFp16DequantMT)->Arg(64)->Arg(256);

void
BM_GemmAndaBitExact(benchmark::State &state)
{
    const Matrix a = random_matrix(8, 256, 7);
    const Matrix w = random_matrix(64, 256, 8);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    AndaGemmOptions opts;
    opts.mantissa_bits = static_cast<int>(state.range(0));
    opts.threads = 1;
    for (auto _ : state) {
        Matrix c = gemm_anda(a, q, opts);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 8 * 256 * 64);
}
BENCHMARK(BM_GemmAndaBitExact)->Arg(4)->Arg(8)->Arg(13);

void
BM_GemmAndaBitExactMT(benchmark::State &state)
{
    const Matrix a = random_matrix(64, 256, 7);
    const Matrix w = random_matrix(64, 256, 8);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    AndaGemmOptions opts;
    opts.mantissa_bits = static_cast<int>(state.range(0));
    opts.threads = 0;
    for (auto _ : state) {
        Matrix c = gemm_anda(a, q, opts);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 256 * 64);
}
BENCHMARK(BM_GemmAndaBitExactMT)->Arg(4)->Arg(8)->Arg(13);

}  // namespace

BENCHMARK_MAIN();
