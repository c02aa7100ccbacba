#include "hw/perf_model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "format/compressor.h"

namespace anda {

namespace {

std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/// Weight storage bits per weight: INT4 plus an FP16 scale per group
/// of 128.
constexpr double kWeightBitsPerElem = 4.0 + 16.0 / 128.0;

/// Distinct GeMM taps run_workload prices once and reuses (a
/// transformer step has four: qkv, o, up and down).
constexpr std::size_t kDistinctTaps = 8;

/// Throughput-normalization unit count: all systems have the same
/// bit-level compute budget, so an x-bit bit-parallel datapath fits
/// 16/x times more group engines.
double
unit_scale(const AcceleratorConfig &config)
{
    return 16.0 / baseline_cycles_per_group(config.pe);
}

}  // namespace

double
mxu_power_mw(const AcceleratorConfig &config, const TechParams &tech)
{
    return config.mxu_units * unit_scale(config) *
           pe_metrics(config.pe, tech).power_mw;
}

double
mxu_area_mm2(const AcceleratorConfig &config, const TechParams &tech)
{
    return config.mxu_units * unit_scale(config) *
           pe_metrics(config.pe, tech).area_mm2;
}

double
system_area_mm2(const AcceleratorConfig &config, const TechParams &tech)
{
    double area = mxu_area_mm2(config, tech);
    const double mb = 1024.0 * 1024.0;
    area += (config.act_buffer_bytes / mb) * tech.sram_mm2_per_mb;
    area += (config.weight_buffer_bytes / mb) * tech.sram_mm2_per_mb;
    if (config.has_bpc) {
        area += 16.0 * bpc_lane_budget().nand2() * tech.nand2_um2 * 1e-6;
    }
    // Vector unit (64 FP lanes) + top controller.
    area += 64.0 * vector_lane_budget().nand2() * tech.nand2_um2 * 1e-6;
    area += 0.01;
    return area;
}

GemmCost
analyze_gemm(const AcceleratorConfig &config, const TechParams &tech,
             const GemmShape &shape, int act_mantissa)
{
    GemmCost cost;
    const std::uint64_t out_tiles = ceil_div(shape.n, 16);
    const std::uint64_t tok_tiles = ceil_div(shape.tokens, 16);
    const std::uint64_t k_groups = ceil_div(shape.k, 64);
    const int cpg = config.cycles_per_group(act_mantissa);

    cost.compute_cycles = out_tiles * tok_tiles * k_groups *
                          static_cast<std::uint64_t>(cpg);

    // --- Memory traffic ---
    const double act_bits = config.act_bits_per_element(act_mantissa);

    // Token-slice residency: the resident fraction of the activation
    // buffer holds the input K-slice; rounded down to a multiple of 16
    // tokens.
    const double buf_bits =
        config.act_buffer_bytes * 8.0 * config.resident_fraction;
    std::uint64_t t_tok = static_cast<std::uint64_t>(
        buf_bits / (static_cast<double>(shape.k) * act_bits));
    t_tok = std::max<std::uint64_t>(16, (t_tok / 16) * 16);
    t_tok = std::min<std::uint64_t>(t_tok, tok_tiles * 16);
    const std::uint64_t weight_passes =
        ceil_div(shape.tokens, t_tok);

    const double kd = static_cast<double>(shape.k);
    const double nd = static_cast<double>(shape.n);
    const double td = static_cast<double>(shape.tokens);

    cost.weight_dram_bits =
        kd * nd * kWeightBitsPerElem * static_cast<double>(weight_passes);
    // Input activations read once; outputs written once (in the
    // system's own storage format).
    cost.act_dram_bits = td * kd * act_bits + td * nd * act_bits;

    cost.dram_cycles = static_cast<std::uint64_t>(
        (cost.weight_dram_bits + cost.act_dram_bits) /
        tech.dram_bits_per_cycle());

    // SRAM: activations re-read once per output tile row (the 16
    // columns of a tile share each broadcast bit-plane); outputs are
    // written once. Weights are read once per streaming pass -- inside
    // a token slice they stay in the PEs' double-buffered registers.
    // DRAM refills count as buffer writes and are folded into the
    // per-buffer energies below.
    cost.act_sram_bits =
        td * kd * act_bits * static_cast<double>(out_tiles) +
        td * nd * act_bits;
    cost.weight_sram_bits = cost.weight_dram_bits;

    // --- BPC (output compression, overlapped) ---
    if (config.has_bpc) {
        cost.bpc_cycles = BpcTiming::cycles(
            shape.tokens * shape.n, act_mantissa);
    }

    cost.total_cycles = std::max(
        {cost.compute_cycles, cost.dram_cycles, cost.bpc_cycles});

    // --- Energy ---
    const double cycle_s = 1.0 / tech.clock_hz;
    cost.compute_energy_pj = static_cast<double>(cost.compute_cycles) *
                             cycle_s * mxu_power_mw(config, tech) * 1e9;
    if (config.has_bpc) {
        const double bpc_mw = 16.0 * bpc_lane_budget().activity *
                                  tech.nand2_toggle_fj * 1e-15 *
                                  tech.clock_hz * 1e3 +
                              16.0 * bpc_lane_budget().nand2() *
                                  tech.nand2_leak_nw * 1e-6;
        cost.bpc_energy_pj =
            static_cast<double>(cost.bpc_cycles) * cycle_s * bpc_mw * 1e9;
    }
    cost.act_sram_energy_pj =
        (cost.act_sram_bits + cost.act_dram_bits) * tech.sram_pj_per_bit;
    cost.wgt_sram_energy_pj =
        (cost.weight_sram_bits + cost.weight_dram_bits) *
        tech.sram_pj_per_bit;
    cost.dram_energy_pj =
        (cost.weight_dram_bits + cost.act_dram_bits) *
        tech.dram_pj_per_bit;
    return cost;
}

GemmCost
analyze_attn(const AcceleratorConfig &config, const TechParams &tech,
             const AttnOp &op)
{
    GemmCost cost;
    const double rows = static_cast<double>(op.kv_rows);
    const double dm = static_cast<double>(op.d_model);
    const double layers = static_cast<double>(op.n_layers);

    // Every attended row's K and V stream from DRAM each pass (a
    // multi-thousand-row cache cannot stay on chip), passing once
    // through the activation buffer on the way to the MXU — at the
    // cache's storage width, so a quantized KV format thins exactly
    // this stream.
    cost.kv_dram_bits = 2.0 * rows * dm * op.kv_bits_per_elem * layers;
    cost.act_sram_bits = cost.kv_dram_bits;

    // QK^T and PV each cost d_model MACs per attended K/V row per
    // layer (the llm/opcount.h convention). The MXU runs them at its
    // peak bit-parallel rate — mxu_units engines x 64 MACs/cycle —
    // identically on every system: attention math runs on the
    // dequantized float rows, outside the FP-INT datapaths, so the KV
    // format changes the traffic, never the MAC count.
    const double macs = 2.0 * rows * dm * layers;
    const double macs_per_cycle =
        static_cast<double>(config.mxu_units) * 64.0;
    cost.compute_cycles =
        static_cast<std::uint64_t>(std::ceil(macs / macs_per_cycle));
    cost.dram_cycles = static_cast<std::uint64_t>(
        std::ceil(cost.kv_dram_bits / tech.dram_bits_per_cycle()));
    cost.total_cycles = std::max(cost.compute_cycles, cost.dram_cycles);

    const double cycle_s = 1.0 / tech.clock_hz;
    cost.compute_energy_pj = static_cast<double>(cost.compute_cycles) *
                             cycle_s * mxu_power_mw(config, tech) * 1e9;
    cost.act_sram_energy_pj = cost.act_sram_bits * tech.sram_pj_per_bit;
    cost.dram_energy_pj = cost.kv_dram_bits * tech.dram_pj_per_bit;
    return cost;
}

SystemRun
run_workload(const AcceleratorConfig &config, const TechParams &tech,
             const std::vector<GemmOp> &ops)
{
    // A step repeats a handful of tap shapes once per layer, so each
    // distinct (shape, act_mantissa) is priced once and reused. The
    // sums still accumulate in op order: the result is bit-identical
    // to pricing every op. Ops past the table's capacity are priced
    // directly.
    struct PricedTap {
        GemmShape shape;
        int act_mantissa = 0;
        GemmCost cost;
    };
    std::array<PricedTap, kDistinctTaps> taps;
    std::size_t n_taps = 0;
    const auto price = [&](const GemmOp &op) {
        for (std::size_t i = 0; i < n_taps; ++i) {
            const PricedTap &t = taps[i];
            if (t.act_mantissa == op.act_mantissa &&
                t.shape.tokens == op.shape.tokens &&
                t.shape.k == op.shape.k && t.shape.n == op.shape.n) {
                return t.cost;
            }
        }
        const GemmCost c =
            analyze_gemm(config, tech, op.shape, op.act_mantissa);
        if (n_taps < taps.size()) {
            taps[n_taps++] = {op.shape, op.act_mantissa, c};
        }
        return c;
    };

    SystemRun run;
    for (const auto &op : ops) {
        const GemmCost c = price(op);
        run.cycles += c.total_cycles;
        run.compute_energy_pj += c.compute_energy_pj;
        run.bpc_energy_pj += c.bpc_energy_pj;
        run.act_sram_energy_pj += c.act_sram_energy_pj;
        run.wgt_sram_energy_pj += c.wgt_sram_energy_pj;
        run.dram_energy_pj += c.dram_energy_pj;
    }
    return run;
}

SystemRun
run_workload(const AcceleratorConfig &config, const TechParams &tech,
             const Workload &workload)
{
    SystemRun run = run_workload(config, tech, workload.gemms);
    for (const auto &op : workload.attns) {
        const GemmCost c = analyze_attn(config, tech, op);
        run.cycles += c.total_cycles;
        run.attn_cycles += c.total_cycles;
        run.kv_dram_bits += c.kv_dram_bits;
        run.compute_energy_pj += c.compute_energy_pj;
        run.act_sram_energy_pj += c.act_sram_energy_pj;
        run.dram_energy_pj += c.dram_energy_pj;
    }
    return run;
}

}  // namespace anda
