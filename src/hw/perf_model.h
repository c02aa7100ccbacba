#pragma once

/// @file
/// Closed-form performance/energy model of one FP-INT GeMM on a
/// configured accelerator, plus attention passes and workload
/// aggregation.
///
/// Dataflow (paper Sec. IV-D): output-stationary 16x16 tiles over
/// 64-element reduction groups. A token-slice of the activation matrix
/// stays resident in (half of) the activation buffer while the weights
/// stream from DRAM once per slice, so compressed activations shrink
/// *both* activation traffic and weight re-streaming. A tile pass
/// costs `cycles_per_group` plane-cycles (Anda: M+1). Attention
/// (AttnOp / analyze_attn) is priced separately: it is not an FP-INT
/// tap — its operands are the cached K/V rows streamed from DRAM every
/// step at the KV cache's storage width (32 bits/element for FP32, the
/// format's bits_per_element() when the cache is quantized — see
/// format/kv_format.h), so its cost scales with context length and
/// shrinks with the KV format rather than the weight volume. The
/// tile-level cycle simulator (cycle_sim.h) validates both sets of
/// formulas.

#include <cstdint>
#include <string>
#include <vector>

#include "hw/accelerator.h"
#include "hw/tech.h"

namespace anda {

/// Shape of one activation x weight GeMM: A [tokens x k] times
/// W^T [k x n] -> [tokens x n].
struct GemmShape {
    std::uint64_t tokens = 0;
    std::uint64_t k = 0;
    std::uint64_t n = 0;
};

/// One workload entry: a GeMM plus the activation mantissa length its
/// module was assigned (16 for FP16-activation systems).
struct GemmOp {
    GemmShape shape;
    int act_mantissa = 16;
    std::string label;
};

/// One attention pass: `q_rows` new query rows of one sequence scored
/// against its cached K/V context in every layer (the serving decode
/// regime, Anda Sec. V). Unlike the FP-INT taps, attention has no
/// weight stream — each step re-reads the sequence's cached K/V rows
/// from DRAM, so the cost grows with context length and with the KV
/// storage width: kv_bits_per_elem is 32 for FP32 caches and the
/// KvFormat's bits_per_element() for quantized ones, shrinking the
/// DRAM stream (compute is unchanged — attention math always runs on
/// the dequantized float rows).
struct AttnOp {
    /// New query rows this pass (1 per decode step; the chunk length
    /// for a prefill chunk).
    std::uint64_t q_rows = 0;
    /// Per-layer K/V rows attended, summed over the query rows. Each
    /// query attends the cached prefix plus every earlier row of its
    /// own chunk plus itself: q_rows * context + q_rows*(q_rows+1)/2
    /// for a chunk appended to `context` already-cached rows
    /// (attn_kv_rows in hw/workload.h computes exactly this).
    std::uint64_t kv_rows = 0;
    std::uint64_t d_model = 0;
    std::uint64_t n_layers = 0;
    std::string label;
    /// DRAM bits per cached K/V element (the cache's storage width;
    /// 32.0 keeps the FP32 pricing bit-identical to the legacy model).
    double kv_bits_per_elem = 32.0;
};

/// Cost of one GeMM or attention pass.
struct GemmCost {
    std::uint64_t compute_cycles = 0;
    std::uint64_t dram_cycles = 0;
    std::uint64_t bpc_cycles = 0;
    std::uint64_t total_cycles = 0;

    double weight_dram_bits = 0;
    double act_dram_bits = 0;
    /// Cached K/V rows streamed from DRAM (analyze_attn only; the
    /// GeMM taps carry no KV traffic and leave it zero).
    double kv_dram_bits = 0;
    double weight_sram_bits = 0;
    double act_sram_bits = 0;

    double compute_energy_pj = 0;   ///< MXU only.
    double bpc_energy_pj = 0;       ///< Anda's output compressor.
    double act_sram_energy_pj = 0;  ///< Activation buffer reads+fills.
    double wgt_sram_energy_pj = 0;  ///< Weight buffer reads+fills.
    double dram_energy_pj = 0;

    double sram_energy_pj() const
    {
        return act_sram_energy_pj + wgt_sram_energy_pj;
    }
    double total_energy_pj() const
    {
        return compute_energy_pj + bpc_energy_pj + sram_energy_pj() +
               dram_energy_pj;
    }
    double dram_bits() const
    {
        return weight_dram_bits + act_dram_bits + kv_dram_bits;
    }
};

/// Aggregate over a workload.
struct SystemRun {
    std::uint64_t cycles = 0;
    /// Attention share of `cycles` and its KV DRAM traffic (both zero
    /// for GeMM-only workloads — the legacy aggregate is unchanged).
    std::uint64_t attn_cycles = 0;
    double kv_dram_bits = 0;
    double compute_energy_pj = 0;
    double bpc_energy_pj = 0;
    double act_sram_energy_pj = 0;
    double wgt_sram_energy_pj = 0;
    double dram_energy_pj = 0;

    double sram_energy_pj() const
    {
        return act_sram_energy_pj + wgt_sram_energy_pj;
    }
    double total_energy_pj() const
    {
        return compute_energy_pj + bpc_energy_pj + sram_energy_pj() +
               dram_energy_pj;
    }
    double seconds(const TechParams &tech) const
    {
        return static_cast<double>(cycles) / tech.clock_hz;
    }
};

/// MXU power of a configuration [mW] (throughput-normalized unit count
/// times the PE model; FIGNA-Mx systems carry 16/x units).
double mxu_power_mw(const AcceleratorConfig &config,
                    const TechParams &tech = tech16());

/// MXU area of a configuration [mm^2].
double mxu_area_mm2(const AcceleratorConfig &config,
                    const TechParams &tech = tech16());

/// Total die area of a configuration [mm^2] (MXU + buffers + BPC +
/// vector unit + control).
double system_area_mm2(const AcceleratorConfig &config,
                       const TechParams &tech = tech16());

/// Analyzes one GeMM.
GemmCost analyze_gemm(const AcceleratorConfig &config,
                      const TechParams &tech, const GemmShape &shape,
                      int act_mantissa);

/// Analyzes one attention pass: score/value MACs (2 x d_model per
/// attended K/V row per layer, the llm/opcount.h convention) against
/// the DRAM stream of the cached K and V rows at op.kv_bits_per_elem
/// bits per element. Every system is priced at the same peak MAC
/// throughput (mxu_units x 64 MACs/cycle) — attention is outside the
/// FP-INT datapaths, so no *activation* format shortens it; only a
/// quantized *KV* format thins the DRAM stream that makes
/// long-context decode memory-bound.
GemmCost analyze_attn(const AcceleratorConfig &config,
                      const TechParams &tech, const AttnOp &op);

/// A priced workload: the FP-INT GeMM taps plus (optionally) the
/// attention passes of the step. The GeMM-only run_workload overload
/// below is the legacy entry point and prices attention as absent.
struct Workload {
    std::vector<GemmOp> gemms;
    std::vector<AttnOp> attns;
};

/// Runs a whole workload (sums costs; GeMMs execute back-to-back).
/// Each distinct (shape, act_mantissa) is analyzed once and its cost
/// reused; the sums run in op order, bit-identical to summing
/// analyze_gemm over every op.
SystemRun run_workload(const AcceleratorConfig &config,
                       const TechParams &tech,
                       const std::vector<GemmOp> &ops);

/// Runs a workload with attention passes: the GeMM aggregate plus
/// every AttnOp priced by analyze_attn, executed back-to-back. With
/// `workload.attns` empty this is bit-identical to the GeMM-only
/// overload.
SystemRun run_workload(const AcceleratorConfig &config,
                       const TechParams &tech,
                       const Workload &workload);

}  // namespace anda
