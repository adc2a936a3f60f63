// Constant-trace verification — does a routine's architectural footprint
// depend on its operands?
//
// Two levels, matching the two places the paper's code exists in this
// repo:
//
//   * VM level (`check_kernel_constant_trace`): run a registry kernel
//     over many random operand draws and diff the TraceDigest of every
//     run against the first, under two criteria:
//       - constant TIMING (pc + instruction-class sequence + cycle
//         costs + access counts): what constant time/energy means on the
//         cacheless M0+, where SRAM access cost is address-independent.
//         The straight-line K-233 kernels (mul, sqr, reduce, lut) must
//         match record-for-record; the looping EEA inversion must not —
//         its divergence report names the first data-dependent branch by
//         pc and enclosing label.
//       - constant ADDRESSES (timing + the memory-address stream): the
//         stricter criterion a cache-bearing host would need. Running
//         the checker surfaced that mul and sqr FAIL it — both index
//         their lookup tables by operand nibbles/bytes (LD window scan,
//         squaring table), the classic table-lookup leak. Only reduce
//         and lut touch operand-independent addresses.
//
//   * Host level: `check_ladder_op_mix` asserts the Montgomery ladder
//     retires the exact same FieldOpCounts bag per processed bit for any
//     scalar (6M + 5S + 3A per step — CurveOps deltas, bitwise equal).
//     `check_wtnaf_op_mix` runs the same assertion over wTNAF kP and is
//     expected to FAIL — per-scalar totals swing with the digit pattern,
//     which is precisely the leak the ladder removes.
//     `check_traced_op_mix` prices the field routines with gf2::traced
//     and reports their operand spread: sqr is exactly uniform, mul
//     jitters by well under 1% (live-range trimming in the inter-pass
//     shift — the abstract-op model's only data dependence), and the EEA
//     inversion spreads by double-digit percentages, flagging it at host
//     level too.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "ec/ops.h"
#include "sca/digest.h"

namespace eccm0::telemetry {
class MetricsRegistry;
class ProgressMeter;
}

namespace eccm0::sca {

struct CtConfig {
  std::string kernel = "mul";  ///< workloads::KernelRegistry name
  unsigned runs = 16;          ///< random operand draws (>= 2)
  std::uint64_t seed = 0xC7C41EC;
  /// Execution engine (`--engine=`). Digest runs are traced, so the
  /// threaded engine takes its per-instruction fallback — the report is
  /// engine-independent by construction, and this exists to prove it.
  armvm::Cpu::DecodeMode engine = armvm::Cpu::DecodeMode::kThreaded;
  /// Optional telemetry (nullptr = off): `ct.runs` / `ct.divergent`
  /// counters and a `ct.run_cycles` histogram, recorded in the serial
  /// run loop; the progress meter ticks once per verified run.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::ProgressMeter* progress = nullptr;
};

struct CtReport {
  std::string target;
  unsigned runs = 0;
  /// The M0+ verdict: pc/class/cycle stream is operand-independent.
  bool constant = false;
  /// The strict verdict: the memory-address stream too. Implies
  /// `constant`; false for the table-indexed kernels (mul, sqr).
  bool constant_addresses = false;
  std::uint64_t trace_len = 0;   ///< retired instructions, reference run
  std::uint64_t ref_cycles = 0;  ///< cycles of the reference run
  std::uint64_t min_cycles = 0;  ///< min / max across all runs: equal to
  std::uint64_t max_cycles = 0;  ///< ref_cycles for a timing-constant kernel
  /// Timing-projection fold of the reference run (addresses excluded) —
  /// operand-independent, hence seed-stable, for a timing-constant
  /// kernel; the value the CI gate pins.
  std::uint64_t digest = 0;
  Divergence first;  ///< first strict divergence found (if any)
};

/// Run the named kernel `cfg.runs` times over independent random
/// operands (Rng::split per run) and diff every run against the first.
/// Supported kernels: the K-233 set — mul / mul-raw / mul-plain /
/// mul-plain-raw / sqr / reduce / lut / inv. Throws std::invalid_argument
/// for anything else (no operand recipe).
CtReport check_kernel_constant_trace(const CtConfig& cfg);

/// The per-kernel operand recipe behind the checker, shared with the
/// TVLA campaign: draw fresh operands from `rng` and write them into the
/// gen.h RAM slots the named kernel reads (the reduce kernel gets a
/// realistic wide operand — the raw LD product of two random in-field
/// elements). Throws std::invalid_argument for unsupported kernels.
void load_kernel_operands(const std::string& kernel, armvm::Memory& mem,
                          Rng& rng);

struct LadderReport {
  unsigned scalars = 0;
  std::uint64_t steps = 0;  ///< total ladder iterations examined
  bool uniform = false;     ///< every step's delta equals step_mix
  ec::FieldOpCounts step_mix;  ///< the per-bit bag (first step observed)
};

/// Exact per-step FieldOpCounts uniformity of mul_ladder on sect233k1
/// over `scalars` random scalars below the group order.
LadderReport check_ladder_op_mix(unsigned scalars, std::uint64_t seed);

struct WtnafReport {
  unsigned scalars = 0;
  unsigned w = 0;
  bool uniform = false;        ///< expected false: totals differ by scalar
  std::uint64_t min_total = 0; ///< min / max field ops over one full kP
  std::uint64_t max_total = 0;
};

/// Same experiment over wTNAF kP: total counted field ops per scalar.
WtnafReport check_wtnaf_op_mix(unsigned scalars, std::uint64_t seed,
                               unsigned w = 4);

struct TracedMixReport {
  unsigned samples = 0;
  double tolerance = 0.0;      ///< relative spread allowed for mul
  std::uint64_t mul_min = 0, mul_max = 0;  ///< mul_traced total ops
  std::uint64_t sqr_min = 0, sqr_max = 0;
  std::uint64_t inv_min = 0, inv_max = 0;
  double mul_spread = 0.0;     ///< (max - min) / min
  double inv_spread = 0.0;
  bool mul_within_tolerance = false;
  bool sqr_uniform = false;    ///< exact: min == max
  bool inv_flagged = false;    ///< spread above tolerance (expected true)
};

/// Operand spread of the gf2::traced abstract-op totals over `samples`
/// random in-field operands. `tolerance` bounds the relative spread a
/// routine may show and still count as uniform; the default 2% is an
/// order of magnitude above mul's observed trim jitter (~0.6%) and an
/// order below inv's data dependence (tens of percent).
TracedMixReport check_traced_op_mix(unsigned samples, std::uint64_t seed,
                                    double tolerance = 0.02);

}  // namespace eccm0::sca
