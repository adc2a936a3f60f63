// Leakage assessment of the reproduced implementation, both detectors:
//
//   1. Constant-trace verification of the K-233 VM kernels under the two
//      criteria (timing = pc/class/cycle stream; addresses = timing +
//      memory-address stream), plus the host-level op-mix checks
//      (Montgomery ladder exact; wTNAF expected-leaky; gf2::traced
//      pricing spread).
//   2. Fixed-vs-random TVLA over the simulated power rig, fanned out
//      through sim::BatchExecutor — bit-identical for any --threads.
//
// The bench is self-checking: it exits nonzero if the paper's
// constant-time story does not reproduce (mul/sqr/reduce/lut must verify
// timing-constant and TVLA-clean, the EEA inversion and wTNAF must be
// flagged). `--json[=PATH]` mirrors the verdicts and digests into
// BENCH_sca.json; CI regenerates it with --threads=4 and diffs the
// digests against the committed serial baseline.
//
// Flags: --json[=PATH] --threads=N --seed=S --iters=N (traces per class)
//        --engine=E (digests are engine-independent) --curve=NAME
//        (sect233k1 default; a secp curve swaps in its prime kernel
//        set: the raw school-book product must verify
//        constant and TVLA-clean, while the Montgomery kernels' REDC
//        carry loop and the EEA inverse must be flagged; the host-level
//        op-mix checks stay sect233k1-scoped and are skipped).
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "armvm/dispatch.h"
#include "manifest.h"
#include "report.h"
#include "sca/campaign.h"
#include "sca/ct_check.h"
#include "telemetry/metrics.h"
#include "telemetry/progress.h"
#include "workloads/spec.h"

namespace {

using namespace eccm0;

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* verdict(bool ok, const char* pass = "PASS",
                    const char* fail = "FLAG") {
  return ok ? pass : fail;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  args.seed = 0x5CA;
  args.iters = 40;  // TVLA traces per class
  if (!args.parse(argc - 1, argv + 1, "BENCH_sca.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  const workloads::CurveRef* curve = nullptr;
  armvm::Cpu::DecodeMode engine;
  try {
    curve = &workloads::curve_from_name(args.curve);
    engine = armvm::decode_mode_from_name(args.engine);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bool ok = true;
  telemetry::MetricsRegistry metrics;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "tvla traces",
      3 * 2 * args.iters);
  bench::JsonWriter json;
  bench::manifest_begin(json, "bench_sca", &args);
  json.field("bench", "sca");
  json.field("curve", curve->name);
  json.field("seed", args.seed);
  json.field("traces_per_class", args.iters);

  // ---- 1. VM-level constant-trace verification -------------------------
  bench::banner("Constant-trace verification (16 random operand draws)");
  bench::Table ct({"kernel", "timing", "addresses", "instrs", "cycles",
                   "digest", "first divergence"});
  json.begin_array("constant_trace");
  struct KernelExpect {
    std::string kernel;
    bool expect_timing;  // the paper's constant-time story
  };
  std::vector<KernelExpect> kKernels;
  if (curve->binary_field) {
    kKernels = {{"mul", true},  {"sqr", true}, {"reduce", true},
                {"lut", true},  {"inv", false}};
  } else {
    // Only the raw school-book product is straight-line. Every
    // Montgomery-reduced kernel carries the operand-dependent REDC
    // carry-propagation loop plus the final conditional subtract, and
    // the EEA inverse branches on operand bits.
    const std::string& t = curve->kernel_tag;
    kKernels = {{t + "-mul", true},   {t + "-mont", false},
                {t + "-sqr", false},  {t + "-redc", false},
                {t + "-inv", false}};
  }
  for (const auto& [kernel, expect_timing] : kKernels) {
    sca::CtConfig cfg;
    cfg.kernel = kernel;
    cfg.seed = args.seed;
    cfg.engine = engine;
    cfg.metrics = &metrics;
    const sca::CtReport rep = sca::check_kernel_constant_trace(cfg);
    std::string where = "-";
    if (rep.first.diverged) {
      where = "#" + std::to_string(rep.first.index) + " " +
              rep.first.symbol_a + " (" + rep.first.reason + ")";
    }
    std::string cycles = std::to_string(rep.ref_cycles);
    if (rep.min_cycles != rep.max_cycles) {
      cycles = std::to_string(rep.min_cycles) + ".." +
               std::to_string(rep.max_cycles);
    }
    ct.add_row({kernel, verdict(rep.constant),
                verdict(rep.constant_addresses), bench::fmt_u64(rep.trace_len),
                cycles, hex64(rep.digest), where});
    if (rep.constant != expect_timing) {
      std::fprintf(stderr, "FAIL: kernel '%s' timing verdict %d, expected %d\n",
                   kernel.c_str(), rep.constant, expect_timing);
      ok = false;
    }
    json.begin_object();
    json.field("kernel", kernel);
    json.field("timing_constant", rep.constant);
    json.field("addr_constant", rep.constant_addresses);
    json.field("instructions", rep.trace_len);
    json.field("min_cycles", rep.min_cycles);
    json.field("max_cycles", rep.max_cycles);
    json.field("digest", hex64(rep.digest));
    json.end_object();
  }
  ct.print();
  json.end_array();
  if (curve->binary_field) {
    std::printf(
        "\nmul and sqr FLAG on 'addresses': their lookup tables are indexed\n"
        "by operand nibbles/bytes. On the cacheless M0+ that stream costs\n"
        "the same cycles and energy regardless, so 'timing' is the paper's\n"
        "constant-time claim; 'addresses' is what a cache-bearing host\n"
        "would additionally need.\n");
  } else {
    std::printf(
        "\nOnly the raw school-book product is straight-line on GF(p):\n"
        "the Montgomery kernels' REDC carry loop and conditional subtract\n"
        "retire an operand-dependent cycle count, and the EEA inverse\n"
        "branches on operand bits — a constant-time port would need a\n"
        "carry-save REDC and a Fermat ladder inverse.\n");
  }

  // ---- 2. Host-level op-mix checks (sect233k1 scope) -------------------
  // The op-mix auditors target the paper's binary-field reproduction
  // (ladder uniformity, wTNAF scalar dependence, gf2::traced pricing);
  // the prime stack's cost accounting is audited by the campaign cost
  // profiles instead.
  if (!curve->binary_field) {
    bench::banner("Host-level operation-mix checks: skipped (sect233k1 scope)");
  } else {
  bench::banner("Host-level operation-mix checks");
  const sca::LadderReport lad = sca::check_ladder_op_mix(8, args.seed);
  std::printf("ladder  per-step mix %lluM %lluS %lluA over %llu steps: %s\n",
              static_cast<unsigned long long>(lad.step_mix.mul),
              static_cast<unsigned long long>(lad.step_mix.sqr),
              static_cast<unsigned long long>(lad.step_mix.add),
              static_cast<unsigned long long>(lad.steps),
              verdict(lad.uniform, "UNIFORM", "NON-UNIFORM"));
  if (!lad.uniform) ok = false;

  const sca::WtnafReport wt = sca::check_wtnaf_op_mix(8, args.seed, 4);
  std::printf("wTNAF   total field ops per kP in [%llu, %llu]: %s\n",
              static_cast<unsigned long long>(wt.min_total),
              static_cast<unsigned long long>(wt.max_total),
              verdict(!wt.uniform, "FLAGGED (scalar-dependent)", "uniform?!"));
  if (wt.uniform) ok = false;

  const sca::TracedMixReport tm = sca::check_traced_op_mix(64, args.seed);
  std::printf(
      "traced  sqr %s, mul spread %.3f%% (live-range trim, tol %.1f%%), "
      "inv spread %.1f%% %s\n",
      verdict(tm.sqr_uniform, "exact", "NON-UNIFORM"), 100.0 * tm.mul_spread,
      100.0 * tm.tolerance, 100.0 * tm.inv_spread,
      verdict(tm.inv_flagged, "FLAGGED", "uniform?!"));
  if (!tm.sqr_uniform || !tm.mul_within_tolerance || !tm.inv_flagged) {
    ok = false;
  }
  json.begin_object("ladder");
  json.field("uniform", lad.uniform);
  json.field("steps", lad.steps);
  json.field("mul", lad.step_mix.mul);
  json.field("sqr", lad.step_mix.sqr);
  json.field("add", lad.step_mix.add);
  json.end_object();
  json.begin_object("wtnaf");
  json.field("uniform", wt.uniform);
  json.field("min_total", wt.min_total);
  json.field("max_total", wt.max_total);
  json.end_object();
  json.begin_object("traced_mix");
  json.field("sqr_uniform", tm.sqr_uniform);
  json.field("mul_spread", tm.mul_spread);
  json.field("inv_spread", tm.inv_spread);
  json.end_object();
  }

  // ---- 3. TVLA fixed-vs-random on the power rig ------------------------
  bench::banner("TVLA fixed-vs-random (Welch t, |t| > 4.5)");
  bench::Table tv({"kernel", "traces", "cycles", "max|t|", "raw>thr",
                   "confirmed", "len-leak", "verdict", "t-digest"});
  json.begin_array("tvla");
  struct TvlaExpect {
    std::string kernel;
    bool expect_leaky;
  };
  std::vector<TvlaExpect> kTargets;
  if (curve->binary_field) {
    kTargets = {{"mul", false}, {"sqr", false}, {"inv", true}};
  } else {
    const std::string& t = curve->kernel_tag;
    kTargets = {{t + "-mul", false}, {t + "-mont", true}, {t + "-inv", true}};
  }
  for (const auto& [kernel, expect_leaky] : kTargets) {
    sca::TvlaCampaignConfig cfg;
    cfg.kernel = kernel;
    cfg.traces_per_class = static_cast<unsigned>(args.iters);
    cfg.seed = args.seed;
    cfg.threads = args.threads;
    cfg.engine = engine;
    cfg.metrics = &metrics;
    cfg.progress = &progress;
    const sca::TvlaCampaignResult res = sca::run_tvla_campaign(cfg);
    const sca::TvlaSummary& s = res.summary;
    tv.add_row({kernel, bench::fmt_u64(res.traces),
                bench::fmt_u64(s.compared_cycles), bench::fmt_f(s.max_abs_t),
                bench::fmt_u64(s.cycles_over_raw),
                bench::fmt_u64(s.cycles_over), s.length_leak ? "yes" : "no",
                verdict(!s.leaky, "CLEAN", "LEAKY"), hex64(res.t_digest)});
    if (s.leaky != expect_leaky) {
      std::fprintf(stderr, "FAIL: kernel '%s' TVLA leaky=%d, expected %d\n",
                   kernel.c_str(), s.leaky, expect_leaky);
      ok = false;
    }
    json.begin_object();
    json.field("kernel", kernel);
    json.field("traces", res.traces);
    json.field("compared_cycles", static_cast<std::uint64_t>(s.compared_cycles));
    json.field("max_abs_t", s.max_abs_t);
    json.field("cycles_over_raw", static_cast<std::uint64_t>(s.cycles_over_raw));
    json.field("cycles_over", static_cast<std::uint64_t>(s.cycles_over));
    json.field("length_leak", s.length_leak);
    json.field("leaky", s.leaky);
    json.field("t_digest", hex64(res.t_digest));
    json.end_object();
  }
  tv.print();
  json.end_array();
  std::printf(
      "\nThe rig's power model is class-based, so TVLA here detects\n"
      "operand-dependent control flow: the straight-line kernels are\n"
      "CLEAN, the EEA inversion's data-dependent loop is LEAKY (plus a\n"
      "trace-length leak). 'confirmed' counts cycles over threshold in\n"
      "both independent halves with the same sign (duplicated test);\n"
      "'raw' excursions alone are small-sample noise. The t-digest is\n"
      "invariant under --threads.\n");

  bench::banner("telemetry");
  metrics.print(stdout);

  json.field("self_check", ok ? "pass" : "fail");
  bench::manifest_end(json, &metrics);
  if (args.json && !json.write_file(args.json_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "\nself-check FAILED\n");
    return 1;
  }
  return 0;
}
