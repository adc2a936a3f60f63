// Fault-injection campaign: detection coverage of the hardened kP path.
//
// Runs seeded fault injections (register flips, RAM flips, instruction
// skips, opcode flips) against the armvm field-multiplication kernel
// inside a live sect233k1 wTNAF scalar multiplication, classifies every
// run under each countermeasure profile of ec::scalarmul_protected, and
// prints the coverage matrix: countermeasure set x fault model -> %
// silent corruption. The overhead table prices what each profile costs
// on a clean run (cycles and uJ, proposed-asm prices), and a final demo
// shows ECDSA verify-after-sign refusing a faulted signature.
//
// Flags (bench::Args): --runs=N (default 1000 per model), --quick (25
//        per model), --seed=S, --curve=NAME (sect233k1 default; the
//        secp curves fault the Montgomery-mul kernel inside a Jacobian
//        wNAF ladder instead), --engine=perstep|threaded (the injected
//        core, default threaded), --threads=N (batch-executor workers,
//        default 1, 0 = hardware concurrency; tallies identical for any
//        value), --json[=PATH] (default BENCH_fault_campaign.json).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "armvm/dispatch.h"
#include "crypto/ecdsa.h"
#include "faultsim/campaign.h"
#include "manifest.h"
#include "relic_like/costs.h"
#include "report.h"
#include "telemetry/metrics.h"
#include "telemetry/progress.h"
#include "workloads/spec.h"

namespace {

using namespace eccm0;

std::string pct(double rate) { return bench::fmt_f(rate * 100.0, 1) + "%"; }

/// Coherence demo: one deterministic fault in the nonce multiplication
/// k*G. Returns {caught_with_check, escaped_without_check}.
std::pair<bool, bool> ecdsa_coherence_demo() {
  crypto::Ecdsa ecdsa;
  std::vector<std::uint8_t> seed(32, 0x5A);
  crypto::HmacDrbg drbg(seed);
  const crypto::KeyPair kp = ecdsa.generate(drbg);
  const char* msg = "fault campaign coherence demo";
  ecdsa.set_mul_tamper([](std::uint64_t idx, const gf2::Elem&,
                          const gf2::Elem&, gf2::Elem& r) {
    if (idx == 100) r[0] ^= 1u;  // one flipped bit inside k*G
  });
  bool caught = false;
  try {
    (void)ecdsa.sign(kp.d, msg, {.coherence_check = true});
  } catch (const ec::FaultDetectedError&) {
    caught = true;
  }
  bool escaped = false;
  try {
    const crypto::Signature sig = ecdsa.sign(kp.d, msg, {});
    // Without the check the faulty signature leaves the node; it cannot
    // verify, so a peer would reject it — but the node never knows.
    escaped = !ecdsa.verify(kp.q, msg, sig);
  } catch (const ec::FaultDetectedError&) {
  }
  return {caught, escaped};
}

}  // namespace

int main(int argc, char** argv) {
  faultsim::CampaignConfig cfg;
  bool quick = false;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.add_flag("--quick", &quick);
  args.add_u64("--runs", &cfg.runs_per_model);
  if (!args.parse(argc - 1, argv + 1, "BENCH_fault_campaign.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  try {
    (void)workloads::curve_from_name(args.curve);
    cfg.engine = armvm::decode_mode_from_name(args.engine);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  cfg.curve = args.curve;
  if (quick) cfg.runs_per_model = 25;
  const std::string json_path = args.json_path;

  telemetry::MetricsRegistry metrics;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "fault campaign",
      cfg.runs_per_model * faultsim::kNumFaultModels);
  cfg.metrics = &metrics;
  cfg.progress = &progress;

  const std::string title =
      "Fault-injection campaign: hardened kP on " + cfg.curve;
  bench::banner(title.c_str());
  std::printf("seed 0x%llx, %llu injections per fault model, %u thread(s)"
              "\n\n",
              static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.runs_per_model),
              cfg.threads);

  const auto t0 = std::chrono::steady_clock::now();
  const faultsim::CampaignResult res = faultsim::run_kp_campaign(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  const auto& profiles = faultsim::protection_profiles();

  // Coverage matrix: % of injections that escape as silent corruption.
  std::vector<std::string> model_names;
  for (const auto& m : res.models) {
    model_names.push_back(faultsim::fault_model_name(m.model));
  }
  bench::Matrix coverage("silent corruption", model_names);
  for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
    std::vector<std::string> cells;
    for (const auto& m : res.models) {
      cells.push_back(pct(m.per_profile[p].silent_rate()));
    }
    coverage.add_row(profiles[p].name, std::move(cells));
  }
  coverage.print();

  // Outcome detail per fault model.
  for (const auto& m : res.models) {
    bench::banner(faultsim::fault_model_name(m.model));
    bench::Table t({"profile", "correct", "detected", "crashed", "silent"});
    for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
      const auto& o = m.per_profile[p];
      t.add_row({profiles[p].name, bench::fmt_u64(o.correct),
                 bench::fmt_u64(o.detected), bench::fmt_u64(o.crashed),
                 bench::fmt_u64(o.silent)});
    }
    t.print();
  }

  // What the countermeasures cost when nothing goes wrong.
  bench::banner("clean-run overhead (proposed-asm prices)");
  bench::Table cost({"profile", "Fmul", "Fsqr", "Finv", "cycles", "overhead",
                     "energy uJ"});
  const std::uint64_t base_cycles = res.costs[0].cycles;
  for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
    const auto& c = res.costs[p];
    const double over =
        100.0 * (static_cast<double>(c.cycles) / base_cycles - 1.0);
    cost.add_row({profiles[p].name, bench::fmt_u64(c.ops.mul),
                  bench::fmt_u64(c.ops.sqr), bench::fmt_u64(c.ops.inv),
                  bench::fmt_u64(c.cycles), bench::fmt_f(over, 2) + "%",
                  bench::fmt_f(c.energy_uj, 2)});
  }
  cost.print();

  // ECDSA verify-after-sign.
  bench::banner("ECDSA sign coherence check");
  const auto [caught, escaped] = ecdsa_coherence_demo();
  std::printf("faulted k*G with coherence check : %s\n",
              caught ? "FaultDetectedError (sign refused)" : "NOT DETECTED");
  std::printf("same fault, no coherence check   : %s\n",
              escaped ? "invalid signature released silently"
                      : "signature unexpectedly fine");
  std::printf("\ncampaign wall time: %.2f s (%u thread(s))\n", wall_seconds,
              cfg.threads);

  bench::banner("telemetry");
  metrics.print(stdout);

  if (!json_path.empty()) {
    bench::JsonWriter w;
    // Wall time and thread count stay out of the persisted payload: the
    // manifest must be byte-identical for a fixed seed (CI compares the
    // parallel rerun's payload against the committed serial baseline).
    bench::manifest_begin(w, "bench_fault_campaign", &args);
    w.field("bench", "fault_campaign");
    w.field("curve", cfg.curve);
    w.field("seed", cfg.seed);
    w.field("runs_per_model", cfg.runs_per_model);
    w.raw("silent_rate_matrix", coverage.to_json());
    w.begin_array("models");
    for (const auto& m : res.models) {
      w.begin_object();
      w.field("model", faultsim::fault_model_name(m.model));
      w.field("runs", m.runs);
      w.field("injected", m.injected);
      w.begin_array("profiles");
      for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
        const auto& o = m.per_profile[p];
        w.begin_object();
        w.field("profile", profiles[p].name);
        w.field("correct", o.correct);
        w.field("detected", o.detected);
        w.field("crashed", o.crashed);
        w.field("silent", o.silent);
        w.field("silent_rate", o.silent_rate());
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.begin_array("overhead");
    for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
      const auto& c = res.costs[p];
      w.begin_object();
      w.field("profile", profiles[p].name);
      w.field("fmul", c.ops.mul);
      w.field("fsqr", c.ops.sqr);
      w.field("finv", c.ops.inv);
      w.field("fadd", c.ops.add);
      w.field("cycles", c.cycles);
      w.field("energy_uj", c.energy_uj);
      w.end_object();
    }
    w.end_array();
    w.field("ecdsa_coherence_detected", caught);
    w.field("ecdsa_unchecked_escape", escaped);
    bench::manifest_end(w, &metrics);
    if (w.write_file(json_path)) {
      std::printf("\nJSON written to %s\n", json_path.c_str());
    }
  }

  // The bench doubles as an assertion: with every countermeasure on,
  // nothing silent may survive, and without them faults must be visible.
  bool unprotected_sees_silent = false;
  for (const auto& m : res.models) {
    if (m.per_profile[0].silent > 0) unprotected_sees_silent = true;
    if (m.per_profile[faultsim::kNumProfiles - 1].silent != 0) {
      std::fprintf(stderr, "FAIL: silent corruption under full protection\n");
      return 1;
    }
  }
  if (!unprotected_sees_silent) {
    std::fprintf(stderr, "FAIL: no silent corruption without protection?\n");
    return 1;
  }
  if (!caught || !escaped) {
    std::fprintf(stderr, "FAIL: ECDSA coherence demo inconclusive\n");
    return 1;
  }
  return 0;
}
