// campaign_protected: a MemFaultCampaign BER sweep over the parity and
// SECDED memory models plus a fixed-vs-random TVLA campaign on the `mul`
// kernel, both fanned over sim::BatchExecutor with two workers: enough
// for the fan-out to run in parallel, while the rate does not hinge on
// other tenants of a shared host leaving every core free.
// These are the protected-memory and traced VM paths (which the
// threaded engine hands back to predecode), plus faultsim injection,
// host ec kP and batch fan-out — none of which vm_replay touches.
//
// One round = both sweeps + the TVLA campaign, all from the seeds the
// run derives from --seed; rounds repeat until the run time is spent.
// Every round must reproduce the 1-worker reference run exactly.
#include <malloc.h>

#include "common.h"
#include "common/rng.h"
#include "faultsim/campaign.h"
#include "sca/campaign.h"
#include "service/server.h"
#include "telemetry/metrics.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace eccm0;

namespace {

constexpr armvm::Cpu::DecodeMode kEngine = armvm::Cpu::DecodeMode::kThreaded;
constexpr const char* kCurve = "sect233k1";
constexpr std::uint64_t kRunsPerCell = 96;
constexpr unsigned kTracesPerClass = 96;
const std::vector<double> kBers = {1e-6, 1e-5, 1e-4, 1e-3};
const armvm::MemModelKind kModels[] = {armvm::MemModelKind::kParity,
                                       armvm::MemModelKind::kSecded};

struct Round {
  std::vector<faultsim::MemModelReport> reports;
  sca::TvlaCampaignResult tvla;
  std::string mem_payload;
  /// Simulated cycles each call recorded into the metrics registry:
  /// one entry per memory model, then the TVLA traces.
  std::vector<std::uint64_t> cycles;
};

/// Clean-run stats of one `mul` call under `mem` (the kernel is
/// timing-constant, so any operands give the campaign's clean cost).
armvm::RunStats clean_mul(const armvm::MemModelConfig& mem) {
  workloads::KernelMachine km("mul", kEngine, mem);
  const workloads::KernelOperands& od = workloads::KernelOperands::standard();
  workloads::load_mul_inputs(km.mem(), od.x, od.y);
  return km.call();
}

}  // namespace

RunResult run_campaign(const Options& opt, Clock::time_point t_main) {
  RunResult res;
  const unsigned workers = 2;
  Rng seeds(opt.seed);
  const std::uint64_t mem_seed = seeds.split(1).next_u64();
  sca::TvlaCampaignConfig tcfg;
  tcfg.kernel = "mul";
  tcfg.traces_per_class = kTracesPerClass;
  tcfg.seed = seeds.split(2).next_u64();
  tcfg.engine = kEngine;

  Clock::time_point t = Clock::now();
  workloads::kernel("mul");
  const double registry_ns = static_cast<double>(ns_since(t));
  t = Clock::now();
  faultsim::MemFaultCampaign campaign(mem_seed, kEngine, kCurve);
  const double ctor_ns = static_cast<double>(ns_since(t));
  res.setup_s = static_cast<double>(ns_since(t_main)) / 1e9;
  if (opt.setup_only) return res;

  faultsim::MemCampaignConfig mcfg;
  mcfg.seed = mem_seed;
  mcfg.curve = kCurve;
  mcfg.runs_per_cell = kRunsPerCell;
  mcfg.engine = kEngine;
  mcfg.bers = kBers;
  const auto hist_sum = [](const telemetry::MetricsRegistry* reg,
                           const char* name) -> std::uint64_t {
    return reg != nullptr ? reg->histogram_copy(name).sum() : 0;
  };
  const auto run_round = [&](unsigned threads, Tracer& tracer,
                             std::uint64_t op,
                             telemetry::MetricsRegistry* reg) {
    campaign.set_metrics(reg);
    Round r;
    for (armvm::MemModelKind kind : kModels) {
      const std::uint64_t before = hist_sum(reg, "campaign.mem.vm_cycles");
      Tracer::Scope s(tracer,
                      std::string("faultsim.MemFaultCampaign::run_model.") +
                          armvm::mem_model_name(kind),
                      op);
      r.reports.push_back(campaign.run_model(
          armvm::MemModelConfig::for_kind(kind), kBers, kRunsPerCell, threads));
      r.cycles.push_back(hist_sum(reg, "campaign.mem.vm_cycles") - before);
    }
    {
      const std::uint64_t before = hist_sum(reg, "tvla.trace_cycles");
      Tracer::Scope s(tracer, "sca.run_tvla_campaign", op);
      sca::TvlaCampaignConfig c = tcfg;
      c.threads = threads;
      c.metrics = reg;
      r.tvla = sca::run_tvla_campaign(c);
      r.cycles.push_back(hist_sum(reg, "tvla.trace_cycles") - before);
    }
    r.mem_payload = service::mem_campaign_payload(
                        faultsim::MemCampaignResult{mcfg, r.reports})
                        .dump();
    return r;
  };

  // Reference: the same round on one worker, untimed. Its simulated
  // cycles must also be what every parallel round records.
  Tracer off(false);
  telemetry::MetricsRegistry reference_reg;
  Round reference = run_round(1, off, 0, &reference_reg);
  // Each BatchExecutor call runs on fresh threads, which inherit malloc
  // arenas still holding the previous round's freed trace buffers;
  // whether a round then grows a second copy is a race, which made peak
  // RSS jump between runs by a whole round's traces. Returning freed
  // memory between rounds makes the peak that of one round's live data.
  malloc_trim(0);
  if (opt.corrupt_expected) reference.tvla.t_digest ^= 1;

  // Simulated cost per op: each injected kernel run's cycles, priced at
  // its memory model's clean-run instructions and energy per cycle (a
  // run cut short by a detected error is priced pro rata); every TVLA
  // trace is one clean raw-memory `mul` call, which its length must
  // confirm.
  std::vector<armvm::RunStats> clean;
  for (std::size_t m = 0; m < std::size(kModels); ++m) {
    clean.push_back(clean_mul(armvm::MemModelConfig::for_kind(kModels[m])));
    if (reference.reports[m].clean_cycles != clean[m].cycles) ++res.failed;
  }
  clean.push_back(clean_mul(armvm::MemModelConfig::raw()));
  if (reference.cycles.back() != reference.tvla.traces * clean.back().cycles) {
    ++res.failed;
  }

  telemetry::MetricsRegistry reg;
  Tracer tracer(false);
  std::uint64_t rounds = 0;
  double wall_ns = 0;
  const std::uint64_t round_ops =
      std::size(kModels) * kBers.size() * kRunsPerCell + 2 * kTracesPerClass;

  const Clock::time_point t0 = Clock::now();
  const auto secs = [&] { return static_cast<double>(ns_since(t0)) / 1e9; };
  ProbeThread probes(t0);
  while (secs() < opt.seconds) {
    tracer.set_enabled(opt.trace && traced_slot(secs()));
    const Clock::time_point a = Clock::now();
    Round r;
    bool threw = false;
    try {
      Tracer::Scope root(tracer, "campaign_protected.round", rounds);
      r = run_round(workers, tracer, rounds, &reg);
    } catch (const std::exception&) {
      threw = true;
    }
    wall_ns += static_cast<double>(ns_since(a));
    malloc_trim(0);  // see the reference round
    ++rounds;
    res.attempted += round_ops;
    // A round's ops all complete with it; their latency is not sampled.
    res.ops.insert(res.ops.end(), round_ops, OpSample{secs(), 0.0, 0});
    if (threw || r.mem_payload != reference.mem_payload ||
        r.tvla.t_digest != reference.tvla.t_digest ||
        r.cycles != reference.cycles) {
      res.failed += round_ops;
    }
  }
  res.elapsed_s = secs();
  res.probes = probes.stop();
  // Every round repeats the reference's simulated work exactly, so the
  // per-op cost is that of one round.
  double instr = 0, cycles = 0, pj = 0;
  for (std::size_t m = 0; m < reference.cycles.size(); ++m) {
    const double c = static_cast<double>(reference.cycles[m]);
    const double per_cycle = 1.0 / static_cast<double>(clean[m].cycles);
    instr += c * static_cast<double>(clean[m].instructions) * per_cycle;
    cycles += c;
    pj += c * clean[m].energy().energy_pj * per_cycle;
  }
  res.mix_ops = round_ops;
  res.sim_instructions_per_op = instr / static_cast<double>(round_ops);
  res.sim_cycles_per_op = cycles / static_cast<double>(round_ops);
  res.sim_uj_per_op = pj * 1e-6 / static_cast<double>(round_ops);

  if (opt.trace) {
    std::map<std::string, double>& L = res.layers;
    // The batch executor's own per-task timing.
    const telemetry::Histogram task_ns = reg.histogram_copy("batch.run_ns");
    const double n = static_cast<double>(std::max<std::uint64_t>(rounds, 1));
    L["setup.registry_ns"] = registry_ns;
    L["setup.campaign_ctor_ns"] = ctor_ns;
    std::vector<double> golden;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point a = Clock::now();
      faultsim::MemFaultCampaign again(mem_seed, kEngine, kCurve);
      golden.push_back(static_cast<double>(ns_since(a)));
    }
    L["ec.golden_ns"] = median(golden);

    for (armvm::MemModelKind kind : kModels) {
      const std::string name = armvm::mem_model_name(kind);
      L["faultsim." + name + ".run_model_ns"] =
          median(tracer.durations("faultsim.MemFaultCampaign::run_model." + name));
    }
    // Tallies per round (every round repeats the reference), outcomes
    // under the unprotected software profile so the memory model's own
    // behaviour shows.
    faultsim::MemOutcomeTally t;
    double flipped = 0, hw = 0;
    for (const faultsim::MemModelReport& rep : reference.reports) {
      for (const faultsim::MemCell& c : rep.cells) {
        flipped += static_cast<double>(c.flipped_bits);
        hw += static_cast<double>(c.hw_corrections);
        const faultsim::MemOutcomeTally& p = c.per_profile[0];
        t.correct += p.correct;
        t.corrected += p.corrected;
        t.detected += p.detected;
        t.crashed += p.crashed;
        t.silent += p.silent;
      }
    }
    L["faultsim.flipped_bits"] = flipped;
    L["faultsim.hw_corrections"] = hw;
    L["faultsim.outcome.correct"] = static_cast<double>(t.correct);
    L["faultsim.outcome.corrected"] = static_cast<double>(t.corrected);
    L["faultsim.outcome.detected"] = static_cast<double>(t.detected);
    L["faultsim.outcome.crashed"] = static_cast<double>(t.crashed);
    L["faultsim.outcome.silent"] = static_cast<double>(t.silent);

    L["sca.traces"] = static_cast<double>(reference.tvla.traces);
    L["sca.trace_cycles.p50"] =
        hist_quantile(reg.histogram_copy("tvla.trace_cycles"), 0.5);
    L["sca.tvla_ns"] = median(tracer.durations("sca.run_tvla_campaign"));

    const telemetry::Histogram wait_ns =
        reg.histogram_copy("batch.queue_wait_ns");
    L["sim.batch.queue_wait_ns.p50"] = hist_quantile(wait_ns, 0.5);
    L["sim.batch.queue_wait_ns.p99"] = hist_quantile(wait_ns, 0.99);
    L["sim.batch.run_ns.p50"] = hist_quantile(task_ns, 0.5);
    L["sim.batch.run_ns.p99"] = hist_quantile(task_ns, 0.99);
    L["sim.batch.tasks"] =
        static_cast<double>(reg.counter_value("batch.tasks")) / n;
    L["sim.worker_busy_share"] =
        static_cast<double>(task_ns.sum()) / (workers * wall_ns);

    // armvm on the protected-memory path the campaign runs: the `mul`
    // kernel under parity and SECDED on the campaign's engine.
    ArmvmTally armvm_tally;
    for (armvm::MemModelKind kind : kModels) {
      workloads::KernelMachine km("mul", kEngine,
                                  armvm::MemModelConfig::for_kind(kind));
      const workloads::KernelOperands& od =
          workloads::KernelOperands::standard();
      for (int i = 0; i < 50; ++i) {
        workloads::load_mul_inputs(km.mem(), od.x, od.y);
        km.cpu().reset_stats();
        const Clock::time_point a = Clock::now();
        const armvm::RunStats s = km.call();
        armvm_tally.add(s, km.cpu().fused_retired(),
                        static_cast<double>(ns_since(a)));
      }
    }
    armvm_tally.report(L);
    if (!asmkernels_layer(L, {"mul"}, kEngine, 50)) ++res.failed;
    if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
  }
  return res;
}

}  // namespace perfbench
