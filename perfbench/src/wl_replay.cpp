// vm_replay: one thread replays kp/ecdh/ecdsa on sect233k1 and
// secp256r1 back to back on the threaded engine over raw memory. This
// isolates armvm dispatch and the Thumb kernels; the service, the
// queue, faultsim and the traced/protected paths are not touched. The
// binary/prime pair keeps the paper's XOR/shift-heavy against
// MUL-heavy contrast in one run.
#include "common.h"
#include "common/rng.h"
#include "workloads/spec.h"

namespace perfbench {

using namespace eccm0;

RunResult run_vm_replay(const Options& opt, Clock::time_point t_main) {
  RunResult res;
  constexpr armvm::Cpu::DecodeMode kEngine = armvm::Cpu::DecodeMode::kThreaded;

  // The seed fixes the order in which the six specs are cycled.
  std::vector<workloads::WorkloadSpec> specs;
  for (const char* curve : {"sect233k1", "secp256r1"}) {
    for (const char* tx : {"kp", "ecdh", "ecdsa"}) {
      specs.push_back(workloads::make_workload(tx, curve));
    }
  }
  Rng order(opt.seed);
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[order.next_below(i)]);
  }

  Clock::time_point t = Clock::now();
  std::vector<workloads::ReplayImages> images;
  for (const workloads::WorkloadSpec& s : specs) {
    images.push_back(workloads::ReplayImages::resolve(s));
  }
  const double registry_ns = static_cast<double>(ns_since(t));
  res.setup_s = static_cast<double>(ns_since(t_main)) / 1e9;
  if (opt.setup_only) return res;

  // Oracle: the per-step engine, once per spec, untimed.
  std::vector<workloads::ReplayResult> expected;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expected.push_back(workloads::replay(specs[i], images[i],
                                         armvm::Cpu::DecodeMode::kPerStep));
    if (opt.corrupt_expected) expected.back().output_digest ^= 1;
  }

  Tracer tracer(false);
  std::vector<armvm::RunStats> mix(specs.size());
  ArmvmTally armvm_tally;
  std::uint64_t op = 0;
  const Clock::time_point t0 = Clock::now();
  // Whole rounds only, so every spec is replayed equally often.
  const auto secs = [&] { return static_cast<double>(ns_since(t0)) / 1e9; };
  while (secs() < opt.seconds) {
    // On this thread, where the replay runs, once per round.
    const double probe = probe_ms();
    res.probes.push_back({secs(), probe});
    for (std::size_t i = 0; i < specs.size(); ++i, ++op) {
      tracer.set_enabled(opt.trace && traced_slot(secs()));
      Tracer::Scope root(tracer, "vm_replay.op", op);
      const Clock::time_point a = Clock::now();
      workloads::ReplayResult r;
      bool threw = false;
      try {
        Tracer::Scope call(tracer, "workloads.replay." + specs[i].name, op);
        r = workloads::replay(specs[i], images[i], kEngine);
      } catch (const std::exception&) {
        threw = true;  // e.g. a VM fault or an exhausted budget
      }
      const double ns = static_cast<double>(ns_since(a));
      ++res.attempted;
      res.ops.push_back({secs(), ns, static_cast<std::uint32_t>(i)});
      if (threw || !(r.stats == expected[i].stats) ||
          r.output_digest != expected[i].output_digest) {
        ++res.failed;
        continue;
      }
      mix[i] = r.stats;
      armvm_tally.add(r.stats, r.fused_retired, ns);
    }
  }
  res.elapsed_s = secs();
  res.mix_ops = specs.size();
  set_mix_cost(res, mix);

  if (opt.trace) {
    res.layers["setup.registry_ns"] = registry_ns;
    armvm_tally.report(res.layers);
    for (const workloads::WorkloadSpec& s : specs) {
      res.layers["workloads.replay." + s.name + ".host_ns"] =
          median(tracer.durations("workloads.replay." + s.name));
    }
    if (!asmkernels_layer(res.layers, kernels_of(specs), kEngine, 20)) ++res.failed;
    if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
  }
  return res;
}

}  // namespace perfbench
