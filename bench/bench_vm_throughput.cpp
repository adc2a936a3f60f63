// Host-side throughput of the armvm interpreter (simulated MIPS), on the
// workload every reproduction number in this repo is made of: the K-233
// field kernels in the mix a real wTNAF w=4 `kP` executes them.
//
// Three engines run the exact same instruction stream:
//   reference  — DecodeMode::kPerStep, the seed interpreter's
//                decode-every-retired-instruction loop
//   predecoded — DecodeMode::kPredecode, the construction-time decode
//                cache + tight run loop
//   threaded   — DecodeMode::kThreaded, token-threaded dispatch over the
//                same cache with basic-block superinstructions and
//                batched accounting (armvm/superinst.h)
// The bench asserts their cycle counts, per-class histograms, energy
// reports and kernel outputs are bit-identical, then reports the host
// speedups. A fourth section fans the threaded workload across a
// sim::BatchExecutor (`--threads N`, default hardware concurrency) —
// one execution context per worker over the same shared images — and
// asserts the batched digest matches the serial one (when the executor
// resolves to one worker the serial measurement IS the batched one, so
// batch_speedup is 1.0 by construction instead of measuring the same
// loop twice). Flags follow the shared bench::Args convention:
// `--json[=PATH]` (default BENCH_vm_throughput.json) picks the mirror
// path, `--iters=N` scales the workload (reps), `--threads=N` sizes the
// batched section and `--enforce` turns the speedup targets (predecoded
// >= 3x reference, threaded >= 2.5x predecoded) into the exit code.
// The static+dynamic fusion census is mirrored to fusion_report.json
// (the CI bench job uploads it as an artifact).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "armvm/superinst.h"
#include "asmkernels/gen.h"
#include "ec/costing.h"
#include "manifest.h"
#include "report.h"
#include "sim/batch.h"
#include "telemetry/metrics.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;
using armvm::Cpu;

namespace {

struct WorkloadResult {
  armvm::RunStats stats;
  double seconds = 0.0;
  // Digest of every kernel-output word, to prove the engines computed
  // the same values (not just the same costs).
  std::uint64_t output_digest = 0;
  // Threaded-engine fusion census (zero on the other engines).
  std::uint64_t fused_retired = 0;
  std::uint64_t fused_blocks = 0;

  double mips() const {
    return static_cast<double>(stats.instructions) / seconds / 1e6;
  }
  double fused_fraction() const {
    return stats.instructions == 0
               ? 0.0
               : static_cast<double>(fused_retired) /
                     static_cast<double>(stats.instructions);
  }
};

void mix64(std::uint64_t& h, std::uint32_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

/// One `kP`'s worth of field-kernel executions (counts taken from a real
/// wTNAF w=4 sect233k1 run), repeated `reps` times on one engine.
WorkloadResult run_workload(Cpu::DecodeMode mode, const ec::FieldOpCounts& ops,
                            unsigned reps) {
  workloads::KernelMachine mul(workloads::kernel("mul"), mode);
  workloads::KernelMachine sqr(workloads::kernel("sqr"), mode);
  workloads::KernelMachine inv(workloads::kernel("inv"), mode);

  // Deterministic operands, same for every engine.
  const workloads::KernelOperands& od = workloads::KernelOperands::standard();
  workloads::load_mul_inputs(mul.mem(), od.x, od.y);
  workloads::load_sqr_table(sqr.mem());
  workloads::load_sqr_input(sqr.mem(), od.a);

  WorkloadResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < ops.mul; ++i) mul.call();
    for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
    for (std::uint64_t i = 0; i < ops.inv; ++i) {
      // The EEA kernel consumes its scratch state; re-seed the input so
      // every inversion runs the same (data-dependent) trace.
      workloads::load_inv_input(inv.mem(), od.a);
      inv.call();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = mul.cpu().stats();
  r.stats.instructions += sqr.cpu().stats().instructions;
  r.stats.instructions += inv.cpu().stats().instructions;
  r.stats.cycles += sqr.cpu().stats().cycles + inv.cpu().stats().cycles;
  r.stats.histogram += sqr.cpu().stats().histogram;
  r.stats.histogram += inv.cpu().stats().histogram;
  r.fused_retired = mul.cpu().fused_retired() + sqr.cpu().fused_retired() +
                    inv.cpu().fused_retired();
  r.fused_blocks = mul.cpu().fused_blocks_entered() +
                   sqr.cpu().fused_blocks_entered() +
                   inv.cpu().fused_blocks_entered();
  for (int w = 0; w < 8; ++w) {
    mix64(r.output_digest,
          mul.mem().load32(armvm::kRamBase + asmkernels::kVOff + 4 * w));
    mix64(r.output_digest,
          sqr.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
    mix64(r.output_digest,
          inv.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
  }
  return r;
}

/// `reps` independent workload units fanned across the batch executor:
/// each task builds its own execution contexts over the registry's
/// shared images and runs one kP mix on the threaded engine. Returns the
/// combined digest (order-independent by construction: serial fold over
/// the per-task digests in index order).
WorkloadResult run_batched(const ec::FieldOpCounts& ops, unsigned reps,
                           unsigned threads,
                           telemetry::MetricsRegistry* metrics) {
  sim::BatchExecutor pool(threads);
  pool.set_metrics(metrics);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<WorkloadResult> parts = pool.map<WorkloadResult>(
      reps, [&](std::size_t) {
        return run_workload(Cpu::DecodeMode::kThreaded, ops, 1);
      });
  const auto t1 = std::chrono::steady_clock::now();
  WorkloadResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const WorkloadResult& p : parts) {
    r.stats.instructions += p.stats.instructions;
    r.stats.cycles += p.stats.cycles;
    r.stats.histogram += p.stats.histogram;
    r.fused_retired += p.fused_retired;
    r.fused_blocks += p.fused_blocks;
    mix64(r.output_digest, static_cast<std::uint32_t>(p.output_digest));
    mix64(r.output_digest, static_cast<std::uint32_t>(p.output_digest >> 32));
  }
  return r;
}

bool identical(const armvm::RunStats& a, const armvm::RunStats& b) {
  if (a.instructions != b.instructions || a.cycles != b.cycles) return false;
  for (int i = 0; i < static_cast<int>(costmodel::InstrClass::kCount); ++i) {
    if (a.histogram.cycles[i] != b.histogram.cycles[i]) return false;
  }
  const auto ea = a.energy(), eb = b.energy();
  return ea.energy_uj() == eb.energy_uj() && ea.time_ms() == eb.time_ms();
}

/// One dynamic row of the fusion census.
void fusion_row(bench::JsonWriter& w, const char* workload,
                const WorkloadResult& r) {
  w.begin_object();
  w.field("workload", workload);
  w.field("instructions", r.stats.instructions);
  w.field("fused_retired", r.fused_retired);
  w.field("fused_blocks_entered", r.fused_blocks);
  w.field("fused_fraction", r.fused_fraction());
  w.end_object();
}

/// Static + dynamic fusion census: per-kernel block counts and coverage
/// from the frozen ThreadedImages, plus the dynamic coverage the
/// threaded engine actually reached on the straight-line K-233 mix (the
/// timed workload) and on the loop-shaped secp256r1 kP mix, whose
/// kernels run as chains of branch-terminated blocks.
void write_fusion_report(const std::string& path, const WorkloadResult& thr) {
  bench::JsonWriter w;
  bench::manifest_begin(w, "bench_vm_throughput:fusion");
  w.field("report", "superinstruction_fusion");
  w.field("dispatch", armvm::threaded_dispatch_uses_computed_goto()
                          ? "computed-goto"
                          : "switch");
  w.field("min_fuse_length",
          static_cast<std::uint64_t>(armvm::kMinFuseLength));
  w.begin_object("static");
  for (const std::string& name : workloads::KernelRegistry::instance().names()) {
    const armvm::ThreadedImage& img = workloads::kernel(name)->threaded();
    std::uint64_t longest = 0;
    for (const armvm::SuperBlock& b : img.blocks) {
      if (b.count > longest) longest = b.count;
    }
    w.begin_object(name.c_str());
    w.field("blocks", static_cast<std::uint64_t>(img.blocks.size()));
    w.field("fused_slots", img.fused_slots);
    w.field("valid_slots", img.valid_slots);
    w.field("longest_block", longest);
    w.field("coverage", img.valid_slots == 0
                            ? 0.0
                            : static_cast<double>(img.fused_slots) /
                                  static_cast<double>(img.valid_slots));
    w.end_object();
  }
  w.end_object();
  w.begin_array("dynamic");
  fusion_row(w, "wTNAF w=4 kP field-kernel mix", thr);
  const workloads::ReplayResult replayed = workloads::replay(
      workloads::make_workload("kp", "secp256r1"), Cpu::DecodeMode::kThreaded);
  WorkloadResult loop;
  loop.stats = replayed.stats;
  loop.fused_retired = replayed.fused_retired;
  loop.fused_blocks = replayed.fused_blocks;
  fusion_row(w, "kp-secp256r1", loop);
  w.end_array();
  bench::manifest_end(w);
  if (!w.write_file(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned rounds = 3;
  bool enforce = false;  // --enforce: exit nonzero when a target is missed
  bench::Args args;
  args.iters = 3;    // reps
  args.threads = 0;  // 0 = hardware concurrency
  args.add_flag("--enforce", &enforce);
  if (!args.parse(argc - 1, argv + 1, "BENCH_vm_throughput.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  // Zero work would make every rate NaN.
  const unsigned reps = args.iters == 0 ? 1 : static_cast<unsigned>(args.iters);
  const unsigned threads = args.threads;

  bench::banner("VM host throughput - threaded / pre-decoded / per-step");

  // Field-op mix of one real wTNAF w=4 kP on sect233k1.
  const ec::FieldOpCounts& ops = workloads::kp_mix_sect233k1();
  std::printf("kP workload (wTNAF w=4, sect233k1): %llu mul, %llu sqr, "
              "%llu inv per rep; %u rep(s), best of %u rounds\n"
              "threaded dispatch: %s\n\n",
              static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv), reps, rounds,
              armvm::threaded_dispatch_uses_computed_goto() ? "computed goto"
                                                            : "switch");

  WorkloadResult ref, pre, thr;
  for (unsigned round = 0; round < rounds; ++round) {
    WorkloadResult a = run_workload(Cpu::DecodeMode::kPerStep, ops, reps);
    WorkloadResult b = run_workload(Cpu::DecodeMode::kPredecode, ops, reps);
    WorkloadResult c = run_workload(Cpu::DecodeMode::kThreaded, ops, reps);
    if (!identical(a.stats, b.stats) || a.output_digest != b.output_digest ||
        !identical(a.stats, c.stats) || a.output_digest != c.output_digest) {
      std::fprintf(stderr,
                   "FAIL: engines diverged (cycles %llu / %llu / %llu, "
                   "digest %llx / %llx / %llx)\n",
                   static_cast<unsigned long long>(a.stats.cycles),
                   static_cast<unsigned long long>(b.stats.cycles),
                   static_cast<unsigned long long>(c.stats.cycles),
                   static_cast<unsigned long long>(a.output_digest),
                   static_cast<unsigned long long>(b.output_digest),
                   static_cast<unsigned long long>(c.output_digest));
      return 1;
    }
    if (round == 0 || a.mips() > ref.mips()) ref = a;
    if (round == 0 || b.mips() > pre.mips()) pre = b;
    if (round == 0 || c.mips() > thr.mips()) thr = c;
  }

  const double speedup = pre.mips() / ref.mips();
  const double threaded_speedup = thr.mips() / pre.mips();

  // Batched section: the same threaded workload fanned across the batch
  // executor. The one-thread digest is the determinism reference; when
  // the pool resolves to a single worker, the serial run IS the batched
  // run (measuring the identical loop twice only reports host noise).
  const unsigned pool_threads = sim::BatchExecutor(threads).threads();
  telemetry::MetricsRegistry metrics;
  const WorkloadResult serial1 = run_batched(ops, reps, 1, &metrics);
  const WorkloadResult batched =
      pool_threads <= 1 ? serial1 : run_batched(ops, reps, threads, &metrics);
  if (batched.output_digest != serial1.output_digest ||
      batched.stats.instructions != serial1.stats.instructions ||
      batched.stats.cycles != serial1.stats.cycles) {
    std::fprintf(stderr, "FAIL: batch executor diverged from serial\n");
    return 1;
  }
  const double batch_speedup = serial1.seconds / batched.seconds;
  // The single-worker regression gate: a one-worker pool must never pay
  // pool overhead (it runs the serial loop directly, so this is exact).
  // Multi-worker speedups are reported but not gated — they measure host
  // scheduling noise as much as the executor.
  if (pool_threads <= 1 && batch_speedup < 0.99) {
    std::fprintf(stderr,
                 "FAIL: batch executor slower than serial (%.3fx) at "
                 "%u thread(s)\n",
                 batch_speedup, pool_threads);
    return 1;
  }

  bench::Table t({"Engine", "sim instructions", "sim cycles", "host s",
                  "sim MIPS"});
  t.add_row({"per-step decode (seed)", bench::fmt_u64(ref.stats.instructions),
             bench::fmt_u64(ref.stats.cycles), bench::fmt_f(ref.seconds, 4),
             bench::fmt_f(ref.mips(), 1)});
  t.add_row({"pre-decoded cache", bench::fmt_u64(pre.stats.instructions),
             bench::fmt_u64(pre.stats.cycles), bench::fmt_f(pre.seconds, 4),
             bench::fmt_f(pre.mips(), 1)});
  t.add_row({"threaded + superinstructions",
             bench::fmt_u64(thr.stats.instructions),
             bench::fmt_u64(thr.stats.cycles), bench::fmt_f(thr.seconds, 4),
             bench::fmt_f(thr.mips(), 1)});
  t.add_row({"threaded, batched", bench::fmt_u64(batched.stats.instructions),
             bench::fmt_u64(batched.stats.cycles),
             bench::fmt_f(batched.seconds, 4),
             bench::fmt_f(batched.mips(), 1)});
  t.print();
  std::printf("\nSpeedups: pre-decoded %.2fx over per-step (target >= 3x), "
              "threaded %.2fx over pre-decoded (target >= 2.5x);\n"
              "cycle counts, histograms and energy reports bit-identical "
              "across all engines\n",
              speedup, threaded_speedup);
  std::printf("Fusion: %.1f%% of retirements inside superblocks "
              "(%llu blocks entered)\n",
              100.0 * thr.fused_fraction(),
              static_cast<unsigned long long>(thr.fused_blocks));
  std::printf("Batch executor: %.2fx over 1-thread serial (%u worker(s)), "
              "digest bit-identical\n",
              batch_speedup, pool_threads);

  // The committed baseline is load-bearing for the CI regression gate,
  // so this bench writes its JSON unconditionally; --json=PATH still
  // redirects it.
  std::string json_path = args.json_path;
  if (json_path.empty()) json_path = "BENCH_vm_throughput.json";
  bench::JsonWriter w;
  bench::manifest_begin(w, "bench_vm_throughput", &args);
  w.field("bench", "vm_throughput");
  w.begin_object("workload");
  w.field("kind", "wTNAF w=4 kP field-kernel mix, sect233k1");
  w.field("mul", ops.mul);
  w.field("sqr", ops.sqr);
  w.field("inv", ops.inv);
  w.field("reps", static_cast<std::uint64_t>(reps));
  w.end_object();
  w.begin_object("reference");
  w.field("engine", "per-step decode");
  w.field("instructions", ref.stats.instructions);
  w.field("cycles", ref.stats.cycles);
  w.field("host_seconds", ref.seconds);
  w.field("sim_mips", ref.mips());
  w.end_object();
  w.begin_object("predecoded");
  w.field("engine", "pre-decoded cache");
  w.field("instructions", pre.stats.instructions);
  w.field("cycles", pre.stats.cycles);
  w.field("host_seconds", pre.seconds);
  w.field("sim_mips", pre.mips());
  w.end_object();
  w.begin_object("threaded");
  w.field("engine", "token-threaded + superinstructions");
  w.field("dispatch", armvm::threaded_dispatch_uses_computed_goto()
                          ? "computed-goto"
                          : "switch");
  w.field("instructions", thr.stats.instructions);
  w.field("cycles", thr.stats.cycles);
  w.field("host_seconds", thr.seconds);
  w.field("sim_mips", thr.mips());
  w.field("fused_retired", thr.fused_retired);
  w.field("fused_blocks_entered", thr.fused_blocks);
  w.field("fused_fraction", thr.fused_fraction());
  w.end_object();
  w.begin_object("batched");
  w.field("engine", "threaded, batch executor");
  w.field("threads", static_cast<std::uint64_t>(pool_threads));
  w.field("instructions", batched.stats.instructions);
  w.field("cycles", batched.stats.cycles);
  w.field("host_seconds", batched.seconds);
  w.field("batch_speedup", batch_speedup);
  w.end_object();
  w.field("speedup", speedup);
  w.field("threaded_speedup", threaded_speedup);
  w.field("bit_identical", true);
  bench::manifest_end(w, &metrics);
  if (!w.write_file(json_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  write_fusion_report("fusion_report.json", thr);
  return (enforce && (speedup < 3.0 || threaded_speedup < 2.5)) ? 2 : 0;
}
