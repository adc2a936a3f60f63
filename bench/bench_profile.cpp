// Symbol-attributed profile of the paper's core workload: the K-233
// field-kernel mix of one wTNAF w=4 `kP` (the same schedule as
// bench_vm_throughput), run traced with a Profiler + MemHeatmap attached
// to each kernel machine.
//
// Outputs:
//   - per-function flat/inclusive cycle, instruction and Table-3 energy
//     attribution for every machine (mul_fixed, sqr, inv), self-checked
//     to match the Cpu's own RunStats *exactly*;
//   - a per-word RAM heatmap of the product vector v[0..15], fixed-
//     register vs plain-memory multiplication — the observational proof
//     of the paper's register-pinning claim (v[3..11] near-zero traffic);
//   - --engine=perstep|threaded picks the engine (default threaded;
//     traced runs retire per-instruction on both, so the attribution is
//     engine-independent); unknown values exit 2;
//   - with --json[=PATH] (bench::Args convention, opt-in) a
//     BENCH_profile.json mirror, plus profile_trace.json (Chrome
//     trace-event / Perfetto, simulated 48 MHz clock) and
//     profile_flame.txt (collapsed stacks for flamegraph.pl).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "asmkernels/gen.h"
#include "manifest.h"
#include "ec/costing.h"
#include "profile/heatmap.h"
#include "profile/profiler.h"
#include "profile/trace_export.h"
#include "report.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;
using armvm::Cpu;

namespace {

constexpr std::size_t kRamSize = workloads::kKernelRamSize;

/// One registry kernel with a per-context Profiler + MemHeatmap fanned
/// in via a TeeSink — the image is shared, the sinks are private.
struct Machine {
  std::string name;
  workloads::KernelMachine km;
  profile::Profiler prof;
  profile::MemHeatmap heat;
  armvm::TeeSink tee;
  armvm::Memory& mem;
  Cpu& cpu;

  Machine(const std::string& kernel_name, Cpu::DecodeMode engine)
      : name(kernel_name),
        km(workloads::kernel(kernel_name), engine),
        prof(km.prog()),
        heat(kRamSize),
        mem(km.mem()),
        cpu(km.cpu()) {
    tee.add(&prof);
    tee.add(&heat);
    cpu.set_trace_sink(&tee);
  }

  void call() { km.call(); }
};

bool check_totals(Machine& m) {
  const armvm::RunStats s = m.cpu.stats();
  const double model_pj = s.energy().energy_pj;
  const double prof_pj = m.prof.total_energy_pj();
  if (m.prof.total_cycles() != s.cycles ||
      m.prof.total_instructions() != s.instructions || prof_pj != model_pj) {
    std::fprintf(stderr,
                 "FAIL [%s]: profiler totals diverge from RunStats "
                 "(cycles %llu vs %llu, instr %llu vs %llu, "
                 "energy %.3f vs %.3f pJ)\n",
                 m.name.c_str(),
                 static_cast<unsigned long long>(m.prof.total_cycles()),
                 static_cast<unsigned long long>(s.cycles),
                 static_cast<unsigned long long>(m.prof.total_instructions()),
                 static_cast<unsigned long long>(s.instructions), prof_pj,
                 model_pj);
    return false;
  }
  // The root frame's inclusive cost must also be the whole run.
  for (const auto& f : m.prof.functions()) {
    if (f.name == "entry" && f.inclusive_cycles != s.cycles) {
      std::fprintf(stderr,
                   "FAIL [%s]: root inclusive cycles %llu != RunStats %llu\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(f.inclusive_cycles),
                   static_cast<unsigned long long>(s.cycles));
      return false;
    }
  }
  return true;
}

void print_functions(Machine& m) {
  const armvm::RunStats s = m.cpu.stats();
  std::printf("[%s] %llu instructions, %llu cycles, %.3f uJ\n",
              m.name.c_str(), static_cast<unsigned long long>(s.instructions),
              static_cast<unsigned long long>(s.cycles),
              s.energy().energy_uj());
  bench::Table t({"function", "calls", "instrs", "self cyc", "incl cyc",
                  "self uJ", "self %"});
  for (const auto& f : m.prof.functions()) {
    t.add_row({f.name, bench::fmt_u64(f.calls), bench::fmt_u64(f.instructions),
               bench::fmt_u64(f.self_cycles),
               bench::fmt_u64(f.inclusive_cycles),
               bench::fmt_f(f.self_energy_pj() * 1e-6, 4),
               bench::fmt_f(100.0 * static_cast<double>(f.self_cycles) /
                                static_cast<double>(s.cycles),
                            1)});
  }
  t.print();
  std::printf("\n");
}

/// `--curve=secpNNNr1` profile: the curve's Montgomery kernel mix of one
/// Jacobian wNAF w=4 kP. The register-pinning heatmap comparison is a
/// sect233k1 claim (there is no "plain" comparator kernel on GF(p)), so
/// this path reports attribution + the Montgomery operand regions only.
int run_prime_profile(const bench::Args& args,
                      const workloads::CurveRef& curve,
                      Cpu::DecodeMode engine) {
  bench::banner("kP field-kernel profile - symbol attribution (GF(p))");

  const ec::FieldOpCounts& ops = workloads::op_mix(curve);
  std::printf("kP workload (Jacobian wNAF w=4, %s): %llu mul, %llu sqr, "
              "%llu inv\n\n",
              curve.name.c_str(), static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv));

  Machine mont(curve.kernel_tag + "-mont", engine);
  Machine sqr(curve.kernel_tag + "-sqr", engine);
  Machine inv(curve.kernel_tag + "-inv", engine);

  const workloads::PrimeOperands& od = workloads::PrimeOperands::standard(curve);
  for (Machine* m : {&mont, &sqr, &inv}) {
    workloads::load_prime_modulus(m->mem, curve);
  }
  workloads::load_prime_mul_inputs(mont.mem, od.x, od.y);
  workloads::load_prime_mul_inputs(sqr.mem, od.x, od.y);
  workloads::load_prime_inv_input(inv.mem, od.a);

  // All three prime kernels are rerunnable without an operand reload.
  for (std::uint64_t i = 0; i < ops.mul; ++i) mont.call();
  for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
  for (std::uint64_t i = 0; i < ops.inv; ++i) inv.call();

  bool ok = true;
  for (Machine* m : {&mont, &sqr, &inv}) ok = check_totals(*m) && ok;
  if (!ok) return 1;
  for (Machine* m : {&mont, &sqr, &inv}) print_functions(*m);

  const unsigned n = curve.limbs;
  const profile::MemHeatmap::Region kMontRegions[] = {
      {"t (wide)", asmkernels::kWideOff, 2 * n},
      {"out (reduced)", asmkernels::kOutOff, n},
      {"x (multiplier)", asmkernels::kXOff, n},
      {"y (multiplicand)", asmkernels::kYOff, n},
      {"modulus", asmkernels::kPModOff, n},
  };
  std::printf("%s-mont RAM regions:\n", curve.kernel_tag.c_str());
  bench::Table rt({"region", "loads", "stores", "peak word"});
  for (const auto& rep : mont.heat.summarize(kMontRegions)) {
    rt.add_row({rep.name, bench::fmt_u64(rep.loads),
                bench::fmt_u64(rep.stores),
                bench::fmt_u64(rep.peak_word_traffic)});
  }
  rt.print();

  const profile::NamedProfile tracks[] = {
      {curve.kernel_tag + "-mont", &mont.prof},
      {curve.kernel_tag + "-sqr", &sqr.prof},
      {curve.kernel_tag + "-inv", &inv.prof}};
  if (profile::write_text_file("profile_trace.json",
                               profile::chrome_trace_json(tracks)) &&
      profile::write_text_file("profile_flame.txt",
                               profile::collapsed_stack_text(tracks))) {
    std::printf("\nwrote profile_trace.json (Perfetto / chrome://tracing) "
                "and profile_flame.txt (flamegraph.pl)\n");
  }

  if (!args.json) return 0;
  bench::JsonWriter w;
  bench::manifest_begin(w, "bench_profile", &args);
  w.field("bench", "profile");
  w.begin_object("workload");
  w.field("kind", "Jacobian wNAF w=4 kP field-kernel mix, " + curve.name);
  w.field("mul", ops.mul);
  w.field("sqr", ops.sqr);
  w.field("inv", ops.inv);
  w.end_object();
  w.begin_object("machines");
  for (Machine* m : {&mont, &sqr, &inv}) {
    const armvm::RunStats s = m->cpu.stats();
    w.begin_object(m->name.c_str());
    w.field("instructions", s.instructions);
    w.field("cycles", s.cycles);
    w.field("energy_uj", s.energy().energy_uj());
    w.field("totals_match_runstats", true);
    w.begin_array("functions");
    for (const auto& f : m->prof.functions()) {
      w.begin_object();
      w.field("name", f.name);
      w.field("calls", f.calls);
      w.field("instructions", f.instructions);
      w.field("self_cycles", f.self_cycles);
      w.field("inclusive_cycles", f.inclusive_cycles);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  bench::manifest_end(w);
  if (!w.write_file(args.json_path)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 args.json_path.c_str());
  } else {
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  if (!args.parse(argc - 1, argv + 1, "BENCH_profile.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  Cpu::DecodeMode engine;
  try {
    engine = armvm::decode_mode_from_name(args.engine);
    const workloads::CurveRef& curve = workloads::curve_from_name(args.curve);
    if (!curve.binary_field) return run_prime_profile(args, curve, engine);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  bench::banner(
      "kP field-kernel profile - symbol attribution + RAM heatmap");

  // Field-op mix of one real wTNAF w=4 kP on sect233k1 (same schedule
  // as bench_vm_throughput, one shared definition in workloads).
  const ec::FieldOpCounts& ops = workloads::kp_mix_sect233k1();
  std::printf("kP workload (wTNAF w=4, sect233k1): %llu mul, %llu sqr, "
              "%llu inv\n\n",
              static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv));

  // Registry names: "mul" is the fixed-register multiplier, "mul-plain"
  // the memory-resident comparator for the heatmap claim only — same
  // operands, same call count as the fixed machine.
  Machine mul("mul", engine);
  mul.name = "mul_fixed";
  Machine sqr("sqr", engine);
  Machine inv("inv", engine);
  Machine plain("mul-plain", engine);
  plain.name = "mul_plain";

  const workloads::KernelOperands& od = workloads::KernelOperands::standard();
  workloads::load_mul_inputs(mul.mem, od.x, od.y);
  workloads::load_mul_inputs(plain.mem, od.x, od.y);
  workloads::load_sqr_table(sqr.mem);
  workloads::load_sqr_input(sqr.mem, od.a);

  for (std::uint64_t i = 0; i < ops.mul; ++i) {
    mul.call();
    plain.call();
  }
  for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
  for (std::uint64_t i = 0; i < ops.inv; ++i) {
    workloads::load_inv_input(inv.mem, od.a);
    inv.call();
  }

  // --- Self-check: attribution totals equal RunStats exactly. ---------
  bool ok = true;
  for (Machine* m : {&mul, &sqr, &inv, &plain}) ok = check_totals(*m) && ok;
  if (!ok) return 1;

  for (Machine* m : {&mul, &sqr, &inv}) print_functions(*m);

  // --- Heatmap: the fixed-register claim, per product word. ----------
  std::printf("product-word RAM traffic per multiplication "
              "(%llu calls each):\n",
              static_cast<unsigned long long>(ops.mul));
  bench::Table ht({"v word", "fixed loads", "fixed stores", "plain loads",
                   "plain stores", "pinned"});
  std::uint64_t fixed_pinned = 0, plain_pinned = 0;
  for (std::size_t w = 0; w < 16; ++w) {
    const std::size_t idx = asmkernels::kVOff / 4 + w;
    const bool pinned = w >= 3 && w <= 11;
    if (pinned) {
      fixed_pinned += mul.heat.traffic_at(idx);
      plain_pinned += plain.heat.traffic_at(idx);
    }
    ht.add_row({"v[" + std::to_string(w) + "]",
                bench::fmt_u64(mul.heat.loads_at(idx)),
                bench::fmt_u64(mul.heat.stores_at(idx)),
                bench::fmt_u64(plain.heat.loads_at(idx)),
                bench::fmt_u64(plain.heat.stores_at(idx)),
                pinned ? "yes" : ""});
  }
  ht.print();
  std::printf("\npinned words v[3..11] traffic: fixed %llu vs plain %llu "
              "(%.1fx)\n\n",
              static_cast<unsigned long long>(fixed_pinned),
              static_cast<unsigned long long>(plain_pinned),
              static_cast<double>(plain_pinned) /
                  static_cast<double>(fixed_pinned == 0 ? 1 : fixed_pinned));
  if (plain_pinned <= 10 * fixed_pinned) {
    std::fprintf(stderr,
                 "FAIL: fixed-register claim not observed (plain %llu <= "
                 "10x fixed %llu)\n",
                 static_cast<unsigned long long>(plain_pinned),
                 static_cast<unsigned long long>(fixed_pinned));
    return 1;
  }

  const profile::MemHeatmap::Region kMulRegions[] = {
      {"v (product)", asmkernels::kVOff, 16},
      {"x (multiplier)", asmkernels::kXOff, 8},
      {"y (multiplicand)", asmkernels::kYOff, 8},
      {"LUT (16x8)", asmkernels::kLutOff, 16 * 8},
  };
  std::printf("mul_fixed RAM regions:\n");
  bench::Table rt({"region", "loads", "stores", "peak word"});
  for (const auto& rep : mul.heat.summarize(kMulRegions)) {
    rt.add_row({rep.name, bench::fmt_u64(rep.loads),
                bench::fmt_u64(rep.stores),
                bench::fmt_u64(rep.peak_word_traffic)});
  }
  rt.print();

  // --- Exports. ------------------------------------------------------
  const profile::NamedProfile tracks[] = {
      {"mul_fixed", &mul.prof}, {"sqr", &sqr.prof}, {"inv", &inv.prof}};
  if (!profile::write_text_file("profile_trace.json",
                                profile::chrome_trace_json(tracks)) ||
      !profile::write_text_file("profile_flame.txt",
                                profile::collapsed_stack_text(tracks))) {
    std::fprintf(stderr, "warning: could not write trace exports\n");
  } else {
    std::printf("\nwrote profile_trace.json (Perfetto / chrome://tracing) "
                "and profile_flame.txt (flamegraph.pl)\n");
  }

  // JSON is opt-in (the standard --json convention); the smoke run under
  // ctest exercises only the self-checks above.
  if (!args.json) return 0;
  const std::string& json_path = args.json_path;
  bench::JsonWriter w;
  bench::manifest_begin(w, "bench_profile", &args);
  w.field("bench", "profile");
  w.begin_object("workload");
  w.field("kind", "wTNAF w=4 kP field-kernel mix, sect233k1");
  w.field("mul", ops.mul);
  w.field("sqr", ops.sqr);
  w.field("inv", ops.inv);
  w.end_object();
  w.begin_object("machines");
  for (Machine* m : {&mul, &sqr, &inv}) {
    const armvm::RunStats s = m->cpu.stats();
    w.begin_object(m->name.c_str());
    w.field("instructions", s.instructions);
    w.field("cycles", s.cycles);
    w.field("energy_uj", s.energy().energy_uj());
    w.field("totals_match_runstats", true);
    w.begin_array("functions");
    for (const auto& f : m->prof.functions()) {
      w.begin_object();
      w.field("name", f.name);
      w.field("calls", f.calls);
      w.field("instructions", f.instructions);
      w.field("self_cycles", f.self_cycles);
      w.field("inclusive_cycles", f.inclusive_cycles);
      w.field("self_energy_pj", f.self_energy_pj());
      w.field("inclusive_energy_pj", f.inclusive_energy_pj());
      w.end_object();
    }
    w.end_array();
    w.begin_array("call_sites");
    for (const auto& cs : m->prof.call_sites()) {
      w.begin_object();
      w.field("site_pc", static_cast<std::uint64_t>(cs.site_pc));
      w.field("caller", cs.caller);
      w.field("callee", cs.callee);
      w.field("count", cs.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.begin_object("heatmap");
  w.field("pinned_words", "v[3..11]");
  w.field("fixed_pinned_traffic", fixed_pinned);
  w.field("plain_pinned_traffic", plain_pinned);
  w.field("claim_observed", true);
  w.begin_array("v_words");
  for (std::size_t word = 0; word < 16; ++word) {
    const std::size_t idx = asmkernels::kVOff / 4 + word;
    w.begin_object();
    w.field("word", static_cast<std::uint64_t>(word));
    w.field("fixed_loads", mul.heat.loads_at(idx));
    w.field("fixed_stores", mul.heat.stores_at(idx));
    w.field("plain_loads", plain.heat.loads_at(idx));
    w.field("plain_stores", plain.heat.stores_at(idx));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  bench::manifest_end(w);
  if (!w.write_file(json_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
