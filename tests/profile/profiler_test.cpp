// Unit tests of the symbol-attributed profiler, the RAM heatmap and the
// trace exporters against the real K-233 kernels.
//
// The load-bearing invariants: per-function *inclusive* cycles of the
// root frame equal RunStats::cycles exactly, the flat (self) cycles of
// all functions sum to the same number, and a Profiler and a PowerRig
// attached to the same run agree on total Table-3 energy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "asmkernels/gen.h"
#include "common/rng.h"
#include "gf2/sqr_table.h"
#include "measure/power_trace.h"
#include "profile/heatmap.h"
#include "profile/profiler.h"
#include "profile/trace_export.h"

namespace eccm0::profile {
namespace {

constexpr std::size_t kRamSize = 0x800;

std::array<std::uint32_t, 8> random_fe(Rng& rng) {
  std::array<std::uint32_t, 8> v;
  for (auto& w : v) w = static_cast<std::uint32_t>(rng.next_u64());
  v[7] &= 0x1FF;
  return v;
}

void write_fe(armvm::Memory& mem, std::uint32_t off,
              const std::array<std::uint32_t, 8>& v) {
  for (int w = 0; w < 8; ++w) {
    mem.store32(armvm::kRamBase + off + 4 * w, v[w]);
  }
}

/// The EEA inversion kernel is the only one with real BL subroutines
/// (xsh, deg) — the strongest shadow-stack exercise we have.
struct InvRun {
  armvm::ProgramRef prog;
  armvm::Memory mem;
  armvm::Cpu cpu;
  InvRun()
      : prog(armvm::assemble(asmkernels::gen_inv())),
        mem(kRamSize),
        cpu(prog, mem) {}
  armvm::RunStats run(Rng& rng) {
    auto a = random_fe(rng);
    a[0] |= 1;
    write_fe(mem, asmkernels::kInOff, a);
    return cpu.call(prog->entry("entry"), {});
  }
};

TEST(Profiler, RootInclusiveCyclesEqualRunStats) {
  InvRun inv;
  Profiler prof(*inv.prog);
  inv.cpu.set_trace_sink(&prof);
  Rng rng(0xAB5);
  inv.run(rng);
  const armvm::RunStats stats = inv.cpu.stats();

  EXPECT_EQ(prof.total_cycles(), stats.cycles);
  EXPECT_EQ(prof.total_instructions(), stats.instructions);

  const auto fns = prof.functions();
  ASSERT_FALSE(fns.empty());
  // The root frame is the entry point; its inclusive cost is the run.
  std::uint64_t root_inclusive = 0, self_sum = 0, instr_sum = 0;
  for (const auto& f : fns) {
    self_sum += f.self_cycles;
    instr_sum += f.instructions;
    if (f.name == "entry") root_inclusive = f.inclusive_cycles;
  }
  EXPECT_EQ(root_inclusive, stats.cycles);
  EXPECT_EQ(self_sum, stats.cycles);
  EXPECT_EQ(instr_sum, stats.instructions);
}

TEST(Profiler, SubroutinesAndCallSitesAttributed) {
  InvRun inv;
  Profiler prof(*inv.prog);
  inv.cpu.set_trace_sink(&prof);
  Rng rng(0x5EED5);
  inv.run(rng);

  const auto fns = prof.functions();
  auto find = [&](const std::string& n) -> const Profiler::FunctionStats* {
    for (const auto& f : fns) {
      if (f.name == n) return &f;
    }
    return nullptr;
  };
  const auto* entry = find("entry");
  const auto* xsh = find("xsh");
  const auto* deg = find("deg");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(xsh, nullptr);
  ASSERT_NE(deg, nullptr);
  EXPECT_EQ(entry->calls, 1u);
  EXPECT_GT(xsh->calls, 0u);
  EXPECT_GT(deg->calls, 0u);
  EXPECT_GT(xsh->self_cycles, 0u);
  EXPECT_LE(xsh->self_cycles, xsh->inclusive_cycles);
  EXPECT_GT(xsh->self_energy_pj(), 0.0);
  // Subroutine costs nest inside the root's inclusive cost.
  EXPECT_LT(xsh->inclusive_cycles, entry->inclusive_cycles);
  EXPECT_LT(deg->inclusive_cycles, entry->inclusive_cycles);

  const auto sites = prof.call_sites();
  ASSERT_FALSE(sites.empty());
  bool saw_xsh_site = false;
  for (const auto& s : sites) {
    EXPECT_GT(s.count, 0u);
    if (s.callee == "xsh" && s.caller == "entry") saw_xsh_site = true;
  }
  EXPECT_TRUE(saw_xsh_site);

  // Collapsed stacks carry the caller;callee chain for the flamegraph.
  const auto& collapsed = prof.collapsed_stacks();
  ASSERT_FALSE(collapsed.empty());
  bool saw_chain = false;
  for (const auto& [sig, cyc] : collapsed) {
    EXPECT_GT(cyc, 0u);
    if (sig == "entry;xsh") saw_chain = true;
  }
  EXPECT_TRUE(saw_chain);

  // Spans are closed, well-ordered activations.
  const auto& spans = prof.spans();
  ASSERT_FALSE(spans.empty());
  for (const auto& sp : spans) {
    EXPECT_LE(sp.begin_cycle, sp.end_cycle);
  }
}

TEST(Profiler, PersistentMachineReopensRootPerCall) {
  // bench-style persistent machines re-enter `entry` once per call();
  // each call must open a fresh root activation and keep the totals in
  // lock-step with the cumulative RunStats.
  InvRun inv;
  Profiler prof(*inv.prog);
  inv.cpu.set_trace_sink(&prof);
  Rng rng(0x2CA11);
  inv.run(rng);
  inv.run(rng);
  const armvm::RunStats stats = inv.cpu.stats();
  EXPECT_EQ(prof.total_cycles(), stats.cycles);
  EXPECT_EQ(prof.total_instructions(), stats.instructions);
  for (const auto& f : prof.functions()) {
    if (f.name == "entry") {
      EXPECT_EQ(f.calls, 2u);
      EXPECT_EQ(f.inclusive_cycles, stats.cycles);
    }
  }
}

TEST(Profiler, AgreesWithPowerRigAndRunStatsOnEnergy) {
  // Profiler (histogram x Table 3) and PowerRig (synthesized waveform,
  // zero noise) attached to the SAME run via the TeeSink must integrate
  // to the same total energy, which is also the Cpu's own energy report.
  const armvm::ProgramRef prog =
      armvm::assemble(asmkernels::gen_mul_fixed(true));
  armvm::Memory mem(kRamSize);
  armvm::Cpu cpu(prog, mem);
  Rng rng(0xE4E26);
  write_fe(mem, asmkernels::kXOff, random_fe(rng));
  write_fe(mem, asmkernels::kYOff, random_fe(rng));

  Profiler prof(*prog);
  measure::RigConfig cfg;
  cfg.noise_uw = 0.0;
  cfg.bias_uw = 0.0;
  measure::PowerRig rig(cfg);
  armvm::TeeSink tee({&prof, &rig});
  cpu.set_trace_sink(&tee);
  cpu.call(prog->entry("entry"), {});
  const armvm::RunStats stats = cpu.stats();

  const double model_pj = stats.energy().energy_pj;
  const double prof_pj = prof.total_energy_pj();
  const double rig_pj = rig.total_energy_uj() * 1e6;
  EXPECT_GT(model_pj, 0.0);
  EXPECT_DOUBLE_EQ(prof_pj, model_pj);
  EXPECT_NEAR(rig_pj, model_pj, model_pj * 1e-9);
  // And the waveform has exactly one sample per simulated cycle.
  EXPECT_EQ(rig.trace().size(), stats.cycles);
}

TEST(MemHeatmap, FixedRegisterMulStarvesRegisteredProductWords) {
  // The paper's claim, observed: the fixed-register LD multiplication
  // pins v[3..11] in registers, so those product words see (near) zero
  // RAM traffic while the plain-memory variant hammers them.
  Rng rng(0x6EA7);
  const auto x = random_fe(rng), y = random_fe(rng);
  auto run = [&](bool fixed) {
    const armvm::ProgramRef prog = armvm::assemble(
        fixed ? asmkernels::gen_mul_fixed(true)
              : asmkernels::gen_mul_plain(true));
    armvm::Memory mem(kRamSize);
    armvm::Cpu cpu(prog, mem);
    write_fe(mem, asmkernels::kXOff, x);
    write_fe(mem, asmkernels::kYOff, y);
    auto heat = std::make_unique<MemHeatmap>(kRamSize);
    cpu.set_trace_sink(heat.get());
    cpu.call(prog->entry("entry"), {});
    return heat;
  };
  const auto fixed = run(true);
  const auto plain = run(false);

  std::uint64_t fixed_pinned = 0, plain_pinned = 0;
  for (std::size_t w = 3; w <= 11; ++w) {
    fixed_pinned += fixed->traffic_at(asmkernels::kVOff / 4 + w);
    plain_pinned += plain->traffic_at(asmkernels::kVOff / 4 + w);
  }
  // "Near-zero": the fixed kernel only touches them to spill the final
  // result (and fold the reduction); the plain kernel re-loads/stores
  // them on every inner step.
  EXPECT_GT(plain_pinned, 10 * fixed_pinned);
  EXPECT_GT(plain_pinned, 500u);

  // Both variants read the LUT heavily — the heatmap sees that too.
  const MemHeatmap::Region lut{"LUT", asmkernels::kLutOff, 16 * 8};
  EXPECT_GT(fixed->summarize(lut).loads, 100u);
  EXPECT_GT(plain->summarize(lut).loads, 100u);

  // Region summaries add up to the totals over the whole RAM.
  const MemHeatmap::Region all{"ram", 0, kRamSize / 4};
  const auto rep = fixed->summarize(all);
  EXPECT_EQ(rep.loads, fixed->total_loads());
  EXPECT_EQ(rep.stores, fixed->total_stores());

  // hottest() is sorted descending and consistent with traffic_at().
  const auto hot = fixed->hottest(4);
  ASSERT_FALSE(hot.empty());
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].second, hot[i].second);
  }
  EXPECT_EQ(hot[0].second, fixed->traffic_at(hot[0].first));
}

TEST(TraceExport, ChromeTraceAndCollapsedStacks) {
  InvRun inv;
  Profiler prof(*inv.prog);
  inv.cpu.set_trace_sink(&prof);
  Rng rng(0xEC5);
  inv.run(rng);

  const NamedProfile tracks[] = {{"inv", &prof}};
  const std::string json = chrome_trace_json(tracks);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("entry"), std::string::npos);
  EXPECT_NE(json.find("xsh"), std::string::npos);
  // Valid JSON shape: balanced braces/brackets at least.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const std::string flame = collapsed_stack_text(tracks);
  EXPECT_NE(flame.find("entry;xsh "), std::string::npos);
  // Every line is "stack<space>count".
  std::uint64_t total = 0;
  for (std::size_t pos = 0; pos < flame.size();) {
    const std::size_t eol = flame.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = flame.substr(pos, eol - pos);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    total += std::stoull(line.substr(sp + 1));
    pos = eol + 1;
  }
  EXPECT_EQ(total, prof.total_cycles());
}

}  // namespace
}  // namespace eccm0::profile
