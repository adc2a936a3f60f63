// Differential test of the token-threaded superinstruction engine
// (DecodeMode::kThreaded) against the per-step oracle: over every
// registry kernel, both must retire the same instruction stream —
// identical cycle counts, histograms, energy, registers, RAM and (traced)
// rich event streams — and agree bit-for-bit on the awkward paths:
// snapshot/restore into the middle of a fused block or of a chain of
// them, a fault at a retirement index interior to a superinstruction
// (also deep in a chain), and the instruction-budget trip point (swept
// over every budget of a chained loop kernel).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "armvm/superinst.h"
#include "asmkernels/gen.h"
#include "common/rng.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace eccm0::armvm {
namespace {

using workloads::KernelMachine;
using workloads::KernelOperands;
using workloads::KernelRegistry;

constexpr std::size_t kRamSize = workloads::kKernelRamSize;

constexpr Cpu::DecodeMode kEngines[] = {
    Cpu::DecodeMode::kPerStep,
    Cpu::DecodeMode::kThreaded,
};

struct RecordingSink final : TraceSink {
  std::vector<TraceEvent> events;
  void on_retire(const TraceEvent& ev) override { events.push_back(ev); }
};

void expect_stats_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  for (int i = 0; i < static_cast<int>(costmodel::InstrClass::kCount); ++i) {
    EXPECT_EQ(a.histogram.cycles[i], b.histogram.cycles[i])
        << "histogram class " << i;
  }
  EXPECT_EQ(a.energy().energy_uj(), b.energy().energy_uj());
}

/// Deterministic operand recipe covering every registry kernel,
/// including the K-163 family the sca loader has no recipe for.
void load_operands(const std::string& name, Memory& mem) {
  const KernelOperands& ops = KernelOperands::standard();
  const workloads::KernelInfo info = KernelRegistry::instance().info(name);
  if (!info.binary_field) {
    const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
    const workloads::PrimeOperands& pod =
        workloads::PrimeOperands::standard(curve);
    workloads::load_prime_modulus(mem, curve);
    if (name.ends_with("-mul") || name.ends_with("-mont") ||
        name.ends_with("-sqr")) {
      workloads::load_prime_mul_inputs(mem, pod.x, pod.y);
    } else if (name.ends_with("-redc")) {
      workloads::load_prime_wide_input(mem, pod.wide);
    } else if (name.ends_with("-inv")) {
      workloads::load_prime_inv_input(mem, pod.a);
    } else {
      ADD_FAILURE() << "no operand recipe for prime kernel " << name;
    }
    return;
  }
  if (name.rfind("mul163", 0) == 0) {
    Rng rng(0x163F00D);
    std::uint32_t x[6], y[6];
    for (auto& w : x) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : y) w = static_cast<std::uint32_t>(rng.next_u64());
    x[5] &= 0x7;  // 163-bit field elements
    y[5] &= 0x7;
    for (int w = 0; w < 6; ++w) {
      mem.store32(kRamBase + asmkernels::kXOff + 4u * w, x[w]);
      mem.store32(kRamBase + asmkernels::kYOff + 4u * w, y[w]);
    }
  } else if (name.rfind("mul", 0) == 0) {
    workloads::load_mul_inputs(mem, ops.x, ops.y);
  } else if (name == "sqr") {
    workloads::load_sqr_table(mem);
    workloads::load_sqr_input(mem, ops.a);
  } else if (name == "lut") {
    std::uint32_t zero[8] = {};
    workloads::load_mul_inputs(mem, zero, ops.y);
  } else if (name == "inv") {
    workloads::load_inv_input(mem, ops.a);
  } else if (name == "reduce") {
    Rng rng(0x2EDDCE);
    std::uint32_t wide[16];
    for (auto& w : wide) w = static_cast<std::uint32_t>(rng.next_u64());
    workloads::load_reduce_input(mem, wide);
  } else {
    ADD_FAILURE() << "no operand recipe for kernel " << name;
  }
}

/// Full observable machine state after a run.
struct Observed {
  RunStats stats;
  std::array<std::uint32_t, 13> regs{};
  std::array<bool, 4> flags{};
  std::vector<std::uint32_t> ram;
};

Observed observe(KernelMachine& m) {
  Observed o;
  o.stats = m.cpu().stats();
  for (unsigned r = 0; r < 13; ++r) o.regs[r] = m.cpu().reg(r);
  o.flags = {m.cpu().flag_n(), m.cpu().flag_z(), m.cpu().flag_c(),
             m.cpu().flag_v()};
  o.ram = m.mem().read_words(kRamBase, kRamSize / 4);
  return o;
}

TEST(Threaded, AllRegistryKernelsIdenticalAcrossEngines) {
  std::uint64_t total_fused = 0;
  const auto names = KernelRegistry::instance().names();
  ASSERT_GE(names.size(), 27u);  // 12 gf2 + 15 prime built-ins
  for (const std::string& name : names) {
    std::vector<Observed> results;
    std::uint64_t fused_threaded = 0;
    for (const Cpu::DecodeMode mode : kEngines) {
      KernelMachine m(name, mode);
      load_operands(name, m.mem());
      // Two back-to-back calls: crosses a call boundary with persistent
      // state, like the bench workloads do.
      m.call();
      // EEA scratch / in-place REDC: these consume their input state.
      if (name == "inv" || name.ends_with("-redc")) {
        load_operands(name, m.mem());
      }
      m.call();
      results.push_back(observe(m));
      if (mode == Cpu::DecodeMode::kThreaded) {
        fused_threaded = m.cpu().fused_retired();
        EXPECT_GT(m.cpu().fused_blocks_entered(), 0u) << name;
      } else {
        EXPECT_EQ(m.cpu().fused_retired(), 0u) << name;
      }
    }
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE(name + " engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].regs, results[e].regs);
      EXPECT_EQ(results[0].flags, results[e].flags);
      EXPECT_EQ(results[0].ram, results[e].ram);
    }
    EXPECT_GT(results[0].stats.instructions, 100u) << name;
    total_fused += fused_threaded;
    // The straight-line K-233 kernels must spend nearly all retirement
    // inside fused blocks.
    if (name == "mul" || name == "sqr" || name == "reduce") {
      EXPECT_GT(fused_threaded * 10, results[0].stats.instructions * 9)
          << name << " fused coverage too low: " << fused_threaded << "/"
          << results[0].stats.instructions;
    }
  }
  EXPECT_GT(total_fused, 100000u);
}

TEST(Threaded, ProtocolWorkloadsIdenticalAcrossEngines) {
  // Whole protocol transactions (a complete ECDH agreement, an ECDSA
  // sign+verify) replayed as single VM runs, on both field families:
  // both engines must agree on every stat and on the output digest.
  const std::pair<const char*, const char*> workloads[] = {
      {"ecdh", "secp192r1"},
      {"ecdsa", "sect233k1"},
      {"kp", "secp256r1"},
  };
  for (const auto& [tx, curve] : workloads) {
    SCOPED_TRACE(std::string(tx) + "-" + curve);
    const workloads::WorkloadSpec spec = workloads::make_workload(tx, curve);
    EXPECT_GT(spec.ops.mul, 100u);
    std::vector<workloads::ReplayResult> results;
    for (const Cpu::DecodeMode mode : kEngines) {
      results.push_back(workloads::replay(spec, mode));
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_NE(results[0].output_digest, 0u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].output_digest, results[e].output_digest);
    }
    EXPECT_EQ(results[0].fused_retired, 0u);
    EXPECT_GT(results[1].fused_retired, 0u);  // threaded
  }
}

TEST(Threaded, TracedStreamsIdenticalAcrossEngines) {
  // With a sink attached the threaded engine must produce the same rich
  // per-instruction TraceEvent stream as the oracle (it falls back to
  // the traced per-instruction loop — fusion never changes what a
  // profiler or leakage digest observes).
  for (const std::string name : {"mul", "sqr", "inv"}) {
    std::vector<std::vector<TraceEvent>> streams;
    for (const Cpu::DecodeMode mode : kEngines) {
      KernelMachine m(name, mode);
      RecordingSink sink;
      m.cpu().set_trace_sink(&sink);
      load_operands(name, m.mem());
      m.call();
      streams.push_back(std::move(sink.events));
    }
    ASSERT_FALSE(streams[0].empty());
    EXPECT_EQ(streams[0], streams[1]) << name;
  }
}

TEST(Threaded, MemoryModelsIdenticalAcrossEngines) {
  // One kernel under each RAM protection model: both engines must
  // agree bit-for-bit including the wait-state cycles (the threaded
  // engine's fused blocks cannot batch protected accesses, so it
  // delegates; the totals still have to match the per-step oracle).
  const MemModelConfig configs[] = {
      MemModelConfig::raw(),
      MemModelConfig::parity(),
      MemModelConfig::secded(2, 64),  // with live auto-scrubbing
  };
  std::array<std::uint64_t, 3> model_cycles{};
  for (std::size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(mem_model_name(configs[c].kind));
    std::vector<Observed> results;
    std::uint64_t accesses = 0, scrub_passes = 0;
    for (const Cpu::DecodeMode mode : kEngines) {
      KernelMachine m("mul", mode, configs[c]);
      load_operands("mul", m.mem());
      m.call();
      m.call();
      results.push_back(observe(m));
      accesses = m.mem().protected_accesses();
      scrub_passes = m.mem().scrub_passes();
    }
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].regs, results[e].regs);
      EXPECT_EQ(results[0].flags, results[e].flags);
      EXPECT_EQ(results[0].ram, results[e].ram);
    }
    model_cycles[c] = results[0].stats.cycles;
    // The protection overhead is exactly accounted: every protected
    // access charges wait_states cycles and every scrub pass sweeps the
    // whole RAM, all booked under the kMemWait histogram class.
    const std::uint64_t wait_cycles =
        results[0].stats.histogram.cycles[static_cast<int>(
            costmodel::InstrClass::kMemWait)];
    if (configs[c].kind == MemModelKind::kRaw) {
      EXPECT_EQ(wait_cycles, 0u);
      EXPECT_EQ(accesses, 0u);
    } else {
      EXPECT_GT(accesses, 0u);
      EXPECT_EQ(wait_cycles,
                configs[c].wait_states * (accesses + scrub_passes * 512));
      EXPECT_EQ(model_cycles[0] + wait_cycles, model_cycles[c]);
    }
    if (configs[c].kind == MemModelKind::kSecded) {
      EXPECT_GT(scrub_passes, 0u);
    }
  }
  EXPECT_LT(model_cycles[0], model_cycles[1]);
  EXPECT_LT(model_cycles[1], model_cycles[2]);
}

TEST(Threaded, TracedStreamsIdenticalUnderProtectedMemory) {
  // A profiler attached to a SECDED machine sees one stream, whatever
  // the engine — and that stream carries the kMemWait charges.
  std::vector<std::vector<TraceEvent>> streams;
  for (const Cpu::DecodeMode mode : kEngines) {
    KernelMachine m("mul", mode, MemModelConfig::secded(2, 64));
    RecordingSink sink;
    m.cpu().set_trace_sink(&sink);
    load_operands("mul", m.mem());
    m.call();
    streams.push_back(std::move(sink.events));
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  bool saw_wait = false;
  for (const TraceEvent& ev : streams[0]) {
    for (unsigned i = 0; i < ev.num_costs; ++i) {
      if (ev.costs[i].cls == costmodel::InstrClass::kMemWait) saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait);
}

/// Step a per-step context to the first retirement index >= min_index
/// at which the PC sits strictly inside a fused block of `image`.
/// Returns the snapshot there and the retirement index.
std::pair<MachineSnapshot, std::uint64_t> snapshot_inside_block(
    const ProgramRef& prog, const ThreadedImage& image, Memory& mem,
    std::uint64_t min_index) {
  Cpu cpu(prog, mem, Cpu::DecodeMode::kPerStep);
  cpu.set_reg(kLR, kReturnSentinel);
  cpu.set_reg(kPC, prog->entry("entry"));
  while (cpu.step()) {
    if (cpu.stats().instructions < min_index) continue;
    const std::uint32_t pc = cpu.reg(kPC);
    if (pc != kReturnSentinel && pc % 2 == 0 &&
        is_block_interior(image, pc / 2)) {
      return {cpu.snapshot(), cpu.stats().instructions};
    }
  }
  ADD_FAILURE() << "no interior-of-block PC reached";
  return {cpu.snapshot(), cpu.stats().instructions};
}

TEST(Threaded, SnapshotRestoreMidFusedBlockResumesIdentically) {
  const ProgramRef prog = workloads::kernel("mul");
  const ThreadedImage& image = prog->threaded();
  ASSERT_FALSE(image.blocks.empty());

  Memory scout_mem(kRamSize);
  load_operands("mul", scout_mem);
  const auto [snap, index] =
      snapshot_inside_block(prog, image, scout_mem, 500);
  ASSERT_GE(index, 500u);
  ASSERT_TRUE(is_block_interior(image, snap.arch.r[kPC] / 2));

  // Fork the checkpoint into one context per engine and run each to
  // completion: the threaded engine enters the block interior
  // per-instruction, then picks up fusion at the next head.
  std::vector<Observed> results;
  for (const Cpu::DecodeMode mode : kEngines) {
    KernelMachine m(prog, mode);
    m.cpu().restore(snap);
    const RunStats delta = m.cpu().run();
    EXPECT_GT(delta.instructions, 0u);
    results.push_back(observe(m));
  }
  for (std::size_t e = 1; e < results.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    expect_stats_identical(results[0].stats, results[e].stats);
    EXPECT_EQ(results[0].regs, results[e].regs);
    EXPECT_EQ(results[0].flags, results[e].flags);
    EXPECT_EQ(results[0].ram, results[e].ram);
  }
}

TEST(Threaded, MemoryFaultInteriorToSuperinstructionIdentical) {
  // The STR below faults at retirement index 6 — interior to the single
  // fused block this straight-line body forms — so the threaded engine
  // must unwind mid-block: partial accounting replayed, flags synced,
  // PC at the faulting instruction's fallthrough, identical ArchState.
  const ProgramRef prog = assemble(R"(
entry:
    movs r0, #1
    movs r1, #2
    adds r2, r0, r1
    ldr r3, =0x30000000
    movs r4, #5
    adds r5, r4, r4
    str r4, [r3]
    adds r6, r5, r5
    eors r7, r7
    bx lr
)");
  ASSERT_TRUE(is_block_interior(prog->threaded(), prog->entry("entry") / 2 + 6))
      << "test premise: the faulting STR must sit inside a fused block";
  std::vector<std::tuple<std::string, std::uint32_t, ArchState>> faults;
  std::vector<RunStats> stats;
  for (const Cpu::DecodeMode mode : kEngines) {
    Memory mem(kRamSize);
    Cpu cpu(prog, mem, mode);
    try {
      cpu.call(prog->entry("entry"), {});
      ADD_FAILURE() << "no fault raised";
    } catch (const BusFault& f) {
      EXPECT_TRUE(f.has_state());
      faults.emplace_back(f.message(), f.address(), f.state());
    }
    stats.push_back(cpu.stats());
  }
  ASSERT_EQ(faults.size(), 2u);
  for (std::size_t e = 1; e < faults.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    EXPECT_EQ(std::get<0>(faults[0]), std::get<0>(faults[e]));
    EXPECT_EQ(std::get<1>(faults[0]), std::get<1>(faults[e]));
    EXPECT_EQ(std::get<2>(faults[0]), std::get<2>(faults[e]));
    expect_stats_identical(stats[0], stats[e]);
  }
  EXPECT_EQ(std::get<1>(faults[0]), 0x30000000u);
  EXPECT_EQ(std::get<2>(faults[0]).instructions, 6u);  // STR retired nothing
  EXPECT_EQ(std::get<2>(faults[0]).r[5], 10u);         // prior work landed
}

TEST(Threaded, RegisterFlipFaultAtInteriorIndexIdentical) {
  // Snapshot the mul kernel at a retirement index whose PC is interior
  // to a superinstruction, flip an address-register bit there (the
  // faultsim register-flip model), and resume under each engine. The
  // corrupted pointer sends a later store outside the 2 KiB RAM, so
  // every engine must raise the same BusFault — message, faulting
  // address, ArchState and accounting bit-identical even though the
  // threaded engine hits it inside a fused block reached from an
  // interior (mid-block) restore point.
  const ProgramRef prog = workloads::kernel("mul");
  Memory scout_mem(kRamSize);
  load_operands("mul", scout_mem);
  const auto [snap, index] =
      snapshot_inside_block(prog, prog->threaded(), scout_mem, 200);
  ASSERT_TRUE(is_block_interior(prog->threaded(), snap.arch.r[kPC] / 2));

  std::vector<std::tuple<std::string, std::uint32_t, ArchState>> faults;
  std::vector<Observed> results;
  for (const Cpu::DecodeMode mode : kEngines) {
    KernelMachine m(prog, mode);
    m.cpu().restore(snap);
    m.cpu().set_reg(3, m.cpu().reg(3) ^ (1u << 17));  // the injected fault
    try {
      m.cpu().run();
      ADD_FAILURE() << "corrupted pointer did not fault";
    } catch (const Fault& f) {
      ASSERT_TRUE(f.has_state());
      faults.emplace_back(f.message(), f.address(), f.state());
    }
    results.push_back(observe(m));
  }
  ASSERT_EQ(faults.size(), 2u);
  for (std::size_t e = 1; e < results.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    EXPECT_EQ(std::get<0>(faults[0]), std::get<0>(faults[e]));
    EXPECT_EQ(std::get<1>(faults[0]), std::get<1>(faults[e]));
    EXPECT_EQ(std::get<2>(faults[0]), std::get<2>(faults[e]));
    expect_stats_identical(results[0].stats, results[e].stats);
    EXPECT_EQ(results[0].regs, results[e].regs);
    EXPECT_EQ(results[0].ram, results[e].ram);
  }
}

TEST(Threaded, InstructionBudgetTripsIdenticallyMidBlock) {
  // A budget that expires deep inside the straight-line mul kernel —
  // i.e. at a point interior to some fused block — must trip at exactly
  // budget + 1 retirements under every engine, because the threaded
  // engine refuses to enter a block that would overrun the budget.
  const ProgramRef prog = workloads::kernel("mul");
  constexpr std::uint64_t kBudget = 1000;
  std::vector<RunStats> stats;
  std::vector<ArchState> states;
  for (const Cpu::DecodeMode mode : kEngines) {
    KernelMachine m(prog, mode);
    load_operands("mul", m.mem());
    try {
      m.cpu().call(prog->entry("entry"), {}, kBudget);
      ADD_FAILURE() << "budget did not trip";
    } catch (const BudgetFault& f) {
      ASSERT_TRUE(f.has_state());
      states.push_back(f.state());
    }
    stats.push_back(m.cpu().stats());
  }
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(stats[0].instructions, kBudget + 1);
  for (std::size_t e = 1; e < stats.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    expect_stats_identical(stats[0], stats[e]);
    EXPECT_EQ(states[0], states[e]);
  }
}

TEST(Threaded, BudgetSweepAcrossChainIdenticalToPerStep) {
  // Every budget from 0 to one past a whole p192-mont call: the loop
  // kernel runs as chains of branch-terminated blocks, so most trip
  // points fall inside a chain — some mid-block, some right after a
  // terminator. The threaded engine never chains into a block that
  // would overrun the budget, so each BudgetFault state (and the
  // completed run past the end) must equal the per-step engine's.
  const ProgramRef prog = workloads::kernel("p192-mont");
  const auto run = [&](Cpu::DecodeMode mode, std::uint64_t budget,
                       ArchState& fault_state) {
    KernelMachine m(prog, mode);
    load_operands("p192-mont", m.mem());
    bool faulted = false;
    try {
      m.cpu().call(prog->entry("entry"), {}, budget);
    } catch (const BudgetFault& f) {
      EXPECT_TRUE(f.has_state());
      fault_state = f.state();
      faulted = true;
    }
    return std::make_pair(faulted, observe(m));
  };
  ArchState unused;
  const std::uint64_t total =
      run(Cpu::DecodeMode::kPerStep, 100'000'000, unused)
          .second.stats.instructions;
  ASSERT_GT(total, 1000u);
  {
    KernelMachine m(prog, Cpu::DecodeMode::kThreaded);
    load_operands("p192-mont", m.mem());
    m.call();
    ASSERT_GT(m.cpu().fused_blocks_entered(), 100u)
        << "test premise: the call must chain many short blocks";
  }
  for (std::uint64_t budget = 0; budget <= total; ++budget) {
    ArchState ref_state, thr_state;
    const auto [ref_faulted, ref] =
        run(Cpu::DecodeMode::kPerStep, budget, ref_state);
    const auto [thr_faulted, thr] =
        run(Cpu::DecodeMode::kThreaded, budget, thr_state);
    SCOPED_TRACE("budget " + std::to_string(budget));
    // The (budget+1)-th retirement trips it unless that one halts.
    ASSERT_EQ(ref_faulted, budget + 1 < total);
    ASSERT_EQ(thr_faulted, ref_faulted);
    if (ref_faulted) {
      ASSERT_EQ(ref.stats.instructions, budget + 1);
      ASSERT_EQ(thr_state, ref_state);
    }
    ASSERT_EQ(thr.stats.instructions, ref.stats.instructions);
    ASSERT_EQ(thr.stats.cycles, ref.stats.cycles);
    for (int i = 0; i < static_cast<int>(costmodel::InstrClass::kCount);
         ++i) {
      ASSERT_EQ(thr.stats.histogram.cycles[i], ref.stats.histogram.cycles[i]);
    }
    ASSERT_EQ(thr.regs, ref.regs);
    ASSERT_EQ(thr.flags, ref.flags);
    ASSERT_EQ(thr.ram, ref.ram);
  }
}

TEST(Threaded, FaultInsideChainedBlockIdentical) {
  // The prologue block ends in `b loop`; the loop body is one block that
  // branches back to itself. The pointer starts `lead` words below the
  // end of RAM, so the STR of the (lead+1)-th loop block faults: with
  // lead = 0 that is the second block of the chain. The blocks before it
  // completed (and were accounted) inside the same chain, so the fault
  // path must add those to the stats as well as replaying the partial
  // block.
  for (const std::uint32_t lead : {0u, 1u, 3u}) {
    SCOPED_TRACE("lead " + std::to_string(lead));
    const std::uint32_t start =
        kRamBase + static_cast<std::uint32_t>(kRamSize) - 4 * lead;
    const ProgramRef prog = assemble(R"(
entry:
    movs r0, #0
    ldr r3, =)" + std::to_string(start) + R"(
    b loop
    nop
loop:
    adds r0, r0, #1
    str r0, [r3]
    adds r3, #4
    b loop
)");
    const ThreadedImage& image = prog->threaded();
    const std::int32_t head = image.block_at[prog->entry("entry") / 2];
    const std::int32_t body = image.block_at[prog->entry("loop") / 2];
    ASSERT_TRUE(head >= 0 && body >= 0)
        << "test premise: prologue and loop body are both fused blocks";
    EXPECT_EQ(image.blocks[head].code[2].ins.op, Op::kB);
    EXPECT_EQ(image.blocks[body].code[3].ins.op, Op::kB);
    ASSERT_TRUE(is_block_interior(image, prog->entry("loop") / 2 + 1));

    std::vector<std::tuple<std::string, std::uint32_t, ArchState>> faults;
    std::vector<RunStats> stats;
    for (const Cpu::DecodeMode mode : kEngines) {
      Memory mem(kRamSize);
      Cpu cpu(prog, mem, mode);
      try {
        cpu.call(prog->entry("entry"), {});
        ADD_FAILURE() << "no fault raised";
      } catch (const BusFault& f) {
        EXPECT_TRUE(f.has_state());
        faults.emplace_back(f.message(), f.address(), f.state());
      }
      stats.push_back(cpu.stats());
      if (mode == Cpu::DecodeMode::kThreaded) {
        // Prologue plus `lead` loop blocks completed, then 1 ADDS of the
        // faulting block retired — all inside fused blocks.
        EXPECT_EQ(cpu.fused_blocks_entered(), 1u + lead);
        EXPECT_EQ(cpu.fused_retired(), 3u + 4u * lead + 1u);
      }
    }
    ASSERT_EQ(faults.size(), 2u);
    for (std::size_t e = 1; e < faults.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      EXPECT_EQ(std::get<0>(faults[0]), std::get<0>(faults[e]));
      EXPECT_EQ(std::get<1>(faults[0]), std::get<1>(faults[e]));
      EXPECT_EQ(std::get<2>(faults[0]), std::get<2>(faults[e]));
      expect_stats_identical(stats[0], stats[e]);
    }
    EXPECT_EQ(std::get<1>(faults[0]), start + 4 * lead);
    EXPECT_EQ(std::get<2>(faults[0]).instructions, 3u + 4u * lead + 1u);
    EXPECT_EQ(std::get<2>(faults[0]).r[0], lead + 1);
  }
}

TEST(Threaded, SnapshotRestoredMidChainResumesIdentically) {
  // Checkpoints taken inside a p256-mont call, where the threaded engine
  // would be running a chain of branch-terminated loop blocks: once at a
  // PC interior to such a block, once at a block head reached by a
  // taken terminator. Every engine resumes from each to the same end
  // state.
  const ProgramRef prog = workloads::kernel("p256-mont");
  const ThreadedImage& image = prog->threaded();
  Memory scout_mem(kRamSize);
  load_operands("p256-mont", scout_mem);
  Cpu scout(prog, scout_mem, Cpu::DecodeMode::kPerStep);
  scout.set_reg(kLR, kReturnSentinel);
  scout.set_reg(kPC, prog->entry("entry"));
  const auto ends_in_terminator = [&](std::size_t idx) {
    for (const SuperBlock& b : image.blocks) {
      if (idx >= b.head_idx && 2 * idx < b.end_pc) {
        return is_terminator(b.code[b.count - 1].ins);
      }
    }
    return false;
  };
  std::vector<MachineSnapshot> snaps;
  bool want_interior = true;
  std::uint32_t prev_pc = scout.reg(kPC);
  while (scout.step() && snaps.size() < 2) {
    const std::uint32_t pc = scout.reg(kPC);
    const std::size_t idx = pc / 2;
    if (scout.stats().instructions < 2000 || idx >= image.block_at.size()) {
      prev_pc = pc;
      continue;
    }
    const bool branched = pc != prev_pc + 2 && pc != prev_pc + 4;
    if (want_interior ? is_block_interior(image, idx) && ends_in_terminator(idx)
                      : image.block_at[idx] >= 0 && branched) {
      snaps.push_back(scout.snapshot());
      want_interior = false;
    }
    prev_pc = pc;
  }
  ASSERT_EQ(snaps.size(), 2u);
  for (const MachineSnapshot& snap : snaps) {
    SCOPED_TRACE("snapshot at pc " + std::to_string(snap.arch.r[kPC]));
    std::vector<Observed> results;
    for (const Cpu::DecodeMode mode : kEngines) {
      KernelMachine m(prog, mode);
      m.cpu().restore(snap);
      const RunStats delta = m.cpu().run();
      EXPECT_GT(delta.instructions, 0u);
      if (mode == Cpu::DecodeMode::kThreaded) {
        EXPECT_GT(m.cpu().fused_blocks_entered(), 1u);
      }
      results.push_back(observe(m));
    }
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].regs, results[e].regs);
      EXPECT_EQ(results[0].flags, results[e].flags);
      EXPECT_EQ(results[0].ram, results[e].ram);
    }
  }
}

TEST(Threaded, FusionDiscoveryInvariants) {
  for (const std::string name :
       {"mul", "sqr", "inv", "reduce", "p256-mont", "p192-inv", "p256-redc"}) {
    const ProgramRef prog = workloads::kernel(name);
    const ThreadedImage& image = prog->threaded();
    SCOPED_TRACE(name);
    ASSERT_FALSE(image.blocks.empty());
    EXPECT_GT(image.valid_slots, 0u);
    EXPECT_LE(image.fused_slots, image.valid_slots);
    std::uint64_t terminated_blocks = 0;
    for (std::size_t b = 0; b < image.blocks.size(); ++b) {
      const SuperBlock& blk = image.blocks[b];
      ASSERT_GE(blk.count, 1u);
      // `count` real instructions plus the dispatcher's terminator entry.
      ASSERT_EQ(blk.code.size(), blk.count + 1);
      EXPECT_EQ(static_cast<std::uint8_t>(blk.code.back().ins.op),
                kEndOfBlockToken);
      EXPECT_EQ(blk.code.back().num_costs, 0u);
      EXPECT_EQ(image.block_at[blk.head_idx], static_cast<std::int32_t>(b));
      // A terminator comes only last; the body is fusable 1-halfword
      // slots at consecutive addresses.
      std::uint64_t body_cycles = 0;
      for (std::uint32_t i = 0; i + 1 < blk.count; ++i) {
        const FusedInstr& f = blk.code[i];
        EXPECT_TRUE(fusable(f.ins, 1));
        EXPECT_FALSE(is_terminator(f.ins));
        EXPECT_EQ(f.pc4, 2 * (blk.head_idx + i) + 4);
        for (unsigned c = 0; c < f.num_costs; ++c) {
          body_cycles += f.costs[c].cycles;
        }
      }
      const FusedInstr& last = blk.code[blk.count - 1];
      EXPECT_EQ(last.pc4, 2 * (blk.head_idx + blk.count - 1) + 4);
      const bool terminated = is_terminator(last.ins);
      // end_pc covers the last instruction — both halfwords of a BL.
      EXPECT_EQ(blk.end_pc, last.pc4 - 4 + (last.ins.op == Op::kBl ? 4 : 2));
      if (terminated) {
        ++terminated_blocks;
        // The batched body delta plus either terminator cost is what the
        // per-instruction engines charge for the same retirements.
        for (const bool taken : {false, true}) {
          InstrCost c[2];
          ASSERT_EQ(static_costs(last.ins, taken, c), 1u);
          EXPECT_EQ(blk.exit_cost[taken].cls, c[0].cls);
          EXPECT_EQ(blk.exit_cost[taken].cycles, c[0].cycles);
          EXPECT_EQ(blk.cycles + blk.exit_cost[taken].cycles,
                    body_cycles + c[0].cycles);
        }
      } else {
        EXPECT_TRUE(fusable(last.ins, 1));
        for (unsigned c = 0; c < last.num_costs; ++c) {
          body_cycles += last.costs[c].cycles;
        }
        EXPECT_EQ(blk.exit_cost[0].cycles, 0u);
        EXPECT_EQ(blk.exit_cost[1].cycles, 0u);
      }
      EXPECT_EQ(body_cycles, blk.cycles);
      std::uint64_t hist_cycles = 0;
      for (const auto& [cls, cyc] : blk.hist) hist_cycles += cyc;
      EXPECT_EQ(hist_cycles, blk.cycles);
    }
    // Every valid slot that is fusable or a terminator lies in exactly
    // one block, whatever the length of its run; no other slot does.
    const std::vector<PredecodedSlot>& cache = prog->cache();
    std::vector<unsigned> covered(cache.size(), 0);
    for (const SuperBlock& blk : image.blocks) {
      for (std::size_t k = blk.head_idx; 2 * k < blk.end_pc; ++k) {
        ++covered[k];
      }
    }
    for (std::size_t idx = 0; idx < cache.size();) {
      const PredecodedSlot& slot = cache[idx];
      if (!slot.valid) {
        EXPECT_EQ(covered[idx], 0u) << "invalid slot " << idx << " fused";
        ++idx;
        continue;
      }
      const bool fuses =
          fusable(slot.ins, slot.halfwords) || is_terminator(slot.ins);
      EXPECT_EQ(covered[idx], fuses ? 1u : 0u) << "slot " << idx;
      idx += slot.halfwords;
    }
    // No label (= potential branch/call target) is interior to a block;
    // loop heads re-enter fused bodies at block heads only.
    for (const auto& [label, addr] : prog->symbols()) {
      EXPECT_FALSE(is_block_interior(image, addr / 2))
          << "label " << label << " interior to a fused block";
    }
    // Straight-line kernels are one block; loop kernels end most blocks
    // in their branches. Either way nearly everything fuses.
    if (name == "mul" || name == "sqr" || name == "reduce") {
      EXPECT_EQ(image.blocks.size(), 1u);
    } else {
      EXPECT_GT(terminated_blocks * 2, image.blocks.size());
    }
    EXPECT_GT(image.fused_slots * 10, image.valid_slots * 9);
  }
}

TEST(Threaded, EngineNameHelpersRoundTrip) {
  EXPECT_EQ(decode_mode_from_name("perstep"), Cpu::DecodeMode::kPerStep);
  EXPECT_EQ(decode_mode_from_name("threaded"), Cpu::DecodeMode::kThreaded);
  for (const Cpu::DecodeMode mode : kEngines) {
    EXPECT_EQ(decode_mode_from_name(decode_mode_name(mode)), mode);
  }
  EXPECT_THROW(decode_mode_from_name("jit"), std::invalid_argument);
  // The retired engine's name is an unknown value like any other.
  EXPECT_THROW(decode_mode_from_name("predecode"), std::invalid_argument);
  // Just exercise the probe; either dispatch form is valid here.
  (void)threaded_dispatch_uses_computed_goto();
}

}  // namespace
}  // namespace eccm0::armvm
