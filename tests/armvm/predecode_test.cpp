// Differential test of execution from the Program's decode cache (the
// threaded engine's per-instruction path) against the per-step-decode
// reference engine: on the real K-233 field kernels and a kP-shaped
// schedule of them, both engines must retire the same instruction
// stream — identical cycle counts, per-class histograms, energy reports,
// trace-sink event streams, registers and memory — and trap undecodable
// slots (literal pools, data words) with the per-step engine's errors.
// Most cases attach a trace sink, so the threaded engine runs them
// unfused; threaded_test.cpp covers the fused blocks.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "asmkernels/gen.h"
#include "common/rng.h"
#include "gf2/sqr_table.h"

namespace eccm0::armvm {
namespace {

constexpr std::size_t kRamSize = 0x800;

/// Records every rich retired-instruction event for stream-level
/// comparison: PC, decoded form, cost pairs, memory accesses, next PC.
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
  EXPECT_EQ(a.energy().avg_power_uw(), b.energy().avg_power_uw());
  EXPECT_EQ(a.energy().time_ms(), b.energy().time_ms());
}

struct Engine {
  Engine(const ProgramRef& prog, Cpu::DecodeMode mode)
      : mem(kRamSize), cpu(prog, mem, mode) {
    cpu.set_trace_sink(&sink);
  }
  Memory mem;
  Cpu cpu;
  RecordingSink sink;
};

/// Runs `prog` on both engines with `setup` applied to each Memory, then
/// asserts stats, trace streams, registers and all of RAM are identical.
void run_differential(const ProgramRef& prog,
                      const std::function<void(Memory&)>& setup) {
  Engine ref(prog, Cpu::DecodeMode::kPerStep);
  Engine thr(prog, Cpu::DecodeMode::kThreaded);
  setup(ref.mem);
  setup(thr.mem);
  const RunStats a = ref.cpu.call(prog->entry("entry"), {});
  const RunStats b = thr.cpu.call(prog->entry("entry"), {});
  expect_stats_identical(a, b);
  EXPECT_EQ(ref.sink.events, thr.sink.events);
  for (unsigned r = 0; r < 13; ++r) {
    EXPECT_EQ(ref.cpu.reg(r), thr.cpu.reg(r)) << "r" << r;
  }
  EXPECT_EQ(ref.cpu.flag_n(), thr.cpu.flag_n());
  EXPECT_EQ(ref.cpu.flag_z(), thr.cpu.flag_z());
  EXPECT_EQ(ref.cpu.flag_c(), thr.cpu.flag_c());
  EXPECT_EQ(ref.cpu.flag_v(), thr.cpu.flag_v());
  const auto ram_a = ref.mem.read_words(kRamBase, kRamSize / 4);
  const auto ram_b = thr.mem.read_words(kRamBase, kRamSize / 4);
  EXPECT_EQ(ram_a, ram_b);
}

std::array<std::uint32_t, 8> random_fe(Rng& rng) {
  std::array<std::uint32_t, 8> v;
  for (auto& w : v) w = static_cast<std::uint32_t>(rng.next_u64());
  v[7] &= 0x1FF;  // 233-bit field element
  return v;
}

void write_fe(Memory& mem, std::uint32_t off,
              const std::array<std::uint32_t, 8>& v) {
  for (int w = 0; w < 8; ++w) mem.store32(kRamBase + off + 4 * w, v[w]);
}

TEST(DecodeCache, FieldMulFixedRegistersIdentical) {
  const ProgramRef prog = assemble(asmkernels::gen_mul_fixed(true));
  Rng rng(0xF1E1D);
  const auto x = random_fe(rng), y = random_fe(rng);
  run_differential(prog, [&](Memory& mem) {
    write_fe(mem, asmkernels::kXOff, x);
    write_fe(mem, asmkernels::kYOff, y);
  });
}

TEST(DecodeCache, FieldMulPlainMemoryIdentical) {
  const ProgramRef prog = assemble(asmkernels::gen_mul_plain(true));
  Rng rng(0x71A17);
  const auto x = random_fe(rng), y = random_fe(rng);
  run_differential(prog, [&](Memory& mem) {
    write_fe(mem, asmkernels::kXOff, x);
    write_fe(mem, asmkernels::kYOff, y);
  });
}

TEST(DecodeCache, KpScheduleIdentical) {
  // A kP-shaped schedule: the field-kernel mix of a (scaled-down) wTNAF
  // w=4 point multiplication — muls, squarings and one EEA inversion,
  // executed back-to-back on persistent per-kernel machines exactly like
  // bench_vm_throughput's workload.
  const ProgramRef mul_prog = assemble(asmkernels::gen_mul_fixed(true));
  const ProgramRef sqr_prog = assemble(asmkernels::gen_sqr());
  const ProgramRef inv_prog = assemble(asmkernels::gen_inv());
  constexpr unsigned kMuls = 19, kSqrs = 47, kInvs = 1;

  Rng rng(0x5CED);
  const auto x = random_fe(rng), y = random_fe(rng);
  auto a = random_fe(rng);
  a[0] |= 1;  // nonzero for inversion

  auto run_schedule = [&](Cpu::DecodeMode mode, RunStats& total,
                          RecordingSink& sink,
                          std::vector<std::uint32_t>& outputs) {
    Memory mul_mem(kRamSize), sqr_mem(kRamSize), inv_mem(kRamSize);
    write_fe(mul_mem, asmkernels::kXOff, x);
    write_fe(mul_mem, asmkernels::kYOff, y);
    write_fe(sqr_mem, asmkernels::kInOff, a);
    for (unsigned i = 0; i < 256; ++i) {
      sqr_mem.store16(kRamBase + asmkernels::kSqrTabOff + 2 * i,
                      gf2::kSquareTable[i]);
    }
    Cpu mul_cpu(mul_prog, mul_mem, mode);
    Cpu sqr_cpu(sqr_prog, sqr_mem, mode);
    Cpu inv_cpu(inv_prog, inv_mem, mode);
    mul_cpu.set_trace_sink(&sink);
    sqr_cpu.set_trace_sink(&sink);
    inv_cpu.set_trace_sink(&sink);
    for (unsigned i = 0; i < kMuls; ++i) {
      mul_cpu.call(mul_prog->entry("entry"), {});
    }
    for (unsigned i = 0; i < kSqrs; ++i) {
      sqr_cpu.call(sqr_prog->entry("entry"), {});
    }
    for (unsigned i = 0; i < kInvs; ++i) {
      write_fe(inv_mem, asmkernels::kInOff, a);
      inv_cpu.call(inv_prog->entry("entry"), {});
    }
    total = mul_cpu.stats();
    total.instructions +=
        sqr_cpu.stats().instructions + inv_cpu.stats().instructions;
    total.cycles += sqr_cpu.stats().cycles + inv_cpu.stats().cycles;
    total.histogram += sqr_cpu.stats().histogram;
    total.histogram += inv_cpu.stats().histogram;
    for (int w = 0; w < 8; ++w) {
      outputs.push_back(mul_mem.load32(kRamBase + asmkernels::kVOff + 4 * w));
      outputs.push_back(
          sqr_mem.load32(kRamBase + asmkernels::kOutOff + 4 * w));
      outputs.push_back(
          inv_mem.load32(kRamBase + asmkernels::kOutOff + 4 * w));
    }
  };

  RunStats ref_stats, thr_stats;
  RecordingSink ref_sink, thr_sink;
  std::vector<std::uint32_t> ref_out, thr_out;
  run_schedule(Cpu::DecodeMode::kPerStep, ref_stats, ref_sink, ref_out);
  run_schedule(Cpu::DecodeMode::kThreaded, thr_stats, thr_sink, thr_out);
  expect_stats_identical(ref_stats, thr_stats);
  EXPECT_EQ(ref_sink.events, thr_sink.events);
  EXPECT_EQ(ref_out, thr_out);
  EXPECT_GT(thr_stats.instructions, 100000u);  // a real workload, not a stub
}

TEST(DecodeCache, RichTraceStreamsIdenticalForMulAndSqrKernels) {
  // Both engines must emit bit-identical *rich* trace event
  // streams — same PCs, decoded instructions, cost pairs and memory
  // access addresses/widths — for the K-233 mul and square kernels.
  Rng rng(0x51C);
  for (const bool fixed : {true, false}) {
    const ProgramRef prog = assemble(fixed ? asmkernels::gen_mul_fixed(true)
                                        : asmkernels::gen_mul_plain(true));
    const auto x = random_fe(rng), y = random_fe(rng);
    Engine ref(prog, Cpu::DecodeMode::kPerStep);
    Engine thr(prog, Cpu::DecodeMode::kThreaded);
    for (Memory* mem : {&ref.mem, &thr.mem}) {
      write_fe(*mem, asmkernels::kXOff, x);
      write_fe(*mem, asmkernels::kYOff, y);
    }
    ref.cpu.call(prog->entry("entry"), {});
    thr.cpu.call(prog->entry("entry"), {});
    ASSERT_EQ(ref.sink.events.size(), thr.sink.events.size());
    EXPECT_EQ(ref.sink.events, thr.sink.events);
    // The stream is genuinely rich: it carries memory addresses.
    std::uint64_t accesses = 0, load_words = 0;
    for (const TraceEvent& ev : thr.sink.events) {
      accesses += ev.num_accesses;
      for (unsigned i = 0; i < ev.num_accesses; ++i) {
        if (!ev.accesses[i].store && ev.accesses[i].width == 4) ++load_words;
      }
      EXPECT_GE(ev.num_costs, 1u);
      EXPECT_EQ(ev.cycles(), ev.costs[0].cycles +
                                 (ev.num_costs > 1 ? ev.costs[1].cycles : 0u));
    }
    EXPECT_GT(accesses, 100u);
    EXPECT_GT(load_words, 50u);
  }

  const ProgramRef sqr_prog = assemble(asmkernels::gen_sqr());
  const auto a = random_fe(rng);
  Engine ref(sqr_prog, Cpu::DecodeMode::kPerStep);
  Engine thr(sqr_prog, Cpu::DecodeMode::kThreaded);
  for (Memory* mem : {&ref.mem, &thr.mem}) {
    write_fe(*mem, asmkernels::kInOff, a);
    for (unsigned i = 0; i < 256; ++i) {
      mem->store16(kRamBase + asmkernels::kSqrTabOff + 2 * i,
                   gf2::kSquareTable[i]);
    }
  }
  ref.cpu.call(sqr_prog->entry("entry"), {});
  thr.cpu.call(sqr_prog->entry("entry"), {});
  EXPECT_EQ(ref.sink.events, thr.sink.events);
  // Simulated-clock timestamps reconstruct the cycle count exactly.
  ASSERT_FALSE(thr.sink.events.empty());
  const TraceEvent& last = thr.sink.events.back();
  EXPECT_EQ(last.cycle + last.cycles(), thr.cpu.stats().cycles);
}

TEST(DecodeCache, LoopingInversionKernelIdentical) {
  // The EEA inversion is the one genuinely branchy, data-dependent
  // kernel — the strongest exercise of branch-target handling in the
  // cached engine.
  const ProgramRef prog = assemble(asmkernels::gen_inv());
  Rng rng(0x1EA);
  auto a = random_fe(rng);
  a[0] |= 1;
  run_differential(prog, [&](Memory& mem) {
    write_fe(mem, asmkernels::kInOff, a);
  });
}

TEST(DecodeCache, LiteralPoolDataSlotsAreHarmless) {
  // `ldr rN, =imm` materializes a literal pool after the code; those
  // data words do not decode as instructions. Predecoding must tolerate
  // them (lazy trap slots) and execution must never touch the traps.
  const ProgramRef prog = assemble(R"(
entry:
    ldr r0, =0x12345678
    ldr r1, =0xCAFEBABE
    adds r0, r0, r1
    bx lr
)");
  Engine ref(prog, Cpu::DecodeMode::kPerStep);
  Engine thr(prog, Cpu::DecodeMode::kThreaded);
  const RunStats a = ref.cpu.call(prog->entry("entry"), {});
  const RunStats b = thr.cpu.call(prog->entry("entry"), {});
  expect_stats_identical(a, b);
  EXPECT_EQ(ref.cpu.reg(0), 0x12345678u + 0xCAFEBABEu);
  EXPECT_EQ(thr.cpu.reg(0), 0x12345678u + 0xCAFEBABEu);
}

TEST(DecodeCache, UndecodableSlotTrapsWithPerStepError) {
  // Jumping into a data word must raise the same decode error the
  // per-step engine raises, from the same architectural state.
  const std::vector<std::uint16_t> image = {
      0x2007,  // movs r0, #7
      0xBA80,  // undefined (0xBA80 hole in the REV group)
  };
  Memory mem_a(kRamSize), mem_b(kRamSize);
  Cpu ref(image, mem_a, Cpu::DecodeMode::kPerStep);
  Cpu thr(image, mem_b, Cpu::DecodeMode::kThreaded);
  std::string err_a, err_b;
  try {
    ref.call(0, {});
  } catch (const std::invalid_argument& e) {
    err_a = e.what();
  }
  try {
    thr.call(0, {});
  } catch (const std::invalid_argument& e) {
    err_b = e.what();
  }
  EXPECT_FALSE(err_a.empty());
  EXPECT_EQ(err_a, err_b);
  expect_stats_identical(ref.stats(), thr.stats());
  EXPECT_EQ(ref.reg(0), 7u);
  EXPECT_EQ(thr.reg(0), 7u);
}

TEST(DecodeCache, TypedDecodeFaultIdenticalAcrossEngines) {
  // Both engines must raise the same typed DecodeFault — same kind,
  // message, faulting address AND architectural-state snapshot.
  const std::vector<std::uint16_t> image = {
      0x2007,  // movs r0, #7
      0xBA80,  // undefined (0xBA80 hole in the REV group)
  };
  Memory mem_a(kRamSize), mem_b(kRamSize);
  Cpu ref(image, mem_a, Cpu::DecodeMode::kPerStep);
  Cpu thr(image, mem_b, Cpu::DecodeMode::kThreaded);
  auto capture = [](Cpu& cpu) {
    try {
      cpu.call(0, {});
    } catch (const Fault& f) {
      EXPECT_TRUE(f.has_state());
      return std::make_tuple(f.kind(), f.message(), f.address(), f.state());
    }
    ADD_FAILURE() << "no typed fault raised";
    return std::make_tuple(FaultKind::kBusFault, std::string{},
                           std::uint32_t{0}, ArchState{});
  };
  const auto a = capture(ref);
  const auto b = capture(thr);
  EXPECT_EQ(std::get<0>(a), FaultKind::kDecodeFault);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));  // identical ArchState
  EXPECT_EQ(std::get<3>(a).r[0], 7u);
  EXPECT_EQ(std::get<3>(a).instructions, 1u);
}

TEST(DecodeCache, MemoryFaultStateIdenticalAcrossEngines) {
  // A data abort mid-run: a load from far outside RAM must surface as
  // the same BusFault, with identical state, from both engines.
  const ProgramRef prog = assemble(R"(
entry:
    movs r0, #7
    ldr r1, =0x30000000
    ldr r2, [r1]
    bx lr
)");
  Engine ref(prog, Cpu::DecodeMode::kPerStep);
  Engine thr(prog, Cpu::DecodeMode::kThreaded);
  auto capture = [&](Cpu& cpu) {
    try {
      cpu.call(prog->entry("entry"), {});
    } catch (const BusFault& f) {
      EXPECT_TRUE(f.has_state());
      return std::make_tuple(f.message(), f.address(), f.state());
    }
    ADD_FAILURE() << "no BusFault raised";
    return std::make_tuple(std::string{}, std::uint32_t{0}, ArchState{});
  };
  const auto a = capture(ref.cpu);
  const auto b = capture(thr.cpu);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), 0x30000000u);
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<2>(a).r[0], 7u);
  EXPECT_EQ(ref.sink.events, thr.sink.events);
}

TEST(DecodeCache, InstructionBudgetTripsIdentically) {
  const ProgramRef prog = assemble(R"(
entry:
loop: b loop
)");
  Engine ref(prog, Cpu::DecodeMode::kPerStep);
  Engine thr(prog, Cpu::DecodeMode::kThreaded);
  EXPECT_THROW(ref.cpu.call(prog->entry("entry"), {}, 100000),
               std::runtime_error);  // legacy catch still works
  ArchState thr_state;
  try {
    thr.cpu.call(prog->entry("entry"), {}, 100000);
    ADD_FAILURE() << "budget did not trip";
  } catch (const BudgetFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kBudgetExhausted);
    ASSERT_TRUE(f.has_state());
    thr_state = f.state();
  }
  // Both engines retired exactly budget + 1 instructions before tripping.
  expect_stats_identical(ref.cpu.stats(), thr.cpu.stats());
  EXPECT_EQ(thr.cpu.stats().instructions, 100001u);
  EXPECT_EQ(thr_state.instructions, 100001u);
  EXPECT_EQ(thr_state, thr.cpu.arch_state());
}

}  // namespace
}  // namespace eccm0::armvm
