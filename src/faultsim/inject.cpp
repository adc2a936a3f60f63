#include "faultsim/inject.h"

#include <utility>
#include <vector>

#include "armvm/codec.h"
#include "armvm/isa.h"

namespace eccm0::faultsim {

const char* fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::kRegisterFlip: return "register-flip";
    case FaultModel::kRamFlip: return "ram-flip";
    case FaultModel::kInstructionSkip: return "instruction-skip";
    case FaultModel::kOpcodeFlip: return "opcode-flip";
  }
  return "unknown-model";
}

FaultSpec sample_spec(Rng& rng, FaultModel model, std::uint64_t max_index,
                      std::uint32_t ram_words) {
  FaultSpec s;
  s.model = model;
  s.index = max_index == 0 ? 0 : rng.next_below(max_index);
  switch (model) {
    case FaultModel::kRegisterFlip:
      s.reg = static_cast<unsigned>(rng.next_below(16));
      s.bit = static_cast<unsigned>(rng.next_below(32));
      break;
    case FaultModel::kRamFlip:
      s.ram_word = static_cast<std::uint32_t>(rng.next_below(ram_words));
      s.bit = static_cast<unsigned>(rng.next_below(32));
      break;
    case FaultModel::kInstructionSkip:
      break;
    case FaultModel::kOpcodeFlip:
      s.bit = static_cast<unsigned>(rng.next_below(16));
      break;
  }
  return s;
}

namespace {

/// Apply `spec` to the stopped core. `extra` accumulates instructions and
/// cycles retired outside the main core (the opcode-flip model executes
/// the corrupted instruction on a scratch core). Returns false when the
/// injected instruction itself halted the program.
bool apply_fault(armvm::Cpu& cpu, armvm::Memory& ram,
                 const armvm::Program& prog, const FaultSpec& spec,
                 std::uint64_t& extra_instructions,
                 std::uint64_t& extra_cycles) {
  switch (spec.model) {
    case FaultModel::kRegisterFlip:
      cpu.set_reg(spec.reg, cpu.reg(spec.reg) ^ (1u << spec.bit));
      return true;
    case FaultModel::kRamFlip: {
      const std::uint32_t addr = armvm::kRamBase + 4u * spec.ram_word;
      ram.store32(addr, ram.load32(addr) ^ (1u << spec.bit));
      return true;
    }
    case FaultModel::kInstructionSkip: {
      const std::uint32_t pc = cpu.reg(armvm::kPC);
      const std::size_t idx = pc / 2;
      unsigned halfwords = 1;
      if (pc % 2 == 0 && idx < prog.code().size()) {
        try {
          halfwords = armvm::decode(prog.code(), idx).halfwords;
        } catch (const armvm::Fault&) {
          // Skipping an undecodable slot: glitch past one halfword.
        }
      }
      cpu.set_reg(armvm::kPC, pc + 2u * halfwords);
      return true;
    }
    case FaultModel::kOpcodeFlip: {
      const std::uint32_t pc = cpu.reg(armvm::kPC);
      const std::size_t idx = pc / 2;
      if (pc % 2 != 0 || idx >= prog.code().size()) {
        // PC already derailed; the next step faults on its own.
        return true;
      }
      // The corruption is transient (one fetch), so the pristine
      // decode cache of the main core must not see it: execute the
      // one corrupted instruction on a scratch per-step core sharing
      // RAM, then hand the architectural state back.
      std::vector<std::uint16_t> corrupted = prog.code();
      corrupted[idx] = static_cast<std::uint16_t>(
          corrupted[idx] ^ (1u << spec.bit));
      armvm::Cpu scratch(std::move(corrupted), ram,
                         armvm::Cpu::DecodeMode::kPerStep);
      scratch.set_arch_state(cpu.arch_state());
      const bool running = scratch.step();  // typed Fault => crash
      cpu.set_arch_state(scratch.arch_state());
      extra_instructions += scratch.stats().instructions;
      extra_cycles += scratch.stats().cycles;
      return running;
    }
  }
  return true;
}

}  // namespace

/// Shared tail of the replayed and forked paths: `cpu` is already
/// positioned (at reset, or at a restored checkpoint); step to the
/// trigger if it is still ahead, apply the fault, run to halt/crash.
InjectedRun resume_with_fault(armvm::Cpu& cpu, armvm::Memory& ram,
                              const armvm::Program& prog,
                              const FaultSpec& spec,
                              std::uint64_t max_instructions) {
  InjectedRun out;
  std::uint64_t extra_instructions = 0;
  std::uint64_t extra_cycles = 0;
  try {
    bool running = true;
    while (running && cpu.stats().instructions < spec.index) {
      running = cpu.step();
    }
    if (running) {
      out.injected = true;
      running = apply_fault(cpu, ram, prog, spec, extra_instructions,
                            extra_cycles);
    }
    while (running) {
      if (cpu.stats().instructions + extra_instructions > max_instructions) {
        // Watchdog: a fault that sends the core into an endless loop is
        // observable on a real node as a reset, not a wrong answer.
        armvm::BudgetFault f("faultsim: watchdog budget exceeded",
                             cpu.reg(armvm::kPC));
        f.attach_state(cpu.arch_state());
        throw f;
      }
      running = cpu.step();
    }
  } catch (const armvm::Fault& f) {
    out.outcome = RunOutcome::kCrashed;
    out.fault_kind = f.kind();
    out.fault_message = f.message();
    if (f.has_state()) out.fault_state = f.state();
  }
  out.instructions = cpu.stats().instructions + extra_instructions;
  out.cycles = cpu.stats().cycles + extra_cycles;
  return out;
}

InjectedRun run_with_fault(const armvm::ProgramRef& prog, armvm::Memory& ram,
                           const FaultSpec& spec,
                           std::uint64_t max_instructions,
                           armvm::Cpu::DecodeMode engine) {
  armvm::Cpu cpu(prog, ram, engine);
  cpu.set_reg(armvm::kLR, armvm::kReturnSentinel);
  cpu.set_reg(armvm::kPC, prog->entry("entry"));
  return resume_with_fault(cpu, ram, *prog, spec, max_instructions);
}

armvm::MachineSnapshot checkpoint_at(const armvm::ProgramRef& prog,
                                     armvm::Memory& ram, std::uint64_t index,
                                     armvm::Cpu::DecodeMode engine) {
  armvm::Cpu cpu(prog, ram, engine);
  cpu.set_reg(armvm::kLR, armvm::kReturnSentinel);
  cpu.set_reg(armvm::kPC, prog->entry("entry"));
  bool running = true;
  while (running && cpu.stats().instructions < index) {
    running = cpu.step();
  }
  return cpu.snapshot();
}

InjectedRun run_with_fault_forked(const armvm::ProgramRef& prog,
                                  armvm::Memory& ram,
                                  const armvm::MachineSnapshot& at_injection,
                                  const FaultSpec& spec,
                                  std::uint64_t max_instructions,
                                  armvm::Cpu::DecodeMode engine) {
  armvm::Cpu cpu(prog, ram, engine);
  cpu.restore(at_injection);
  return resume_with_fault(cpu, ram, *prog, spec, max_instructions);
}

}  // namespace eccm0::faultsim
