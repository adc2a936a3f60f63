// Deterministic fault injection on the armvm core.
//
// A fault campaign needs three things: a typed vocabulary of what can go
// wrong (FaultModel/FaultSpec), a way to run a Thumb program with exactly
// one seeded fault applied at a chosen retirement index (run_with_fault),
// and a classification of how the run ended (InjectedRun). Everything is
// driven by explicit seeds — the same FaultSpec on the same program and
// memory image always produces the same outcome, so campaigns replay
// bit-for-bit.
//
// The injector leans on the typed armvm::Fault hierarchy: a fault that
// derails the core surfaces as a BusFault / AlignmentFault / DecodeFault
// (or BudgetFault via the watchdog budget), each carrying the
// architectural state at the crash.
#pragma once

#include <cstdint>
#include <string>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "common/rng.h"

namespace eccm0::faultsim {

/// Physical fault models, in rough order of attacker capability.
enum class FaultModel : std::uint8_t {
  kRegisterFlip,     ///< flip one bit of one core register
  kRamFlip,          ///< flip one bit of one RAM word
  kInstructionSkip,  ///< skip exactly one instruction (clock glitch)
  kOpcodeFlip,       ///< flip one bit of the fetched opcode (transient)
};
inline constexpr unsigned kNumFaultModels = 4;
const char* fault_model_name(FaultModel m);

/// One concrete injection: `model` applied just before the instruction
/// with retirement index `index` executes.
struct FaultSpec {
  FaultModel model = FaultModel::kRegisterFlip;
  std::uint64_t index = 0;    ///< retirement index of the injection point
  unsigned reg = 0;           ///< kRegisterFlip: target register (0..15)
  unsigned bit = 0;           ///< bit to flip (0..31 reg/ram, 0..15 opcode)
  std::uint32_t ram_word = 0; ///< kRamFlip: word offset from RAM base
};

/// Draw a uniform FaultSpec for `model` with the injection point in
/// [0, max_index) and RAM targets in [0, ram_words).
FaultSpec sample_spec(Rng& rng, FaultModel model, std::uint64_t max_index,
                      std::uint32_t ram_words);

enum class RunOutcome : std::uint8_t {
  kCompleted,  ///< ran to its BX LR / halt — result may still be wrong
  kCrashed,    ///< raised an armvm::Fault (or tripped the watchdog budget)
};

/// What happened to one injected run.
struct InjectedRun {
  RunOutcome outcome = RunOutcome::kCompleted;
  /// False when the program retired fewer than `spec.index` instructions,
  /// i.e. the fault window closed before the trigger fired.
  bool injected = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  // Crash details (outcome == kCrashed).
  armvm::FaultKind fault_kind = armvm::FaultKind::kBusFault;
  std::string fault_message;
  armvm::ArchState fault_state;
};

/// Execute `prog` (entry label "entry", no arguments) against `ram`,
/// applying `spec` at its trigger point. Never throws for architectural
/// faults — they are the experiment, and come back classified.
///
/// `engine` selects the execution engine of the injected core (the
/// `--engine=` flag of the campaign harnesses). The injector always
/// retires one instruction per step — the trigger is a retirement
/// index, and the watchdog counts between retirements — so outcomes
/// are bit-identical across engines; the engine choice A/Bs the decode
/// path (per-step decode vs the shared decode cache).
InjectedRun run_with_fault(
    const armvm::ProgramRef& prog, armvm::Memory& ram, const FaultSpec& spec,
    std::uint64_t max_instructions = 1'000'000,
    armvm::Cpu::DecodeMode engine = armvm::Cpu::DecodeMode::kThreaded);

/// Capture the fault-window checkpoint: a fresh run of `prog` (entry
/// label "entry") stepped cleanly to retirement index `index` — or to
/// completion, if the program is shorter — snapshotted there. A clean
/// program is assumed; architectural faults before the checkpoint
/// propagate. `ram` holds the program's input image and is consumed by
/// the stepping.
armvm::MachineSnapshot checkpoint_at(
    const armvm::ProgramRef& prog, armvm::Memory& ram, std::uint64_t index,
    armvm::Cpu::DecodeMode engine = armvm::Cpu::DecodeMode::kThreaded);

/// Fork a checkpointed run: restore `at_injection` (taken by
/// checkpoint_at at spec.index) into a fresh context over the same
/// program and continue with `spec` applied — bit-identical outcome,
/// instruction and cycle counts to run_with_fault replaying from reset,
/// without re-executing the prefix. This is what lets a campaign that
/// injects many specs at one index pay the prefix once.
InjectedRun run_with_fault_forked(
    const armvm::ProgramRef& prog, armvm::Memory& ram,
    const armvm::MachineSnapshot& at_injection, const FaultSpec& spec,
    std::uint64_t max_instructions = 1'000'000,
    armvm::Cpu::DecodeMode engine = armvm::Cpu::DecodeMode::kThreaded);

}  // namespace eccm0::faultsim
