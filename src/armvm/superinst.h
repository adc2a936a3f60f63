// Basic-block superinstructions for the token-threaded execution engine.
//
// A `ThreadedImage` is the third pure-function-of-the-source artifact a
// `Program` freezes (next to the code image and the predecode cache): a
// basic-block discovery pass walks the predecoded slots once, splits the
// instruction stream at every symbol address and every static branch
// target, and fuses each remaining maximal straight-line run of simple
// (single-halfword, non-control-flow) instructions into one `SuperBlock`.
// The block carries everything the threaded dispatcher needs to retire
// the whole run in one host-level call: the decoded instructions with
// their static_costs() pairs (for the fault replay path), and the
// precomputed accounting delta of the full block — total cycles plus a
// sparse per-class histogram delta — applied in a single step instead of
// per instruction. Nothing here restates an instruction: the dispatcher
// runs the same semantics.inc bodies as Cpu::exec, and every cost comes
// from the one cycle model in isa.h.
//
// The fusion rules are conservative so fused execution is bit-identical
// to the per-step oracle (see tests/armvm/threaded_test.cpp):
//   - only valid, 1-halfword slots fuse (BL pairs and data words never do);
//   - no control flow (B/BCond/BL/BX/BLX/BKPT, POP with PC, hi-reg ops
//     writing PC) — a fused block has exactly one entry and one exit;
//   - no instruction that reads the raw PC register outside the
//     architectural pc+4 forms the block can precompute (CMP involving
//     PC is excluded; ADR/LDR-literal/ADD-hi/MOV-hi with rm=PC fuse,
//     because their pc+4 is a per-slot constant);
//   - runs shorter than `kMinFuseLength` stay per-instruction (the
//     dispatch overhead saved would not cover the block-entry checks).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "armvm/codec.h"
#include "armvm/isa.h"
#include "costmodel/energy.h"

namespace eccm0::armvm {

/// Minimum number of instructions a straight-line run must have to be
/// worth fusing into a SuperBlock.
inline constexpr std::uint32_t kMinFuseLength = 3;

/// Token byte of the terminator entry appended after the last real
/// instruction of every SuperBlock's code array. One past the last Op
/// value, so the computed-goto dispatcher can jump through a
/// (kNumOps + 1)-entry table straight to its block-exit label instead of
/// testing a loop counter after every instruction. Representable in Op's
/// std::uint8_t underlying type but never a real Op.
inline constexpr std::uint8_t kEndOfBlockToken =
    static_cast<std::uint8_t>(kNumOps);

/// One fused instruction: the decoded form plus the per-slot constants
/// the handlers need (pc+4 for ADR/LDR-literal/hi-reg reads) and its
/// static_costs() pairs, kept so a fault interior to the block can replay
/// the accounting of the instructions that retired before it.
struct FusedInstr {
  Instr ins;
  std::uint32_t pc4 = 0;  ///< instruction address + 4
  std::uint8_t num_costs = 0;
  InstrCost costs[2];
};

/// A maximal fused straight-line run.
struct SuperBlock {
  std::uint32_t head_idx = 0;  ///< halfword index of the first instruction
  std::uint32_t count = 0;     ///< fused instructions (all 1 halfword)
  std::uint32_t end_pc = 0;    ///< byte PC after the last instruction
  std::uint64_t cycles = 0;    ///< total cycle cost of the whole block
  /// Sparse histogram delta of the whole block (class, cycles) — applied
  /// in one step on block completion.
  std::vector<std::pair<costmodel::InstrClass, std::uint64_t>> hist;
  /// `count` fused instructions followed by one terminator entry whose
  /// op byte is kEndOfBlockToken (so code.size() == count + 1).
  std::vector<FusedInstr> code;
};

/// The frozen fusion artifact: `block_at[idx]` is the index into
/// `blocks` when halfword `idx` is a block head, -1 otherwise (interior
/// slots are -1 too: entering a block anywhere but its head — e.g. after
/// a snapshot restore — executes per-instruction until the next head).
struct ThreadedImage {
  std::vector<std::int32_t> block_at;
  std::vector<SuperBlock> blocks;
  /// Static fusion census for the fusion report.
  std::uint64_t fused_slots = 0;  ///< instructions inside fused blocks
  std::uint64_t valid_slots = 0;  ///< all valid instruction slots
};

/// Ops that always branch or halt, whatever their operands: never part
/// of a fused block (one entry, one exit). The fused dispatcher compiles
/// no body for them.
constexpr bool always_control_flow(Op op) {
  return op == Op::kBCond || op == Op::kB || op == Op::kBl ||
         op == Op::kBx || op == Op::kBlx || op == Op::kBkpt;
}

/// True when this (decoded, `halfwords`-sized) instruction may be part
/// of a fused block.
bool fusable(const Instr& ins, unsigned halfwords);

/// Run the discovery pass over a predecoded image. `symbols` contributes
/// extra split points: every label is a potential branch target (loop
/// heads are labels), so no block spans one.
ThreadedImage build_threaded_image(
    const std::vector<PredecodedSlot>& cache,
    const std::map<std::string, std::uint32_t>& symbols);

/// True when halfword `idx` lies strictly inside a fused block (not at
/// its head). Test helper for the mid-block snapshot/fault coverage.
bool is_block_interior(const ThreadedImage& image, std::size_t idx);

}  // namespace eccm0::armvm
