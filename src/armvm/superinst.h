// Basic-block superinstructions for the token-threaded execution engine.
//
// A `ThreadedImage` is the third pure-function-of-the-source artifact a
// `Program` freezes (next to the code image and the predecode cache): a
// basic-block discovery pass walks the predecoded slots once, splits the
// instruction stream at every symbol address and every static branch
// target, and fuses each remaining maximal straight-line run of simple
// instructions — closed by the branch that ends it, when one does — into
// one `SuperBlock`. The block carries everything the threaded dispatcher
// needs to retire the whole run in one host-level call: the decoded
// instructions with their static_costs() pairs (for the fault replay
// path), the precomputed accounting delta of the body — total cycles plus
// a sparse per-class histogram delta — applied in a single step instead
// of per instruction, and the terminator's static_costs() for both
// directions. Nothing here restates an instruction: the dispatcher runs
// the same semantics.inc bodies as Cpu::exec, and every cost comes from
// the one cycle model in isa.h.
//
// The fusion rules are conservative so fused execution is bit-identical
// to the per-step oracle (see tests/armvm/threaded_test.cpp):
//   - a block's body is valid 1-halfword slots with no control flow (no
//     B/BCond/BL/BX/BLX/BKPT, POP with PC, hi-reg ops writing PC);
//   - a block may end in one terminator — B, B<cond>, BL (the only
//     2-halfword slot that fuses) or BX — which retires inside the block;
//     its cost is charged on exit from static_costs(ins, taken);
//   - no instruction that reads the raw PC register outside the
//     architectural pc+4 forms the block can precompute (CMP involving
//     PC and BX PC are excluded; ADR/LDR-literal/ADD-hi/MOV-hi with
//     rm=PC fuse, because their pc+4 is a per-slot constant, and BL's
//     return address is its pc+4);
//   - every such run fuses, whatever its length, so the short run before
//     a loop head is a block too and the chain never leaves for it.
// After a terminator the dispatcher chains straight into the block at
// the new PC when that PC is a block head and the block fits the chunk
// budget (dispatch.cpp), so a loop runs block to block without returning
// to the run loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "armvm/codec.h"
#include "armvm/isa.h"
#include "costmodel/energy.h"

namespace eccm0::armvm {

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

/// A maximal fused straight-line run, with the terminator that ends it
/// (if any) as its last instruction.
struct SuperBlock {
  std::uint32_t head_idx = 0;  ///< halfword index of the first instruction
  std::uint32_t count = 0;     ///< fused instructions, terminator included
  /// Byte PC after the last instruction (past both halfwords of a BL):
  /// where execution continues unless the terminator branches.
  std::uint32_t end_pc = 0;
  std::uint64_t cycles = 0;  ///< cycle cost of the body (terminator excluded)
  /// Sparse histogram delta of the body (class, cycles) — applied in one
  /// step on block completion.
  std::vector<std::pair<costmodel::InstrClass, std::uint64_t>> hist;
  /// The terminator's static_costs() pair, indexed by whether it branched
  /// (a B, BL or BX always does); zero cycles when the block has none.
  InstrCost exit_cost[2] = {};
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

/// Ops that are never part of a fused block, whatever their operands:
/// BLX (a call through a register) and BKPT (a halt). The fused
/// dispatcher compiles no body for them.
constexpr bool never_fused(Op op) {
  return op == Op::kBlx || op == Op::kBkpt;
}

/// True when `ins` may end a fused block: B, B<cond>, BL, or BX from any
/// register but PC (which would read the raw PC register).
constexpr bool is_terminator(const Instr& ins) {
  return ins.op == Op::kB || ins.op == Op::kBCond || ins.op == Op::kBl ||
         (ins.op == Op::kBx && ins.rm != kPC);
}

/// True when this (decoded, `halfwords`-sized) instruction may be part
/// of a fused block's body (any slot before its terminator).
bool fusable(const Instr& ins, unsigned halfwords);

/// Run the discovery pass over a predecoded image. `symbols` contributes
/// extra split points: every label is a potential branch target (loop
/// heads are labels), so no block spans one.
ThreadedImage build_threaded_image(
    const std::vector<PredecodedSlot>& cache,
    const std::map<std::string, std::uint32_t>& symbols);

/// True when halfword `idx` lies strictly inside a fused block (not at
/// its head; the low halfword of a closing BL counts as inside). Test
/// helper for the mid-block snapshot/fault coverage.
bool is_block_interior(const ThreadedImage& image, std::size_t idx);

}  // namespace eccm0::armvm
