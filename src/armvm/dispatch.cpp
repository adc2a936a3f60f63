// The token-threaded execution engine (DecodeMode::kThreaded): the
// superblock dispatcher, plus the engine-name helpers of dispatch.h.
//
// The threaded engine's chunk loop is the predecoded one
// (Cpu::run_predecoded_impl<..., kFused = true>, cpu.cpp): it enters a
// fused block when the PC sits on a block head and the whole block fits
// in the remaining budget, and executes everything else — interior
// entry after a snapshot restore, budget boundary, undecodable slot,
// control flow no block ends in (BLX, POP {pc}, writes to PC), traced or
// protected-memory runs — per-instruction through Cpu::exec.
//
// Cpu::run_fused_chain retires that block and every block it chains
// into. It runs the instruction bodies of semantics.inc — the same bodies
// Cpu::exec runs — against block-local flag copies and a hoisted RAM
// view, with NO per-instruction accounting: on completing a block it
// applies the block's precomputed cycle/histogram totals in one step,
// plus the static_costs() pair of the terminator for the direction it
// went. Then it chains: the new PC is looked up in `block_at`, and if it
// is a block head whose block fits in what is left of the chunk budget,
// execution continues there with the flags still in locals; otherwise
// the chain returns to the run loop. A chain therefore never retires
// more than the chunk allows, so the budget still trips at exactly
// max_instructions + 1 retirements on every engine. On a Fault it
// replays the static_costs() pairs of the current block's instructions
// that retired before the faulting one, so the architectural state (PC,
// flags, stats) is exactly what the per-step oracle leaves behind.
//
// Dispatch form: computed goto (&&label, the classic token-threading
// idiom) through a token table generated from ECCM0_FOR_EACH_OP on
// GNU/Clang; a switch over the same bodies otherwise or when
// ECCM0_SWITCH_DISPATCH_ONLY is defined (CMake option
// ECCM0_SWITCH_DISPATCH — the CI portability leg). Both forms chain.
#include "armvm/dispatch.h"

#include <cstddef>
#include <stdexcept>
#include <string>

#include "armvm/superinst.h"

#if !defined(ECCM0_SWITCH_DISPATCH_ONLY) && \
    (defined(__GNUC__) || defined(__clang__))
#define ECCM0_USE_COMPUTED_GOTO 1
#else
#define ECCM0_USE_COMPUTED_GOTO 0
#endif

namespace eccm0::armvm {

Cpu::DecodeMode decode_mode_from_name(std::string_view name) {
  if (name == "perstep") return Cpu::DecodeMode::kPerStep;
  if (name == "predecode") return Cpu::DecodeMode::kPredecode;
  if (name == "threaded") return Cpu::DecodeMode::kThreaded;
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (expected " + kEngineFlagValues + ")");
}

const char* decode_mode_name(Cpu::DecodeMode mode) {
  switch (mode) {
    case Cpu::DecodeMode::kPerStep: return "perstep";
    case Cpu::DecodeMode::kPredecode: return "predecode";
    case Cpu::DecodeMode::kThreaded: return "threaded";
  }
  return "?";
}

bool threaded_dispatch_uses_computed_goto() {
  return ECCM0_USE_COMPUTED_GOTO != 0;
}

namespace {

[[noreturn]] void bad_fused_token() {
  throw std::logic_error("Cpu: BLX or BKPT inside a fused block");
}

}  // namespace

std::uint64_t Cpu::run_fused_chain(const SuperBlock& first,
                                   std::uint64_t budget) {
  const ThreadedImage& image = prog_->threaded();
  const std::int32_t* const block_at = image.block_at.data();
  const SuperBlock* const blocks = image.blocks.data();
  const std::size_t code_halfwords = code_size_;
  std::uint32_t* const r = r_;
  // The RAM view is hoisted into locals for the whole chain. Inside
  // Memory's own fast path every byte store forces the compiler to
  // reload the vector's data pointer and size (a std::uint8_t store may
  // legally alias anything, including the vector's bookkeeping); these
  // locals never have their address taken, so they stay in registers
  // across stores. Anything off the fast path — code/literal-pool
  // reads, out-of-range or misaligned accesses — falls back to the
  // canonical Cpu accessors, which raise the same typed Faults as the
  // per-step engine.
  std::uint8_t* const ram = ram_.bytes_.data();
  const std::size_t ram_size = ram_.bytes_.size();
  const auto mem_read = [&](std::uint32_t addr,
                            unsigned nbytes) -> std::uint32_t {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (nbytes == 1 || (addr & (nbytes - 1)) == 0) &&
        off + nbytes <= ram_size) [[likely]] {
      switch (nbytes) {
        case 1: return ram[off];
        case 2: return Memory::le16(ram + off);
        default: return Memory::le32(ram + off);
      }
    }
    return read_mem<false>(addr, nbytes);
  };
  const auto mem_write = [&](std::uint32_t addr, std::uint32_t v,
                             unsigned nbytes) {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (nbytes == 1 || (addr & (nbytes - 1)) == 0) &&
        off + nbytes <= ram_size) [[likely]] {
      switch (nbytes) {
        case 1: ram[off] = static_cast<std::uint8_t>(v); return;
        case 2: Memory::put_le16(ram + off, static_cast<std::uint16_t>(v));
                return;
        default: Memory::put_le32(ram + off, v); return;
      }
    }
    write_mem<false>(addr, v, nbytes);
  };
  // Flags live in locals for the whole chain; written back on every
  // exit path (handlers never touch n_/z_/c_/v_ directly).
  bool ln = n_, lz = z_, lc = c_, lv = v_;
  const auto set_nzl = [&](std::uint32_t v) {
    ln = (v >> 31) != 0;
    lz = v == 0;
  };
  const auto adcl = [&](std::uint32_t a, std::uint32_t b, bool cin) {
    return add_with_carry(a, b, cin, ln, lz, lc, lv);
  };
  // Only a block's last instruction branches (superinst.h): the branch
  // is recorded here and takes effect when the block completes.
  bool taken = false;
  std::uint32_t target = 0;
  const auto branch_to = [&](std::uint32_t t) {
    taken = true;
    target = t;
  };
  const SuperBlock* blk = &first;
  std::uint64_t retired = 0;  // instructions of the completed blocks
  std::uint64_t entered = 0;  // completed blocks
  // Account the block just completed, then pick the block to chain into
  // (nullptr: back to the run loop, with the PC written back).
  const auto next_block = [&]() -> const SuperBlock* {
    stats_.cycles += blk->cycles;
    for (const auto& [cls, cyc] : blk->hist) stats_.histogram.add(cls, cyc);
    const InstrCost exit = blk->exit_cost[taken];
    stats_.cycles += exit.cycles;
    stats_.histogram.add(exit.cls, exit.cycles);
    retired += blk->count;
    ++entered;
    std::uint32_t pc = blk->end_pc;
    if (taken) {
      taken = false;
      if (target == kReturnSentinel) halted_ = true;
      pc = target & ~1u;
    }
    const std::size_t idx = pc / 2;  // the return sentinel is past all code
    if (idx < code_halfwords) {
      const std::int32_t b = block_at[idx];
      if (b >= 0 && blocks[b].count <= budget - retired) return &blocks[b];
    }
    r_[kPC] = pc;
    return nullptr;
  };
#if ECCM0_USE_COMPUTED_GOTO
  // The block cursor is the dispatcher's only loop variable: each
  // handler bumps it and jumps through the token table, and the
  // terminator entry the builder appended (token kEndOfBlockToken)
  // jumps straight to the block-exit label, so there is no count
  // compare after every instruction. Declared outside the try so the
  // fault path can recover the retired-instruction index from it.
  const FusedInstr* fp = blk->code.data();
#else
  std::uint32_t j = 0;
#endif
  try {
#if ECCM0_USE_COMPUTED_GOTO
    // Token-threaded dispatch: the Op byte of the next fused
    // instruction indexes straight into the label table, so there is no
    // central dispatch branch for the host predictor to miss on. One
    // extra entry past the real Ops: the block terminator.
    static const void* const token_targets[] = {
#define ECCM0_TOKEN_ENTRY(name, mnemonic, cls, cycles) &&handler_##name,
        ECCM0_FOR_EACH_OP(ECCM0_TOKEN_ENTRY)
#undef ECCM0_TOKEN_ENTRY
        &&block_done,
    };
  enter_block:
    fp = blk->code.data();
    goto* token_targets[static_cast<std::size_t>(fp->ins.op)];

#define ECCM0_OP(name)                                 \
  handler_##name:                                      \
  if constexpr (never_fused(Op::k##name)) {            \
    bad_fused_token();                                 \
  } else {                                             \
    [[maybe_unused]] const Instr& I = fp->ins;         \
    [[maybe_unused]] const std::uint32_t pc4 = fp->pc4;
#define ECCM0_OP_END \
  }                  \
  ++fp;              \
  goto* token_targets[static_cast<std::size_t>(fp->ins.op)];
#include "armvm/semantics.inc"
#undef ECCM0_OP
#undef ECCM0_OP_END
  block_done:
    blk = next_block();
    if (blk != nullptr) goto enter_block;
#else
    while (blk != nullptr) {
      const FusedInstr* const code = blk->code.data();
      const std::uint32_t count = blk->count;
      for (j = 0; j < count; ++j) {
        const FusedInstr* const fp = code + j;
        switch (fp->ins.op) {
#define ECCM0_OP(name)                                 \
  case Op::k##name:                                    \
  if constexpr (never_fused(Op::k##name)) {            \
    bad_fused_token();                                 \
  } else {                                             \
    [[maybe_unused]] const Instr& I = fp->ins;         \
    [[maybe_unused]] const std::uint32_t pc4 = fp->pc4;
#define ECCM0_OP_END \
  }                  \
  break;
#include "armvm/semantics.inc"
#undef ECCM0_OP
#undef ECCM0_OP_END
        }
      }
      blk = next_block();
    }
#endif
  } catch (...) {
    // Fault at instruction j of the current block (never its
    // terminator, which cannot fault): replay the static costs of the
    // instructions that retired before it (the faulting one contributes
    // nothing — exec() accounts after its memory accesses), sync the
    // flags, and leave the PC at the faulting instruction's
    // fallthrough, exactly as the per-step loop does before exec().
    // The completed blocks of the chain are already accounted.
    const FusedInstr* const code = blk->code.data();
#if ECCM0_USE_COMPUTED_GOTO
    const auto j = static_cast<std::uint32_t>(fp - code);
#endif
    n_ = ln;
    z_ = lz;
    c_ = lc;
    v_ = lv;
    for (std::uint32_t k = 0; k < j; ++k) {
      for (unsigned c = 0; c < code[k].num_costs; ++c) {
        stats_.histogram.add(code[k].costs[c].cls, code[k].costs[c].cycles);
        stats_.cycles += code[k].costs[c].cycles;
      }
    }
    stats_.instructions += retired + j;
    fused_retired_ += retired + j;
    fused_blocks_entered_ += entered;
    r_[kPC] = code[j].pc4 - 2;
    throw;
  }
  n_ = ln;
  z_ = lz;
  c_ = lc;
  v_ = lv;
  fused_retired_ += retired;
  fused_blocks_entered_ += entered;
  return retired;
}

}  // namespace eccm0::armvm
