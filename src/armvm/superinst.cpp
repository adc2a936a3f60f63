#include "armvm/superinst.h"

namespace eccm0::armvm {

using costmodel::InstrClass;

bool fusable(const Instr& ins, unsigned halfwords) {
  if (halfwords != 1) return false;  // a BL pair only ever terminates
  switch (ins.op) {
    // Control flow: a terminator may only close a block (is_terminator),
    // and BLX / BKPT / BX PC never fuse.
    case Op::kB:
    case Op::kBCond:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlx:
    case Op::kBkpt:
      return false;
    // Hi-register forms may write PC (branch) or read the raw PC
    // register, which is stale inside a fused block. rm = PC reads the
    // architectural pc+4, which is a per-slot constant and fuses fine.
    case Op::kAddHi:
    case Op::kMovHi:
      return ins.rd != kPC;
    case Op::kCmpHi:
      return ins.rd != kPC && ins.rm != kPC;
    // POP {... pc} is a return.
    case Op::kPop:
      return (ins.reg_list & 0x100) == 0;
    default:
      return true;
  }
}

ThreadedImage build_threaded_image(
    const std::vector<PredecodedSlot>& cache,
    const std::map<std::string, std::uint32_t>& symbols) {
  const std::size_t n = cache.size();
  ThreadedImage img;
  img.block_at.assign(n, -1);

  // Split points: any halfword execution can branch to. Labels cover the
  // loop heads and call entries the assembler knows about; static branch
  // targets cover everything B/BCond/BL can reach. BX/BLX targets are
  // dynamic, but they can only land on a label or a computed address a
  // branch already points at in this ISA's assembled images — and an
  // interior entry is still correct, just unfused (block handlers only
  // fire at heads).
  std::vector<std::uint8_t> split(n, 0);
  for (const auto& [name, addr] : symbols) {
    const std::size_t idx = addr / 2;
    if (idx < n) split[idx] = 1;
  }
  for (std::size_t idx = 0; idx < n;) {
    const PredecodedSlot& s = cache[idx];
    if (!s.valid) {
      ++idx;
      continue;
    }
    ++img.valid_slots;
    if (s.ins.op == Op::kB || s.ins.op == Op::kBCond || s.ins.op == Op::kBl) {
      const std::int64_t target =
          static_cast<std::int64_t>(2 * idx) + 4 + s.ins.imm;
      if (target >= 0 && target % 2 == 0 &&
          static_cast<std::uint64_t>(target / 2) < n) {
        split[static_cast<std::size_t>(target / 2)] = 1;
      }
    }
    idx += s.halfwords;
  }

  std::size_t idx = 0;
  while (idx < n) {
    if (!cache[idx].valid) {
      ++idx;
      continue;
    }
    if (!fusable(cache[idx].ins, cache[idx].halfwords) &&
        !is_terminator(cache[idx].ins)) {
      idx += cache[idx].halfwords;
      continue;
    }
    // Maximal fusable run: extend while the next slot fuses and is not a
    // branch target / label (the run head itself may be one — that is
    // how a fused loop body gets re-entered every iteration), and close
    // it with a terminator that follows under the same rule.
    std::size_t j = idx;
    bool terminated = false;
    while (j < n && cache[j].valid && (j == idx || !split[j])) {
      if (is_terminator(cache[j].ins)) {
        j += cache[j].halfwords;
        terminated = true;
        break;
      }
      if (!fusable(cache[j].ins, cache[j].halfwords)) break;
      ++j;
    }
    std::vector<FusedInstr> code;
    for (std::size_t k = idx; k < j; k += cache[k].halfwords) {
      FusedInstr f;
      f.ins = cache[k].ins;
      f.pc4 = static_cast<std::uint32_t>(2 * k + 4);
      f.num_costs =
          static_cast<std::uint8_t>(static_costs(f.ins, false, f.costs));
      code.push_back(f);
    }
    const auto count = static_cast<std::uint32_t>(code.size());
    SuperBlock b;
    b.head_idx = static_cast<std::uint32_t>(idx);
    b.count = count;
    b.end_pc = static_cast<std::uint32_t>(2 * j);
    std::uint64_t by_class[static_cast<int>(InstrClass::kCount)] = {};
    const std::uint32_t body = terminated ? count - 1 : count;
    for (std::uint32_t k = 0; k < body; ++k) {
      for (unsigned c = 0; c < code[k].num_costs; ++c) {
        by_class[static_cast<int>(code[k].costs[c].cls)] +=
            code[k].costs[c].cycles;
        b.cycles += code[k].costs[c].cycles;
      }
    }
    if (terminated) {
      // Every terminator charges exactly one cost pair.
      for (const bool taken : {false, true}) {
        InstrCost c[2];
        static_costs(code.back().ins, taken, c);
        b.exit_cost[taken] = c[0];
      }
    }
    for (int c = 0; c < static_cast<int>(InstrClass::kCount); ++c) {
      if (by_class[c] != 0) {
        b.hist.emplace_back(static_cast<InstrClass>(c), by_class[c]);
      }
    }
    FusedInstr endf{};
    endf.ins.op = static_cast<Op>(kEndOfBlockToken);
    code.push_back(endf);
    b.code = std::move(code);
    img.block_at[idx] = static_cast<std::int32_t>(img.blocks.size());
    img.fused_slots += count;
    img.blocks.push_back(std::move(b));
    idx = j;
  }
  return img;
}

bool is_block_interior(const ThreadedImage& image, std::size_t idx) {
  for (const SuperBlock& b : image.blocks) {
    if (idx > b.head_idx && 2 * idx < b.end_pc) return true;
  }
  return false;
}

}  // namespace eccm0::armvm
