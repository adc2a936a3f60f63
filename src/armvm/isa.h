// ARMv6-M Thumb-1 subset: decoded instruction representation.
//
// The VM models the Cortex-M0+ the paper measures: 16-bit Thumb
// instructions (plus the 32-bit BL pair), thirteen general registers with
// the lo (r0-r7) / hi (r8-r12) split that constrains how many field words
// an implementation can keep register-resident — the architectural fact
// the paper's "fixed registers" method is built around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "costmodel/energy.h"

namespace eccm0::armvm {

inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kSP = 13;
inline constexpr unsigned kLR = 14;
inline constexpr unsigned kPC = 15;

/// Every Op exactly once, in enum order, with its disassembly mnemonic
/// and its base cost: the cycle class and cycles one retirement charges
/// (per transferred word for LDM/STM/PUSH/POP). This one list generates
/// the Op enum, kNumOps, op_name(), the base-cost table of
/// static_costs() and the token table of the threaded dispatcher
/// (dispatch.cpp); the semantics of each Op live in semantics.inc.
/// Immediate and register forms of a shift share a mnemonic; the form is
/// implied by the operand kinds recorded in Instr.
#define ECCM0_FOR_EACH_OP(X)                                                 \
  /* Shifts (LSLS #0 is MOVS: static_costs() charges it as kMov) */          \
  X(LslImm, "lsls", kLsl, 1) X(LsrImm, "lsrs", kLsr, 1)                      \
  X(AsrImm, "asrs", kLsr, 1) X(LslReg, "lsls", kLsl, 1)                      \
  X(LsrReg, "lsrs", kLsr, 1) X(AsrReg, "asrs", kLsr, 1)                      \
  X(RorReg, "rors", kLsr, 1)                                                 \
  /* Add/sub three-operand */                                                \
  X(AddReg, "adds", kAdd, 1) X(SubReg, "subs", kAdd, 1)                      \
  X(AddImm3, "adds", kAdd, 1) X(SubImm3, "subs", kAdd, 1)                    \
  /* Immediate 8-bit forms */                                                \
  X(MovImm, "movs", kMov, 1) X(CmpImm, "cmp", kAdd, 1)                       \
  X(AddImm8, "adds", kAdd, 1) X(SubImm8, "subs", kAdd, 1)                    \
  /* Data processing (register); MULS is the single-cycle multiplier */      \
  X(And, "ands", kEor, 1) X(Eor, "eors", kEor, 1) X(Adc, "adcs", kAdd, 1)    \
  X(Sbc, "sbcs", kAdd, 1) X(Tst, "tst", kEor, 1) X(Rsb, "rsbs", kAdd, 1)     \
  X(CmpReg, "cmp", kAdd, 1) X(Cmn, "cmn", kAdd, 1) X(Orr, "orrs", kEor, 1)   \
  X(Mul, "muls", kMul, 1) X(Bic, "bics", kEor, 1) X(Mvn, "mvns", kEor, 1)    \
  /* Hi-register operations (no flags; writing PC is a 2-cycle branch) */    \
  X(AddHi, "add", kAdd, 1) X(CmpHi, "cmp", kAdd, 1)                          \
  X(MovHi, "mov", kMov, 1) X(Bx, "bx", kBranch, 2)                           \
  X(Blx, "blx", kBranch, 2)                                                  \
  /* Memory: LDR Rt, [PC, #imm]; word/byte/halfword with imm5 (scaled) */    \
  X(LdrLit, "ldr", kLdr, 2) X(LdrImm, "ldr", kLdr, 2)                        \
  X(StrImm, "str", kStr, 2) X(LdrbImm, "ldrb", kLdr, 2)                      \
  X(StrbImm, "strb", kStr, 2) X(LdrhImm, "ldrh", kLdr, 2)                    \
  X(StrhImm, "strh", kStr, 2) X(LdrReg, "ldr", kLdr, 2)                      \
  X(StrReg, "str", kStr, 2) X(LdrbReg, "ldrb", kLdr, 2)                      \
  X(StrbReg, "strb", kStr, 2) X(LdrhReg, "ldrh", kLdr, 2)                    \
  X(StrhReg, "strh", kStr, 2)                                                \
  /* Sign-extending loads (register offset only) */                          \
  X(LdrsbReg, "ldrsb", kLdr, 2) X(LdrshReg, "ldrsh", kLdr, 2)                \
  /* SP-relative word; adjust SP; Rd = SP + imm8*4 / aligned PC + imm8*4 */  \
  X(LdrSp, "ldr", kLdr, 2) X(StrSp, "str", kStr, 2)                          \
  X(AddSpImm7, "add", kAdd, 1) X(SubSpImm7, "sub", kAdd, 1)                  \
  X(AddRdSp, "add", kAdd, 1) X(Adr, "adr", kAdd, 1)                          \
  /* Multi-register transfers: per word, plus an overhead pair */            \
  X(Push, "push", kStr, 1) X(Pop, "pop", kLdr, 1)                            \
  X(Ldm, "ldmia", kLdr, 1) X(Stm, "stmia", kStr, 1)                          \
  /* Control flow (a taken conditional branch costs 2) */                    \
  X(BCond, "b<cond>", kBranch, 1) X(B, "b", kBranch, 2)                      \
  X(Bl, "bl", kBranch, 3)                                                    \
  /* Extend / byte-reverse (ARMv6-M data ops) */                             \
  X(Sxth, "sxth", kMov, 1) X(Sxtb, "sxtb", kMov, 1)                          \
  X(Uxth, "uxth", kMov, 1) X(Uxtb, "uxtb", kMov, 1)                          \
  X(Rev, "rev", kMov, 1) X(Rev16, "rev16", kMov, 1)                          \
  X(Revsh, "revsh", kMov, 1) X(Nop, "nop", kOther, 1)                        \
  X(Bkpt, "bkpt", kOther, 1)

/// Semantic operation of a decoded instruction.
enum class Op : std::uint8_t {
#define ECCM0_OP_ENUMERATOR(name, mnemonic, cls, cycles) k##name,
  ECCM0_FOR_EACH_OP(ECCM0_OP_ENUMERATOR)
#undef ECCM0_OP_ENUMERATOR
};

/// Number of distinct Op values. Sizes per-opcode tables such as the
/// decode-cache opcode-mix statistics in bench_vm_throughput.
#define ECCM0_OP_COUNT(name, mnemonic, cls, cycles) +1
inline constexpr std::size_t kNumOps = 0 ECCM0_FOR_EACH_OP(ECCM0_OP_COUNT);
#undef ECCM0_OP_COUNT

/// Condition codes for kBCond.
enum class Cond : std::uint8_t {
  kEq = 0, kNe, kCs, kCc, kMi, kPl, kVs, kVc, kHi, kLs, kGe, kLt, kGt, kLe,
};

/// A decoded instruction. Fields are used according to `op`:
///   rd/rn/rm — registers; imm — immediate (pre-scaled to bytes where the
///   encoding scales); reg_list — LDM/STM/PUSH/POP bitmask (bit 8 = LR for
///   PUSH, PC for POP); cond — condition for kBCond; imm is the *signed*
///   branch offset in bytes for branches (relative to the instruction
///   address + 4).
struct Instr {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rn = 0;
  std::uint8_t rm = 0;
  std::int32_t imm = 0;
  std::uint16_t reg_list = 0;
  Cond cond = Cond::kEq;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// One cost pair an instruction charges to the cycle histogram.
struct InstrCost {
  costmodel::InstrClass cls{};
  std::uint8_t cycles = 0;
};

/// Base cost of every Op, in enum order (see ECCM0_FOR_EACH_OP).
inline constexpr InstrCost kOpBaseCost[] = {
#define ECCM0_OP_BASE_COST(name, mnemonic, cls, cycles) \
  {costmodel::InstrClass::cls, cycles},
    ECCM0_FOR_EACH_OP(ECCM0_OP_BASE_COST)
#undef ECCM0_OP_BASE_COST
};

/// The M0+ cycle model, the one definition every engine accounts from:
/// the cost pairs one retirement of `ins` charges, in order. Writes one
/// pair (LDM/STM/PUSH/POP: two — transfer, then overhead) and returns the
/// count. `taken` matters only for a conditional branch. Small enough to
/// inline: Cpu::exec calls it in every Op's case with that Op known, and
/// it folds to the Op's constants there.
constexpr unsigned static_costs(const Instr& ins, bool taken,
                                InstrCost out[2]) {
  using costmodel::InstrClass;
  out[0] = kOpBaseCost[static_cast<std::size_t>(ins.op)];
  switch (ins.op) {
    case Op::kLslImm:  // LSLS #0 is MOVS
      if (ins.imm == 0) out[0].cls = InstrClass::kMov;
      return 1;
    case Op::kAddHi:
    case Op::kMovHi:
      if (ins.rd == kPC) out[0] = {InstrClass::kBranch, 2};
      return 1;
    case Op::kBCond:
      if (taken) out[0].cycles = 2;
      return 1;
    case Op::kPush:
    case Op::kPop:
    case Op::kLdm:
    case Op::kStm: {
      // 1 + N cycles: N transfer cycles (bit 8 is LR/PC for PUSH/POP),
      // then one overhead cycle — three when POP loads the PC.
      const unsigned bits =
          ins.op == Op::kPush || ins.op == Op::kPop ? 9 : 8;
      unsigned words = 0;
      for (unsigned b = 0; b < bits; ++b) words += (ins.reg_list >> b) & 1;
      out[0].cycles = static_cast<std::uint8_t>(out[0].cycles * words);
      out[1] = {InstrClass::kOther, 1};
      if (ins.op == Op::kPop && (ins.reg_list & 0x100)) out[1].cycles = 3;
      return 2;
    }
    default:
      return 1;
  }
}

const char* op_name(Op op);
const char* cond_name(Cond c);
/// "r0".."r12", "sp", "lr", "pc".
std::string reg_name(unsigned r);

}  // namespace eccm0::armvm
