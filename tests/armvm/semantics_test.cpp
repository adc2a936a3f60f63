// Property-style differential tests of the interpreter's arithmetic and
// flag semantics: for randomly generated operand pairs, the VM's results
// and NZCV flags must match a host-side reference implementation of the
// ARMv6-M pseudocode.
//
// Every case runs on all three engines. Each body is wrapped in NOP
// padding so that, on the threaded engine, the instruction under test
// executes inside a fused superblock (kMinFuseLength is 3) rather than on
// the per-instruction fallback; the harness asserts that it did.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "common/rng.h"

namespace eccm0::armvm {
namespace {

struct Flags {
  bool n, z, c, v;
  friend bool operator==(const Flags&, const Flags&) = default;
};

struct RefResult {
  std::uint32_t value;
  Flags f;
};

RefResult ref_add_with_carry(std::uint32_t a, std::uint32_t b, bool cin) {
  const std::uint64_t wide = std::uint64_t{a} + b + (cin ? 1 : 0);
  const auto r = static_cast<std::uint32_t>(wide);
  Flags f{};
  f.n = (r >> 31) != 0;
  f.z = r == 0;
  f.c = (wide >> 32) != 0;
  f.v = (~(a ^ b) & (a ^ r) & 0x80000000u) != 0;
  return {r, f};
}

/// Result and carry-out of a register-amount shift (ARMv6-M Shift_C with
/// the amount taken from Rm[7:0]), computed in 64-bit arithmetic rather
/// than with the interpreter's case analysis.
struct ShiftRef {
  std::uint32_t value;
  bool carry;
};

ShiftRef ref_lsl(std::uint32_t v, unsigned amount, bool cin) {
  if (amount == 0) return {v, cin};
  const std::uint64_t wide = amount < 64 ? std::uint64_t{v} << amount : 0;
  return {static_cast<std::uint32_t>(wide), ((wide >> 32) & 1) != 0};
}

ShiftRef ref_lsr(std::uint32_t v, unsigned amount, bool cin) {
  if (amount == 0) return {v, cin};
  // v sits in the top half; the last bit shifted out lands in bit 31.
  const std::uint64_t ext = std::uint64_t{v} << 32;
  const std::uint64_t shifted = amount < 64 ? ext >> amount : 0;
  return {static_cast<std::uint32_t>(shifted >> 32),
          ((shifted >> 31) & 1) != 0};
}

ShiftRef ref_asr(std::uint32_t v, unsigned amount, bool cin) {
  if (amount == 0) return {v, cin};
  const std::int64_t ext =
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)) * (1LL << 32);
  const std::int64_t shifted = ext >> (amount < 64 ? amount : 63);
  const auto bits = static_cast<std::uint64_t>(shifted);
  return {static_cast<std::uint32_t>(bits >> 32), ((bits >> 31) & 1) != 0};
}

ShiftRef ref_ror(std::uint32_t v, unsigned amount, bool cin) {
  if (amount == 0) return {v, cin};
  const std::uint32_t res = std::rotr(v, static_cast<int>(amount % 32));
  return {res, (res >> 31) != 0};
}

Flags nz_of(std::uint32_t v, bool c, bool vflag) {
  return {(v >> 31) != 0, v == 0, c, vflag};
}

class Harness {
 public:
  /// `body` is padded with one NOP on each side so that even a single
  /// instruction forms a fusable run of three. Bodies containing control
  /// flow pass `expect_fused = false`.
  Harness(Cpu::DecodeMode mode, const std::string& body,
          bool expect_fused = true)
      : prog_(assemble("fn:\n    nop\n" + body + "    nop\n    bx lr\n")),
        mem_(1 << 12),
        cpu_(prog_, mem_, mode),
        expect_fused_(expect_fused) {}

  RefResult run(std::uint32_t r0, std::uint32_t r1, std::uint32_t r2 = 0,
                std::uint32_t r3 = 0) {
    cpu_.set_reg(0, r0);
    cpu_.set_reg(1, r1);
    cpu_.set_reg(2, r2);
    cpu_.set_reg(3, r3);
    (void)cpu_.call(prog_->entry("fn"), {});
    if (expect_fused_ && cpu_.decode_mode() == Cpu::DecodeMode::kThreaded) {
      EXPECT_GT(cpu_.fused_retired(), 0u) << "body never ran fused";
    }
    return {cpu_.reg(0),
            {cpu_.flag_n(), cpu_.flag_z(), cpu_.flag_c(), cpu_.flag_v()}};
  }

  Cpu& cpu() { return cpu_; }
  Memory& mem() { return mem_; }

 private:
  ProgramRef prog_;
  Memory mem_;
  Cpu cpu_;
  bool expect_fused_;
};

class Semantics : public ::testing::TestWithParam<Cpu::DecodeMode> {};

TEST_P(Semantics, AddsMatchesReference) {
  Harness h(GetParam(), "    adds r0, r0, r1\n");
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult want = ref_add_with_carry(a, b, false);
    const RefResult got = h.run(a, b);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.f, want.f) << a << "+" << b;
  }
}

TEST_P(Semantics, SubsMatchesReference) {
  Harness h(GetParam(), "    subs r0, r0, r1\n");
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult want = ref_add_with_carry(a, ~b, true);
    const RefResult got = h.run(a, b);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.f, want.f);
  }
}

TEST_P(Semantics, AdcsChainMatches64BitAddition) {
  // (r0:r1) treated as 64-bit halves added to themselves via adds/adcs.
  Harness lo_h(GetParam(), "    adds r0, r0, r0\n    adcs r1, r1\n");
  Harness hi_h(GetParam(),
               "    adds r0, r0, r0\n    adcs r1, r1\n    movs r0, r1\n");
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64();
    const auto lo = static_cast<std::uint32_t>(x);
    const auto hi = static_cast<std::uint32_t>(x >> 32);
    const auto hi_got = hi_h.run(lo, hi).value;
    const auto lo_got = lo_h.run(lo, hi).value;
    const std::uint64_t got = (std::uint64_t{hi_got} << 32) | lo_got;
    EXPECT_EQ(got, x + x);
  }
}

TEST_P(Semantics, ShiftImmediatesMatchReference) {
  Rng rng(4);
  for (unsigned sh : {1u, 7u, 16u, 31u}) {
    Harness lsl(GetParam(), "    lsls r0, r0, #" + std::to_string(sh) + "\n");
    Harness lsr(GetParam(), "    lsrs r0, r0, #" + std::to_string(sh) + "\n");
    Harness asr(GetParam(), "    asrs r0, r0, #" + std::to_string(sh) + "\n");
    for (int i = 0; i < 50; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_u64());
      auto got = lsl.run(v, 0);
      EXPECT_EQ(got.value, v << sh);
      EXPECT_EQ(got.f.c, ((v >> (32 - sh)) & 1) != 0);
      got = lsr.run(v, 0);
      EXPECT_EQ(got.value, v >> sh);
      EXPECT_EQ(got.f.c, ((v >> (sh - 1)) & 1) != 0);
      got = asr.run(v, 0);
      EXPECT_EQ(got.value, static_cast<std::uint32_t>(
                               static_cast<std::int32_t>(v) >> sh));
      EXPECT_EQ(got.f.c, ((v >> (sh - 1)) & 1) != 0);
    }
  }
}

TEST_P(Semantics, ShiftImmediateZeroMeans32ForRightShifts) {
  // An imm5 of 0 encodes LSRS/ASRS #32; LSLS #0 is MOVS (C preserved).
  Harness lsr(GetParam(), "    lsrs r0, r0, #0\n");
  Harness asr(GetParam(), "    asrs r0, r0, #0\n");
  Harness mov(GetParam(), "    cmp r2, r3\n    movs r0, r1\n");
  for (const std::uint32_t v : {0x80000001u, 0x7FFFFFFEu, 0u}) {
    auto got = lsr.run(v, 0);
    EXPECT_EQ(got.value, 0u);
    EXPECT_EQ(got.f.c, (v >> 31) != 0);
    EXPECT_TRUE(got.f.z);
    got = asr.run(v, 0);
    EXPECT_EQ(got.value, (v >> 31) ? ~0u : 0u);
    EXPECT_EQ(got.f.c, (v >> 31) != 0);
    for (const bool cin : {false, true}) {
      got = mov.run(0, v, 0, cin ? 0 : 1);
      EXPECT_EQ(got.value, v);
      EXPECT_EQ(got.f, nz_of(v, cin, false));
    }
  }
}

/// Register-amount shift `mnem` checked against `ref` over random values
/// and the boundary amounts 0, 31, 32, 33 and 255 (plus amounts whose
/// low byte is one of those, since only Rm[7:0] counts). The carry-in is
/// primed by "cmp r2, r3" (r2 = 0: C = 1 iff r3 = 0; V = 0 either way).
void check_register_shift(Cpu::DecodeMode mode, const std::string& mnem,
                          ShiftRef (*ref)(std::uint32_t, unsigned, bool),
                          std::uint64_t seed) {
  Harness h(mode, "    cmp r2, r3\n    " + mnem + " r0, r1\n");
  Rng rng(seed);
  std::vector<std::uint32_t> amounts = {0,  1,  31,  32,    33,    255,
                                        16, 63, 64, 0x100, 0x120, 0xFFFFFF20};
  for (int i = 0; i < 20; ++i) amounts.push_back(rng.next_below(256));
  for (const std::uint32_t amount : amounts) {
    for (int i = 0; i < 8; ++i) {
      const std::uint32_t v = i == 0   ? 0x80000001u
                              : i == 1 ? 0x7FFFFFFEu
                                       : static_cast<std::uint32_t>(
                                             rng.next_u64());
      for (const bool cin : {false, true}) {
        const ShiftRef want = ref(v, amount & 0xFF, cin);
        const RefResult got = h.run(v, amount, 0, cin ? 0 : 1);
        EXPECT_EQ(got.value, want.value)
            << mnem << " v=" << v << " amount=" << amount;
        EXPECT_EQ(got.f, nz_of(want.value, want.carry, false))
            << mnem << " v=" << v << " amount=" << amount << " cin=" << cin;
      }
    }
  }
}

TEST_P(Semantics, LslRegisterMatchesReference) {
  check_register_shift(GetParam(), "lsls", ref_lsl, 20);
}

TEST_P(Semantics, LsrRegisterMatchesReference) {
  check_register_shift(GetParam(), "lsrs", ref_lsr, 21);
}

TEST_P(Semantics, AsrRegisterMatchesReference) {
  check_register_shift(GetParam(), "asrs", ref_asr, 22);
}

TEST_P(Semantics, RorRegisterMatchesReference) {
  check_register_shift(GetParam(), "rors", ref_ror, 23);
}

TEST_P(Semantics, RegisterShiftBoundaryAmounts) {
  // Amounts 0, 31, 32, 33, 255 follow the ARMv6-M pseudocode.
  Harness lsl(GetParam(), "    lsls r0, r1\n");
  Harness lsr(GetParam(), "    lsrs r0, r1\n");
  const std::uint32_t v = 0x80000001u;
  EXPECT_EQ(lsl.run(v, 0).value, v);        // no shift, flags NZ only
  EXPECT_EQ(lsl.run(v, 31).value, 0x80000000u);
  auto got = lsl.run(v, 32);
  EXPECT_EQ(got.value, 0u);
  EXPECT_TRUE(got.f.c);  // last bit out = bit 0 = 1
  got = lsl.run(v, 33);
  EXPECT_EQ(got.value, 0u);
  EXPECT_FALSE(got.f.c);
  got = lsr.run(v, 32);
  EXPECT_EQ(got.value, 0u);
  EXPECT_TRUE(got.f.c);  // bit 31
  EXPECT_EQ(lsr.run(v, 255).value, 0u);
}

TEST_P(Semantics, MulsTruncatesTo32Bits) {
  Harness h(GetParam(), "    muls r0, r1\n");
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const auto got = h.run(a, b);
    EXPECT_EQ(got.value, a * b);
    EXPECT_EQ(got.f.n, (a * b) >> 31 != 0);
    EXPECT_EQ(got.f.z, a * b == 0);
  }
}

TEST_P(Semantics, LogicalOpsMatchReference) {
  Harness andh(GetParam(), "    ands r0, r1\n");
  Harness orrh(GetParam(), "    orrs r0, r1\n");
  Harness eorh(GetParam(), "    eors r0, r1\n");
  Harness bich(GetParam(), "    bics r0, r1\n");
  Harness mvnh(GetParam(), "    mvns r0, r1\n");
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(andh.run(a, b).value, a & b);
    EXPECT_EQ(orrh.run(a, b).value, a | b);
    EXPECT_EQ(eorh.run(a, b).value, a ^ b);
    const RefResult bic = bich.run(a, b);
    EXPECT_EQ(bic.value, a & ~b);
    EXPECT_EQ(bic.f.n, ((a & ~b) >> 31) != 0);
    EXPECT_EQ(bic.f.z, (a & ~b) == 0);
    EXPECT_EQ(mvnh.run(a, b).value, ~b);
  }
}

TEST_P(Semantics, TstAndCmnSetFlagsOnly) {
  // TST sets N/Z from r0 & r1 and keeps C/V from the priming compare;
  // CMN sets all four from r0 + r1. Neither writes a register.
  Harness tst(GetParam(), "    cmp r2, r3\n    tst r0, r1\n");
  Harness cmn(GetParam(), "    cmn r0, r1\n");
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = i % 4 == 0 ? ~a : static_cast<std::uint32_t>(rng.next_u64());
    const auto p = static_cast<std::uint32_t>(rng.next_u64());
    const auto q = static_cast<std::uint32_t>(rng.next_u64());
    const Flags primed = ref_add_with_carry(p, ~q, true).f;
    RefResult got = tst.run(a, b, p, q);
    EXPECT_EQ(got.value, a);
    EXPECT_EQ(tst.cpu().reg(1), b);
    EXPECT_EQ(got.f, nz_of(a & b, primed.c, primed.v));
    got = cmn.run(a, b);
    EXPECT_EQ(got.value, a);
    EXPECT_EQ(got.f, ref_add_with_carry(a, b, false).f);
  }
}

TEST_P(Semantics, CmpConditionMatrix) {
  // For random pairs, each condition code must agree with the host's
  // signed/unsigned comparisons.
  // MOVS/ADDS clobber the flags, so each predicate re-compares.
  const std::string body = R"(
    mov r3, r0
    movs r0, #0
    cmp r3, r1
    bls n1
    adds r0, #1
n1: cmp r3, r1
    bge n2
    adds r0, #2
n2: cmp r3, r1
    bne n3
    adds r0, #4
n3: cmp r3, r1
    blt n4
    adds r0, #8
n4: nop
)";
  Harness h(GetParam(), body, /*expect_fused=*/false);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b =
        rng.next_below(4) == 0 ? a : static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t mask = h.run(a, b).value;
    EXPECT_EQ((mask & 1) != 0, a > b) << "hi";                    // unsigned >
    EXPECT_EQ((mask & 2) != 0,
              static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b))
        << "lt";
    EXPECT_EQ((mask & 4) != 0, a == b) << "eq";
    EXPECT_EQ((mask & 8) != 0,
              static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b))
        << "ge";
  }
}

TEST_P(Semantics, ExtendAndReverseOps) {
  Harness sxtb(GetParam(), "    sxtb r0, r1\n");
  Harness sxth(GetParam(), "    sxth r0, r1\n");
  Harness uxtb(GetParam(), "    uxtb r0, r1\n");
  Harness uxth(GetParam(), "    uxth r0, r1\n");
  Harness rev(GetParam(), "    rev r0, r1\n");
  Harness rev16(GetParam(), "    rev16 r0, r1\n");
  Harness revsh(GetParam(), "    revsh r0, r1\n");
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(sxtb.run(0, v).value,
              static_cast<std::uint32_t>(
                  static_cast<std::int32_t>(static_cast<std::int8_t>(v))));
    EXPECT_EQ(sxth.run(0, v).value,
              static_cast<std::uint32_t>(
                  static_cast<std::int32_t>(static_cast<std::int16_t>(v))));
    EXPECT_EQ(uxtb.run(0, v).value, v & 0xFFu);
    EXPECT_EQ(uxth.run(0, v).value, v & 0xFFFFu);
    EXPECT_EQ(rev.run(0, v).value, ((v >> 24) & 0xFF) | ((v >> 8) & 0xFF00) |
                                       ((v << 8) & 0xFF0000) | (v << 24));
    EXPECT_EQ(rev16.run(0, v).value,
              ((v >> 8) & 0x00FF00FFu) | ((v << 8) & 0xFF00FF00u));
    const std::uint16_t swapped = static_cast<std::uint16_t>(
        ((v >> 8) & 0xFFu) | ((v & 0xFFu) << 8));
    EXPECT_EQ(revsh.run(0, v).value,
              static_cast<std::uint32_t>(static_cast<std::int32_t>(
                  static_cast<std::int16_t>(swapped))));
  }
}

TEST_P(Semantics, ByteAndHalfwordStoresAndLoads) {
  // r0 = buffer, r1 = value, r2/r3 = register offsets. Stores go through
  // every sub-word form; loads read them back zero- and sign-extended.
  Harness h(GetParam(), R"(
    strb r1, [r0, #1]
    strh r1, [r0, #2]
    strb r1, [r0, r2]
    strh r1, [r0, r3]
    ldrb r4, [r0, #1]
    ldrh r5, [r0, #2]
    ldrb r6, [r0, r2]
    ldrh r7, [r0, r3]
    mov r8, r6
    mov r9, r7
    ldrsb r6, [r0, r2]
    ldrsh r7, [r0, r3]
)");
  const std::uint32_t buf = kRamBase + 0x100;
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t v = i == 0   ? 0x00008080u
                            : i == 1 ? 0xFFFF7F7Fu
                                     : static_cast<std::uint32_t>(
                                           rng.next_u64());
    const auto pre = static_cast<std::uint32_t>(rng.next_u64());
    h.mem().write_words(buf, std::vector<std::uint32_t>{pre, pre, pre});
    h.run(buf, v, 5, 10);
    std::uint8_t want[12];
    for (int b = 0; b < 12; ++b) {
      want[b] = static_cast<std::uint8_t>(pre >> (8 * (b % 4)));
    }
    const auto b0 = static_cast<std::uint8_t>(v);
    const auto b1 = static_cast<std::uint8_t>(v >> 8);
    want[1] = b0;
    want[2] = b0;
    want[3] = b1;
    want[5] = b0;
    want[10] = b0;
    want[11] = b1;
    const auto words = h.mem().read_words(buf, 3);
    for (int b = 0; b < 12; ++b) {
      EXPECT_EQ(static_cast<std::uint8_t>(words[b / 4] >> (8 * (b % 4))),
                want[b])
          << "byte " << b;
    }
    const std::uint32_t half = v & 0xFFFFu;
    Cpu& c = h.cpu();
    EXPECT_EQ(c.reg(4), std::uint32_t{b0});
    EXPECT_EQ(c.reg(5), half);
    EXPECT_EQ(c.reg(8), std::uint32_t{b0});
    EXPECT_EQ(c.reg(9), half);
    EXPECT_EQ(c.reg(6), static_cast<std::uint32_t>(static_cast<std::int32_t>(
                            static_cast<std::int8_t>(b0))));
    EXPECT_EQ(c.reg(7), static_cast<std::uint32_t>(static_cast<std::int32_t>(
                            static_cast<std::int16_t>(half))));
  }
}

TEST_P(Semantics, LdmStmTransferAndWriteback) {
  // STMIA stores r1..r3 ascending and writes back the base; LDMIA with
  // the base outside the list writes back, and with the base inside the
  // list loads it instead (no writeback).
  Harness h(GetParam(), R"(
    mov r8, r0
    stmia r0!, {r1, r2, r3}
    mov r4, r8
    ldmia r4!, {r5, r6, r7}
    mov r9, r4
    mov r4, r8
    ldmia r4!, {r3, r4, r5}
)");
  const std::uint32_t buf = kRamBase + 0x200;
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const auto c = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult got = h.run(buf, a, b, c);
    EXPECT_EQ(got.value, buf + 12);  // STMIA writeback
    EXPECT_EQ(h.mem().read_words(buf, 3),
              (std::vector<std::uint32_t>{a, b, c}));
    Cpu& cpu = h.cpu();
    EXPECT_EQ(cpu.reg(9), buf + 12);  // LDMIA writeback (base not listed)
    EXPECT_EQ(cpu.reg(6), b);
    EXPECT_EQ(cpu.reg(7), c);
    // Second LDMIA: r3 = [buf], r4 (the base) = [buf+4], r5 = [buf+8].
    EXPECT_EQ(cpu.reg(3), a);
    EXPECT_EQ(cpu.reg(4), b);
    EXPECT_EQ(cpu.reg(5), c);
  }
}

TEST_P(Semantics, PcRelativeReadsUseAlignedPcPlus4) {
  // ADR and hi-register MOV/ADD with rm = pc read the instruction address
  // + 4 (word-aligned for ADR) — constants the fused engine precomputes
  // per slot. Layout (byte addresses): 0 nop, 2 adr, 4 mov, 6 add,
  // 8 adr, 10 nop, 12 bx lr, 14 nop (pad), 16 tgt.
  const ProgramRef prog = assemble(R"(
fn: nop
    adr r0, tgt
    mov r1, pc
    add r2, pc
    adr r3, tgt
    nop
    bx lr
    nop
tgt: .word 0x12345678
)");
  Memory mem(1 << 12);
  Cpu cpu(prog, mem, GetParam());
  ASSERT_EQ(prog->entry("tgt"), 16u);
  cpu.set_reg(2, 100);
  cpu.call(prog->entry("fn"), {});
  EXPECT_EQ(cpu.reg(0), 16u);
  EXPECT_EQ(cpu.reg(1), 4u + 4u);
  EXPECT_EQ(cpu.reg(2), 100u + 6u + 4u);
  EXPECT_EQ(cpu.reg(3), 16u);
  if (GetParam() == Cpu::DecodeMode::kThreaded) {
    // All seven instructions: `bx lr` closes the block and retires in it.
    EXPECT_EQ(cpu.fused_retired(), 7u);
  }
}

TEST_P(Semantics, NopChangesNothing) {
  Harness h(GetParam(), "    cmp r2, r3\n    nop\n    nop\n");
  Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const auto p = static_cast<std::uint32_t>(rng.next_u64());
    const auto q = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult got = h.run(a, b, p, q);
    EXPECT_EQ(got.value, a);
    EXPECT_EQ(h.cpu().reg(1), b);
    EXPECT_EQ(got.f, ref_add_with_carry(p, ~q, true).f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, Semantics,
    ::testing::Values(Cpu::DecodeMode::kPerStep, Cpu::DecodeMode::kPredecode,
                      Cpu::DecodeMode::kThreaded),
    [](const ::testing::TestParamInfo<Cpu::DecodeMode>& info) {
      return std::string(decode_mode_name(info.param));
    });

}  // namespace
}  // namespace eccm0::armvm
