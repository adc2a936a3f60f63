#include "armvm/isa.h"

namespace eccm0::armvm {

const char* op_name(Op op) {
  static constexpr const char* kMnemonics[] = {
#define ECCM0_OP_MNEMONIC(name, mnemonic, cls, cycles) mnemonic,
      ECCM0_FOR_EACH_OP(ECCM0_OP_MNEMONIC)
#undef ECCM0_OP_MNEMONIC
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOps ? kMnemonics[i] : "?";
}

const char* cond_name(Cond c) {
  static const char* names[] = {"eq", "ne", "cs", "cc", "mi", "pl", "vs",
                                "vc", "hi", "ls", "ge", "lt", "gt", "le"};
  return names[static_cast<unsigned>(c)];
}

std::string reg_name(unsigned r) {
  if (r == kSP) return "sp";
  if (r == kLR) return "lr";
  if (r == kPC) return "pc";
  return "r" + std::to_string(r);
}

}  // namespace eccm0::armvm
