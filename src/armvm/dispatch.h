// Engine-selection helpers for the two execution engines (perstep, the
// oracle, and threaded, the default), shared by every harness that takes
// an `--engine=` flag, plus a build-configuration probe for the threaded
// dispatcher.
//
// The threaded engine's superblock dispatcher, Cpu::run_fused_chain,
// lives in dispatch.cpp: it runs the semantics.inc bodies between
// computed-goto labels on GNU/Clang and as a switch on everything else
// (or everywhere when the ECCM0_SWITCH_DISPATCH CMake option forces the
// portable form). Its chunk loop is Cpu::run_predecoded_impl in cpu.cpp.
#pragma once

#include <string_view>

#include "armvm/cpu.h"

namespace eccm0::armvm {

/// Engine spelling used by every `--engine=` flag.
inline constexpr const char* kEngineFlagValues = "perstep|threaded";

/// Map an `--engine=` value to a DecodeMode. Throws
/// std::invalid_argument on anything but perstep|threaded.
Cpu::DecodeMode decode_mode_from_name(std::string_view name);

/// Inverse of decode_mode_from_name (for reports and JSON rows).
const char* decode_mode_name(Cpu::DecodeMode mode);

/// True when this build dispatches fused blocks with computed goto;
/// false in the portable switch fallback (non-GNU compilers or
/// -DECCM0_SWITCH_DISPATCH=ON).
bool threaded_dispatch_uses_computed_goto();

}  // namespace eccm0::armvm
