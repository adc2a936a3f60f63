// Bernoulli bit-error injection over a Memory's physical storage.
//
// Models low-voltage SRAM retention failures: every *storage* bit — the
// 32 data bits of every word plus whatever check bits the attached
// memory model adds (33 for parity, 39 for SECDED) — flips
// independently with probability `ber`. Injection happens at load time,
// before the VM runs, so the per-step and threaded engines both
// execute against the same corrupted image and stay bit-identical.
//
// Determinism contract: the flip pattern is a pure function of the Rng
// stream handed in (campaigns pass an Rng::split per run), and the
// Bernoulli draw is an integer threshold compare on the top 53 bits of
// each SplitMix64 output — no libm, so committed campaign baselines are
// byte-identical across platforms.
#pragma once

#include <cstdint>

#include "armvm/cpu.h"
#include "common/rng.h"

namespace eccm0::faultsim {

struct BitErrorStats {
  std::uint64_t flipped_bits = 0;
  std::uint64_t words_touched = 0;  ///< words with at least one flip
  std::uint64_t storage_bits = 0;   ///< bits examined (words x bits/word)
};

/// Flip each storage bit of `mem` with probability `ber` (clamped to
/// [0, 1]; rates below 2^-53 never fire). Draws exactly
/// words x storage_bits_per_word() variates from `rng` regardless of
/// how many flips land, so consumers can rely on the stream position.
BitErrorStats inject_bit_errors(armvm::Memory& mem, double ber, Rng& rng);

}  // namespace eccm0::faultsim
