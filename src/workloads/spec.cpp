#include "workloads/spec.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "asmkernels/gen.h"
#include "common/rng.h"
#include "ec/costing.h"
#include "ec/curve.h"
#include "ecp/costing.h"
#include "ecp/curve.h"
#include "workloads/registry.h"

namespace eccm0::workloads {

namespace {

const std::vector<CurveRef>& curve_table() {
  static const std::vector<CurveRef> kCurves = {
      {"sect233k1", true, 233, 8, ""},
      {"secp192r1", false, 192, 6, "p192"},
      {"secp224r1", false, 224, 7, "p224"},
      {"secp256r1", false, 256, 8, "p256"},
  };
  return kCurves;
}

/// Fixed-width little-endian words of a UInt (zero padded).
std::vector<std::uint32_t> to_words(const mpint::UInt& v, std::size_t n) {
  std::vector<std::uint32_t> w(n, 0);
  const auto limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size() && i < n; ++i) w[i] = limbs[i];
  return w;
}

/// Field-op mix of the `index`-th point multiplication of a transaction
/// on `curve` (index 0 is the shared kP mix seed 0x7AB1E4; higher
/// indices draw successive deterministic scalars).
ec::FieldOpCounts derive_mix(const CurveRef& curve, unsigned index) {
  if (curve.binary_field) {
    if (index == 0) return kp_mix_sect233k1();
    Rng rng(0x7AB1E4 + index);
    const auto& k233 = ec::BinaryCurve::sect233k1();
    const ec::AffinePoint g = ec::AffinePoint::make(k233.gx, k233.gy);
    const mpint::UInt k = mpint::UInt::random_below(rng, k233.order);
    const ec::CostedRun costed =
        ec::cost_point_mul(k233, g, k, 4, false, ec::FieldCostTable{});
    return costed.main_ops + costed.precomp_ops;
  }
  Rng rng(0x7AB1E4 + index);
  const ecp::PrimeCurve& pc = prime_curve(curve);
  const mpint::UInt k = mpint::UInt::random_below(rng, pc.order);
  const ecp::PrimeCostedRun costed = ecp::cost_point_mul_p(pc, k, 4);
  return {costed.ops.mul, costed.ops.sqr, costed.ops.inv, costed.ops.add};
}

const ec::FieldOpCounts& cached_mix(const CurveRef& curve, unsigned index) {
  static std::mutex mu;
  static std::map<std::string, ec::FieldOpCounts> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = curve.name + "#" + std::to_string(index);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, derive_mix(curve, index)).first;
  return it->second;
}

void mix64(std::uint64_t& h, std::uint32_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

}  // namespace

const ecp::PrimeCurve& prime_curve(const CurveRef& curve) {
  if (curve.name == "secp192r1") return ecp::PrimeCurve::secp192r1();
  if (curve.name == "secp224r1") return ecp::PrimeCurve::secp224r1();
  if (curve.name == "secp256r1") return ecp::PrimeCurve::secp256r1();
  throw std::invalid_argument("no prime curve for " + curve.name);
}

const CurveRef& curve_from_name(const std::string& name) {
  for (const CurveRef& c : curve_table()) {
    if (c.name == name) return c;
  }
  std::string known;
  for (const CurveRef& c : curve_table()) {
    if (!known.empty()) known += ", ";
    known += c.name;
  }
  throw std::invalid_argument("unknown curve '" + name + "' (known: " + known +
                              ")");
}

std::vector<std::string> workload_curve_names() {
  std::vector<std::string> out;
  for (const CurveRef& c : curve_table()) out.push_back(c.name);
  std::sort(out.begin(), out.end());
  return out;
}

const ec::FieldOpCounts& op_mix(const CurveRef& curve) {
  return cached_mix(curve, 0);
}

WorkloadSpec make_workload(const std::string& transaction,
                           const std::string& curve_name) {
  unsigned muls = 0;
  if (transaction == "kp") {
    muls = 1;
  } else if (transaction == "ecdh") {
    muls = 2;  // keygen kG + shared-secret kP (one party)
  } else if (transaction == "ecdsa") {
    muls = 3;  // sign nonce kG + verify u1*G, u2*Q
  } else {
    throw std::invalid_argument("unknown transaction '" + transaction +
                                "' (known: kp, ecdh, ecdsa)");
  }
  const CurveRef& curve = curve_from_name(curve_name);
  WorkloadSpec s;
  s.name = transaction + "-" + curve.name;
  s.curve = curve;
  s.transaction = transaction;
  s.point_muls = muls;
  if (curve.binary_field) {
    s.mul_kernel = "mul";
    s.sqr_kernel = "sqr";
    s.inv_kernel = "inv";
  } else {
    s.mul_kernel = curve.kernel_tag + "-mont";
    s.sqr_kernel = curve.kernel_tag + "-sqr";
    s.inv_kernel = curve.kernel_tag + "-inv";
  }
  for (unsigned i = 0; i < muls; ++i) {
    const ec::FieldOpCounts& m = cached_mix(curve, i);
    s.ops.mul += m.mul;
    s.ops.sqr += m.sqr;
    s.ops.inv += m.inv;
    s.ops.add += m.add;
  }
  return s;
}

WorkloadSpec kp_workload(const std::string& c) { return make_workload("kp", c); }
WorkloadSpec ecdh_workload(const std::string& c) {
  return make_workload("ecdh", c);
}
WorkloadSpec ecdsa_workload(const std::string& c) {
  return make_workload("ecdsa", c);
}

const PrimeOperands& PrimeOperands::standard(const CurveRef& curve) {
  static std::mutex mu;
  static std::map<std::string, PrimeOperands> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(curve.name);
  if (it == cache.end()) {
    const ecp::PrimeCurve& pc = prime_curve(curve);
    const std::size_t n = curve.limbs;
    Rng rng(0x7151CA7);
    PrimeOperands o;
    // Any residue < p is a valid Montgomery-domain element.
    o.x = to_words(mpint::UInt::random_below(rng, pc.p), n);
    o.y = to_words(mpint::UInt::random_below(rng, pc.p), n);
    mpint::UInt a = mpint::UInt::random_below(rng, pc.p);
    if (a.is_zero()) a = mpint::UInt(1);
    o.a = to_words(a, n);
    // REDC input must stay below m*R (any Montgomery intermediate does).
    const mpint::UInt bound = pc.p << (32 * n);
    o.wide = to_words(mpint::UInt::random_below(rng, bound), 2 * n);
    it = cache.emplace(curve.name, std::move(o)).first;
  }
  return it->second;
}

void load_prime_modulus(armvm::Memory& mem, const CurveRef& curve) {
  const ecp::PrimeCurve& pc = prime_curve(curve);
  const std::vector<std::uint32_t> m = to_words(pc.p, curve.limbs);
  for (std::size_t w = 0; w < m.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kPModOff + 4 * w, m[w]);
  }
  mem.poke32(armvm::kRamBase + asmkernels::kPM0Off, pc.mont->m0_inv());
}

void load_prime_mul_inputs(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& x,
                           const std::vector<std::uint32_t>& y) {
  for (std::size_t w = 0; w < x.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kXOff + 4 * w, x[w]);
  }
  for (std::size_t w = 0; w < y.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kYOff + 4 * w, y[w]);
  }
}

void load_prime_inv_input(armvm::Memory& mem,
                          const std::vector<std::uint32_t>& a) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kInOff + 4 * w, a[w]);
  }
}

void load_prime_wide_input(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& wide) {
  for (std::size_t w = 0; w < wide.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kWideOff + 4 * w, wide[w]);
  }
}

ReplayImages ReplayImages::resolve(const WorkloadSpec& spec) {
  return ReplayImages{kernel(spec.mul_kernel), kernel(spec.sqr_kernel),
                      kernel(spec.inv_kernel)};
}

ReplayResult replay(const WorkloadSpec& spec, armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model, unsigned reps) {
  return replay(spec, ReplayImages::resolve(spec), mode, mem_model, reps);
}

ReplayResult replay(const WorkloadSpec& spec, const ReplayImages& images,
                    armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model, unsigned reps) {
  KernelMachine mul(images.mul, mode, mem_model);
  KernelMachine sqr(images.sqr, mode, mem_model);
  KernelMachine inv(images.inv, mode, mem_model);

  unsigned out_words = 8;
  std::uint32_t mul_out_off = asmkernels::kVOff;
  if (spec.curve.binary_field) {
    const KernelOperands& od = KernelOperands::standard();
    load_mul_inputs(mul.mem(), od.x, od.y);
    load_sqr_table(sqr.mem());
    load_sqr_input(sqr.mem(), od.a);
  } else {
    const PrimeOperands& od = PrimeOperands::standard(spec.curve);
    load_prime_modulus(mul.mem(), spec.curve);
    load_prime_mul_inputs(mul.mem(), od.x, od.y);
    load_prime_modulus(sqr.mem(), spec.curve);
    load_prime_mul_inputs(sqr.mem(), od.x, od.y);
    load_prime_modulus(inv.mem(), spec.curve);
    load_prime_inv_input(inv.mem(), od.a);
    out_words = spec.curve.limbs;
    mul_out_off = asmkernels::kOutOff;  // Montgomery kernels reduce
  }

  ReplayResult r;
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < spec.ops.mul; ++i) mul.call();
    for (std::uint64_t i = 0; i < spec.ops.sqr; ++i) sqr.call();
    for (std::uint64_t i = 0; i < spec.ops.inv; ++i) {
      if (spec.curve.binary_field) {
        // The gf2 EEA kernel consumes its scratch state; re-seed so
        // every inversion runs the same trace.
        const KernelOperands& od = KernelOperands::standard();
        load_inv_input(inv.mem(), od.a);
      }
      inv.call();
    }
  }
  r.stats = mul.cpu().stats();
  r.stats.instructions +=
      sqr.cpu().stats().instructions + inv.cpu().stats().instructions;
  r.stats.cycles += sqr.cpu().stats().cycles + inv.cpu().stats().cycles;
  r.stats.histogram += sqr.cpu().stats().histogram;
  r.stats.histogram += inv.cpu().stats().histogram;
  r.fused_retired = mul.cpu().fused_retired() + sqr.cpu().fused_retired() +
                    inv.cpu().fused_retired();
  r.fused_blocks = mul.cpu().fused_blocks_entered() +
                   sqr.cpu().fused_blocks_entered() +
                   inv.cpu().fused_blocks_entered();
  for (unsigned w = 0; w < out_words; ++w) {
    mix64(r.output_digest,
          mul.mem().load32(armvm::kRamBase + mul_out_off + 4 * w));
    mix64(r.output_digest,
          sqr.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
    mix64(r.output_digest,
          inv.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
  }
  return r;
}

}  // namespace eccm0::workloads
