// ecctool — command-line frontend over the whole stack: key generation,
// compressed-point serialization, ECDSA signatures and ECDH agreement on
// sect233k1.
//
//   ecctool keygen  <seed>
//   ecctool sign    <priv-hex> <message...>
//   ecctool verify  <pub-hex> <r-hex> <s-hex> <message...>
//   ecctool ecdh    <priv-hex> <peer-pub-hex>
//   ecctool info [--curve=C]
//   ecctool kernels [--curve=C] [--json[=P]]
//   ecctool profile [kernel] [--curve=C] [--calls=N] [--threads=N]
//                   [--engine=E] [--mem=M] [--json[=P]]
//   ecctool campaign [--curve=C] [--runs=N] [--seed=S] [--threads=N]
//                    [--engine=E] [--json[=P]]
//   ecctool memfault [--curve=C] [--runs=N] [--ber=LIST] [--mem=M]
//                    [--scrub=N] [--seed=S] [--threads=N] [--engine=E]
//                    [--json[=P]]
//   ecctool sca [kernel] [--curve=C] [--iters=N] [--seed=S] [--threads=N]
//               [--engine=E] [--json[=P]]
//   ecctool stats <manifest.json> [--tracks]
//   ecctool serve [--port=P] [--listen-workers=N] [--queue-depth=N]
//                 [--no-coalesce] [--port-file=PATH] [--engine=E] [--mem=M]
//                 [--json[=P]]
//   ecctool client <op> --port=P [--curve=C] [--iters=N] [--params=JSON]
//                  [--raw=BODY]
//
// `serve` runs the async batch service (src/service, wire schema
// eccm0.req.v1 / eccm0.resp.v1 — DESIGN.md §14): kP / ECDH / ECDSA
// workload replays and campaign jobs over a bounded MPMC queue with
// request coalescing, until a `shutdown` request or SIGINT/SIGTERM. It
// runs on the threaded engine unless --engine says otherwise (the other
// subcommands default to predecode).
// `client` sends one request to a running serve and prints the response
// document (exit 0 on ok, 1 on a typed error); --raw sends arbitrary
// bytes as the frame body, for protocol testing.
//
// Every simulation subcommand accepts `--progress[=off|plain]` (live
// stderr progress from the campaign loops) and `--json[=PATH]`, which
// mirrors the run into the telemetry run-manifest envelope
// ("eccm0.run.v1": build info, run config, payload, metric snapshots —
// see src/telemetry/manifest.h). `stats` reads such a manifest back and
// pretty-prints it; with --tracks it additionally exports each metric
// histogram's bucket distribution as a Perfetto counter track
// (profile::counter_track_json) next to the manifest.
//
// `profile` runs a K-233 field kernel on the cycle-accurate armvm with
// the symbol-attributed profiler and RAM heatmap attached (one private
// sink pair per execution context, merged after the run), prints the
// per-function cycle/energy breakdown and the hottest RAM words, and
// writes ecctool_trace.json (Perfetto) + ecctool_flame.txt. Its --mem=M
// flag runs the kernel on a protected RAM model (raw|parity|secded) so
// the wait-state overhead shows up in the attribution.
// `campaign` runs the seeded kP fault-injection matrix; its tallies are
// bit-identical for any --threads value.
// `memfault` runs the SRAM bit-error campaign (faultsim/campaign.h):
// Bernoulli bit flips at each --ber=1e-5,1e-4,... rate against each
// memory model (--mem restricts to one; default sweeps all three), with
// SECDED scrubbing every --scrub=N accesses. Contradictory combinations
// (a scrub interval with a model that cannot repair) are rejected.
// `sca` runs both leakage detectors against one kernel: the
// constant-trace verifier (timing + address criteria, with the first
// divergence located by symbol) and the fixed-vs-random TVLA campaign
// on the power rig, then writes the per-cycle |t| trace to
// ecctool_ttrace.json for Perfetto. The multi-command flags share the
// bench::Args conventions (--threads=N, --seed=S, and
// --engine=perstep|predecode|threaded to pick the armvm execution
// engine; traced subcommands observe identical streams on every engine).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "common/rng.h"
#include "crypto/ecdsa.h"
#include "ec/codec.h"
#include "ecp/curve.h"
#include "faultsim/campaign.h"
#include "manifest.h"
#include "profile/heatmap.h"
#include "profile/profiler.h"
#include "profile/trace_export.h"
#include "report.h"
#include "sca/campaign.h"
#include "sca/ct_check.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/batch.h"
#include "telemetry/metrics.h"
#include "telemetry/progress.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;

namespace {

std::vector<std::uint8_t> hex_to_bytes(const std::string& h) {
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("bad hex digit");
  };
  if (h.size() % 2) throw std::invalid_argument("odd hex length");
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < h.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nib(h[i]) << 4 | nib(h[i + 1])));
  }
  return out;
}

std::string bytes_to_hex(std::span<const std::uint8_t> b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (auto x : b) {
    s += d[x >> 4];
    s += d[x & 0xF];
  }
  return s;
}

std::string join_args(int argc, char** argv, int from) {
  std::string m;
  for (int i = from; i < argc; ++i) {
    if (i > from) m += " ";
    m += argv[i];
  }
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: ecctool keygen <seed>\n"
               "       ecctool sign <priv-hex> <message...>\n"
               "       ecctool verify <pub-hex> <r-hex> <s-hex> <message...>\n"
               "       ecctool ecdh <priv-hex> <peer-pub-hex>\n"
               "       ecctool info [--curve=C]\n"
               "       ecctool kernels [--curve=C]\n"
               "       ecctool profile [kernel] [--curve=C] [--calls=N]"
               " [--threads=N] [--engine=E] [--mem=M]\n"
               "       ecctool campaign [--curve=C] [--runs=N] [--seed=S]"
               " [--threads=N] [--engine=E]\n"
               "       ecctool memfault [--curve=C] [--runs=N]"
               " [--ber=B1,B2,...] [--mem=M] [--scrub=N]\n"
               "                        [--seed=S] [--threads=N] [--engine=E]\n"
               "       ecctool sca [kernel] [--curve=C] [--iters=N] [--seed=S]"
               " [--threads=N] [--engine=E]\n"
               "       ecctool stats <manifest.json> [--tracks]\n"
               "       ecctool serve [--port=P] [--listen-workers=N]"
               " [--queue-depth=N] [--no-coalesce]\n"
               "                     [--port-file=PATH] [--engine=E] [--mem=M]"
               " [--json[=P]]\n"
               "       ecctool client <op> --port=P [--curve=C] [--iters=N]"
               " [--params=JSON] [--raw=BODY]\n"
               "  (E = perstep|predecode|threaded, M = raw|parity|secded,\n"
               "   C = sect233k1|secp192r1|secp224r1|secp256r1;\n"
               "   simulation subcommands also take --json[=PATH] for a run\n"
               "   manifest and --progress[=off|plain] for live progress)\n");
  return 2;
}

/// Validate `--curve=` the same way every bench main does: unknown names
/// list the known set on stderr and exit 2.
bool check_curve(const std::string& name) {
  try {
    (void)workloads::curve_from_name(name);
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

/// Default kernel for a curve: the field multiplication the campaigns
/// splice (gf2 "mul", or the curve's Montgomery multiplication).
std::string default_kernel(const std::string& curve_name) {
  const workloads::CurveRef& c = workloads::curve_from_name(curve_name);
  return c.binary_field ? "mul" : c.kernel_tag + "-mont";
}

/// `ecctool kernels [--curve=C]`: one row per registry entry — curve and
/// field tag, limb count, assembled image size, symbol count. --curve
/// restricts to one curve's kernels.
int run_kernels(int argc, char** argv) {
  bench::Args args;
  args.curve = "";  // default: list every curve
  if (!args.parse(argc - 2, argv + 2, "ecctool_kernels.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (!args.curve.empty() && !check_curve(args.curve)) return 2;

  auto& reg = workloads::KernelRegistry::instance();
  bench::Table t({"kernel", "curve", "field", "limbs", "code bytes",
                  "symbols"});
  bench::JsonWriter w;
  if (args.json) {
    bench::manifest_begin(w, "ecctool-kernels", &args);
    w.field("subcommand", "kernels");
    w.begin_array("kernels");
  }
  unsigned listed = 0;
  for (const std::string& name : reg.names()) {
    const workloads::KernelInfo info = reg.info(name);
    if (!args.curve.empty() && info.curve != args.curve) continue;
    const armvm::ProgramRef prog = reg.get(name);
    t.add_row({name, info.curve.empty() ? "-" : info.curve,
               info.binary_field ? "GF(2^m)" : "GF(p)",
               std::to_string(info.limbs), std::to_string(prog->code_bytes()),
               std::to_string(prog->symbols().size())});
    if (args.json) {
      w.begin_object();
      w.field("kernel", name);
      w.field("curve", info.curve);
      w.field("binary_field", info.binary_field);
      w.field("limbs", static_cast<std::uint64_t>(info.limbs));
      w.field("code_bytes", static_cast<std::uint64_t>(prog->code_bytes()));
      w.field("symbols", static_cast<std::uint64_t>(prog->symbols().size()));
      w.end_object();
    }
    ++listed;
  }
  t.print();
  const std::string scope =
      args.curve.empty() ? std::string() : " for " + args.curve;
  std::printf("\n%u kernel(s)%s\n", listed, scope.c_str());
  if (args.json) {
    w.end_array();
    w.field("count", static_cast<std::uint64_t>(listed));
    bench::manifest_end(w);
    if (w.write_file(args.json_path)) {
      std::printf("manifest written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

/// One worker's share of a threaded profile: a private execution
/// context over the shared registry image, with its own Profiler +
/// MemHeatmap fanned in through a TeeSink.
struct ProfilePart {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  double time_ms = 0.0;
  std::vector<profile::Profiler::FunctionStats> fns;
  std::vector<std::uint64_t> loads;
  std::vector<std::uint64_t> stores;
};

/// Seed every operand slot a kernel family reads, then re-seed the
/// consumable slots before each call so repeated calls replay one trace.
void load_profile_operands(const std::string& kernel, armvm::Memory& mem) {
  const workloads::KernelInfo info =
      workloads::KernelRegistry::instance().info(kernel);
  if (info.binary_field) {
    const workloads::KernelOperands& od = workloads::KernelOperands::standard();
    workloads::load_mul_inputs(mem, od.x, od.y);
    workloads::load_sqr_table(mem);
    workloads::load_inv_input(mem, od.a);  // also the sqr input slot
    return;
  }
  const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
  const workloads::PrimeOperands& od = workloads::PrimeOperands::standard(curve);
  workloads::load_prime_modulus(mem, curve);
  workloads::load_prime_mul_inputs(mem, od.x, od.y);
  workloads::load_prime_inv_input(mem, od.a);
  workloads::load_prime_wide_input(mem, od.wide);  // consumed by -redc
}

ProfilePart run_profile_part(const std::string& kernel, unsigned calls,
                             armvm::Cpu::DecodeMode engine,
                             const armvm::MemModelConfig& mem_model) {
  workloads::KernelMachine km(workloads::kernel(kernel), engine, mem_model);
  profile::Profiler prof(km.prog());
  profile::MemHeatmap heat(workloads::kKernelRamSize);
  armvm::TeeSink tee({&prof, &heat});
  km.cpu().set_trace_sink(&tee);

  for (unsigned c = 0; c < calls; ++c) {
    load_profile_operands(kernel, km.mem());
    km.call();
  }

  ProfilePart part;
  const armvm::RunStats s = km.cpu().stats();
  part.instructions = s.instructions;
  part.cycles = s.cycles;
  part.energy_uj = s.energy().energy_uj();
  part.time_ms = s.energy().time_ms();
  part.fns = prof.functions();
  part.loads.resize(heat.words());
  part.stores.resize(heat.words());
  for (std::size_t w = 0; w < heat.words(); ++w) {
    part.loads[w] = heat.loads_at(w);
    part.stores[w] = heat.stores_at(w);
  }
  return part;
}

int run_profile(int argc, char** argv) {
  std::uint64_t calls = 1;
  bench::Args args;
  args.add_u64("--calls", &calls);
  if (!args.parse(argc - 2, argv + 2, "ecctool_profile.json") ||
      args.positionals().size() > 1) {
    return usage();
  }
  if (calls == 0) calls = 1;
  if (!check_curve(args.curve)) return 2;
  const std::string kernel = args.positionals().empty()
                                 ? default_kernel(args.curve)
                                 : args.positionals()[0];
  const armvm::Cpu::DecodeMode engine =
      armvm::decode_mode_from_name(args.engine);
  const armvm::MemModelConfig mem_model =
      armvm::MemModelConfig::for_kind(armvm::mem_model_from_name(args.mem));
  const unsigned threads = args.threads;
  if (!workloads::KernelRegistry::instance().contains(kernel)) {
    return usage();
  }

  // Fan the calls across one context per task; each context has private
  // sinks, merged below, so the aggregate attribution is thread-count
  // independent.
  telemetry::MetricsRegistry metrics;
  sim::BatchExecutor pool(threads);
  pool.set_metrics(&metrics);
  const unsigned workers =
      static_cast<unsigned>(std::min<std::uint64_t>(
          threads == 0 ? calls : std::min<std::uint64_t>(threads, calls),
          calls));
  std::vector<unsigned> share(workers, calls / workers);
  for (unsigned w = 0; w < calls % workers; ++w) ++share[w];
  const std::vector<ProfilePart> parts =
      pool.map<ProfilePart>(workers, [&](std::size_t w) {
        return run_profile_part(kernel, share[w], engine, mem_model);
      });

  ProfilePart all;
  std::map<std::string, profile::Profiler::FunctionStats> merged;
  for (const ProfilePart& p : parts) {
    all.instructions += p.instructions;
    all.cycles += p.cycles;
    all.energy_uj += p.energy_uj;
    all.time_ms += p.time_ms;
    if (all.loads.size() < p.loads.size()) {
      all.loads.resize(p.loads.size());
      all.stores.resize(p.stores.size());
    }
    for (std::size_t w = 0; w < p.loads.size(); ++w) {
      all.loads[w] += p.loads[w];
      all.stores[w] += p.stores[w];
    }
    for (const auto& f : p.fns) {
      auto& m = merged[f.name];
      m.name = f.name;
      m.addr = f.addr;
      m.calls += f.calls;
      m.instructions += f.instructions;
      m.self_cycles += f.self_cycles;
      m.inclusive_cycles += f.inclusive_cycles;
      m.self_hist += f.self_hist;
      m.inclusive_hist += f.inclusive_hist;
    }
  }

  std::printf("kernel %s: %llu call(s), %u context(s), %llu instructions, "
              "%llu cycles, %.3f uJ, %.3f ms @48 MHz\n\n",
              kernel.c_str(), static_cast<unsigned long long>(calls), workers,
              static_cast<unsigned long long>(all.instructions),
              static_cast<unsigned long long>(all.cycles), all.energy_uj,
              all.time_ms);
  std::printf("%-10s %8s %10s %12s %12s %10s\n", "function", "calls",
              "instrs", "self cyc", "incl cyc", "self pJ");
  std::vector<profile::Profiler::FunctionStats> fns;
  for (auto& [name, f] : merged) fns.push_back(f);
  std::sort(fns.begin(), fns.end(), [](const auto& a, const auto& b) {
    return a.self_cycles > b.self_cycles;
  });
  for (const auto& f : fns) {
    std::printf("%-10s %8llu %10llu %12llu %12llu %10.0f\n", f.name.c_str(),
                static_cast<unsigned long long>(f.calls),
                static_cast<unsigned long long>(f.instructions),
                static_cast<unsigned long long>(f.self_cycles),
                static_cast<unsigned long long>(f.inclusive_cycles),
                f.self_energy_pj());
  }
  std::printf("\nhottest RAM words (loads+stores):\n");
  std::vector<std::pair<std::size_t, std::uint64_t>> hot;
  for (std::size_t w = 0; w < all.loads.size(); ++w) {
    if (all.loads[w] + all.stores[w]) {
      hot.emplace_back(w, all.loads[w] + all.stores[w]);
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (hot.size() > 8) hot.resize(8);
  for (const auto& [word, traffic] : hot) {
    std::printf("  +0x%03zx: %llu\n", word * 4,
                static_cast<unsigned long long>(traffic));
  }

  // The timeline export needs one coherent span stream; rerun one
  // context's worth when the run was fanned out.
  workloads::KernelMachine km(workloads::kernel(kernel), engine, mem_model);
  profile::Profiler prof(km.prog());
  km.cpu().set_trace_sink(&prof);
  load_profile_operands(kernel, km.mem());
  km.call();
  const profile::NamedProfile tracks[] = {{kernel, &prof}};
  if (profile::write_text_file("ecctool_trace.json",
                               profile::chrome_trace_json(tracks)) &&
      profile::write_text_file("ecctool_flame.txt",
                               profile::collapsed_stack_text(tracks))) {
    std::printf("\nwrote ecctool_trace.json (Perfetto) and "
                "ecctool_flame.txt (flamegraph.pl)\n");
  }

  if (args.json) {
    bench::JsonWriter w;
    bench::manifest_begin(w, "ecctool-profile", &args);
    w.field("subcommand", "profile");
    w.field("kernel", kernel);
    w.field("calls", calls);
    w.field("contexts", static_cast<std::uint64_t>(workers));
    w.field("instructions", all.instructions);
    w.field("cycles", all.cycles);
    w.field("energy_uj", all.energy_uj);
    w.begin_array("functions");
    for (const auto& f : fns) {
      w.begin_object();
      w.field("name", f.name);
      w.field("calls", f.calls);
      w.field("instructions", f.instructions);
      w.field("self_cycles", f.self_cycles);
      w.field("inclusive_cycles", f.inclusive_cycles);
      w.end_object();
    }
    w.end_array();
    bench::manifest_end(w, &metrics);
    if (w.write_file(args.json_path)) {
      std::printf("manifest written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

int run_campaign(int argc, char** argv) {
  faultsim::CampaignConfig cfg;
  cfg.runs_per_model = 200;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.add_u64("--runs", &cfg.runs_per_model);
  if (!args.parse(argc - 2, argv + 2, "ecctool_campaign.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (cfg.runs_per_model == 0) cfg.runs_per_model = 1;
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.engine = armvm::decode_mode_from_name(args.engine);
  if (!check_curve(args.curve)) return 2;
  cfg.curve = args.curve;
  telemetry::MetricsRegistry metrics;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "campaign",
      cfg.runs_per_model * faultsim::kNumFaultModels);
  cfg.metrics = &metrics;
  cfg.progress = &progress;
  std::printf("kP fault campaign on %s: seed 0x%llx, %llu runs/model, "
              "%u thread(s)\n\n",
              cfg.curve.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.runs_per_model),
              cfg.threads);
  const faultsim::CampaignResult res = faultsim::run_kp_campaign(cfg);
  const auto& profiles = faultsim::protection_profiles();
  std::printf("silent-corruption rate (%% of runs), fault model x "
              "protection profile:\n");
  std::printf("%-18s", "model");
  for (const auto& p : profiles) std::printf(" %16s", p.name);
  std::printf("\n");
  for (const auto& m : res.models) {
    std::printf("%-18s", faultsim::fault_model_name(m.model));
    for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
      std::printf(" %15.1f%%", 100.0 * m.per_profile[p].silent_rate());
    }
    std::printf("\n");
  }
  std::printf("\nclean-run cost of each profile (proposed-asm prices):\n");
  for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
    std::printf("  %-16s %10llu cycles  %8.2f uJ\n", profiles[p].name,
                static_cast<unsigned long long>(res.costs[p].cycles),
                res.costs[p].energy_uj);
  }

  if (args.json) {
    bench::JsonWriter w;
    bench::manifest_begin(w, "ecctool-campaign", &args);
    w.field("subcommand", "campaign");
    w.field("curve", cfg.curve);
    w.field("runs_per_model", cfg.runs_per_model);
    w.begin_array("models");
    for (const auto& m : res.models) {
      w.begin_object();
      w.field("model", faultsim::fault_model_name(m.model));
      w.field("runs", m.runs);
      w.field("injected", m.injected);
      w.begin_array("profiles");
      for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
        const auto& o = m.per_profile[p];
        w.begin_object();
        w.field("profile", profiles[p].name);
        w.field("silent", o.silent);
        w.field("detected", o.detected);
        w.field("silent_rate", o.silent_rate());
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    bench::manifest_end(w, &metrics);
    if (w.write_file(args.json_path)) {
      std::printf("\nmanifest written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

int run_memfault(int argc, char** argv) {
  // Sentinel for "--scrub was not passed": the flag only overwrites it
  // when present, which is how the contradiction check below can tell
  // an explicit interval apart from the default.
  constexpr std::uint64_t kScrubUnset = ~std::uint64_t{0};
  faultsim::MemCampaignConfig cfg;
  cfg.runs_per_cell = 60;
  std::uint64_t scrub = kScrubUnset;
  std::string ber_list;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.mem = "";  // default: sweep all three models
  args.add_u64("--runs", &cfg.runs_per_cell);
  args.add_u64("--scrub", &scrub);
  args.add_str("--ber", &ber_list);
  if (!args.parse(argc - 2, argv + 2, "BENCH_memfault.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (cfg.runs_per_cell == 0) cfg.runs_per_cell = 1;
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.engine = armvm::decode_mode_from_name(args.engine);
  if (!check_curve(args.curve)) return 2;
  cfg.curve = args.curve;
  if (!args.mem.empty()) {
    cfg.models = {armvm::mem_model_from_name(args.mem)};
  }
  // Scrubbing repairs words, and only SECDED can repair — an explicit
  // interval combined with a model selection that excludes SECDED is a
  // contradiction, not a sweep.
  const bool has_secded =
      std::find(cfg.models.begin(), cfg.models.end(),
                armvm::MemModelKind::kSecded) != cfg.models.end();
  if (scrub != kScrubUnset && scrub != 0 && !has_secded) {
    std::fprintf(stderr,
                 "error: --scrub=%llu requires the secded model (scrubbing "
                 "repairs words; --mem=%s cannot repair)\n",
                 static_cast<unsigned long long>(scrub), args.mem.c_str());
    return 2;
  }
  cfg.scrub_interval = scrub == kScrubUnset ? 1024 : scrub;
  telemetry::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  if (!ber_list.empty()) {
    cfg.bers.clear();
    const char* s = ber_list.c_str();
    while (*s != '\0') {
      char* end = nullptr;
      const double b = std::strtod(s, &end);
      if (end == s || b <= 0.0 || b > 1.0) {
        std::fprintf(stderr,
                     "error: --ber expects a comma-separated list of rates "
                     "in (0, 1], got '%s'\n",
                     ber_list.c_str());
        return 2;
      }
      cfg.bers.push_back(b);
      s = *end == ',' ? end + 1 : end;
      if (end == s && *end != '\0') {
        std::fprintf(stderr, "error: bad --ber list '%s'\n", ber_list.c_str());
        return 2;
      }
    }
  }

  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "memfault",
      cfg.runs_per_cell * cfg.bers.size() * cfg.models.size());
  cfg.progress = &progress;

  std::printf("SRAM bit-error campaign on %s: seed 0x%llx, %llu runs/cell, "
              "%u thread(s), scrub %llu\n\n",
              cfg.curve.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.runs_per_cell), cfg.threads,
              static_cast<unsigned long long>(cfg.scrub_interval));
  const faultsim::MemCampaignResult res = faultsim::run_mem_campaign(cfg);
  const auto& profiles = faultsim::protection_profiles();

  auto fmt_ber = [](double b) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", b);
    return std::string(buf);
  };
  for (unsigned p : {0u, faultsim::kNumProfiles - 1}) {
    std::printf("silent corruption, software profile '%s':\n",
                profiles[p].name);
    std::printf("%-8s", "model");
    for (double b : cfg.bers) std::printf(" %10s", fmt_ber(b).c_str());
    std::printf("\n");
    for (const auto& rep : res.models) {
      std::printf("%-8s", armvm::mem_model_name(rep.config.kind));
      for (const auto& cell : rep.cells) {
        std::printf(" %9.1f%%", 100.0 * cell.per_profile[p].silent_rate());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  std::printf("hardware outcome counts (summed over the BER sweep):\n");
  for (const auto& rep : res.models) {
    std::uint64_t detected = 0, hw_fix = 0, scrub_fix = 0;
    for (const auto& cell : rep.cells) {
      detected += cell.per_profile[0].detected;
      hw_fix += cell.hw_corrections;
      scrub_fix += cell.scrub_corrections;
    }
    std::printf("  %-8s %6llu detected  %6llu load-time fixes  "
                "%6llu scrub fixes\n",
                armvm::mem_model_name(rep.config.kind),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(hw_fix),
                static_cast<unsigned long long>(scrub_fix));
  }

  std::printf("\nclean-run codeword overhead (one VM mul kernel call):\n");
  const std::uint64_t base_cycles = res.models.front().clean_cycles;
  for (const auto& rep : res.models) {
    std::printf("  %-8s %2u wait-state(s)  %8llu cycles (%+.2f%%)  %8.0f pJ\n",
                armvm::mem_model_name(rep.config.kind), rep.config.wait_states,
                static_cast<unsigned long long>(rep.clean_cycles),
                100.0 * (static_cast<double>(rep.clean_cycles) /
                             static_cast<double>(base_cycles) -
                         1.0),
                rep.clean_energy_pj);
  }

  if (!args.json_path.empty()) {
    bench::JsonWriter w;
    bench::manifest_begin(w, "ecctool-memfault", &args);
    w.field("bench", "memfault");
    w.field("curve", cfg.curve);
    w.field("seed", cfg.seed);
    w.field("runs_per_cell", cfg.runs_per_cell);
    w.begin_array("models");
    for (const auto& rep : res.models) {
      w.begin_object();
      w.field("model", armvm::mem_model_name(rep.config.kind));
      w.field("clean_cycles", rep.clean_cycles);
      w.begin_array("cells");
      for (const auto& cell : rep.cells) {
        w.begin_object();
        w.field("ber", cell.ber);
        w.field("silent_unprotected", cell.per_profile[0].silent);
        w.field("silent_protected",
                cell.per_profile[faultsim::kNumProfiles - 1].silent);
        w.field("detected", cell.per_profile[0].detected);
        w.field("hw_corrections", cell.hw_corrections);
        w.field("scrub_corrections", cell.scrub_corrections);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    bench::manifest_end(w, &metrics);
    if (w.write_file(args.json_path)) {
      std::printf("\nJSON written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

int run_sca(int argc, char** argv) {
  bench::Args args;
  args.seed = 0x5CA;
  args.iters = 40;  // TVLA traces per class
  if (!args.parse(argc - 2, argv + 2, "ecctool_sca.json") ||
      args.positionals().size() > 1) {
    return usage();
  }
  if (!check_curve(args.curve)) return 2;
  const std::string kernel = args.positionals().empty()
                                 ? default_kernel(args.curve)
                                 : args.positionals()[0];
  if (!workloads::KernelRegistry::instance().contains(kernel)) {
    return usage();
  }

  const armvm::Cpu::DecodeMode engine =
      armvm::decode_mode_from_name(args.engine);
  telemetry::MetricsRegistry metrics;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "tvla traces",
      2 * args.iters);
  sca::CtConfig ct_cfg;
  ct_cfg.kernel = kernel;
  ct_cfg.seed = args.seed;
  ct_cfg.engine = engine;
  ct_cfg.metrics = &metrics;
  const sca::CtReport ct = sca::check_kernel_constant_trace(ct_cfg);
  std::printf("constant-trace (%u random draws):\n", ct.runs);
  std::printf("  timing    (pc/class/cycles): %s\n",
              ct.constant ? "CONSTANT" : "VARIABLE");
  std::printf("  addresses (+ memory stream): %s\n",
              ct.constant_addresses ? "CONSTANT" : "VARIABLE");
  if (ct.min_cycles == ct.max_cycles) {
    std::printf("  %llu instructions, %llu cycles, digest %016llx\n",
                static_cast<unsigned long long>(ct.trace_len),
                static_cast<unsigned long long>(ct.ref_cycles),
                static_cast<unsigned long long>(ct.digest));
  } else {
    std::printf("  cycles vary %llu..%llu\n",
                static_cast<unsigned long long>(ct.min_cycles),
                static_cast<unsigned long long>(ct.max_cycles));
  }
  if (ct.first.diverged) {
    std::printf("  first divergence: #%llu at %s (%s)\n",
                static_cast<unsigned long long>(ct.first.index),
                ct.first.symbol_a.c_str(), ct.first.reason.c_str());
  }

  sca::TvlaCampaignConfig tv_cfg;
  tv_cfg.kernel = kernel;
  tv_cfg.traces_per_class = static_cast<unsigned>(args.iters);
  tv_cfg.seed = args.seed;
  tv_cfg.threads = args.threads;
  tv_cfg.engine = engine;
  tv_cfg.metrics = &metrics;
  tv_cfg.progress = &progress;
  const sca::TvlaCampaignResult res = sca::run_tvla_campaign(tv_cfg);
  const sca::TvlaSummary& s = res.summary;
  std::printf("\nTVLA fixed-vs-random (%llu traces, |t| > %.1f):\n",
              static_cast<unsigned long long>(res.traces), s.threshold);
  std::printf("  max|t| %.2f at cycle %zu over %zu cycles\n", s.max_abs_t,
              s.max_cycle, s.compared_cycles);
  std::printf("  %zu raw excursion(s), %zu confirmed by the duplicated "
              "test, length leak: %s\n",
              s.cycles_over_raw, s.cycles_over, s.length_leak ? "yes" : "no");
  std::printf("  verdict: %s   (t-digest %016llx)\n",
              s.leaky ? "LEAKY" : "CLEAN",
              static_cast<unsigned long long>(res.t_digest));

  if (profile::write_text_file(
          "ecctool_ttrace.json",
          profile::counter_track_json("tvla |t| " + kernel, res.t_trace))) {
    std::printf("\nwrote ecctool_ttrace.json (Perfetto counter track)\n");
  }

  if (args.json) {
    bench::JsonWriter w;
    bench::manifest_begin(w, "ecctool-sca", &args);
    w.field("subcommand", "sca");
    w.field("kernel", kernel);
    w.begin_object("constant_trace");
    w.field("timing_constant", ct.constant);
    w.field("addr_constant", ct.constant_addresses);
    w.field("instructions", ct.trace_len);
    w.field("min_cycles", ct.min_cycles);
    w.field("max_cycles", ct.max_cycles);
    w.end_object();
    w.begin_object("tvla");
    w.field("traces", res.traces);
    w.field("compared_cycles", static_cast<std::uint64_t>(s.compared_cycles));
    w.field("max_abs_t", s.max_abs_t);
    w.field("cycles_over", static_cast<std::uint64_t>(s.cycles_over));
    w.field("length_leak", s.length_leak);
    w.field("leaky", s.leaky);
    w.end_object();
    bench::manifest_end(w, &metrics);
    if (w.write_file(args.json_path)) {
      std::printf("manifest written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

/// `ecctool stats <manifest.json> [--tracks]`: pretty-print a saved run
/// manifest — build/run config, counters, gauges, histogram quantiles —
/// and with --tracks export every histogram's bucket distribution as a
/// Perfetto counter track (one file per histogram, sample i = count in
/// the i-th occupied bucket).
int run_stats(int argc, char** argv) {
  bool tracks = false;
  bench::Args args;
  args.add_flag("--tracks", &tracks);
  if (!args.parse(argc - 2, argv + 2, "") ||
      args.positionals().size() != 1) {
    return usage();
  }
  const std::string& path = args.positionals()[0];
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const telemetry::Json doc = telemetry::Json::parse(text);
  if (!telemetry::is_manifest(doc)) {
    std::fprintf(stderr,
                 "error: %s is not an %s run manifest (regenerate it with "
                 "--json on a current build)\n",
                 path.c_str(), telemetry::kManifestSchema);
    return 1;
  }

  std::printf("tool    : %s\n", doc.get("tool")->as_string().c_str());
  const telemetry::Json* build = doc.get("build");
  for (const auto& [key, v] : build->members()) {
    std::printf("%-8s: %s\n", key.c_str(),
                v.kind() == telemetry::Json::Kind::kString
                    ? v.as_string().c_str()
                    : v.token().c_str());
  }
  const telemetry::Json* run = doc.get("run");
  if (run->size() != 0) {
    std::printf("run     :");
    for (const auto& [key, v] : run->members()) {
      std::printf(" %s=%s", key.c_str(),
                  v.kind() == telemetry::Json::Kind::kString
                      ? v.as_string().c_str()
                      : v.token().c_str());
    }
    std::printf("\n");
  }

  const telemetry::Json* metrics = doc.get("metrics");
  const telemetry::Json* counters = metrics->get("counters");
  if (counters != nullptr && counters->size() != 0) {
    std::printf("\ncounters:\n");
    for (const auto& [name, v] : counters->members()) {
      std::printf("  %-44s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
    }
  }
  const telemetry::Json* gauges = metrics->get("gauges");
  if (gauges != nullptr && gauges->size() != 0) {
    std::printf("\ngauges:\n");
    for (const auto& [name, v] : gauges->members()) {
      std::printf("  %-44s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
    }
  }
  const telemetry::Json* hists = metrics->get("histograms");
  if (hists != nullptr && hists->size() != 0) {
    std::printf("\nhistograms:\n");
    for (const auto& [name, h] : hists->members()) {
      auto u64 = [&h](const char* key) {
        const telemetry::Json* v = h.get(key);
        return v == nullptr ? std::uint64_t{0} : v->as_u64();
      };
      const telemetry::Json* unit = h.get("unit");
      std::printf("  %-44s n=%llu min=%llu p50=%llu p90=%llu p99=%llu "
                  "max=%llu %s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(u64("count")),
                  static_cast<unsigned long long>(u64("min")),
                  static_cast<unsigned long long>(u64("p50")),
                  static_cast<unsigned long long>(u64("p90")),
                  static_cast<unsigned long long>(u64("p99")),
                  static_cast<unsigned long long>(u64("max")),
                  unit == nullptr ? "" : unit->as_string().c_str());
      if (!tracks) continue;
      const telemetry::Json* buckets = h.get("buckets");
      if (buckets == nullptr || buckets->size() == 0) continue;
      std::vector<double> counts;
      for (const telemetry::Json& pair : buckets->items()) {
        counts.push_back(pair.items()[1].as_f64());
      }
      std::string fname = "ecctool_stats_" + name + ".json";
      for (char& c : fname) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
      }
      if (profile::write_text_file(
              fname, profile::counter_track_json(name, counts))) {
        std::printf("    -> %s (Perfetto counter track, one sample per "
                    "occupied bucket)\n",
                    fname.c_str());
      }
    }
  }
  return 0;
}

// ---- serve / client --------------------------------------------------

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

/// `ecctool serve`: the long-running crypto/campaign service
/// (service/server.h, wire schema in DESIGN.md §14). Runs until a
/// `shutdown` request or SIGINT/SIGTERM, then drains and (with --json)
/// writes a run manifest of the serve counters.
int run_serve(int argc, char** argv) {
  std::uint64_t port = 0;
  std::uint64_t listen_workers = 0;  // 0 = hardware concurrency
  std::uint64_t queue_depth = 64;
  bool no_coalesce = false;
  std::string port_file;
  bench::Args args;
  // serve defaults to the server's own engine (threaded), not the
  // predecode default the other subcommands share.
  args.engine = armvm::decode_mode_name(service::ServerConfig{}.engine);
  args.add_u64("--port", &port);
  args.add_u64("--listen-workers", &listen_workers);
  args.add_u64("--queue-depth", &queue_depth);
  args.add_flag("--no-coalesce", &no_coalesce);
  args.add_str("--port-file", &port_file);
  if (!args.parse(argc - 2, argv + 2, "ecctool_serve.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port=%llu is not a TCP port\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }
  if (queue_depth == 0) {
    std::fprintf(stderr,
                 "error: --queue-depth=0 would admit no work; use a "
                 "positive depth\n");
    return 2;
  }

  service::ServerConfig cfg;
  try {
    cfg.engine = armvm::decode_mode_from_name(args.engine);
    cfg.mem_model =
        armvm::MemModelConfig::for_kind(armvm::mem_model_from_name(args.mem));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.workers = static_cast<unsigned>(listen_workers);
  cfg.queue_depth = static_cast<std::size_t>(queue_depth);
  cfg.coalesce = !no_coalesce;

  service::Server server(cfg);
  server.start();
  std::printf("serving on 127.0.0.1:%u (%u workers, queue depth %llu%s)\n",
              server.port(), server.config().workers == 0
                                 ? 0u
                                 : server.config().workers,
              static_cast<unsigned long long>(queue_depth),
              cfg.coalesce ? ", coalescing" : "");
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  while (g_stop_signal == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  telemetry::MetricsRegistry& m = server.metrics();
  std::printf("served %llu request(s), %llu busy rejection(s), "
              "%llu coalesced\n",
              static_cast<unsigned long long>(
                  m.counter_value("serve.requests")),
              static_cast<unsigned long long>(m.counter_value("serve.busy")),
              static_cast<unsigned long long>(
                  m.counter_value("serve.coalesced")));
  if (args.json) {
    bench::JsonWriter w;
    bench::manifest_begin(w, "ecctool-serve", &args);
    w.field("subcommand", "serve");
    w.field("queue_depth", queue_depth);
    w.field("coalesce", cfg.coalesce);
    w.field("requests", m.counter_value("serve.requests"));
    w.field("busy", m.counter_value("serve.busy"));
    w.field("coalesced", m.counter_value("serve.coalesced"));
    w.field("errors", m.counter_value("serve.errors"));
    bench::manifest_end(w, &m);
    if (w.write_file(args.json_path)) {
      std::printf("manifest written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}

/// `ecctool client`: one-shot request against a running serve instance —
/// connect, send one eccm0.req.v1 frame, print the response document.
/// Exit 0 on an ok response, 1 on a typed error response or transport
/// failure, 2 on bad usage.
int run_client(int argc, char** argv) {
  std::uint64_t port = 0;
  std::string raw;
  std::string params_text;
  bench::Args args;
  args.add_u64("--port", &port);
  args.add_str("--raw", &raw);
  args.add_str("--params", &params_text);
  if (!args.parse(argc - 2, argv + 2, "")) return usage();
  if (port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "error: client needs --port=P of a running serve\n");
    return 2;
  }
  if (raw.empty() && args.positionals().size() != 1) {
    std::fprintf(stderr, "error: client takes exactly one op (or --raw)\n");
    return 2;
  }

  telemetry::Json params = telemetry::Json::object();
  if (!params_text.empty()) {
    try {
      params = telemetry::Json::parse(params_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad --params JSON: %s\n", e.what());
      return 2;
    }
  } else {
    params.set("curve", telemetry::Json::str(args.curve));
    if (args.iters != 0) {
      params.set("reps", telemetry::Json::number(args.iters));
    }
  }

  try {
    service::Client client;
    client.connect_to(static_cast<std::uint16_t>(port));
    const telemetry::Json resp =
        raw.empty() ? client.call(args.positionals()[0], std::move(params))
                    : client.call_raw(raw);
    std::printf("%s\n", resp.dump().c_str());
    const telemetry::Json* ok = resp.get("ok");
    return ok != nullptr && ok->as_bool() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // The protocol commands run the sect233k1 host crypto stack. They
  // accept the shared --curve= flag for symmetry, but the prime curves'
  // ECDH/ECDSA transactions run as VM workloads (workloads::make_workload),
  // not as host crypto — so anything else is rejected up front.
  std::vector<char*> filtered;
  if (cmd == "keygen" || cmd == "sign" || cmd == "verify" || cmd == "ecdh") {
    std::string curve_flag = "sect233k1";
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--curve=", 8) == 0) {
        curve_flag = argv[i] + 8;
      } else {
        filtered.push_back(argv[i]);
      }
    }
    if (!check_curve(curve_flag)) return 2;
    if (curve_flag != "sect233k1") {
      std::fprintf(stderr,
                   "error: host protocol crypto runs on sect233k1; run "
                   "%s-curve transactions through the workload layer "
                   "(bench_prime_vs_binary, ecctool profile/campaign/sca "
                   "--curve=%s)\n",
                   curve_flag.c_str(), curve_flag.c_str());
      return 2;
    }
    argc = static_cast<int>(filtered.size());
    argv = filtered.data();
  }
  const crypto::Ecdsa ecdsa;
  const crypto::Ecdh ecdh;
  const auto& curve = ecdsa.curve();
  ec::CurveOps ops(curve);

  try {
    if (cmd == "profile") return run_profile(argc, argv);
    if (cmd == "campaign") return run_campaign(argc, argv);
    if (cmd == "memfault") return run_memfault(argc, argv);
    if (cmd == "sca") return run_sca(argc, argv);
    if (cmd == "kernels") return run_kernels(argc, argv);
    if (cmd == "stats") return run_stats(argc, argv);
    if (cmd == "serve") return run_serve(argc, argv);
    if (cmd == "client") return run_client(argc, argv);
    if (cmd == "info") {
      bench::Args args;
      if (!args.parse(argc - 2, argv + 2, "") || !args.positionals().empty()) {
        return usage();
      }
      if (!check_curve(args.curve)) return 2;
      const workloads::CurveRef& ref = workloads::curve_from_name(args.curve);
      if (!ref.binary_field) {
        const ecp::PrimeCurve& pc = workloads::prime_curve(ref);
        std::printf("curve     : %s (short Weierstrass, F(p), %u bits, "
                    "%u limbs)\n",
                    ref.name.c_str(), ref.bits, ref.limbs);
        std::printf("p         : %s\n", pc.p.to_hex().c_str());
        std::printf("order     : %s\n", pc.order.to_hex().c_str());
        std::printf("generator : (%s,\n             %s)\n",
                    pc.gx.to_hex().c_str(), pc.gy.to_hex().c_str());
        std::printf("kernels   : %s-mul/-mont/-sqr/-redc/-inv\n",
                    ref.kernel_tag.c_str());
        return 0;
      }
      std::printf("curve     : %s (Koblitz, F(2^%u), a=0, b=1, h=%u)\n",
                  curve.name.c_str(), curve.f().m(), curve.cofactor);
      std::printf("order     : %s\n", curve.order.to_hex().c_str());
      std::printf("generator : %s\n",
                  bytes_to_hex(ec::encode_point(
                                   curve,
                                   ec::AffinePoint::make(curve.gx, curve.gy),
                                   true))
                      .c_str());
      return 0;
    }
    if (cmd == "keygen") {
      if (argc < 3) return usage();
      const std::string seed_str = argv[2];
      std::vector<std::uint8_t> seed(seed_str.begin(), seed_str.end());
      crypto::HmacDrbg rng(seed);
      const crypto::KeyPair kp = ecdsa.generate(rng);
      std::printf("private: %s\n", kp.d.to_hex().c_str());
      std::printf("public : %s\n",
                  bytes_to_hex(ec::encode_point(curve, kp.q, true)).c_str());
      return 0;
    }
    if (cmd == "sign") {
      if (argc < 4) return usage();
      const mpint::UInt d = mpint::UInt::from_hex(argv[2]);
      const std::string msg = join_args(argc, argv, 3);
      const crypto::Signature sig = ecdsa.sign(d, msg);
      std::printf("r: %s\n", sig.r.to_hex().c_str());
      std::printf("s: %s\n", sig.s.to_hex().c_str());
      return 0;
    }
    if (cmd == "verify") {
      if (argc < 6) return usage();
      const ec::AffinePoint q =
          ec::decode_point(ops, hex_to_bytes(argv[2]));
      const crypto::Signature sig{mpint::UInt::from_hex(argv[3]),
                                  mpint::UInt::from_hex(argv[4])};
      const std::string msg = join_args(argc, argv, 5);
      const bool ok = ecdsa.verify(q, msg, sig);
      std::printf("%s\n", ok ? "VALID" : "INVALID");
      return ok ? 0 : 1;
    }
    if (cmd == "ecdh") {
      if (argc != 4) return usage();
      const mpint::UInt d = mpint::UInt::from_hex(argv[2]);
      const ec::AffinePoint peer =
          ec::decode_point(ops, hex_to_bytes(argv[3]));
      if (!ecdh.valid_public_key(peer)) {
        std::fprintf(stderr, "peer public key failed validation\n");
        return 1;
      }
      const auto secret = ecdh.shared_secret(d, peer);
      std::printf("secret: %s\n", crypto::to_hex(secret).c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
