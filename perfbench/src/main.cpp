// eccm0 benchmark program: one workload per invocation.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--setup-only] [--corrupt-expected] [--trace-out PATH]
//   perfbench --list-metrics
//
// Prints a host-identity line and, as the last line of stdout, one JSON
// object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1
// they are the per-layer ones, from a run that records spans in every
// other one-second slot (the throughput difference between traced and
// untraced slots is the tracing overhead). Exit status is nonzero when any op
// failed or any output differed from its oracle.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "armvm/dispatch.h"
#include "common.h"
#include "telemetry/json.h"
#include "telemetry/manifest.h"

using namespace perfbench;
using eccm0::telemetry::Json;

namespace {

struct Metric {
  std::string name, unit, better;
};

const std::vector<Metric>& end_to_end() {
  static const std::vector<Metric> m = {
      {"setup_s", "s", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"sim_mips", "Minstr/s", "higher"},
      {"sim_cycles_per_op", "cycles", "lower"},
      {"sim_uj_per_op", "uJ", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return m;
}

const std::vector<Metric>& per_layer() {
  static const std::vector<Metric> m = [] {
    std::vector<Metric> v = {
        {"armvm.host_ns_per_instr", "ns", "lower"},
        {"armvm.fused_fraction", "ratio", "higher"},
        {"armvm.instructions_per_op", "instr", "lower"},
    };
    for (const char* c : {"ldr", "str", "lsl", "lsr", "eor", "add", "mul",
                          "mov", "branch", "other", "memwait"}) {
      v.push_back({std::string("armvm.cycles_by_class.") + c, "cycles",
                   "lower"});
    }
    for (const char* k : {"mul", "sqr", "inv", "p256-mont", "p256-sqr",
                          "p256-inv", "p192-mont", "p192-sqr", "p192-inv"}) {
      v.push_back({std::string("asmkernels.") + k + ".cycles_per_call",
                   "cycles", "lower"});
      v.push_back({std::string("asmkernels.") + k + ".host_ns_per_call", "ns",
                   "lower"});
    }
    for (const char* c : {"sect233k1", "secp256r1", "secp192r1"}) {
      for (const char* t : {"kp", "ecdh", "ecdsa"}) {
        v.push_back({std::string("workloads.replay.") + t + "-" + c +
                         ".host_ns",
                     "ns", "lower"});
      }
    }
    const std::vector<Metric> rest = {
        {"service.client_ns.p50", "ns", "lower"},
        {"service.client_ns.p99", "ns", "lower"},
        {"service.server_ns.p50", "ns", "lower"},
        {"service.server_ns.p99", "ns", "lower"},
        {"service.exec_ns", "ns", "lower"},
        {"service.encode_ns", "ns", "lower"},
        {"service.parse_ns", "ns", "lower"},
        {"service.unattributed_share", "ratio", "lower"},
        {"service.coalesced_share", "ratio", "higher"},
        {"service.busy", "count", "lower"},
        {"service.errors", "count", "lower"},
        {"service.threads", "count", "lower"},
        {"service.vm_size_mb", "MB", "lower"},
        {"sim.batch.queue_wait_ns.p50", "ns", "lower"},
        {"sim.batch.queue_wait_ns.p99", "ns", "lower"},
        {"sim.batch.run_ns.p50", "ns", "lower"},
        {"sim.batch.run_ns.p99", "ns", "lower"},
        {"sim.batch.tasks", "count", "higher"},
        {"sim.worker_busy_share", "ratio", "higher"},
        {"faultsim.parity.run_model_ns", "ns", "lower"},
        {"faultsim.secded.run_model_ns", "ns", "lower"},
        {"faultsim.flipped_bits", "count", "lower"},
        {"faultsim.hw_corrections", "count", "higher"},
        {"faultsim.outcome.correct", "count", "higher"},
        {"faultsim.outcome.corrected", "count", "higher"},
        {"faultsim.outcome.detected", "count", "higher"},
        {"faultsim.outcome.crashed", "count", "lower"},
        {"faultsim.outcome.silent", "count", "lower"},
        {"ec.golden_ns", "ns", "lower"},
        {"sca.traces", "count", "higher"},
        {"sca.trace_cycles.p50", "cycles", "lower"},
        {"sca.tvla_ns", "ns", "lower"},
        {"setup.registry_ns", "ns", "lower"},
        {"setup.server_start_ns", "ns", "lower"},
        {"setup.campaign_ctor_ns", "ns", "lower"},
        {"trace.overhead_share", "ratio", "lower"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "vm_replay|serve_mixed|campaign_protected "
               "--seed N --seconds S --trace 0|1 [--setup-only] "
               "[--corrupt-expected] [--trace-out PATH] | --list-metrics\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else if (a == "--corrupt-expected") {
        o.corrupt_expected = true;
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json host_identity() {
  const eccm0::telemetry::BuildInfo b = eccm0::telemetry::build_info();
  Json h = Json::object();
  h.set("cpu_model", Json::str(cpu_model()));
  h.set("nproc", Json::number(std::uint64_t{std::thread::hardware_concurrency()}));
  h.set("build_type", Json::str(b.build_type));
  h.set("compiler", Json::str(b.compiler));
  h.set("threaded_dispatch",
        Json::str(eccm0::armvm::threaded_dispatch_uses_computed_goto()
                      ? "computed-goto"
                      : "switch"));
  return h;
}

Json metric_list(const std::vector<Metric>& ms) {
  Json a = Json::array();
  for (const Metric& m : ms) {
    Json o = Json::object();
    o.set("name", Json::str(m.name));
    o.set("unit", Json::str(m.unit));
    o.set("better", Json::str(m.better));
    a.push(std::move(o));
  }
  return a;
}

/// Windows a run is cut into, at most (each holds whole op mixes).
constexpr std::uint64_t kWindows = 60;

struct HostRate {
  double ops_per_s = 0;  ///< scaled to the probe's nominal speed
  double raw_ops_per_s = 0;
  double probe_ms = 0;
};

/// Throughput of a run. The timed ops, in completion order, are cut
/// into up to kWindows windows of whole op mixes; each window's rate is
/// scaled by the median time of the speed probes taken in it over
/// kProbeNominalMs, and the figure is the median over the windows. A
/// window's rate counts each op by its spec's simulated instructions
/// relative to the mix mean, so a window that happens to hold the mix's
/// cheap ops (concurrent clients interleave their cycles) does not read
/// fast; over a whole mix it is the plain op rate.
HostRate host_rate(const RunResult& r) {
  std::vector<OpSample> ops = r.ops;
  std::sort(ops.begin(), ops.end(), [](const OpSample& a, const OpSample& b) {
    return a.done_at_s < b.done_at_s;
  });
  double mean_work = 0;
  for (double w : r.spec_instructions) mean_work += w;
  mean_work /= static_cast<double>(r.spec_instructions.size());
  // Unweighted when the run has no per-spec cost (the campaign) or none
  // was verified (every op failed).
  const auto work = [&](const OpSample& o) {
    return mean_work > 0 ? r.spec_instructions.at(o.spec) / mean_work : 1.0;
  };
  const std::uint64_t n = ops.size();
  const std::uint64_t k =
      std::max<std::uint64_t>(1, n / kWindows / r.mix_ops) * r.mix_ops;
  std::vector<double> scaled, raw, probes;
  double start = 0.0;
  for (std::uint64_t end = k; end <= n; end += k) {
    const double t = ops[end - 1].done_at_s;
    double done = 0;
    for (std::uint64_t i = end - k; i < end; ++i) done += work(ops[i]);
    std::vector<double> in_window;
    for (const ProbeSample& p : r.probes) {
      if (p.at_s > start && p.at_s <= t) in_window.push_back(p.ms);
    }
    if (t > start && !in_window.empty()) {
      const double rate = done / (t - start);
      raw.push_back(rate);
      scaled.push_back(rate * median(in_window) / kProbeNominalMs);
    }
    start = t;
  }
  for (const ProbeSample& p : r.probes) probes.push_back(p.ms);
  return {median(scaled), median(raw), median(probes)};
}

/// Full-precision number token ("%.17g"), so no digit is lost.
Json exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return Json::number_token(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_main = Clock::now();
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    Json l = Json::object();
    l.set("end_to_end", metric_list(end_to_end()));
    l.set("per_layer", metric_list(per_layer()));
    std::printf("%s\n", l.dump().c_str());
    return 0;
  }
  const Options opt = parse(argc, argv);

  RunResult r;
  try {
    if (opt.workload == "vm_replay") {
      r = run_vm_replay(opt, t_main);
    } else if (opt.workload == "serve_mixed") {
      r = run_serve_mixed(opt, t_main);
    } else if (opt.workload == "campaign_protected") {
      r = run_campaign(opt, t_main);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.setup_only) {
    // Scaled like ops_per_s, by a speed probe taken on the thread that
    // did the set-up, right after it.
    const double probe = probe_ms();
    std::printf("{\"setup_s\": %.17g, \"raw_setup_s\": %.17g}\n",
                r.setup_s * kProbeNominalMs / probe, r.setup_s);
    return 0;
  }

  Json info = Json::object();
  info.set("host", host_identity());
  info.set("workload", Json::str(opt.workload));
  info.set("seed", Json::number(opt.seed));
  info.set("timed_ops", Json::number(static_cast<std::uint64_t>(r.ops.size())));
  const HostRate rate = host_rate(r);
  info.set("raw_ops_per_s", exact(rate.raw_ops_per_s));
  info.set("probe_ms", exact(rate.probe_ms));
  std::printf("%s\n", info.dump().c_str());

  Json metrics = Json::object();
  const auto put = [&](const Metric& m, double v) {
    Json o = Json::object();
    o.set("value", exact(v));
    o.set("unit", Json::str(m.unit));
    metrics.set(m.name, std::move(o));
  };
  if (!opt.trace) {
    const std::map<std::string, double> v = {
        {"setup_s", r.setup_s},
        {"ops_per_s", rate.ops_per_s},
        {"sim_mips", rate.ops_per_s * r.sim_instructions_per_op / 1e6},
        {"sim_cycles_per_op", r.sim_cycles_per_op},
        {"sim_uj_per_op", r.sim_uj_per_op},
        {"peak_rss_mb", peak_rss_mb()},
    };
    for (const Metric& m : end_to_end()) put(m, v.at(m.name));
  } else {
    // Tracing overhead: op throughput in the traced slots against the
    // untraced ones of the same run.
    double ops[2] = {0, 0}, time[2] = {0, 0};
    for (const OpSample& o : r.ops) ops[traced_slot(o.done_at_s)] += 1;
    for (double t = 0; t < r.elapsed_s; t += kTraceSlotS) {
      time[traced_slot(t)] += std::min(kTraceSlotS, r.elapsed_s - t);
    }
    if (ops[0] > 0 && ops[1] > 0) {
      r.layers["trace.overhead_share"] =
          1.0 - (ops[1] / time[1]) / (ops[0] / time[0]);
    }
    for (const Metric& m : per_layer()) {
      const auto it = r.layers.find(m.name);
      // Layers a workload does not exercise read 0.
      put(m, it != r.layers.end() ? it->second : 0.0);
    }
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  Json out = Json::object();
  out.set("correct", Json::boolean(correct));
  out.set("attempted", Json::number(r.attempted));
  out.set("failed", Json::number(r.failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
