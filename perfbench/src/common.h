// Shared pieces of the benchmark program: options, clocks, sample
// statistics, the in-memory span tracer and the result every workload
// hands back to main().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "armvm/cpu.h"
#include "telemetry/metrics.h"
#include "workloads/spec.h"

namespace perfbench {

namespace armvm = eccm0::armvm;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after the set-up phases and report only their time (run.py
  /// repeats this in fresh processes to get a median set-up time).
  bool setup_only = false;
  /// Flip one bit of every expected value before checking — the
  /// self-test proves that a wrong output is reported as a failure.
  bool corrupt_expected = false;
  /// Chrome trace written by a traced run ("" = none).
  std::string trace_out;
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// A traced run records spans only in odd time slots of this length,
/// so traced and untraced ops interleave through the run and host
/// drift cancels out of the tracing-overhead comparison.
inline constexpr double kTraceSlotS = 1.0;
inline bool traced_slot(double t_s) {
  return static_cast<long>(t_s / kTraceSlotS) % 2 == 1;
}

/// Host speed probe. Other tenants of a shared host slow this program by
/// up to 40% for minutes at a time, longer than a run, so no choice of
/// windows within a run removes their load from a host-time figure. The
/// probe is a miniature interpreter running a fixed program, compiled
/// into the benchmark, not the library, so no change to the library
/// moves it, yet shaped like the simulator's own work (a dispatch switch
/// over a small register file and data memory). It runs once untimed,
/// so that it does not pay for whatever the workload left in the caches,
/// and is timed on the second run by its thread's CPU clock, so that the
/// benchmark's own threads preempting it do not read as a slow host.
/// Host-time figures are scaled by probe time over kProbeNominalMs: they
/// read as on a host where the probe takes kProbeNominalMs, close to its
/// fastest time on the machine the benchmark was tuned on.
inline constexpr double kProbeNominalMs = 0.45;
double probe_ms();

struct ProbeSample {
  double at_s = 0.0;  ///< seconds after the timed loop began
  double ms = 0.0;
};

/// Runs probe_ms() every 50 ms on a thread of its own, from construction
/// until stop(), for workloads whose work runs on threads the benchmark
/// does not own (the server's worker, the batch executor's).
class ProbeThread {
 public:
  explicit ProbeThread(Clock::time_point t0);
  std::vector<ProbeSample> stop();

 private:
  std::vector<ProbeSample> samples_;
  std::jthread thread_;
};

/// Quantile of exact samples by linear interpolation between order
/// statistics (the "type 7" estimator). Sorts `v` in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Quantile of a telemetry log-bucket histogram: the rank is located in
/// its bucket and placed linearly between the bucket's floor and the
/// next floor, clamped to the recorded range (within the histogram's
/// 3.125% bucket width of the exact value).
double hist_quantile(const eccm0::telemetry::Histogram& h, double q);

/// In-memory span recorder. Each span has a name, start, end, the
/// span that was open on the same thread when it began (its parent)
/// and the id of the op it belongs to; the whole set is written once,
/// at the end, as a Chrome trace that Perfetto loads. Disabled tracers
/// record nothing and take no clock reads.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint64_t op = 0;
    long parent = -1;  ///< index of the parent span, -1 for a root
    unsigned tid = 0;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    long index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Start or stop recording (spans already open still close).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Durations (ns) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  bool write_chrome(const std::string& path) const;

 private:
  long open(std::string name, std::uint64_t op);
  void close(long index);

  std::atomic<bool> enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One timed op: when it completed (seconds after the timed loop
/// began), its host latency, and which spec of the op mix it ran.
struct OpSample {
  double done_at_s = 0.0;
  double latency_ns = 0.0;
  std::uint32_t spec = 0;
};

/// What one workload run measured: host-time samples per op, and the
/// deterministic simulated cost of the workload's op mix.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  /// Every timed op (a traced run also compares ops done in untraced
  /// and traced slots).
  std::vector<OpSample> ops;
  /// Host speed probes taken during the timed loop.
  std::vector<ProbeSample> probes;
  /// Ops in one instance of the workload's op mix; throughput windows
  /// hold whole mixes.
  std::uint64_t mix_ops = 1;
  /// Simulated instructions of each spec of the mix, indexed by
  /// OpSample::spec (empty: every op counts the same).
  std::vector<double> spec_instructions;
  /// Mean simulated cost per op over the workload's op mix.
  double sim_instructions_per_op = 0.0;
  double sim_cycles_per_op = 0.0;
  double sim_uj_per_op = 0.0;
  /// Set-up time of this process (main() entry to the first timed op,
  /// oracle excluded).
  double setup_s = 0.0;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
};

/// Set the run's simulated cost per op, and each spec's instructions,
/// from the verified RunStats of each spec of its mix (equal weight
/// per spec).
void set_mix_cost(RunResult& res, const std::vector<armvm::RunStats>& mix);

/// armvm-layer tally of a set of VM runs: host ns per simulated
/// instruction, fused fraction, instructions and cycles-by-class per op.
struct ArmvmTally {
  armvm::RunStats total;
  std::uint64_t fused = 0, ops = 0;
  double host_ns = 0;

  void add(const armvm::RunStats& s, std::uint64_t fused_retired, double ns);
  void report(std::map<std::string, double>& out) const;
};

/// asmkernels-layer metrics: cycles and host ns per call of `kernels`
/// on the standard operands, run `calls` times each under `mode`.
/// Returns false if a kernel's cycle count varies between calls.
bool asmkernels_layer(std::map<std::string, double>& out,
                      const std::vector<std::string>& kernels,
                      armvm::Cpu::DecodeMode mode, unsigned calls);
/// The distinct kernels the specs replay, in first-use order.
std::vector<std::string> kernels_of(
    const std::vector<eccm0::workloads::WorkloadSpec>& specs);

/// Peak resident set and current virtual size of this process in MB
/// (VmHWM, VmSize).
double peak_rss_mb();
double vm_size_mb();
/// Threads of this process (/proc/self/status).
double thread_count();

/// Each workload: set up (timed into RunResult::setup_s), check its
/// oracle, run for opt.seconds, verify every output.
RunResult run_vm_replay(const Options& opt, Clock::time_point t_main);
RunResult run_serve_mixed(const Options& opt, Clock::time_point t_main);
RunResult run_campaign(const Options& opt, Clock::time_point t_main);

}  // namespace perfbench
