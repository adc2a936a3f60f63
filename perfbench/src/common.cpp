#include "common.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <time.h>

#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace perfbench {

using namespace eccm0;

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// ---- host speed probe ----------------------------------------------------

namespace {

struct ProbeIns {
  std::uint8_t op, a, b, c;
};

/// A fixed random program of eight register-machine operations
/// (add, eor, lsl, lsr, mul, load, store, a short forward branch).
const std::array<ProbeIns, 512>& probe_program() {
  static const std::array<ProbeIns, 512> prog = [] {
    std::array<ProbeIns, 512> p{};
    std::uint32_t x = 12345;
    for (ProbeIns& i : p) {
      x = x * 1103515245u + 12345u;
      i = {static_cast<std::uint8_t>((x >> 16) % 8),
           static_cast<std::uint8_t>((x >> 8) & 15),
           static_cast<std::uint8_t>((x >> 20) & 15),
           static_cast<std::uint8_t>((x >> 24) & 15)};
    }
    return p;
  }();
  return prog;
}

/// The probe's data memory. It outlives a sweep, so a sweep has an
/// effect and two of them cannot be folded into one.
thread_local std::uint32_t mem[1024];

/// Interprets the program 400 times with a switch dispatch, a 16-entry
/// register file and 4 KiB of data memory.
__attribute__((noinline)) std::uint32_t probe_sweep() {
  const std::array<ProbeIns, 512>& prog = probe_program();
  std::uint32_t r[16];
  for (unsigned k = 0; k < 16; ++k) r[k] = k * 0x9e3779b9u;
  for (unsigned rep = 0; rep < 400; ++rep) {
    for (unsigned pc = 0; pc < prog.size();) {
      const ProbeIns i = prog[pc++];
      switch (i.op) {
        case 0: r[i.a] = r[i.b] + r[i.c]; break;
        case 1: r[i.a] = r[i.b] ^ r[i.c]; break;
        case 2: r[i.a] = r[i.b] << (r[i.c] & 31); break;
        case 3: r[i.a] = r[i.b] >> (r[i.c] & 31); break;
        case 4: r[i.a] = r[i.b] * r[i.c]; break;
        case 5: r[i.a] = mem[r[i.b] & 1023]; break;
        case 6: mem[r[i.b] & 1023] = r[i.a]; break;
        default:
          if (r[i.a] & 1) pc += i.b & 3;
          break;
      }
    }
  }
  return r[0] ^ r[7];
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

}  // namespace

double probe_ms() {
  // Keeps the sweeps from being optimised away.
  static std::atomic<std::uint32_t> sink{0};
  sink.fetch_add(probe_sweep(), std::memory_order_relaxed);
  const double t0 = thread_cpu_ns();
  sink.fetch_add(probe_sweep(), std::memory_order_relaxed);
  return (thread_cpu_ns() - t0) / 1e6;
}

ProbeThread::ProbeThread(Clock::time_point t0)
    : thread_([this, t0](std::stop_token stop) {
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          const double ms = probe_ms();
          samples_.push_back({static_cast<double>(ns_since(t0)) / 1e9, ms});
        }
      }) {}

std::vector<ProbeSample> ProbeThread::stop() {
  thread_.request_stop();
  thread_.join();
  return std::move(samples_);
}

// ---- Tracer --------------------------------------------------------------

namespace {

thread_local std::vector<long> open_spans;

unsigned this_tid() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string name, std::uint64_t op) : t_(t) {
  if (t_.enabled()) index_ = t_.open(std::move(name), op);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) t_.close(index_);
}

long Tracer::open(std::string name, std::uint64_t op) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.tid = this_tid();
  s.start_ns = ns_since(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  open_spans.push_back(static_cast<long>(spans_.size() - 1));
  return open_spans.back();
}

void Tracer::close(long index) {
  const std::uint64_t end = ns_since(t0_);
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  // Complete ("X") events in microseconds; op id and parent index ride
  // in args so a span can be tied back to its request and caller.
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    f << (i ? ",\n" : "\n") << "{\"name\":\""
      << telemetry::Json::escape(s.name) << "\"," << buf
      << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(f);
}

double hist_quantile(const telemetry::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count());
  double seen = 0.0;
  for (const auto& [floor, n] : h.nonzero_buckets()) {
    if (seen + static_cast<double>(n) >= rank) {
      const std::size_t idx = telemetry::Histogram::index_of(floor);
      const double next =
          static_cast<double>(telemetry::Histogram::bucket_floor(idx + 1));
      const double frac = (rank - seen) / static_cast<double>(n);
      const double v = static_cast<double>(floor) +
                       frac * (next - static_cast<double>(floor));
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(h.max());
}

// ---- simulated cost ------------------------------------------------------

void set_mix_cost(RunResult& res, const std::vector<armvm::RunStats>& mix) {
  if (mix.empty()) return;
  std::uint64_t instructions = 0, cycles = 0;
  costmodel::CycleHistogram h;
  res.spec_instructions.clear();
  for (const armvm::RunStats& s : mix) {
    res.spec_instructions.push_back(static_cast<double>(s.instructions));
    instructions += s.instructions;
    cycles += s.cycles;
    h += s.histogram;
  }
  const double n = static_cast<double>(mix.size());
  res.sim_instructions_per_op = static_cast<double>(instructions) / n;
  res.sim_cycles_per_op = static_cast<double>(cycles) / n;
  res.sim_uj_per_op = costmodel::energy_of(h).energy_uj() / n;
}

void ArmvmTally::add(const armvm::RunStats& s, std::uint64_t fused_retired,
                     double ns) {
  total.instructions += s.instructions;
  total.cycles += s.cycles;
  total.histogram += s.histogram;
  fused += fused_retired;
  ++ops;
  host_ns += ns;
}

void ArmvmTally::report(std::map<std::string, double>& out) const {
  static const char* const kClass[] = {"ldr", "str", "lsl",    "lsr",
                                       "eor", "add", "mul",    "mov",
                                       "branch", "other", "memwait"};
  static_assert(std::size(kClass) ==
                static_cast<std::size_t>(costmodel::InstrClass::kCount));
  if (ops == 0 || total.instructions == 0) return;
  const double n = static_cast<double>(ops);
  const double instructions = static_cast<double>(total.instructions);
  out["armvm.host_ns_per_instr"] = host_ns / instructions;
  out["armvm.fused_fraction"] = static_cast<double>(fused) / instructions;
  out["armvm.instructions_per_op"] = instructions / n;
  for (std::size_t c = 0; c < std::size(kClass); ++c) {
    out[std::string("armvm.cycles_by_class.") + kClass[c]] =
        static_cast<double>(total.histogram.cycles[c]) / n;
  }
}

std::vector<std::string> kernels_of(
    const std::vector<workloads::WorkloadSpec>& specs) {
  std::vector<std::string> kernels;
  for (const workloads::WorkloadSpec& s : specs) {
    for (const std::string& k : {s.mul_kernel, s.sqr_kernel, s.inv_kernel}) {
      if (std::find(kernels.begin(), kernels.end(), k) == kernels.end()) {
        kernels.push_back(k);
      }
    }
  }
  return kernels;
}

namespace {

/// Load the standard operands every kernel of the registry reads.
void load_standard(workloads::KernelMachine& km, const std::string& kernel) {
  const workloads::KernelInfo info =
      workloads::KernelRegistry::instance().info(kernel);
  if (info.binary_field) {
    const workloads::KernelOperands& od = workloads::KernelOperands::standard();
    workloads::load_mul_inputs(km.mem(), od.x, od.y);
    workloads::load_sqr_table(km.mem());
    workloads::load_inv_input(km.mem(), od.a);
  } else {
    const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
    const workloads::PrimeOperands& od =
        workloads::PrimeOperands::standard(curve);
    workloads::load_prime_modulus(km.mem(), curve);
    workloads::load_prime_mul_inputs(km.mem(), od.x, od.y);
    workloads::load_prime_inv_input(km.mem(), od.a);
    workloads::load_prime_wide_input(km.mem(), od.wide);
  }
}

}  // namespace

bool asmkernels_layer(std::map<std::string, double>& out,
                      const std::vector<std::string>& kernels,
                      armvm::Cpu::DecodeMode mode, unsigned calls) {
  bool steady = true;
  for (const std::string& k : kernels) {
    workloads::KernelMachine km(k, mode);
    std::vector<double> ns;
    std::uint64_t cycles = 0;
    for (unsigned c = 0; c < calls; ++c) {
      // Kernels consume their scratch state (the EEA inversion), so
      // every call starts from freshly loaded operands.
      load_standard(km, k);
      const Clock::time_point t0 = Clock::now();
      const armvm::RunStats s = km.call();
      ns.push_back(static_cast<double>(ns_since(t0)));
      if (c > 0 && s.cycles != cycles) steady = false;
      cycles = s.cycles;
    }
    out["asmkernels." + k + ".cycles_per_call"] = static_cast<double>(cycles);
    out["asmkernels." + k + ".host_ns_per_call"] = median(ns);
  }
  return steady;
}

// ---- /proc ---------------------------------------------------------------

namespace {

double status_field(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream in(line.substr(prefix.size()));
      double v = 0.0;
      in >> v;
      return v;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field("VmHWM") / 1024.0; }
double vm_size_mb() { return status_field("VmSize") / 1024.0; }
double thread_count() { return status_field("Threads"); }

}  // namespace perfbench
