#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "armvm/dispatch.h"
#include "profile/profiler.h"
#include "workloads/registry.h"

namespace eccm0::service {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A typed handler failure that maps to a wire error code.
struct OpError {
  wire::ErrorCode code;
  std::string message;
};

std::uint64_t param_u64(const telemetry::Json& params, const char* key,
                        std::uint64_t fallback) {
  const telemetry::Json* v = params.get(key);
  if (v == nullptr) return fallback;
  if (v->kind() != telemetry::Json::Kind::kNumber) {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key + "' must be a number"};
  }
  // as_u64 is strtoull underneath, which wraps "-1" to 2^64-1 — a
  // negative count must be a typed rejection, not a 10^19 work order.
  if (!v->token().empty() && v->token()[0] == '-') {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key +
                      "' must be a non-negative integer"};
  }
  return v->as_u64();
}

std::string param_str(const telemetry::Json& params, const char* key,
                      const std::string& fallback) {
  const telemetry::Json* v = params.get(key);
  if (v == nullptr) return fallback;
  if (v->kind() != telemetry::Json::Kind::kString) {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key + "' must be a string"};
  }
  return v->as_string();
}

bool is_workload_op(const std::string& op) {
  return op == "kp" || op == "ecdh" || op == "ecdsa";
}

bool is_known_op(const std::string& op) {
  return is_workload_op(op) || op == "campaign" || op == "memfault" ||
         op == "sca" || op == "profile" || op == "sleep";
}

telemetry::Json ops_json(const ec::FieldOpCounts& ops) {
  telemetry::Json o = telemetry::Json::object();
  o.set("mul", telemetry::Json::number(ops.mul));
  o.set("sqr", telemetry::Json::number(ops.sqr));
  o.set("inv", telemetry::Json::number(ops.inv));
  o.set("add", telemetry::Json::number(ops.add));
  return o;
}

telemetry::Json tally_json(const faultsim::OutcomeTally& t) {
  telemetry::Json o = telemetry::Json::object();
  o.set("correct", telemetry::Json::number(t.correct));
  o.set("detected", telemetry::Json::number(t.detected));
  o.set("crashed", telemetry::Json::number(t.crashed));
  o.set("silent", telemetry::Json::number(t.silent));
  return o;
}

telemetry::Json mem_tally_json(const faultsim::MemOutcomeTally& t) {
  telemetry::Json o = telemetry::Json::object();
  o.set("correct", telemetry::Json::number(t.correct));
  o.set("corrected", telemetry::Json::number(t.corrected));
  o.set("detected", telemetry::Json::number(t.detected));
  o.set("crashed", telemetry::Json::number(t.crashed));
  o.set("silent", telemetry::Json::number(t.silent));
  return o;
}

/// The `profile` op: one kernel on the cycle-accurate VM under the
/// symbol-attributed profiler; payload carries totals plus the hottest
/// functions by self cycles. Deterministic for fixed params.
telemetry::Json profile_payload_for(const std::string& kernel_name,
                                    unsigned calls,
                                    armvm::Cpu::DecodeMode engine,
                                    const armvm::MemModelConfig& mem_model) {
  workloads::KernelMachine km(workloads::kernel(kernel_name), engine,
                              mem_model);
  profile::Profiler prof(km.prog());
  km.cpu().set_trace_sink(&prof);
  const workloads::KernelInfo info =
      workloads::KernelRegistry::instance().info(kernel_name);
  for (unsigned c = 0; c < calls; ++c) {
    if (info.binary_field) {
      const workloads::KernelOperands& od =
          workloads::KernelOperands::standard();
      workloads::load_mul_inputs(km.mem(), od.x, od.y);
      workloads::load_sqr_table(km.mem());
      workloads::load_inv_input(km.mem(), od.a);
    } else {
      const workloads::CurveRef& curve =
          workloads::curve_from_name(info.curve);
      const workloads::PrimeOperands& od =
          workloads::PrimeOperands::standard(curve);
      workloads::load_prime_modulus(km.mem(), curve);
      workloads::load_prime_mul_inputs(km.mem(), od.x, od.y);
      workloads::load_prime_inv_input(km.mem(), od.a);
      workloads::load_prime_wide_input(km.mem(), od.wide);
    }
    km.call();
  }
  const armvm::RunStats s = km.cpu().stats();

  telemetry::Json p = telemetry::Json::object();
  p.set("kernel", telemetry::Json::str(kernel_name));
  p.set("calls", telemetry::Json::number(std::uint64_t{calls}));
  p.set("instructions", telemetry::Json::number(s.instructions));
  p.set("cycles", telemetry::Json::number(s.cycles));
  p.set("energy_uj", telemetry::Json::number(s.energy().energy_uj()));
  telemetry::Json fns = telemetry::Json::array();
  for (const profile::Profiler::FunctionStats& f : prof.functions()) {
    telemetry::Json fj = telemetry::Json::object();
    fj.set("name", telemetry::Json::str(f.name));
    fj.set("calls", telemetry::Json::number(f.calls));
    fj.set("instructions", telemetry::Json::number(f.instructions));
    fj.set("self_cycles", telemetry::Json::number(f.self_cycles));
    fj.set("inclusive_cycles", telemetry::Json::number(f.inclusive_cycles));
    fns.push(std::move(fj));
  }
  p.set("functions", std::move(fns));
  return p;
}

}  // namespace

// ---- payload builders -----------------------------------------------

telemetry::Json workload_payload(const workloads::WorkloadSpec& spec,
                                 unsigned reps,
                                 const workloads::ReplayResult& result,
                                 armvm::Cpu::DecodeMode engine,
                                 const armvm::MemModelConfig& mem_model) {
  telemetry::Json p = telemetry::Json::object();
  p.set("workload", telemetry::Json::str(spec.name));
  p.set("transaction", telemetry::Json::str(spec.transaction));
  p.set("curve", telemetry::Json::str(spec.curve.name));
  p.set("point_muls", telemetry::Json::number(std::uint64_t{spec.point_muls}));
  p.set("reps", telemetry::Json::number(std::uint64_t{reps}));
  p.set("engine", telemetry::Json::str(armvm::decode_mode_name(engine)));
  p.set("mem_model",
        telemetry::Json::str(armvm::mem_model_name(mem_model.kind)));
  p.set("ops", ops_json(spec.ops));
  p.set("instructions", telemetry::Json::number(result.stats.instructions));
  p.set("cycles", telemetry::Json::number(result.stats.cycles));
  p.set("energy_uj",
        telemetry::Json::number(result.stats.energy().energy_uj()));
  p.set("fused_retired", telemetry::Json::number(result.fused_retired));
  p.set("output_digest", telemetry::Json::number(result.output_digest));
  return p;
}

telemetry::Json campaign_payload(const faultsim::CampaignResult& result) {
  const auto& profiles = faultsim::protection_profiles();
  telemetry::Json p = telemetry::Json::object();
  p.set("seed", telemetry::Json::number(result.config.seed));
  p.set("runs_per_model",
        telemetry::Json::number(result.config.runs_per_model));
  p.set("curve", telemetry::Json::str(result.config.curve));
  p.set("engine", telemetry::Json::str(
                      armvm::decode_mode_name(result.config.engine)));
  telemetry::Json models = telemetry::Json::array();
  for (const faultsim::ModelResult& m : result.models) {
    telemetry::Json mj = telemetry::Json::object();
    mj.set("model", telemetry::Json::str(faultsim::fault_model_name(m.model)));
    mj.set("runs", telemetry::Json::number(m.runs));
    mj.set("injected", telemetry::Json::number(m.injected));
    telemetry::Json per = telemetry::Json::array();
    for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
      telemetry::Json pj = telemetry::Json::object();
      pj.set("profile", telemetry::Json::str(profiles[i].name));
      pj.set("tally", tally_json(m.per_profile[i]));
      per.push(std::move(pj));
    }
    mj.set("per_profile", std::move(per));
    models.push(std::move(mj));
  }
  p.set("models", std::move(models));
  telemetry::Json costs = telemetry::Json::array();
  for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
    telemetry::Json cj = telemetry::Json::object();
    cj.set("profile", telemetry::Json::str(profiles[i].name));
    cj.set("ops", ops_json(result.costs[i].ops));
    cj.set("cycles", telemetry::Json::number(result.costs[i].cycles));
    cj.set("energy_uj", telemetry::Json::number(result.costs[i].energy_uj));
    costs.push(std::move(cj));
  }
  p.set("costs", std::move(costs));
  return p;
}

telemetry::Json mem_campaign_payload(
    const faultsim::MemCampaignResult& result) {
  const auto& profiles = faultsim::protection_profiles();
  telemetry::Json p = telemetry::Json::object();
  p.set("seed", telemetry::Json::number(result.config.seed));
  p.set("runs_per_cell", telemetry::Json::number(result.config.runs_per_cell));
  p.set("curve", telemetry::Json::str(result.config.curve));
  telemetry::Json models = telemetry::Json::array();
  for (const faultsim::MemModelReport& m : result.models) {
    telemetry::Json mj = telemetry::Json::object();
    mj.set("model",
           telemetry::Json::str(armvm::mem_model_name(m.config.kind)));
    mj.set("clean_cycles", telemetry::Json::number(m.clean_cycles));
    mj.set("clean_energy_pj", telemetry::Json::number(m.clean_energy_pj));
    telemetry::Json cells = telemetry::Json::array();
    for (const faultsim::MemCell& c : m.cells) {
      telemetry::Json cj = telemetry::Json::object();
      cj.set("ber", telemetry::Json::number(c.ber));
      cj.set("flipped_bits", telemetry::Json::number(c.flipped_bits));
      cj.set("hw_corrections", telemetry::Json::number(c.hw_corrections));
      cj.set("scrub_corrections",
             telemetry::Json::number(c.scrub_corrections));
      telemetry::Json per = telemetry::Json::array();
      for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
        telemetry::Json pj = telemetry::Json::object();
        pj.set("profile", telemetry::Json::str(profiles[i].name));
        pj.set("tally", mem_tally_json(c.per_profile[i]));
        per.push(std::move(pj));
      }
      cj.set("per_profile", std::move(per));
      cells.push(std::move(cj));
    }
    mj.set("cells", std::move(cells));
    models.push(std::move(mj));
  }
  p.set("models", std::move(models));
  return p;
}

telemetry::Json ct_payload(const sca::CtReport& report) {
  telemetry::Json p = telemetry::Json::object();
  p.set("kernel", telemetry::Json::str(report.target));
  p.set("runs", telemetry::Json::number(std::uint64_t{report.runs}));
  p.set("constant", telemetry::Json::boolean(report.constant));
  p.set("constant_addresses",
        telemetry::Json::boolean(report.constant_addresses));
  p.set("trace_len", telemetry::Json::number(report.trace_len));
  p.set("ref_cycles", telemetry::Json::number(report.ref_cycles));
  p.set("min_cycles", telemetry::Json::number(report.min_cycles));
  p.set("max_cycles", telemetry::Json::number(report.max_cycles));
  p.set("digest", telemetry::Json::number(report.digest));
  return p;
}

// ---- Connection ------------------------------------------------------

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

bool Server::Connection::send(const telemetry::Json& doc) {
  const std::string body = doc.dump();
  std::lock_guard<std::mutex> lock(write_mu);
  return wire::write_frame(fd, body);
}

// ---- Server ----------------------------------------------------------

struct Server::WorkerState {
  std::map<std::string, workloads::ReplayImages> images;
  std::map<std::string, workloads::WorkloadSpec> specs;
};

Server::Server(const ServerConfig& config)
    : config_(config),
      metrics_(config.metrics != nullptr ? config.metrics : &own_metrics_),
      exec_(config.workers),
      queue_(config.queue_depth != 0
                 ? config.queue_depth
                 : throw std::invalid_argument(
                       "serve: queue_depth must be nonzero")) {
  if (config_.max_batch == 0) config_.max_batch = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(lfd, 64) < 0) {
    const int err = errno;
    ::close(lfd);
    throw std::runtime_error(std::string("serve: cannot listen on port ") +
                             std::to_string(config_.port) + ": " +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(lfd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  metrics_->gauge("serve.workers").set(exec_.threads());
  metrics_->gauge("serve.queue_depth").set(queue_.capacity());
  acceptor_ = std::thread([this] { accept_loop(); });
  pool_ = std::thread([this] {
    try {
      exec_.run_workers([this](unsigned w) { worker_loop(w); });
    } catch (...) {
      // A worker died outside per-job handling (should not happen);
      // request teardown rather than wedging clients forever.
      stop_requested_.store(true, std::memory_order_release);
    }
  });
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);

  // Serialize the teardown itself: a second concurrent caller (e.g.
  // the destructor racing a wait() thread) must block until the first
  // stop() has finished joining, not return into member destruction
  // while threads are still live.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;

  // The acceptor may be blocked in ::accept on this fd; shutdown wakes
  // it. The exchange keeps the fd value itself race-free with the
  // acceptor's per-iteration snapshot.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Closing the queue lets workers drain what is already admitted and
  // then exit; jobs in flight still get their responses. try_push fails
  // once the queue is closed, so a session racing this close gets a
  // failed push and answers `shutting_down` itself — no admitted job is
  // ever destroyed unanswered.
  queue_.close();
  if (pool_.joinable()) pool_.join();

  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
    for (const std::weak_ptr<Connection>& w : conns_) {
      if (std::shared_ptr<Connection> c = w.lock()) {
        ::shutdown(c->fd, SHUT_RDWR);
      }
    }
    conns_.clear();
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
}

void Server::wait() {
  while (!stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // stop() already retired the socket
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed (stop()) or fatal
    }
    wire::set_nodelay(fd);
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    conns_.push_back(conn);
    sessions_.emplace_back(
        [this, conn = std::move(conn)] { session_loop(conn); });
  }
}

void Server::session_loop(std::shared_ptr<Connection> conn) {
  telemetry::Counter& busy = metrics_->counter("serve.busy");
  std::string body;
  for (;;) {
    bool bad_frame = false;
    if (!wire::read_frame(conn->fd, body, &bad_frame)) {
      if (bad_frame) {
        // The stream is desynchronized; answer once, then hang up.
        conn->send(wire::make_error(0, "", wire::ErrorCode::kBadFrame,
                                    "bad frame length prefix"));
      }
      break;
    }
    telemetry::Json doc;
    try {
      doc = telemetry::Json::parse(body);
    } catch (const std::exception& e) {
      conn->send(
          wire::make_error(0, "", wire::ErrorCode::kBadJson, e.what()));
      continue;
    }
    wire::RequestParse parsed = wire::parse_request(doc);
    if (!parsed.ok) {
      conn->send(wire::make_error(parsed.req.id, parsed.req.op, parsed.code,
                                  parsed.message));
      continue;
    }
    wire::Request& req = parsed.req;

    // Control-plane ops answer inline from the session thread: they
    // must work even when the work queue is saturated.
    if (req.op == "ping") {
      telemetry::Json p = telemetry::Json::object();
      p.set("pong", telemetry::Json::boolean(true));
      conn->send(wire::make_response(req.id, req.op, std::move(p)));
      continue;
    }
    if (req.op == "stats") {
      conn->send(wire::make_response(req.id, req.op, stats_payload()));
      continue;
    }
    if (req.op == "shutdown") {
      // Request the stop before answering, so a client that has the
      // answer can rely on stop_requested().
      stop_requested_.store(true, std::memory_order_release);
      telemetry::Json p = telemetry::Json::object();
      p.set("stopping", telemetry::Json::boolean(true));
      conn->send(wire::make_response(req.id, req.op, std::move(p)));
      continue;
    }
    if (!is_known_op(req.op)) {
      conn->send(wire::make_error(req.id, req.op,
                                  wire::ErrorCode::kUnknownOp,
                                  "op '" + req.op + "' is not served"));
      continue;
    }
    if (stop_requested()) {
      conn->send(wire::make_error(req.id, req.op,
                                  wire::ErrorCode::kShuttingDown,
                                  "server is draining"));
      continue;
    }
    const std::uint64_t id = req.id;
    const std::string op = req.op;
    Job job{conn, std::move(req), now_ns()};
    if (!queue_.try_push(std::move(job))) {
      if (queue_.closed()) {
        conn->send(wire::make_error(id, op, wire::ErrorCode::kShuttingDown,
                                    "server is draining"));
      } else {
        busy.add(1);
        conn->send(wire::make_error(
            id, op, wire::ErrorCode::kBusy,
            "work queue full (depth " + std::to_string(queue_.capacity()) +
                "); retry"));
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RD);
}

telemetry::Json Server::stats_payload() const {
  telemetry::Json p = telemetry::Json::object();
  p.set("workers", telemetry::Json::number(std::uint64_t{exec_.threads()}));
  p.set("queue_depth", telemetry::Json::number(
                           static_cast<std::uint64_t>(queue_.capacity())));
  p.set("queued", telemetry::Json::number(
                      static_cast<std::uint64_t>(queue_.size_approx())));
  p.set("metrics", metrics_->snapshot_json(/*include_wall=*/true));
  return p;
}

telemetry::Json Server::handle(WorkerState& state, const Job& job) {
  const wire::Request& req = job.req;
  try {
    if (is_workload_op(req.op)) {
      const std::string curve = param_str(req.params, "curve", "sect233k1");
      const std::uint64_t reps64 = param_u64(req.params, "reps", 1);
      if (reps64 == 0 || reps64 > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'reps' must be in [1, 1000]"};
      }
      const unsigned reps = static_cast<unsigned>(reps64);
      const std::string key = req.op + "-" + curve;
      auto it = state.specs.find(key);
      if (it == state.specs.end()) {
        // First sight of this workload on this worker: resolve the spec
        // and its kernel images once; afterwards the hot path never
        // touches the registry mutex.
        workloads::WorkloadSpec spec = workloads::make_workload(req.op, curve);
        state.images.emplace(key, workloads::ReplayImages::resolve(spec));
        it = state.specs.emplace(key, std::move(spec)).first;
      }
      const workloads::WorkloadSpec& spec = it->second;
      const workloads::ReplayResult result = workloads::replay(
          spec, state.images.at(key), config_.engine, config_.mem_model, reps);
      metrics_->record("serve." + req.op + ".vm_cycles",
                       telemetry::Unit::kCycles, result.stats.cycles);
      return workload_payload(spec, reps, result, config_.engine,
                              config_.mem_model);
    }
    if (req.op == "campaign") {
      faultsim::CampaignConfig cfg;
      cfg.curve = param_str(req.params, "curve", cfg.curve);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", 50);
      if (runs == 0 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [1, 1000]"};
      }
      cfg.runs_per_model = runs;
      cfg.threads = 1;  // the serve workers are the parallelism
      cfg.engine = config_.engine;
      return campaign_payload(faultsim::run_kp_campaign(cfg));
    }
    if (req.op == "memfault") {
      faultsim::MemCampaignConfig cfg;
      cfg.curve = param_str(req.params, "curve", cfg.curve);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", 20);
      if (runs == 0 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [1, 1000]"};
      }
      cfg.runs_per_cell = runs;
      cfg.threads = 1;
      cfg.engine = config_.engine;
      return mem_campaign_payload(faultsim::run_mem_campaign(cfg));
    }
    if (req.op == "sca") {
      sca::CtConfig cfg;
      cfg.kernel = param_str(req.params, "kernel", cfg.kernel);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", cfg.runs);
      if (runs < 2 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [2, 1000]"};
      }
      cfg.runs = static_cast<unsigned>(runs);
      cfg.engine = config_.engine;
      return ct_payload(sca::check_kernel_constant_trace(cfg));
    }
    if (req.op == "profile") {
      const std::string kernel = param_str(req.params, "kernel", "mul");
      const std::uint64_t calls = param_u64(req.params, "calls", 1);
      if (calls == 0 || calls > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'calls' must be in [1, 1000]"};
      }
      return profile_payload_for(kernel, static_cast<unsigned>(calls),
                                 config_.engine, config_.mem_model);
    }
    if (req.op == "sleep") {
      // Diagnostic op: hold a worker for `ms` milliseconds. Exists so
      // tests and benches can saturate the bounded queue on purpose.
      const std::uint64_t ms = param_u64(req.params, "ms", 10);
      if (ms > 5000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'ms' must be <= 5000"};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      telemetry::Json p = telemetry::Json::object();
      p.set("slept_ms", telemetry::Json::number(ms));
      return p;
    }
  } catch (const OpError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw OpError{wire::ErrorCode::kBadParam, e.what()};
  } catch (const std::exception& e) {
    throw OpError{wire::ErrorCode::kInternal, e.what()};
  }
  throw OpError{wire::ErrorCode::kUnknownOp,
                "op '" + req.op + "' is not served"};
}

void Server::finish(const Job& job, const telemetry::Json& response,
                    bool ok) {
  // Count before answering: a client's next `stats` must see the
  // request its previous response answered.
  metrics_->counter("serve.requests").add(1);
  if (!ok) metrics_->counter("serve.errors").add(1);
  job.conn->send(response);
  metrics_->record("serve." + job.req.op + ".latency_ns",
                   telemetry::Unit::kNanos, now_ns() - job.enqueue_ns);
}

void Server::worker_loop(unsigned worker) {
  (void)worker;
  WorkerState state;
  telemetry::Counter& coalesced = metrics_->counter("serve.coalesced");
  Job first;
  while (queue_.pop_wait(first)) {
    std::vector<Job> batch;
    batch.push_back(std::move(first));
    if (config_.coalesce) {
      Job more;
      while (batch.size() < config_.max_batch && queue_.try_pop(more)) {
        batch.push_back(std::move(more));
      }
    }
    std::vector<bool> done(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      // Coalescing is deduplication: requests with the same op and the
      // same params dump share one library call, and every requester
      // gets the byte-identical payload — so a coalesced response
      // cannot differ from an uncoalesced one.
      std::vector<std::size_t> group{i};
      if (is_workload_op(batch[i].req.op)) {
        const std::string key =
            batch[i].req.op + "\n" + batch[i].req.params.dump();
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
          if (done[j] || !is_workload_op(batch[j].req.op)) continue;
          if (batch[j].req.op + "\n" + batch[j].req.params.dump() == key) {
            group.push_back(j);
          }
        }
      }
      telemetry::Json payload;
      OpError err{wire::ErrorCode::kInternal, ""};
      bool ok = true;
      try {
        payload = handle(state, batch[i]);
      } catch (const OpError& e) {
        ok = false;
        err = e;
      }
      // Counted before the group is answered, like serve.requests.
      if (group.size() > 1) coalesced.add(group.size() - 1);
      for (std::size_t j : group) {
        const telemetry::Json response =
            ok ? wire::make_response(batch[j].req.id, batch[j].req.op,
                                     payload)
               : wire::make_error(batch[j].req.id, batch[j].req.op, err.code,
                                  err.message);
        finish(batch[j], response, ok);
        done[j] = true;
      }
    }
  }
}

}  // namespace eccm0::service
