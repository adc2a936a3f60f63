// serve_mixed: an in-process service::Server with ServerConfig defaults
// (ephemeral port, one worker, the predecode engine, coalescing on)
// driven over the loopback by four long-lived closed-loop Client
// connections, each running the six kp/ecdh/ecdsa x sect233k1/secp192r1
// specs once per cycle in its own seeded order, so the concurrency
// pattern keeps changing instead of locking into one the seed picked.
// Each client also tags its params with its own index (the protocol
// ignores unknown param members), so two clients asking for the same
// spec are distinct requests, as they will be once requests carry caller
// inputs: the coalescing drain never fires, and frame I/O, parse, queue,
// worker, replay, encode and write are all on the path.
//
// The benchmark sets no socket option of its own and never restarts the
// server mid-run: the transport and session behaviour are measured as
// shipped.
#include <algorithm>
#include <map>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "telemetry/json.h"
#include "workloads/spec.h"

namespace perfbench {

using namespace eccm0;
using telemetry::Json;

namespace {

constexpr unsigned kClients = 4;

Json workload_params(const workloads::WorkloadSpec& spec) {
  Json p = Json::object();
  p.set("curve", Json::str(spec.curve.name));
  p.set("reps", Json::number(std::uint64_t{1}));
  return p;
}

Json tagged_params(const workloads::WorkloadSpec& spec, unsigned client) {
  Json p = workload_params(spec);
  p.set("client", Json::number(std::uint64_t{client}));
  return p;
}

struct ClientLog {
  std::vector<OpSample> ops;
  std::uint64_t attempted = 0, failed = 0;
};

}  // namespace

RunResult run_serve_mixed(const Options& opt, Clock::time_point t_main) {
  RunResult res;
  std::vector<workloads::WorkloadSpec> specs;
  for (const char* curve : {"sect233k1", "secp192r1"}) {
    for (const char* tx : {"kp", "ecdh", "ecdsa"}) {
      specs.push_back(workloads::make_workload(tx, curve));
    }
  }
  // The seed fixes every client's request order: a fresh shuffle of
  // the specs per cycle, from the client's own stream.
  const Rng seed_stream(opt.seed);
  const auto shuffled = [&](Rng& rng) {
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    return order;
  };

  Clock::time_point t = Clock::now();
  std::vector<workloads::ReplayImages> images;
  for (const workloads::WorkloadSpec& s : specs) {
    images.push_back(workloads::ReplayImages::resolve(s));
  }
  const double registry_ns = static_cast<double>(ns_since(t));
  t = Clock::now();
  service::Server server(service::ServerConfig{});
  server.start();
  const double server_start_ns = static_cast<double>(ns_since(t));
  res.setup_s = static_cast<double>(ns_since(t_main)) / 1e9;
  if (opt.setup_only) return res;

  // Oracle: the per-step engine; the direct replay on the server's own
  // engine must match it, and every served payload must be byte-equal
  // to workload_payload over that direct replay (identity contract).
  const service::ServerConfig& cfg = server.config();
  std::vector<workloads::ReplayResult> direct;
  std::vector<std::string> expected;
  std::vector<armvm::RunStats> mix;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const workloads::ReplayResult oracle = workloads::replay(
        specs[i], images[i], armvm::Cpu::DecodeMode::kPerStep);
    workloads::ReplayResult r =
        workloads::replay(specs[i], images[i], cfg.engine, cfg.mem_model);
    if (!(r.stats == oracle.stats) || r.output_digest != oracle.output_digest) {
      ++res.failed;
    }
    if (opt.corrupt_expected) r.output_digest ^= 1;
    expected.push_back(
        service::workload_payload(specs[i], 1, r, cfg.engine, cfg.mem_model)
            .dump());
    mix.push_back(r.stats);
    direct.push_back(r);
  }
  const auto check = [&](std::size_t i, const Json& resp) {
    const Json* ok = resp.get("ok");
    const Json* payload = resp.get("payload");
    return ok != nullptr && ok->as_bool() && payload != nullptr &&
           payload->dump() == expected[i];
  };

  Tracer tracer(false);
  std::vector<ClientLog> logs(kClients);
  std::atomic<std::uint64_t> next_op{0};
  const Clock::time_point t0 = Clock::now();
  const auto secs = [&] { return static_cast<double>(ns_since(t0)) / 1e9; };
  const auto running = [&] { return secs() < opt.seconds; };

  const auto mixed_client = [&](unsigned c) {
    ClientLog& log = logs[c];
    service::Client client;
    client.connect_to(server.port());
    Rng rng = seed_stream.split(c);
    std::vector<std::size_t> order;
    for (std::size_t k = 0; running(); ++k) {
      if (k % specs.size() == 0) order = shuffled(rng);
      const std::size_t i = order[k % specs.size()];
      const std::uint64_t op = next_op.fetch_add(1);
      Tracer::Scope root(tracer, "serve_mixed.op", op);
      const Clock::time_point a = Clock::now();
      Json resp;
      bool ok = true;
      try {
        Tracer::Scope call(tracer, "service.Client::call", op);
        resp = client.call(specs[i].transaction, tagged_params(specs[i], c));
      } catch (const std::exception&) {
        ok = false;
      }
      ++log.attempted;
      const double ns = static_cast<double>(ns_since(a));
      log.ops.push_back({secs(), ns, static_cast<std::uint32_t>(i)});
      if (!ok || !check(i, resp)) ++log.failed;
      if (!ok) return;  // the connection is gone
    }
  };

  {
    // jthreads join on every exit path; the slot switch stops with them.
    std::jthread tracer_switch;
    if (opt.trace) {
      tracer_switch = std::jthread([&](std::stop_token stop) {
        while (!stop.stop_requested()) {
          tracer.set_enabled(traced_slot(secs()));
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    ProbeThread probes(t0);
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          mixed_client(c);
        } catch (const std::exception&) {
          ++logs[c].failed;
          ++logs[c].attempted;
        }
      });
    }
    for (std::jthread& th : clients) th.join();
    res.elapsed_s = secs();
    res.probes = probes.stop();
  }

  for (const ClientLog& log : logs) {
    res.attempted += log.attempted;
    res.failed += log.failed;
    res.ops.insert(res.ops.end(), log.ops.begin(), log.ops.end());
  }
  res.mix_ops = specs.size();
  // Served ops deliver their spec's simulated work, coalesced or not.
  set_mix_cost(res, mix);

  if (opt.trace) {
    std::map<std::string, double>& L = res.layers;
    L["setup.registry_ns"] = registry_ns;
    L["setup.server_start_ns"] = server_start_ns;

    // Counters through the protocol's own `stats` op.
    service::Client stats_client;
    stats_client.connect_to(server.port());
    const Json stats = stats_client.call("stats", Json::object());
    stats_client.close();
    const Json* payload = stats.get("payload");
    const Json* metrics =
        payload != nullptr ? payload->get("metrics") : nullptr;
    const Json* counters =
        metrics != nullptr ? metrics->get("counters") : nullptr;
    if (counters == nullptr) ++res.failed;
    const auto counter = [&](const char* name) {
      const Json* v = counters != nullptr ? counters->get(name) : nullptr;
      return v != nullptr ? v->as_f64() : 0.0;
    };
    const double requests = counter("serve.requests");
    L["service.busy"] = counter("serve.busy");
    L["service.errors"] = counter("serve.errors");
    L["service.coalesced_share"] =
        requests > 0 ? counter("serve.coalesced") / requests : 0.0;
    // Session threads of closed connections are never joined before
    // stop(): they have exited, but their stacks stay mapped.
    L["service.threads"] = thread_count();
    L["service.vm_size_mb"] = vm_size_mb();

    std::vector<double> client_ns;
    for (const OpSample& o : res.ops) client_ns.push_back(o.latency_ns);
    // Server-side latency (enqueue to response written) as the server
    // records it, merged over the three workload ops.
    telemetry::Histogram server_h;
    for (const char* op : {"kp", "ecdh", "ecdsa"}) {
      server_h.merge(server.metrics().histogram_copy(
          std::string("serve.") + op + ".latency_ns"));
    }

    // Stages re-measured from outside on the same bodies: encode (client
    // request, server payload + response), parse (server request,
    // client response), and the direct replay on the server's engine.
    constexpr int kReps = 15;
    double encode = 0, parse = 0, exec = 0;
    ArmvmTally armvm_tally;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::vector<double> enc, par, ex;
      for (int r = 0; r < kReps; ++r) {
        Clock::time_point a = Clock::now();
        const std::string req =
            service::wire::make_request(1, specs[i].transaction,
                                        workload_params(specs[i]))
                .dump();
        const std::string resp =
            service::wire::make_response(
                1, specs[i].transaction,
                service::workload_payload(specs[i], 1, direct[i], cfg.engine,
                                          cfg.mem_model))
                .dump();
        enc.push_back(static_cast<double>(ns_since(a)));
        a = Clock::now();
        const service::wire::RequestParse p =
            service::wire::parse_request(Json::parse(req));
        const Json back = Json::parse(resp);
        par.push_back(static_cast<double>(ns_since(a)));
        if (!p.ok || back.get("payload") == nullptr) ++res.failed;
      }
      for (int r = 0; r < 3; ++r) {
        const Clock::time_point a = Clock::now();
        const workloads::ReplayResult rr =
            workloads::replay(specs[i], images[i], cfg.engine, cfg.mem_model);
        ex.push_back(static_cast<double>(ns_since(a)));
        armvm_tally.add(rr.stats, rr.fused_retired, ex.back());
      }
      encode += median(enc) / static_cast<double>(specs.size());
      parse += median(par) / static_cast<double>(specs.size());
      exec += median(ex) / static_cast<double>(specs.size());
      L["workloads.replay." + specs[i].name + ".host_ns"] = median(ex);
    }
    armvm_tally.report(L);

    const double client_p50 = median(client_ns);
    const double server_p50 = hist_quantile(server_h, 0.5);
    L["service.client_ns.p50"] = client_p50;
    L["service.client_ns.p99"] = quantile(client_ns, 0.99);
    L["service.server_ns.p50"] = server_p50;
    L["service.server_ns.p99"] = hist_quantile(server_h, 0.99);
    L["service.exec_ns"] = exec;
    L["service.encode_ns"] = encode;
    L["service.parse_ns"] = parse;
    const double attributed = encode + parse + server_p50;
    L["service.unattributed_share"] =
        client_p50 > 0 ? std::max(0.0, 1.0 - attributed / client_p50) : 0.0;
    std::fprintf(stderr,
                 "serve ledger (serve_mixed, p50 per request, ns): client "
                 "%.0f = encode %.0f + parse %.0f + server %.0f [of which "
                 "direct exec %.0f] + unattributed %.0f (%.1f%%)\n",
                 client_p50, encode, parse, server_p50, exec,
                 client_p50 - attributed,
                 100.0 * L["service.unattributed_share"]);

    if (!asmkernels_layer(L, kernels_of(specs), cfg.engine, 10)) ++res.failed;
    if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
  }
  return res;
}

}  // namespace perfbench
