// The serve census: an in-process serve::Server on loopback with
// ServerConfig defaults (2 workers). Two client threads each hold one
// connection and one tenant session (L=6, R=1, G=1), submit and compile
// the same 8-qubit, 24-symbol ansatz once, then make closed-loop run
// requests with values from (seed, client, i). Each request's codec and
// network legs are spans; the server's side of the codec and an
// in-process Session::run of the same request are timed after it on the
// same thread, and the reply must be bit-identical to that run. It gives
// the serve layer's per-layer metrics; sweep-gradient's traced runs take
// it, since variational clients are who the server serves.
//
// The round trip is not an end-to-end metric of the benchmark: on a
// shared 4-core host a sub-millisecond round trip through three thread
// wake-ups is at the mercy of the host's scheduler. Over ten runs of the
// same code, the middle half spread its p50 by a sixth of the median and
// its throughput by a fifth, even taken as medians over one-second
// slices of each run, and its p90 by a quarter in pooled form.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "harness.h"
#include "qasm/qasm.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

using namespace atlas;

namespace {

constexpr int kClients = 2;
constexpr int kQubits = 8;
constexpr int kSymbols = 24;
constexpr double kPi = 3.14159265358979323846;
/// Requests per client: enough for a steady p50 round trip, short next
/// to the sweep-gradient window.
constexpr std::size_t kRequests = 4000;

/// One ry layer, then 2 x {cx chain, rz layer}; symbols a00..a23.
std::string ansatz_qasm() {
  std::string s = "OPENQASM 3;\ninclude \"qelib1.inc\";\n";
  for (int k = 0; k < kSymbols; ++k) {
    char decl[32];
    std::snprintf(decl, sizeof decl, "input float a%02d;\n", k);
    s += decl;
  }
  s += "qreg q[8];\n";
  int k = 0;
  char line[48];
  for (int q = 0; q < kQubits; ++q) {
    std::snprintf(line, sizeof line, "ry(a%02d) q[%d];\n", k++, q);
    s += line;
  }
  for (int rep = 0; rep < 2; ++rep) {
    for (int q = 0; q + 1 < kQubits; ++q) {
      std::snprintf(line, sizeof line, "cx q[%d],q[%d];\n", q, q + 1);
      s += line;
    }
    for (int q = 0; q < kQubits; ++q) {
      std::snprintf(line, sizeof line, "rz(a%02d) q[%d];\n", k++, q);
      s += line;
    }
  }
  return s;
}

serve::OpenSessionRequest tenant_request(int client) {
  serve::OpenSessionRequest open;
  open.tenant = "tenant-" + std::to_string(client);
  open.local_qubits = 6;
  open.regional_qubits = 1;
  open.global_qubits = 1;
  open.gpus_per_node = 2;
  return open;
}

/// The session a tenant gets: the server's base config with the
/// tenant's shape.
SessionConfig tenant_config() {
  SessionConfig cfg = serve::ServerConfig().session;
  cfg.cluster.local_qubits = 6;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  return cfg;
}

std::vector<double> request_values(std::uint64_t seed, int client,
                                   std::size_t i) {
  std::mt19937_64 rng(mix_seed(mix_seed(seed, static_cast<std::uint64_t>(client)), i));
  std::uniform_real_distribution<double> angle(-kPi, kPi);
  std::vector<double> v(kSymbols);
  for (double& x : v) x = angle(rng);
  return v;
}

std::uint64_t reply_digest(std::uint64_t seed, double norm,
                           const std::vector<double>& z) {
  std::uint64_t h = fnv_bytes(&seed, sizeof seed);
  h = fnv_bytes(&norm, sizeof norm, h);
  return fnv_bytes(z.data(), z.size() * sizeof(double), h);
}

/// What do_run replies with, computed in process.
std::uint64_t inproc_digest(const Session& session, const CompiledCircuit& cc,
                            const std::vector<double>& values) {
  const SimulationResult r = session.run(cc, values);
  std::vector<double> z(kQubits);
  for (int q = 0; q < kQubits; ++q) z[q] = r.expectation_z(q);
  return reply_digest(r.seed, r.norm_sq(), z);
}

struct Tenant {
  std::unique_ptr<serve::Client> client;
  std::uint64_t session_id = 0;
  std::uint32_t compiled_id = 0;
};

struct Deployment {
  std::unique_ptr<serve::Server> server;
  std::vector<Tenant> tenants;
};

Deployment deploy(const std::string& qasm) {
  Deployment d;
  serve::ServerConfig cfg;
  cfg.port = 0;
  d.server = std::make_unique<serve::Server>(cfg);
  d.server->start();
  for (int c = 0; c < kClients; ++c) {
    Tenant t;
    t.client = std::make_unique<serve::Client>("127.0.0.1", d.server->port());
    t.session_id = t.client->open_session(tenant_request(c));
    const serve::SubmitReply sub = t.client->submit_qasm(t.session_id, qasm);
    t.compiled_id = t.client->compile(t.session_id, sub.circuit_id).compiled_id;
    d.tenants.push_back(std::move(t));
  }
  return d;
}

const serve::MetricEntry* find_metric(const serve::MetricsReply& m,
                                      const std::string& name) {
  for (const serve::MetricEntry& e : m.metrics)
    if (e.name == name) return &e;
  return nullptr;
}

double counter(const serve::MetricsReply& m, const std::string& name) {
  const serve::MetricEntry* e = find_metric(m, name);
  return e == nullptr ? 0 : static_cast<double>(e->count);
}

}  // namespace

void serve_census(const Options& options, Outcome& out) {
  const std::string qasm = ansatz_qasm();
  const Deployment dep = deploy(qasm);
  const qasm::NoisyParse parsed = qasm::parse_with_noise(qasm);
  const serve::MetricsReply before = dep.tenants[0].client->metrics();

  SpanLog log;
  const std::size_t requests =
      options.max_ops > 0 ? static_cast<std::size_t>(options.max_ops) : kRequests;
  std::vector<std::int64_t> bad(kClients, 0);
  std::vector<std::string> errors(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        const Tenant& t = dep.tenants[static_cast<std::size_t>(c)];
        Session local(tenant_config());
        const CompiledCircuit cc = local.compile(parsed.circuit);
        for (std::size_t i = 0; i < requests; ++i) {
          const std::vector<double> values = request_values(options.seed, c, i);
          const int op = static_cast<int>(i) * kClients + c;
          std::vector<std::uint8_t> body, reply;
          serve::RunReply r;
          try {
            Scoped root(log, "serve.request", -1, op);
            int span = log.begin("serve.encode", root.id(), op);
            serve::WireWriter w;
            w.u32(t.compiled_id);
            w.u32(static_cast<std::uint32_t>(values.size()));
            for (double v : values) w.f64(v);
            body = w.take();
            log.end(span);
            span = log.begin("serve.net", root.id(), op);
            const std::uint64_t rid =
                t.client->post(serve::Op::run, t.session_id, body);
            reply = t.client->wait(rid);
            log.end(span);
            span = log.begin("serve.decode", root.id(), op);
            serve::WireReader rd(reply);
            r = serve::RunReply::decode(rd);
            log.end(span);
          } catch (const std::exception& e) {
            ++bad[static_cast<std::size_t>(c)];
            if (errors[static_cast<std::size_t>(c)].empty())
              errors[static_cast<std::size_t>(c)] = e.what();
            continue;
          }
          bool ok = true;
          {
            Scoped span(log, "serve.server_codec", -1, op);
            serve::WireReader rd(body);
            const std::uint32_t id = rd.u32();
            std::vector<double> decoded(rd.u32());
            for (double& v : decoded) v = rd.f64();
            serve::WireWriter w;
            r.encode(w);
            ok = id == t.compiled_id && decoded == values && w.bytes() == reply;
          }
          std::uint64_t want = 0;
          {
            Scoped span(log, "serve.inproc", -1, op);
            want = inproc_digest(local, cc, values);
          }
          if (!ok || want != reply_digest(r.seed, r.norm_sq, r.expectation_z))
            ++bad[static_cast<std::size_t>(c)];
        }
      });
    for (auto& th : threads) th.join();
  }
  out.attempted += static_cast<std::int64_t>(requests) * kClients;
  for (int c = 0; c < kClients; ++c) {
    const std::size_t k = static_cast<std::size_t>(c);
    if (!errors[k].empty()) out.check_failed("serve request failed: " + errors[k]);
    if (bad[k] > 0) {
      out.check_failed(std::to_string(bad[k]) + " serve requests of client " +
                       std::to_string(c) +
                       " failed or differ from the in-process run");
      out.failed += bad[k];
    }
  }

  const serve::MetricsReply after = dep.tenants[0].client->metrics();
  std::vector<double> round_trip_us;
  for (const Span& s : log.spans())
    if (std::string(s.name) == "serve.request")
      round_trip_us.push_back(static_cast<double>(s.end - s.start) / 1e3);
  const double n = static_cast<double>(round_trip_us.size());
  const double inproc_us = log.total_ms("serve.inproc") * 1e3 / n;
  const double codec_us = (log.total_ms("serve.encode") +
                           log.total_ms("serve.decode") +
                           log.total_ms("serve.server_codec")) *
                          1e3 / n;
  out.set("serve.inproc_us", inproc_us, "us");
  out.set("serve.codec_us", codec_us, "us");
  out.set("serve.gap_us", quantile(round_trip_us, 0.5) - inproc_us - codec_us,
          "us");
  const serve::MetricEntry* wait = find_metric(after, "serve.queue_wait_us");
  out.set("serve.queue_wait_us_p50", wait ? wait->p50 : 0, "us");
  double server_p50 = 0;
  for (int c = 0; c < kClients; ++c) {
    const serve::MetricEntry* e = find_metric(
        after, "serve.request_latency_us.tenant-" + std::to_string(c));
    server_p50 += e ? e->p50 / kClients : 0;
  }
  out.set("serve.server_latency_us_p50", server_p50, "us");
  // Byte counters over the census's run requests, less the frames of
  // the two snapshots: the first snapshot's reply is counted after it
  // was taken, the second's request before.
  serve::WireWriter before_body;
  before.encode(before_body);
  const double snapshot_frames =
      static_cast<double>(4 + 10 + before_body.bytes().size()) + (4 + 18);
  const double bytes = counter(after, "serve.bytes_in") +
                       counter(after, "serve.bytes_out") -
                       counter(before, "serve.bytes_in") -
                       counter(before, "serve.bytes_out") - snapshot_frames;
  out.set("serve.bytes_per_req", bytes / n, "B");
  out.set("serve.refused",
          counter(after, "serve.admission.refused") -
              counter(before, "serve.admission.refused"),
          "count");
  write_spans(options, "serve-census", log, out);
}

}  // namespace perfbench
