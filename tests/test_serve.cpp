// End-to-end tests for the serving daemon: protocol round-trips over
// real loopback sockets, bit-identity against an in-process Session,
// store lifecycle (TTL purge, eviction, capacity admission), fair
// scheduling across tenants, cross-tenant plan sharing, drain
// semantics, and malformed-frame robustness.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cmath>
#include <fcntl.h>
#include <memory>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "core/atlas.h"
#include "qasm/qasm.h"
#include "serve/client.h"
#include "serve/server.h"

namespace atlas::serve {
namespace {

/// The shape every test daemon serves (and the in-process reference
/// uses): 2^6 amplitudes per shard, 2 shards per node, 2 nodes.
SessionConfig test_session_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 6;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  cfg.cluster.num_threads = 1;
  cfg.dispatch_threads = 1;
  return cfg;
}

ServerConfig test_server_config() {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 2;
  cfg.session = test_session_config();
  return cfg;
}

/// An 8-qubit parameterized test circuit as QASM (one free symbol).
std::string ansatz_qasm() {
  return "OPENQASM 3;\n"
         "include \"qelib1.inc\";\n"
         "input float theta;\n"
         "qreg q[8];\n"
         "h q[0];\n"
         "cx q[0],q[1];\n"
         "cx q[1],q[2];\n"
         "rx(theta) q[3];\n"
         "rz(theta) q[4];\n"
         "cx q[3],q[4];\n"
         "cx q[4],q[5];\n"
         "h q[6];\n"
         "cx q[6],q[7];\n";
}

std::string concrete_qasm() {
  return "OPENQASM 2.0;\n"
         "include \"qelib1.inc\";\n"
         "qreg q[8];\n"
         "h q[0];\n"
         "cx q[0],q[1];\n"
         "t q[1];\n"
         "cx q[1],q[2];\n"
         "rx(0.7) q[3];\n"
         "cx q[2],q[3];\n";
}

/// A dispatcher item that holds the worker running it until the test
/// opens the gate, so tests order work without relying on timing.
/// Single use; the destructor opens it, so a failed check cannot wedge
/// the server's drain. The item shares the gate's state, so it may run
/// after the WorkerGate is gone.
class WorkerGate {
 public:
  WorkerGate() = default;
  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;
  ~WorkerGate() { open(); }

  /// Queues the gate item under its own tenant.
  void enqueue(Dispatcher& dispatcher) {
    dispatcher.enqueue_internal("gate", [s = state_] {
      std::unique_lock<std::mutex> lock(s->mu);
      s->running = true;
      s->cv.notify_all();
      s->cv.wait(lock, [&] { return s->open; });
    });
  }
  /// Blocks until a worker holds the gate.
  void wait_running() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->running; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->open = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool running = false;
    bool open = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Polls until `tenant` has at least `n` items queued at the dispatcher.
void wait_queued(Server& server, const std::string& tenant, std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.dispatcher().queued(tenant) < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << tenant << " never had " << n << " items queued";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- end-to-end round trip vs in-process ------------------------------

TEST(Serve, RunIsBitIdenticalToInProcessSession) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, ansatz_qasm());
  EXPECT_EQ(submitted.num_qubits, 8u);
  ASSERT_EQ(submitted.symbols, std::vector<std::string>{"theta"});

  const CompileReply compiled = client.compile(sid, submitted.circuit_id);
  EXPECT_FALSE(compiled.shared_cache_hit);  // first compile anywhere
  const std::vector<double> values = {0.37};
  const RunReply remote = client.run(sid, compiled.compiled_id, values);

  // The reference: an in-process Session with the daemon's exact
  // session config, fed the same QASM.
  const Session local(test_session_config());
  const CompiledCircuit cc = local.compile(qasm::parse(ansatz_qasm()));
  const SimulationResult reference = local.run(cc, values);

  // Bit-identical, not approximately-equal: same plan, same seed
  // derivation, same kernels — the wire carries exact doubles.
  EXPECT_EQ(remote.seed, reference.seed);
  EXPECT_EQ(remote.norm_sq, reference.norm_sq());
  ASSERT_EQ(remote.expectation_z.size(), 8u);
  for (int q = 0; q < 8; ++q) {
    EXPECT_EQ(remote.expectation_z[static_cast<std::size_t>(q)],
              reference.expectation_z(q))
        << "qubit " << q;
  }

  // sample() draws the result's own deterministic counter-based
  // streams on both sides: full sequences match across two calls.
  const auto remote_shots1 = client.sample(sid, remote.result_id, 32);
  const auto remote_shots2 = client.sample(sid, remote.result_id, 32);
  const auto local_shots1 = reference.sample(32);
  const auto local_shots2 = reference.sample(32);
  ASSERT_EQ(remote_shots1.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(remote_shots1[i], static_cast<std::uint64_t>(local_shots1[i]));
    EXPECT_EQ(remote_shots2[i], static_cast<std::uint64_t>(local_shots2[i]));
  }

  server.stop();
}

TEST(Serve, SweepMatchesInProcessSweep) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, ansatz_qasm());
  const CompileReply compiled = client.compile(sid, submitted.circuit_id);

  std::vector<std::vector<double>> points;
  for (int i = 0; i < 7; ++i) points.push_back({0.1 + 0.4 * i});
  const auto remote = client.sweep(sid, compiled.compiled_id, points);

  const Session local(test_session_config());
  const CompiledCircuit cc = local.compile(qasm::parse(ansatz_qasm()));
  const auto reference = local.sweep(cc, points);

  ASSERT_EQ(remote.size(), 7u);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].norm_sq, reference[i].norm_sq());
    for (int q = 0; q < 8; ++q) {
      EXPECT_EQ(remote[i].expectation_z[static_cast<std::size_t>(q)],
                reference[i].expectation_z(q))
          << "point " << i << " qubit " << q;
    }
  }
  server.stop();
}

TEST(Serve, RunNoisyMatchesInProcess) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  const std::string noisy_qasm =
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[8];\n"
      "h q[0];\n"
      "cx q[0],q[1];\n"
      "cx q[1],q[2];\n"
      "#pragma atlas noise bit_flip(0.05) all\n";

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, noisy_qasm);
  EXPECT_TRUE(submitted.has_noise);
  const NoisyReply remote =
      client.run_noisy(sid, submitted.circuit_id, /*trajectories=*/64,
                       /*shots=*/16);

  const Session local(test_session_config());
  const qasm::NoisyParse parsed = qasm::parse_with_noise(noisy_qasm);
  noise::NoisyRunOptions options;
  options.trajectories = 64;
  options.shots = 16;
  const noise::NoisyResult reference =
      local.run_noisy(parsed.circuit, parsed.noise, options);

  EXPECT_EQ(remote.trajectories, reference.trajectories());
  EXPECT_EQ(remote.pauli_fast_path, reference.pauli_fast_path());
  EXPECT_EQ(remote.mean_weight, reference.mean_weight());
  for (int q = 0; q < 8; ++q) {
    EXPECT_EQ(remote.z_value[static_cast<std::size_t>(q)],
              reference.expectation_z(q).value);
  }
  // Counts round-trip exactly (same seed derivation both sides).
  ASSERT_EQ(remote.counts.size(), reference.counts().size());
  auto it = reference.counts().begin();
  for (const auto& [basis, weight] : remote.counts) {
    EXPECT_EQ(basis, static_cast<std::uint64_t>(it->first));
    EXPECT_EQ(weight, it->second);
    ++it;
  }
  server.stop();
}

// --- session lifecycle: TTL purge, eviction, capacity ------------------

TEST(Serve, ExpiredSessionsArePurgedAndStoreShrinks) {
  ServerConfig cfg = test_server_config();
  cfg.store.purge_interval = std::chrono::milliseconds(20);
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "ephemeral";
  open.ttl_ms = 50;  // expire almost immediately
  const std::uint64_t sid = client.open_session(open);
  EXPECT_EQ(server.store().size(), 1u);

  // The purge thread must observably shrink the store without any
  // client action.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.store().size() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.store().size(), 0u);
  EXPECT_GE(server.store().purged_total(), 1u);

  // Using the purged session now reports not_found.
  try {
    client.submit_qasm(sid, concrete_qasm());
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::not_found);
  }
  server.stop();
}

TEST(Serve, StoreCapacityRefusesThenEvictionAdmits) {
  ServerConfig cfg = test_server_config();
  cfg.store.max_sessions = 2;
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "a";
  const std::uint64_t s1 = client.open_session(open);
  open.tenant = "b";
  client.open_session(open);

  // Store full: the third open is refused with the capacity code.
  open.tenant = "c";
  try {
    client.open_session(open);
    FAIL() << "expected capacity";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::capacity);
  }

  // Operator eviction frees a slot; the same open now succeeds.
  client.evict_session(s1);
  EXPECT_EQ(server.store().size(), 1u);
  const std::uint64_t s3 = client.open_session(open);
  EXPECT_NE(s3, 0u);

  // The evicted session is gone.
  try {
    client.submit_qasm(s1, concrete_qasm());
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::not_found);
  }
  server.stop();
}

TEST(Serve, PerTenantAdmissionBoundRejectsWithCapacity) {
  ServerConfig cfg = test_server_config();
  cfg.workers = 1;
  cfg.max_pending_per_tenant = 1;
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "greedy";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, ansatz_qasm());
  const CompileReply compiled = client.compile(sid, submitted.circuit_id);

  // Fill the single admission slot with a slow sweep, then pipeline a
  // second request while the first is still in flight. On a loaded
  // single-core host the whole sweep can occasionally finish before
  // the reader thread sees the run frame (both requests then succeed,
  // which is correct but uncontended), so retry until the bound is
  // actually exercised.
  constexpr int kPoints = 256;
  WireWriter sweep_body;
  sweep_body.u32(compiled.compiled_id);
  sweep_body.u32(kPoints);
  sweep_body.u32(1);
  for (int i = 0; i < kPoints; ++i) sweep_body.f64(0.003 * i);
  WireWriter run_body;
  run_body.u32(compiled.compiled_id);
  run_body.u32(1);
  run_body.f64(0.5);

  bool saw_capacity = false;
  for (int attempt = 0; attempt < 10 && !saw_capacity; ++attempt) {
    const std::uint64_t sweep_req =
        client.post(Op::sweep, sid, sweep_body.bytes());
    const std::uint64_t run_req =
        client.post(Op::run, sid, run_body.bytes());
    std::string message;
    const Status run_status =
        client.wait_status(run_req, nullptr, &message);
    EXPECT_EQ(client.wait_status(sweep_req), Status::ok);
    if (run_status == Status::capacity) {
      saw_capacity = true;
    } else {
      // Uncontended fallthrough: the run must then have succeeded.
      EXPECT_EQ(run_status, Status::ok) << message;
    }
  }
  EXPECT_TRUE(saw_capacity)
      << "run was never refused while the sweep held the only slot";
  server.stop();
}

TEST(Serve, RefusedRequestsDoNotFreeAnotherRequestsSlot) {
  // Regression: a capacity refusal used to call request_done() on the
  // tenant anyway, decrementing the slot held by the *admitted*
  // request — so each refusal admitted the next pipelined request and
  // the bound leaked away under exactly the pressure it exists for.
  // Refusals must leave admission accounting untouched: while `holder`
  // holds the only slot, every follow-up run is refused.
  //
  // The slot holder does not depend on timing: an internal item gates
  // the only worker until the test opens it, so `holder` stays queued
  // (in flight) until every follow-up has been handled.
  ServerConfig cfg = test_server_config();
  cfg.workers = 1;
  cfg.max_pending_per_tenant = 1;
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "greedy";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, ansatz_qasm());
  const CompileReply compiled = client.compile(sid, submitted.circuit_id);

  WorkerGate gate;
  gate.enqueue(server.dispatcher());
  gate.wait_running();

  WireWriter run_body;
  run_body.u32(compiled.compiled_id);
  run_body.u32(1);
  run_body.f64(0.5);
  const std::uint64_t holder = client.post(Op::run, sid, run_body.bytes());
  const std::uint64_t first = client.post(Op::run, sid, run_body.bytes());
  const std::uint64_t second = client.post(Op::run, sid, run_body.bytes());
  const std::uint64_t third = client.post(Op::run, sid, run_body.bytes());
  // The reader handles frames in order and answers refusals itself, so
  // once `third` is answered, `first` and `second` have been handled
  // too — all while `holder` was queued behind the gate. (With the leak,
  // refusing `first` freed the holder's slot and `second` was admitted;
  // it then waits behind the gate, so `third` is the one to wait on.)
  const Status s3 = client.wait_status(third);
  const Status s1 = client.wait_status(first);
  gate.open();
  const Status s2 = client.wait_status(second);
  EXPECT_EQ(s1, Status::capacity);
  EXPECT_EQ(s2, Status::capacity);
  EXPECT_EQ(s3, Status::capacity);
  EXPECT_EQ(client.wait_status(holder), Status::ok);
  server.stop();
}

TEST(Serve, DispatcherRunsTicketInlineWhenPoolIsDraining) {
  // Regression: enqueue_internal() racing a stop() used to queue the
  // item and bump items_outstanding_, then lose its pool ticket to the
  // submit() throw — a later drain() waited forever on an item no
  // worker would ever claim. The ticket now runs inline instead.
  Dispatcher d(1, 0);
  d.stop();  // pool drained: submit() throws from here on
  bool ran = false;
  d.enqueue_internal("tenant", [&] { ran = true; });
  EXPECT_TRUE(ran);
  d.drain();  // must return immediately rather than wedge
}

TEST(Serve, WriteAllTimesOutWhenPeerStopsReading) {
  // A peer that accepts the connection but never reads must not park
  // the writer forever — the deadline turns a wedged send_reply into a
  // dead-connection verdict.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Fd writer(fds[0]);
  Fd reader(fds[1]);
  const int small = 4096;
  ::setsockopt(writer.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(reader.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const int flags = ::fcntl(writer.get(), F_GETFL, 0);
  ASSERT_EQ(::fcntl(writer.get(), F_SETFL, flags | O_NONBLOCK), 0);

  const std::vector<std::uint8_t> big(4u << 20, 0xab);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(write_all(writer.get(), big.data(), big.size(), 100));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.05);  // actually parked for the deadline...
  EXPECT_LT(elapsed, 5.0);   // ...but nowhere near forever
}

// --- fairness ----------------------------------------------------------

TEST(Serve, RoundRobinKeepsSmallTenantAheadOfBigSweep) {
  // One worker: with FIFO scheduling, bob's single run would wait for
  // the whole 400-point sweep alice enqueued first. Round-robin across
  // tenant queues admits bob's run after at most one in-progress point.
  //
  // Gates order the work instead of timing: the sweep fans its points
  // out, and only then does bob post; after bob's run a gate holds the
  // worker, so alice's remaining points stay queued until bob has
  // looked at them.
  ServerConfig cfg = test_server_config();
  cfg.workers = 1;
  Server server(cfg);
  server.start();

  Client alice("127.0.0.1", server.port());
  Client bob("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sa = alice.open_session(open);
  open.tenant = "bob";
  const std::uint64_t sb = bob.open_session(open);

  const SubmitReply sub_a = alice.submit_qasm(sa, ansatz_qasm());
  const CompileReply cc_a = alice.compile(sa, sub_a.circuit_id);
  const SubmitReply sub_b = bob.submit_qasm(sb, ansatz_qasm());
  const CompileReply cc_b = bob.compile(sb, sub_b.circuit_id);

  constexpr int kPoints = 400;
  WireWriter sweep_body;
  sweep_body.u32(cc_a.compiled_id);
  sweep_body.u32(kPoints);
  sweep_body.u32(1);
  for (int i = 0; i < kPoints; ++i) sweep_body.f64(0.002 * i);

  // Hold the worker while the sweep is admitted, queue a second gate
  // behind it, then let the worker fan the sweep out into its points
  // and stop at the second gate.
  WorkerGate before_fan_out, after_fan_out, after_bob;
  before_fan_out.enqueue(server.dispatcher());
  before_fan_out.wait_running();
  const std::uint64_t sweep_req =
      alice.post(Op::sweep, sa, sweep_body.bytes());
  wait_queued(server, "alice", 1);
  after_fan_out.enqueue(server.dispatcher());
  before_fan_out.open();
  after_fan_out.wait_running();
  ASSERT_EQ(server.dispatcher().queued("alice"),
            static_cast<std::size_t>(kPoints));

  // Bob's run joins the ring behind alice's points; a third gate joins
  // behind bob. Round-robin serves one alice point, then bob, then
  // stops at the gate.
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t run_req =
      bob.post(Op::run, sb, [&] {
        WireWriter w;
        w.u32(cc_b.compiled_id);
        w.u32(1);
        w.f64(0.5);
        return w.bytes();
      }());
  wait_queued(server, "bob", 1);
  after_bob.enqueue(server.dispatcher());
  after_fan_out.open();
  std::vector<std::uint8_t> run_body;
  ASSERT_EQ(bob.wait_status(run_req, &run_body), Status::ok);
  const auto bob_done = std::chrono::steady_clock::now();
  WireReader run_reader(run_body);
  const RunReply run_b = RunReply::decode(run_reader);
  EXPECT_GT(run_b.norm_sq, 0.9);

  // Completion-order assertion: when bob's run completed, alice's sweep
  // still had points queued — bob did not wait for the sweep to finish.
  const std::size_t alice_queued_at_bob_done =
      server.dispatcher().queued("alice");
  EXPECT_GT(alice_queued_at_bob_done, 0u)
      << "bob's run should complete while alice's sweep is still queued";

  after_bob.open();
  EXPECT_EQ(alice.wait_status(sweep_req), Status::ok);
  const auto sweep_done = std::chrono::steady_clock::now();
  EXPECT_LT(bob_done - t0, sweep_done - t0);
  server.stop();
}

// --- cross-tenant plan sharing ----------------------------------------

TEST(Serve, TwoTenantsSameCircuitShareOnePlan) {
  Server server(test_server_config());
  server.start();

  Client alice("127.0.0.1", server.port());
  Client bob("127.0.0.1", server.port());
  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sa = alice.open_session(open);
  open.tenant = "bob";
  const std::uint64_t sb = bob.open_session(open);

  const CompileReply cc_a =
      alice.compile(sa, alice.submit_qasm(sa, ansatz_qasm()).circuit_id);
  EXPECT_FALSE(cc_a.shared_cache_hit);
  const CompileReply cc_b =
      bob.compile(sb, bob.submit_qasm(sb, ansatz_qasm()).circuit_id);
  EXPECT_TRUE(cc_b.shared_cache_hit);

  // Exactly one miss (alice's cold compile), one hit (bob's), one
  // resident plan — surfaced through the cache_stats op.
  const CacheStatsReply stats = alice.cache_stats();
  EXPECT_EQ(stats.shared_misses, 1u);
  EXPECT_EQ(stats.shared_hits, 1u);
  EXPECT_EQ(stats.shared_entries, 1u);
  EXPECT_GT(stats.shared_resident_bytes, 0u);

  // And both tenants' runs against the shared plan agree exactly.
  const RunReply run_a = alice.run(sa, cc_a.compiled_id, {0.25});
  const RunReply run_b = bob.run(sb, cc_b.compiled_id, {0.25});
  EXPECT_EQ(run_a.norm_sq, run_b.norm_sq);
  EXPECT_EQ(run_a.expectation_z, run_b.expectation_z);
  server.stop();
}

// --- drain -------------------------------------------------------------

TEST(Serve, DrainFinishesInFlightAndRefusesNew) {
  ServerConfig cfg = test_server_config();
  cfg.workers = 1;
  Server server(cfg);
  server.start();

  Client worker("127.0.0.1", server.port());
  Client control("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = worker.open_session(open);
  const CompileReply compiled =
      worker.compile(sid, worker.submit_qasm(sid, ansatz_qasm()).circuit_id);

  // A sweep in flight when drain starts — large enough that the admit
  // poll below can observe it before the worker finishes it.
  constexpr int kPoints = 400;
  WireWriter sweep_body;
  sweep_body.u32(compiled.compiled_id);
  sweep_body.u32(kPoints);
  sweep_body.u32(1);
  for (int i = 0; i < kPoints; ++i) sweep_body.f64(0.05 * i);
  const std::uint64_t sweep_req =
      worker.post(Op::sweep, sid, sweep_body.bytes());

  // Wait until the sweep is observably admitted — drain racing the
  // reader thread would otherwise refuse it before it ever queued.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::uint32_t inflight = 0;
    for (const auto& info : control.list_sessions()) {
      if (info.tenant == "alice") inflight = info.active + info.queued;
    }
    if (inflight > 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), admit_deadline)
        << "sweep never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...drain blocks until that sweep (all its points) completed.
  control.drain();
  EXPECT_TRUE(server.draining());

  // The in-flight sweep finished and its reply is waiting for us.
  std::vector<std::uint8_t> body;
  ASSERT_EQ(worker.wait_status(sweep_req, &body), Status::ok);
  WireReader r(body);
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(kPoints));

  // New data-plane work — runs and opens alike — is refused with
  // `unavailable`; introspection still answers.
  std::string message;
  WireWriter run_body;
  run_body.u32(compiled.compiled_id);
  run_body.u32(1);
  run_body.f64(0.5);
  EXPECT_EQ(worker.wait_status(
                worker.post(Op::run, sid, run_body.bytes()), nullptr,
                &message),
            Status::unavailable)
      << message;
  try {
    OpenSessionRequest late;
    late.tenant = "late";
    control.open_session(late);
    FAIL() << "expected unavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::unavailable);
  }
  EXPECT_EQ(control.cache_stats().sessions, 1u);
  server.stop();
}

// --- malformed input ---------------------------------------------------

TEST(Serve, UnknownOpIsRejectedWithoutKillingConnection) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  WireWriter w;
  w.u64(77);    // request id
  w.u16(999);   // bogus op
  w.u64(0);     // session id
  ASSERT_TRUE(client.send_raw_frame(w.bytes()));
  std::string message;
  EXPECT_EQ(client.wait_status(77, nullptr, &message),
            Status::invalid_argument);
  EXPECT_NE(message.find("unknown op"), std::string::npos);

  // Same connection still works.
  OpenSessionRequest open;
  open.tenant = "alive";
  EXPECT_NE(client.open_session(open), 0u);
  server.stop();
}

TEST(Serve, TruncatedBodyYieldsInvalidArgumentNotCrash) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);

  // A run op against a live session whose body claims one value but
  // carries none: the bounds-checked reader rejects it as
  // invalid_argument instead of reading past the frame.
  WireWriter w;
  w.u64(5);
  w.u16(static_cast<std::uint16_t>(Op::run));
  w.u64(sid);
  w.u32(1);  // compiled_id
  w.u32(1);  // "one value follows" — but the frame ends here
  ASSERT_TRUE(client.send_raw_frame(w.bytes()));
  std::string message;
  EXPECT_EQ(client.wait_status(5, nullptr, &message),
            Status::invalid_argument);
  EXPECT_NE(message.find("truncated frame"), std::string::npos);

  // The same connection still serves well-formed requests.
  EXPECT_EQ(client.list_sessions().size(), 1u);

  // Daemon alive: a fresh connection round-trips too.
  Client again("127.0.0.1", server.port());
  open.tenant = "alive";
  EXPECT_NE(again.open_session(open), 0u);
  server.stop();
}

TEST(Serve, ShortHeaderDropsConnectionButDaemonSurvives) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  WireWriter w;
  w.u32(0xdeadbeef);  // 4 bytes: not even a request id
  ASSERT_TRUE(client.send_raw_frame(w.bytes()));
  // The server drops this connection (no request id to reply to).
  EXPECT_THROW(client.wait_status(1), Error);

  Client again("127.0.0.1", server.port());
  OpenSessionRequest open;
  open.tenant = "alive";
  EXPECT_NE(again.open_session(open), 0u);
  server.stop();
}

TEST(Serve, OversizeFrameDropsConnectionButDaemonSurvives) {
  ServerConfig cfg = test_server_config();
  cfg.max_frame_bytes = 1024;
  Server server(cfg);
  server.start();

  // Hand-roll a frame with a hostile length prefix; the server must
  // refuse to allocate and cut the connection.
  Fd fd = tcp_connect("127.0.0.1", server.port());
  const std::uint32_t huge = 512u << 20;
  ASSERT_TRUE(write_all(fd.get(), &huge, sizeof(huge)));
  std::vector<std::uint8_t> reply;
  EXPECT_FALSE(read_frame(fd.get(), reply));  // EOF: dropped

  Client again("127.0.0.1", server.port());
  OpenSessionRequest open;
  open.tenant = "alive";
  EXPECT_NE(again.open_session(open), 0u);
  server.stop();
}

// --- introspection -----------------------------------------------------

TEST(Serve, ListSessionsReportsHandlesAndIdleness) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);
  const SubmitReply submitted = client.submit_qasm(sid, concrete_qasm());
  const CompileReply compiled = client.compile(sid, submitted.circuit_id);
  client.run(sid, compiled.compiled_id);

  const auto sessions = client.list_sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].session_id, sid);
  EXPECT_EQ(sessions[0].tenant, "alice");
  EXPECT_EQ(sessions[0].circuits, 1u);
  EXPECT_EQ(sessions[0].compiled, 1u);
  EXPECT_EQ(sessions[0].results, 1u);
  EXPECT_GE(sessions[0].ttl_seconds, 1.0);
  server.stop();
}

TEST(Serve, ResultFifoIsBoundedOldestEvicted) {
  ServerConfig cfg = test_server_config();
  cfg.store.max_results_per_session = 2;
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "alice";
  const std::uint64_t sid = client.open_session(open);
  const CompileReply compiled =
      client.compile(sid, client.submit_qasm(sid, ansatz_qasm()).circuit_id);
  const RunReply r1 = client.run(sid, compiled.compiled_id, {0.1});
  const RunReply r2 = client.run(sid, compiled.compiled_id, {0.2});
  const RunReply r3 = client.run(sid, compiled.compiled_id, {0.3});
  (void)r2;

  // r1 was evicted by the FIFO bound; r3 still samples.
  try {
    client.sample(sid, r1.result_id, 4);
    FAIL() << "expected not_found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::not_found);
  }
  EXPECT_EQ(client.sample(sid, r3.result_id, 4).size(), 4u);
  server.stop();
}

// --- observability ----------------------------------------------------

TEST(Serve, MetricsOpReportsSortedEntriesAndTenantLatency) {
  Server server(test_server_config());
  server.start();
  Client client("127.0.0.1", server.port());

  OpenSessionRequest open;
  open.tenant = "metrics-tenant";
  const std::uint64_t sid = client.open_session(open);
  const CompileReply compiled =
      client.compile(sid, client.submit_qasm(sid, ansatz_qasm()).circuit_id);
  (void)client.run(sid, compiled.compiled_id, {0.25});

  const MetricsReply reply = client.metrics();
  ASSERT_FALSE(reply.metrics.empty());
  for (std::size_t i = 1; i < reply.metrics.size(); ++i) {
    EXPECT_LT(reply.metrics[i - 1].name, reply.metrics[i].name);
  }

  const auto find = [&](const std::string& name) -> const MetricEntry* {
    for (const auto& m : reply.metrics)
      if (m.name == name) return &m;
    return nullptr;
  };
  // The registry is process-global, so counts are cumulative across
  // every test in this binary — assert presence and lower bounds only.
  const MetricEntry* requests = find("serve.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->kind, 0);  // counter
  EXPECT_GE(requests->count, 4u);  // open+submit+compile+run at least

  const MetricEntry* latency =
      find("serve.request_latency_us.metrics-tenant");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, 2);  // histogram
  EXPECT_GE(latency->count, 4u);
  EXPECT_GT(latency->sum, 0.0);
  EXPECT_GE(latency->p99, latency->p50);

  const MetricEntry* misses = find("core.plan_cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GE(misses->count, 1u);
  server.stop();
}

TEST(Serve, MetricsRoundTripExportsExecRunsOnOffloadingShape) {
  // An offloading shape (8 shards through 1 GPU): "auto" runs the
  // daemon's sessions through the batch-capable stage walk, and its
  // exec.runs counter must rise across a run, as seen over the wire.
  // The shape must total the 8 qubits of the ansatz fixture.
  ServerConfig cfg = test_server_config();
  cfg.session.cluster.local_qubits = 5;
  cfg.session.cluster.regional_qubits = 3;
  cfg.session.cluster.global_qubits = 0;
  cfg.session.cluster.gpus_per_node = 1;
  Server server(cfg);
  server.start();
  Client client("127.0.0.1", server.port());

  // Cumulative process-wide counter: compare before and after.
  const auto exec_runs = [&client]() -> std::uint64_t {
    for (const auto& m : client.metrics().metrics)
      if (m.name == "exec.runs") {
        EXPECT_EQ(m.kind, 0);  // counter
        return m.count;
      }
    return 0;
  };
  OpenSessionRequest open;
  open.tenant = "offload-tenant";
  const std::uint64_t sid = client.open_session(open);
  const CompileReply compiled =
      client.compile(sid, client.submit_qasm(sid, ansatz_qasm()).circuit_id);
  const std::uint64_t before = exec_runs();
  (void)client.run(sid, compiled.compiled_id, {0.42});
  EXPECT_GT(exec_runs(), before);
  server.stop();
}

TEST(Serve, AggregatePlanCacheStatsMatchesDirectSessionWalk) {
  SessionStore store(test_session_config(), StoreLimits{});
  auto alice = store.open("alice", store.base_config(),
                          std::chrono::milliseconds(60000));
  auto bob = store.open("bob", store.base_config(),
                        std::chrono::milliseconds(60000));

  // Cache traffic: alice compiles cold then warm (miss + hit), bob
  // compiles cold (miss) — all routed to the telemetry listener.
  const Circuit circuit =
      qasm::parse_with_noise(ansatz_qasm()).circuit;
  (void)alice->session().compile(circuit);
  (void)alice->session().compile(circuit);
  (void)bob->session().compile(circuit);

  const auto walk = [&store] {
    PlanCacheStats sum;
    for (const auto& s : store.snapshot()) {
      const PlanCacheStats st = s->session().plan_cache_stats();
      sum.hits += st.hits;
      sum.misses += st.misses;
      sum.evictions += st.evictions;
      sum.size += st.size;
      sum.capacity += st.capacity;
      sum.resident_bytes += st.resident_bytes;
    }
    return sum;
  };

  PlanCacheStats counted = store.aggregate_plan_cache_stats();
  PlanCacheStats walked = walk();
  EXPECT_EQ(counted.hits, walked.hits);
  EXPECT_EQ(counted.misses, walked.misses);
  EXPECT_EQ(counted.evictions, walked.evictions);
  EXPECT_EQ(counted.size, walked.size);
  EXPECT_EQ(counted.capacity, walked.capacity);
  EXPECT_EQ(counted.resident_bytes, walked.resident_bytes);
  EXPECT_EQ(counted.hits, 1u);
  EXPECT_EQ(counted.misses, 2u);

  // A departing session's final contribution is subtracted entirely —
  // the old walk's live-sessions-only semantics.
  const std::uint64_t bob_id = bob->id();
  bob.reset();
  store.erase(bob_id);
  counted = store.aggregate_plan_cache_stats();
  walked = walk();
  EXPECT_EQ(counted.hits, walked.hits);
  EXPECT_EQ(counted.misses, walked.misses);
  EXPECT_EQ(counted.evictions, walked.evictions);
  EXPECT_EQ(counted.size, walked.size);
  EXPECT_EQ(counted.capacity, walked.capacity);
  EXPECT_EQ(counted.resident_bytes, walked.resident_bytes);
  EXPECT_EQ(counted.misses, 1u);  // bob's miss left with bob
}

}  // namespace
}  // namespace atlas::serve
