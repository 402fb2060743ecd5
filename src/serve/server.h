#pragma once

/// \file server.h
/// The atlas-serve daemon core: a TCP accept loop, one reader thread
/// per connection, and the request router. Data-plane ops are executed
/// on the Dispatcher's fair-share worker pool (replies go out from
/// worker threads, serialized per connection); introspection ops are
/// answered inline on the reader thread so a saturated data plane
/// never blocks `atlas-servectl list`/`stats`.
///
/// Lifecycle: start() binds and spawns the accept loop; drain (the op
/// or drain()) stops admitting data-plane work and waits out what is
/// in flight; stop() tears everything down. A shutdown op requests
/// termination — the embedding main() observes wait_shutdown() and
/// calls stop(), keeping teardown off connection threads.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/session.h"
#include "serve/dispatcher.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/session_store.h"

namespace atlas::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  /// Dispatcher worker threads executing data-plane ops (0 = hardware
  /// concurrency).
  int workers = 2;
  /// Per-tenant admission bound (0 = unbounded).
  std::size_t max_pending_per_tenant = 32;
  /// Cross-tenant shared plan cache capacity (entries).
  std::size_t shared_plan_capacity = 128;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Reply-write deadline per frame: a client that stops reading its
  /// socket for this long is declared dead and its connection is torn
  /// down, so a stalled peer cannot pin a dispatcher worker in
  /// send_reply (or wedge stop()'s drain) indefinitely. -1 = forever.
  int write_timeout_ms = 10000;
  /// Base SessionConfig for tenant sessions (open_session overrides
  /// shape/opt_level/seed per tenant). Defaults keep each session
  /// single-threaded — serving parallelism comes from `workers`, not
  /// from nested per-session pools.
  SessionConfig session;
  StoreLimits store;

  ServerConfig() {
    session.cluster.num_threads = 1;
    session.dispatch_threads = 1;
    // A valid default cluster shape (ClusterConfig's zeros fail
    // Session validation): 12 logical qubits, 2 GPUs/node, 2 nodes.
    // Daemon operators size the real shape via the atlas-serve flags.
    session.cluster.local_qubits = 10;
    session.cluster.regional_qubits = 1;
    session.cluster.global_qubits = 1;
    session.cluster.gpus_per_node = 2;
  }
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts accepting. Throws atlas::Error when the address
  /// is unusable.
  void start();
  /// The bound port (valid after start()).
  int port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// Stops admitting data-plane requests and blocks until in-flight
  /// work (including fanned-out sweep points) has completed.
  /// Idempotent. Introspection ops keep working afterwards.
  void drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Full teardown: drain, close the listener and every connection,
  /// join all threads. Idempotent; called by the destructor.
  void stop();

  /// Blocks until a client issues the shutdown op (or stop() runs).
  /// Returns true when shutdown was requested, false when the wait was
  /// ended by stop().
  bool wait_shutdown();

  /// \name Test/diagnostic access
  /// @{
  SessionStore& store() { return *store_; }
  /// The data-plane dispatcher: tests queue internal items on it to
  /// hold workers at points they control.
  Dispatcher& dispatcher() { return *dispatcher_; }
  SharedPlanCache::Stats shared_cache_stats() const {
    return shared_cache_->stats();
  }
  /// @}

 private:
  struct Connection {
    Fd fd;
    /// Serializes whole reply frames: workers for different requests
    /// on one connection interleave at frame, not byte, granularity.
    Mutex write_mu;
    std::thread reader;
    std::atomic<bool> dead{false};
  };

  /// Per-request context threaded into handlers: where to reply and
  /// how to settle admission accounting exactly once.
  struct RequestContext;

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  /// Routes one decoded frame. Returns false when the connection must
  /// be dropped (unparseable header).
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    std::vector<std::uint8_t> payload);
  void handle_data_op(const std::shared_ptr<RequestContext>& ctx,
                      std::shared_ptr<std::vector<std::uint8_t>> payload);
  void handle_inline_op(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, Op op,
                        std::uint64_t session_id, WireReader& body);

  /// Op bodies (executed on dispatcher workers). Each returns the
  /// encoded reply body.
  std::vector<std::uint8_t> do_open_session(std::uint64_t& session_id_out,
                                            WireReader& body);
  std::vector<std::uint8_t> do_submit_qasm(ServeSession& session,
                                           WireReader& body);
  std::vector<std::uint8_t> do_compile(ServeSession& session,
                                       WireReader& body);
  std::vector<std::uint8_t> do_run(ServeSession& session, WireReader& body);
  std::vector<std::uint8_t> do_run_noisy(ServeSession& session,
                                         WireReader& body);
  std::vector<std::uint8_t> do_sample(ServeSession& session, WireReader& body);
  /// sweep fans per-point items through the dispatcher and replies from
  /// the last point; returns without settling the context.
  void do_sweep(const std::shared_ptr<RequestContext>& ctx,
                const std::shared_ptr<ServeSession>& session,
                WireReader& body);

  void send_reply(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, Status status,
                  const std::vector<std::uint8_t>& body);
  void send_error(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, Status status,
                  const std::string& message);

  ServerConfig config_;
  std::unique_ptr<SessionStore> store_;
  std::unique_ptr<SharedPlanCache> shared_cache_;
  std::unique_ptr<Dispatcher> dispatcher_;

  Fd listener_;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  Mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_
      ATLAS_GUARDED_BY(conn_mu_);

  Mutex shutdown_mu_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ ATLAS_GUARDED_BY(shutdown_mu_) = false;
  bool stopped_ ATLAS_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace atlas::serve
