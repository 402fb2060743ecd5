#pragma once

/// \file session.h
/// The Atlas engine API: a long-lived Session owning the simulated
/// cluster, the backend engines (resolved by name from the pluggable
/// registries), an LRU plan cache, and an async dispatch pool.
///
///   atlas::SessionConfig cfg;
///   cfg.cluster.local_qubits = 20;
///   cfg.cluster.regional_qubits = 2;
///   cfg.cluster.global_qubits = 1;
///   cfg.cluster.gpus_per_node = 4;
///   cfg.stager = "bnb";                 // any registered staging engine
///   atlas::Session session(cfg);        // validates cfg, resolves backends
///
///   auto f1 = session.submit(atlas::circuits::qft(23));   // async
///   auto f2 = session.submit(atlas::circuits::ghz(23));
///   atlas::SimulationResult r1 = f1.get(), r2 = f2.get();
///
/// Plans are state-independent and reusable across runs (paper Section
/// III) — and parameter-value-independent for the whole rotation
/// family. The Session exploits both: an LRU cache keyed by the
/// circuit's *structural* fingerprint (plus the cluster shape) lets
/// repeated workloads skip PARTITION entirely, and compile()/run()/
/// sweep() bind symbolic parameters against one shared plan:
///
///   atlas::CompiledCircuit cc = session.compile(ansatz);   // 1 plan
///   auto results = session.sweep(cc, bindings);            // N runs
///
/// plan_cache_stats() exposes hit/miss counters.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/compiled.h"
#include "core/pipeline.h"
#include "device/cluster.h"
#include "exec/backend.h"
#include "ir/circuit.h"
#include "ir/param.h"
#include "kernelize/kernelizer.h"
#include "noise/result.h"
#include "staging/registry.h"

namespace atlas {

namespace noise {
class NoiseModel;
}

struct SimulatorConfig {
  device::ClusterConfig cluster;
  staging::StagingOptions staging;
  kernelize::CostModel cost_model = kernelize::CostModel::default_model();
  kernelize::DpOptions kernelize;
  /// Inter-node cost factor c of Eq. (2); the paper uses 3.
  double stage_cost_factor = 3.0;
  device::CommCostModel comm = device::CommCostModel::perlmutter_like();
};

/// Optional observer of a Session's plan-cache events, invoked outside
/// the cache lock (implementations must be thread-safe and cheap —
/// think relaxed atomics). The serving layer uses this to maintain
/// aggregate cache counters without walking every session on each
/// `cache_stats` request (serve/session_store.h).
class PlanCacheListener {
 public:
  virtual ~PlanCacheListener() = default;
  virtual void on_hit() = 0;
  /// Also fired by disabled (capacity 0) caches, matching the miss
  /// counter semantics of PlanCacheStats.
  virtual void on_miss() = 0;
  virtual void on_insert(std::size_t plan_bytes) = 0;
  virtual void on_evict(std::size_t plan_bytes) = 0;
  virtual void on_clear(std::size_t entries, std::size_t resident_bytes) = 0;
};

/// Session construction knobs: everything the legacy SimulatorConfig
/// carried, plus backend selection by registry name and the plan-cache
/// and dispatch shapes.
struct SessionConfig : SimulatorConfig {
  SessionConfig() = default;
  SessionConfig(SimulatorConfig base) : SimulatorConfig(std::move(base)) {}

  /// Staging engine (staging::stager_registry() key).
  std::string stager = "auto";
  /// Kernelization engine (kernelize::kernelizer_registry() key).
  std::string kernelizer = "best";
  /// Execution backend (exec::executor_registry() key).
  std::string executor = "auto";
  /// Plans retained in the LRU cache; 0 disables caching.
  std::size_t plan_cache_capacity = 64;
  /// Worker threads dispatching submit()/simulate_batch() jobs
  /// (0 = min(hardware, 4)). Distinct from cluster.num_threads, which
  /// sizes the per-shard compute pool.
  int dispatch_threads = 0;
  /// Gate-level optimization level for the compile pipeline
  /// (core/pipeline.h) behind compile()/simulate() and the noise
  /// engine's twirl compile:
  ///   0  off (default) — bit-identical to the pre-optimizer pipeline;
  ///   1  local cleanups: inverse-pair cancellation, rotation merging
  ///      across commuting diagonals (affine, symbolic-safe), identity
  ///      elimination;
  ///   2  + CX-conjugated diagonal resynthesis, constant single-qubit
  ///      run resynthesis, and commutation-aware reordering that packs
  ///      gates to cut stage count.
  /// Every pass preserves the operator exactly (global phase included)
  /// and is valid for any binding of symbolic parameters; the plan
  /// cache keys on the *post-optimization* structure, so equivalent
  /// authored circuits share one plan. The default stays 0 because the
  /// engine's regression contracts (sweep() bit-identical to
  /// per-binding simulate(), per-trajectory plan sharing of lowered
  /// twirl circuits) are stated at the unoptimized structure; opt in
  /// per session for standalone simulation workloads.
  int opt_level = 0;
  /// Invariant verification level for the compile pipeline and the
  /// noise path (verify/verify.h, docs/VERIFY.md):
  ///   off        — only the always-on legacy validators run;
  ///   boundaries — structural checkers at every compile phase
  ///                hand-off (cheap, no numerics; the Debug default);
  ///   paranoid   — boundaries plus numeric checks: unitarity of
  ///                explicit matrices, CPTP of noise channels, and
  ///                re-verification of cache-hit plans.
  /// Defaults to `boundaries` in Debug builds and `off` in Release.
  verify::VerifyLevel verify_level =
#ifndef NDEBUG
      verify::VerifyLevel::boundaries;
#else
      verify::VerifyLevel::off;
#endif
  /// Optional per-phase dump hook: invoked after every compile phase
  /// (optimize, canonicalize, stage, kernelize, program) with the
  /// phase's snapshot. Cache-hit compiles skip stage/kernelize.
  CompileDumpHook compile_dump;
  /// Base seed for every sampling path the session owns: noise
  /// trajectories, readout-error draws, and SimulationResult::sample()
  /// without an explicit Rng. All of them derive counter-based streams
  /// (rng_stream_seed) keyed by stable indices — trajectory number,
  /// sweep point — never by dispatch order, so results are bit-stable
  /// under any dispatch_threads value.
  std::uint64_t seed = 0x0a71a5ba5e5eed01ull;
  /// When non-empty, enables the process-wide tracer (obs/trace.h) for
  /// this Session's lifetime: compile phases, per-stage/per-shard
  /// execution, and noise batches record spans, and a Chrome
  /// trace-event JSON file is written to this path when the last
  /// tracing Session is destroyed. Empty (the default) keeps tracing
  /// disabled at a cost of one relaxed atomic load per would-be span.
  std::string trace_path;
  /// Optional plan-cache event sink (see PlanCacheListener). Null (the
  /// default) means no callback.
  std::shared_ptr<PlanCacheListener> plan_cache_listener;
};

struct SimulationResult {
  /// The immutable plan this run executed — shared with the session's
  /// plan cache rather than deep-copied, so cache hits stay cheap.
  /// Plans from simulate()/run() are canonicalized: their gates carry
  /// slot symbols ("$0", "$1", ...) instead of concrete values.
  std::shared_ptr<const exec::ExecutionPlan> plan;
  /// Dense slot values this run executed under (index k = plan slot
  /// "$k") — the reproducibility record, kept in the form the engine
  /// ran with. The string-keyed view is built lazily by params().
  SlotValues slot_values;
  /// Deterministic per-run sampling seed, derived from
  /// SessionConfig::seed and the run's identity (plan key + slot
  /// values) — equal runs sample identically, independent of dispatch
  /// interleaving.
  std::uint64_t seed = 0;
  exec::ExecutionReport report;
  exec::DistState state;

  /// The slot-symbol binding ("$k" -> value) this run executed under;
  /// re-execute the same physics on a fresh state with
  /// `session.execute(*result.plan, state, result.params())`. Built on
  /// first access from `slot_values` and cached (not safe to *first*
  /// call concurrently from two threads; copies share the cache).
  const ParamBinding& params() const;

  /// \name Typed query facade
  /// Observable queries over the distributed final state, delegating to
  /// exec/queries.h so callers never reach into exec internals (`state`
  /// stays public as an escape hatch only). All run shard-by-shard
  /// without gathering.
  /// @{
  /// The amplitude of logical basis state `index`.
  Amp amplitude(Index index) const;
  /// |amplitude|^2 of logical basis state `index`.
  double probability(Index index) const;
  /// Sum of |a|^2 over the whole state (~1 when normalized).
  double norm_sq() const;
  /// Marginal distribution over `qubits` (packed ascending).
  std::vector<double> marginal(const std::vector<Qubit>& qubits) const;
  /// <Z_q> on logical qubit q.
  double expectation_z(Qubit q) const;
  /// Draws `shots` basis-state samples; deterministic under a fixed Rng.
  std::vector<Index> sample(int shots, Rng& rng) const;
  /// As above with the result's own deterministic stream (`seed`):
  /// call k draws stream k, so repeat calls give fresh batches yet the
  /// whole call sequence replays exactly on an identical run. Like
  /// params(), not safe to call concurrently on one result (the call
  /// counter is plain state; copies also replay the original's
  /// streams) — share an explicit Rng for multi-threaded sampling.
  std::vector<Index> sample(int shots) const;
  /// @}

 private:
  mutable std::shared_ptr<const ParamBinding> params_cache_;
  mutable std::uint64_t sample_counter_ = 0;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries currently resident.
  std::size_t size = 0;
  std::size_t capacity = 0;
  /// Approximate heap footprint of the resident plans
  /// (exec::approx_resident_bytes summed over entries) — lets serving
  /// layers report cache memory, not just hit counters.
  std::size_t resident_bytes = 0;
};

/// A long-lived simulation engine. Thread-safe: plan(), simulate(),
/// submit(), and simulate_batch() may be called concurrently; results
/// are bit-identical to sequential execution because every job owns
/// its state and plans are immutable once built.
class Session {
 public:
  /// Validates `config` (throws atlas::Error naming the offending
  /// field) and resolves the three backends from their registries
  /// (throws atlas::Error listing registered names on an unknown one).
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionConfig& config() const { return config_; }
  const device::Cluster& cluster() const { return cluster_; }

  const staging::Stager& stager() const { return *stager_; }
  const kernelize::Kernelizer& kernelizer() const { return *kernelizer_; }
  const exec::ExecutorBackend& executor() const { return *executor_; }
  /// The session's compile pipeline (optimizer introspection; the
  /// phases compile() runs are documented in core/pipeline.h).
  const CompilePipeline& pipeline() const { return *pipeline_; }

  /// \name Compile-once / bind-many
  /// @{
  /// Runs the compile pipeline (optimize at config().opt_level, then
  /// canonicalize rotation-family parameters into slot symbols, then
  /// stage + kernelize the canonical form — memoized on the
  /// *post-optimization* structural fingerprint plus the cluster
  /// shape, so rx(0.3), rx(0.7), rx(theta), and optimizer-equivalent
  /// authored variants all share one plan) and returns an immutable
  /// handle carrying the plan, the parameter slot table, and the
  /// compile diagnostics.
  CompiledCircuit compile(const Circuit& circuit) const;

  /// Executes a compiled circuit under `binding`; staging and
  /// kernelization never re-run. Throws atlas::Error when the binding
  /// misses one of compiled.symbols(), or when the handle was compiled
  /// by a session with a different cluster shape. Bit-identical to
  /// simulate(circuit.bind(binding)).
  SimulationResult run(const CompiledCircuit& compiled,
                       const ParamBinding& binding = {}) const;

  /// run() from values positionally aligned with compiled.symbols():
  /// the zero-string-lookup hot path — parameters flow through the
  /// dense slot table only, never through ParamBinding lookups (the
  /// result still records its slot binding in `params` for
  /// reproducibility). Note: a braced `{}` second argument is
  /// ambiguous with the binding overload — spell `ParamBinding{}`.
  SimulationResult run(const CompiledCircuit& compiled,
                       const std::vector<double>& symbol_values) const;

  /// Asynchronous run() on the session's dispatch pool.
  std::future<SimulationResult> submit(const CompiledCircuit& compiled,
                                       ParamBinding binding) const;

  /// Fans `bindings` across the dispatch pool against one shared plan
  /// (the variational-sweep hot path). Results are positionally
  /// aligned with `bindings`.
  std::vector<SimulationResult> sweep(const CompiledCircuit& compiled,
                                      std::vector<ParamBinding> bindings) const;

  /// As sweep(), but each point is a dense value vector positionally
  /// aligned with compiled.symbols() — zero string-keyed lookups per
  /// point.
  std::vector<SimulationResult> sweep(
      const CompiledCircuit& compiled,
      const std::vector<std::vector<double>>& points) const;

  /// The structural plan-cache key compile() would use for `circuit`
  /// under this session's cluster shape (exposed for diagnostics and
  /// cache-keying tests).
  std::uint64_t plan_key(const Circuit& circuit) const;
  /// @}

  /// PARTITION with memoization: returns the cached plan when an
  /// identical circuit (by value-sensitive fingerprint) was planned
  /// before, else stages + kernelizes and caches the result. The plan
  /// embeds the circuit's concrete parameter values, so it executes
  /// without a binding — use compile() for the value-independent
  /// variant. Note the two paths key *disjoint* spaces of the shared
  /// LRU cache (a plan() entry never serves compile()/simulate(), and
  /// vice versa); to warm the cache for simulate()/sweep() traffic,
  /// call compile(), not plan(). Immutable and thread-safe.
  std::shared_ptr<const exec::ExecutionPlan> plan(const Circuit& circuit) const;

  /// EXECUTE: runs a plan over an existing distributed state via the
  /// configured execution backend. The binding overload supplies
  /// values for plans holding symbolic parameters.
  exec::ExecutionReport execute(const exec::ExecutionPlan& plan,
                                exec::DistState& state) const;
  exec::ExecutionReport execute(const exec::ExecutionPlan& plan,
                                exec::DistState& state,
                                const ParamBinding& binding) const;

  /// SIMULATE: compile (structurally cached) + run from |0...0>. The
  /// circuit must be fully bound; parameterized circuits go through
  /// compile()/run() with an explicit binding.
  SimulationResult simulate(const Circuit& circuit) const;

  /// Asynchronous SIMULATE on the session's dispatch pool. Exceptions
  /// surface from Future::get(). Jobs submitted concurrently share the
  /// plan cache and the cluster's compute pool.
  std::future<SimulationResult> submit(Circuit circuit) const;

  /// Simulates a batch concurrently; results are positionally aligned
  /// with `circuits`.
  std::vector<SimulationResult> simulate_batch(
      std::vector<Circuit> circuits) const;

  /// \name Noisy simulation (stochastic trajectory unravelling)
  /// Averages `options.trajectories` stochastic unravellings of
  /// `model` applied to `circuit`, fanned across the dispatch pool.
  /// All-Pauli models ride the fast path: every trajectory binds the
  /// same CompiledCircuit (one plan-cache entry for the whole batch);
  /// general Kraus channels fall back to norm-tracked per-trajectory
  /// lowering, with plans memoized on the sampled outcome *pattern*
  /// when the model has few noise sites (equal patterns lower to
  /// identical circuits). Deterministic in SessionConfig::seed (or the per-run
  /// override) regardless of dispatch parallelism. Implemented in
  /// noise/engine.cpp.
  /// @{
  noise::NoisyResult run_noisy(
      const Circuit& circuit, const noise::NoiseModel& model,
      const noise::NoisyRunOptions& options = {}) const;

  /// run_noisy() with `shots` measurement samples per trajectory — the
  /// counts-first entry (readout error applied when modeled).
  noise::NoisyResult sample_noisy(const Circuit& circuit,
                                  const noise::NoiseModel& model, int shots,
                                  noise::NoisyRunOptions options = {}) const;
  /// @}

  PlanCacheStats plan_cache_stats() const;
  /// Drops every cached plan (counters are kept). Non-const on
  /// purpose: it mutates observable session state, unlike the
  /// logically-const memoization the const methods do.
  void clear_plan_cache();

 private:
  class PlanCache;

  exec::ExecutionPlan build_plan(const Circuit& circuit) const;
  std::shared_ptr<const exec::ExecutionPlan> plan_memoized(
      std::uint64_t key, const Circuit& circuit) const;
  /// Shared tail of every run() flavor: executes the compiled plan
  /// under a dense slot table (the only parameter path the executor
  /// sees — zero string lookups).
  SimulationResult run_with_slots(const CompiledCircuit& compiled,
                                  SlotValues values) const;
  /// Batched tail of sweep()/run_noisy() for backends with
  /// batched_launches(): builds every point's result shell (plan,
  /// slot values, derived seed, initial state) and ships the whole set
  /// through ExecutorBackend::execute_batch — one stage-major walk
  /// with bind reuse instead of one execute() per point. Bit-identical
  /// to calling run_with_slots() per point.
  std::vector<SimulationResult> run_batch_with_slots(
      const CompiledCircuit& compiled, std::vector<SlotValues> values) const;
  /// Guards shared by run()/sweep(): valid handle, matching shape.
  void check_compiled(const CompiledCircuit& compiled, const char* what) const;
  /// Fans `count` points across the dispatch pool and joins them;
  /// `run_point` must be thread-safe and outlives the call (fan_out
  /// blocks until every future resolves).
  std::vector<SimulationResult> fan_out(
      std::size_t count,
      const std::function<SimulationResult(std::size_t)>& run_point) const;
  /// As fan_out() for void tasks writing their own outputs (trajectory
  /// partials): runs fn(i) for i in [0, count) on the dispatch pool,
  /// joins all, rethrows the first failure after every task finished.
  void dispatch_each(std::size_t count,
                     const std::function<void(std::size_t)>& fn) const;

  SessionConfig config_;
  device::Cluster cluster_;
  /// Hash of the cluster shape, mixed into every plan-cache key: two
  /// sessions with different shapes must never share a key even for
  /// equal circuits (plans embed shape-dependent partitions).
  std::uint64_t shape_salt_ = 0;
  std::shared_ptr<const staging::Stager> stager_;
  std::shared_ptr<const kernelize::Kernelizer> kernelizer_;
  std::shared_ptr<const exec::ExecutorBackend> executor_;
  /// Owns phases optimize -> canonicalize -> stage -> kernelize ->
  /// program; compile()/plan()/build_plan() all route through it.
  std::unique_ptr<CompilePipeline> pipeline_;
  std::unique_ptr<PlanCache> plan_cache_;
  /// True when this Session's trace_path started the process tracer;
  /// the destructor issues the matching stop() (which writes the JSON
  /// once the last tracing Session goes away).
  bool trace_started_ = false;
  /// Runs submit() jobs; must be distinct from the cluster pool (whose
  /// wait_idle() a job calls transitively via execute_plan) and must be
  /// the first member destroyed so in-flight jobs finish while the rest
  /// of the session is still alive.
  std::unique_ptr<ThreadPool> dispatch_pool_;
};

/// Validates a SessionConfig without constructing a Session: cluster
/// shape (negative dimensions, gpus_per_node vs. 2^regional_qubits
/// mismatch, thread counts), staging/kernelize option ranges, and the
/// cost factor. Throws atlas::Error naming the offending field.
/// Backend names are checked against the registries at Session
/// construction, not here, so the check stays side-effect free.
void validate_session_config(const SessionConfig& config);

}  // namespace atlas
