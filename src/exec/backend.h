#pragma once

/// \file backend.h
/// The pluggable execution seam: a polymorphic ExecutorBackend over
/// EXECUTE plus a string-keyed registry so external runtimes can plug
/// in without touching core headers. The built-ins are three names for
/// the one stage walk (exec::execute_plan in executor.h):
///
///  * "inmemory" — every shard GPU-resident; refuses clusters
///    configured for DRAM offloading (typed atlas::Error) so capacity
///    mistakes surface at session construction, not mid-run.
///  * "offload"  — accepts every shape: shards may outnumber GPUs and
///    swap through them, with the staging traffic metered (Section
///    VII-C).
///  * "auto"     — the default; accepts every shape, like "offload".
///
/// On offloading shapes the built-ins report batched_launches(), so
/// Session::sweep() and noisy-Pauli trajectory chunks run as one batch
/// through the walk (bind reuse across points); every other shape fans
/// points out per point on the session's dispatch pool.

#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "exec/executor.h"

namespace atlas::exec {

/// An execution runtime. Implementations run a plan over a distributed
/// state, mutating the state in place and returning timing/traffic.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// The registry key this backend was built for ("inmemory", ...).
  virtual std::string name() const = 0;

  /// Called at Session construction with the cluster shape; throws
  /// atlas::Error when this backend cannot serve it, so capacity
  /// mistakes surface before any state is allocated.
  virtual void validate(const device::ClusterConfig&) const {}

  /// Builds the initial |0...0> state for `plan` (stage 0's partition
  /// as the initial layout). Overridable for backends with bespoke
  /// placement.
  virtual DistState initial_state(const ExecutionPlan& plan,
                                  const device::Cluster& cluster) const {
    return exec::initial_state(plan, cluster);
  }

  /// Runs `plan` over `state` on `cluster`. `env` supplies values for
  /// any symbolic parameters the plan's gates carry (compile-once /
  /// bind-many): a dense slot table for canonical plans, a named
  /// binding for free user symbols, or both; it may be empty for
  /// fully-bound plans. Implementations must thread it through to
  /// stage-program compilation.
  virtual ExecutionReport execute(const ExecutionPlan& plan,
                                  const device::Cluster& cluster,
                                  DistState& state,
                                  const ParamEnv& env) const = 0;

  /// True when this backend amortizes per-point work across a batch on
  /// `cfg`-shaped clusters: Session::sweep()/run_noisy() then route
  /// whole point sets through execute_batch() instead of fanning
  /// execute() out per point. Takes the config because the answer may
  /// depend on the shape (the built-ins batch only when offloading).
  virtual bool batched_launches(const device::ClusterConfig&) const {
    return false;
  }

  /// Runs `plan` once per batch point, mutating each point's state in
  /// place and returning one report per point, in order. Results must
  /// be bit-identical to calling execute() per point — batching is a
  /// scheduling optimization, never a semantic one. The default does
  /// exactly that serial loop; backends returning batched_launches()
  /// override it with a fused schedule.
  virtual std::vector<ExecutionReport> execute_batch(
      const ExecutionPlan& plan, const device::Cluster& cluster,
      const std::vector<BatchPoint>& points) const {
    std::vector<ExecutionReport> reports;
    reports.reserve(points.size());
    for (const BatchPoint& p : points)
      reports.push_back(execute(plan, cluster, *p.state, p.env));
    return reports;
  }

  /// Convenience for named-binding callers (may be null).
  ExecutionReport execute(const ExecutionPlan& plan,
                          const device::Cluster& cluster, DistState& state,
                          const ParamBinding* binding) const {
    ParamEnv env;
    env.named = binding;
    return execute(plan, cluster, state, env);
  }

  /// Convenience for fully-bound plans.
  ExecutionReport execute(const ExecutionPlan& plan,
                          const device::Cluster& cluster,
                          DistState& state) const {
    return execute(plan, cluster, state, ParamEnv{});
  }
};

using ExecutorRegistry = Registry<ExecutorBackend>;

/// The process-wide executor registry. Built-ins ("inmemory",
/// "offload", "auto") are registered on first access; user backends
/// may be added any time with executor_registry().add(name, factory).
ExecutorRegistry& executor_registry();

}  // namespace atlas::exec
