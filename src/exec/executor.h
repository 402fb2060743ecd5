#pragma once

/// \file executor.h
/// The EXECUTE algorithm (paper Algorithm 1) — the one stage walk
/// every executor backend runs. For each stage it reshards the state
/// into the stage's partition (the all-to-all remap), binds the stage's
/// cached skeleton to a StageProgram, meters the modeled traffic, and
/// replays the program on every shard in parallel.
///
/// The walk takes a batch of points and runs it stage-major: per stage,
/// every point remaps, binds and replays in turn, and the first point's
/// StageProgram is the reuse base for the rest (value-aware: a kernel
/// whose resolved parameter values match the base is shared, not
/// re-materialized). An N-point batch therefore pays K + (N-1)*P kernel
/// binds for a stage of K kernels, P of which the points vary. A single
/// run is a batch of one.
///
/// DRAM offloading (Section VII-C) changes no numerics: when the
/// cluster has fewer GPUs than shards, shards are modeled as swapping
/// through the GPUs and the staging traffic is metered into
/// CommStats::offload_bytes.

#include <memory>
#include <vector>

#include "device/cluster.h"
#include "exec/dist_state.h"
#include "exec/stage_program.h"
#include "ir/circuit.h"
#include "kernelize/kernel.h"
#include "staging/stage.h"

namespace atlas::exec {

/// One stage ready for execution: the stage's gates as a subcircuit
/// (indices into the original circuit retained) plus its kernelization
/// and qubit partition.
struct PlannedStage {
  Circuit subcircuit;
  std::vector<int> original_indices;
  staging::QubitPartition partition;
  kernelize::Kernelization kernels;
  /// Lazily-built binding-independent stage skeleton (pattern bits,
  /// fired-gate sets, shm actives/offsets, fused spans), shared by
  /// every run of the owning plan: sweeps and trajectory batches only
  /// re-fill matrix values per point. Copies of a PlannedStage share
  /// the cache — plans are immutable once built, so that is sound.
  mutable std::shared_ptr<StageSkeletonCache> skeleton =
      std::make_shared<StageSkeletonCache>();
};

struct ExecutionPlan {
  std::vector<PlannedStage> stages;
  double staging_comm_cost = 0;   // Eq. (2) value from the stager
  double kernel_cost_total = 0;   // sum of kernel cost-model values
  /// When offloading, reload every shard once per *kernel* instead of
  /// once per stage (models QDAO-style block scheduling; Atlas plans
  /// always swap once per stage).
  bool offload_reload_per_kernel = false;
};

struct StageReport {
  double comm_seconds = 0;     // wall time in remap
  double compute_seconds = 0;  // wall time in kernels
  device::CommStats stats;
};

struct ExecutionReport {
  std::vector<StageReport> stages;
  device::CommStats totals;
  double wall_seconds = 0;
  double comm_seconds = 0;
  double compute_seconds = 0;

  /// Modeled end-to-end seconds on the target machine.
  double modeled_seconds(const device::CommCostModel& m, int gpus,
                         int nodes) const;
};

/// One point of a batched execution: the point's initial state (run in
/// place) and its parameter environment. The pointees must stay alive
/// for the whole execute_plan() call.
struct BatchPoint {
  DistState* state = nullptr;
  ParamEnv env;
};

/// Executes `plan` on `cluster` over every point of `points`, mutating
/// each point's state in place, and returns one report per point, in
/// order. Plans hold only gate *structure*; each stage's skeleton is
/// built once and cached on the plan, and every point binds it against
/// its own `env` (dense slot table for canonical plans, named binding
/// for free user symbols). Every point's state is bit-identical to
/// running that point alone, and so is its CommStats metering; its
/// wall_seconds is the whole batch's. Throws atlas::Error when a plan
/// with unbound symbols meets an empty env.
std::vector<ExecutionReport> execute_plan(const ExecutionPlan& plan,
                                          const device::Cluster& cluster,
                                          const std::vector<BatchPoint>& points);

/// A batch of one.
ExecutionReport execute_plan(const ExecutionPlan& plan,
                             const device::Cluster& cluster, DistState& state,
                             const ParamEnv& env = {});

/// Convenience: build the initial distributed state for a plan (stage
/// 0's partition as the initial layout, which is free — Eq. (2) only
/// charges transitions).
DistState initial_state(const ExecutionPlan& plan,
                        const device::Cluster& cluster);

/// Approximate heap footprint of a retained plan in bytes: gate
/// storage (qubit/param vectors, Unitary matrices), stage partitions,
/// and kernel index lists. Deliberately an estimate — it skips
/// allocator overhead and the lazily-built stage skeletons (which are
/// bounded by the same structure) — but it is stable for equal plans,
/// which is what cache-memory accounting needs.
std::size_t approx_resident_bytes(const ExecutionPlan& plan);

}  // namespace atlas::exec
