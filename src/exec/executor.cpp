#include "exec/executor.h"

#include <algorithm>

#include "common/error.h"
#include "common/timer.h"
#include "exec/remap.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::exec {

double ExecutionReport::modeled_seconds(const device::CommCostModel& m,
                                        int gpus, int nodes) const {
  return totals.modeled_comm_seconds(m, gpus, nodes) +
         totals.modeled_compute_seconds(m, gpus);
}

DistState initial_state(const ExecutionPlan& plan,
                        const device::Cluster& cluster) {
  const auto& cfg = cluster.config();
  ATLAS_CHECK(!plan.stages.empty(), "empty execution plan");
  const Layout layout = Layout::for_partition(
      plan.stages.front().partition, cfg.local_qubits, cfg.regional_qubits,
      Layout::identity(cfg.total_qubits(), cfg.local_qubits));
  return DistState::zero_state(layout, cluster.pool());
}

namespace {

/// The stage walk over `count` points, writing `reports[p]` for each.
/// Takes raw arrays so a batch of one needs no heap container.
void walk(const ExecutionPlan& plan, const device::Cluster& cluster,
          const BatchPoint* points, std::size_t count,
          ExecutionReport* reports) {
  const auto& cfg = cluster.config();
  for (std::size_t p = 0; p < count; ++p) {
    ATLAS_CHECK(points[p].state, "null state in batch point " << p);
    ATLAS_CHECK(points[p].state->num_qubits() == cfg.total_qubits(),
                "state does not match the cluster shape");
  }
  Timer total_timer;
  {
    static obs::Counter& runs = obs::counter(obs::names::kExecRuns);
    runs.add(count);
  }

  std::int64_t stage_index = 0;
  for (const PlannedStage& stage : plan.stages) {
    obs::TraceSpan stage_span(obs::names::kSpanExecStage, stage_index);
    Timer stage_timer;
    // The first point's program is the bind-reuse base for the rest of
    // the batch; it is valid only for points that bind the same
    // skeleton (a point entering under another layout rebinds fully).
    StageProgram base;
    std::shared_ptr<const StageSkeleton> base_skeleton;

    for (std::size_t p = 0; p < count; ++p) {
      DistState& state = *points[p].state;
      StageReport sr;

      // SHARD: permute the state into the stage's partition.
      {
        Timer t;
        const Layout target = Layout::for_partition(
            stage.partition, cfg.local_qubits, cfg.regional_qubits,
            state.layout());
        sr.stats += remap(state, target, cluster);
        sr.comm_seconds = t.seconds();
      }

      // Kernels: bind the stage's cached binding-independent skeleton
      // to this point's values — parameter materialization, fusion
      // products and shm tables are all shard-invariant — then replay
      // the program on every shard, where only the cheap non-local-bit
      // decisions remain.
      Timer t;
      ATLAS_CHECK(!stage.subcircuit.is_parameterized() ||
                      !points[p].env.empty(),
                  "execution plan has unbound symbolic parameters ("
                      << stage.subcircuit.symbols().front()
                      << ", ...); pass a ParamBinding");
      obs::TraceSpan bind_span(obs::names::kSpanExecBind, stage_index);
      const std::shared_ptr<const StageSkeleton> skeleton =
          stage.skeleton->get_or_build(state.layout(), [&] {
            return compile_stage_skeleton(stage.subcircuit, stage.kernels,
                                          state.layout());
          });
      const bool reuse = p > 0 && skeleton == base_skeleton;
      StageProgram program = bind_stage_program(
          stage.subcircuit, *skeleton, points[p].env, reuse ? &base : nullptr);
      bind_span.end();
      const Index shard_size = state.shard_size();

      // Kernel cost-model units -> bytes streamed (for modeled time).
      for (const auto& kernel : stage.kernels.kernels)
        sr.stats.kernel_bytes += static_cast<std::uint64_t>(
            kernel.cost * static_cast<double>(shard_size) * sizeof(Amp) *
            state.num_shards());

      cluster.pool().parallel_for(
          static_cast<std::size_t>(state.num_shards()), [&](std::size_t s) {
            obs::TraceSpan shard_span(obs::names::kSpanExecShard,
                                      static_cast<std::int64_t>(s));
            std::vector<Amp> scratch;
            run_stage_program(program, static_cast<int>(s),
                              state.shard(static_cast<int>(s)).data(),
                              shard_size, scratch);
          });
      state.layout().shard_xor = program.final_xor;

      // DRAM offloading: each resident shard is staged in and out of a
      // GPU once per stage (Atlas), or once per kernel for baselines
      // without stage-level planning.
      if (cfg.offloading()) {
        const std::uint64_t reloads =
            plan.offload_reload_per_kernel
                ? std::max<std::uint64_t>(1, stage.kernels.kernels.size())
                : 1;
        sr.stats.offload_bytes +=
            2ull * reloads * state.num_shards() * shard_size * sizeof(Amp);
      }
      sr.compute_seconds = t.seconds();

      if (p == 0) {
        base = std::move(program);
        base_skeleton = skeleton;
      }
      ExecutionReport& report = reports[p];
      report.totals += sr.stats;
      report.comm_seconds += sr.comm_seconds;
      report.compute_seconds += sr.compute_seconds;
      report.stages.push_back(std::move(sr));
    }

    stage_span.end();
    {
      static obs::Histogram& stage_us =
          obs::histogram(obs::names::kExecStageUs);
      stage_us.observe(stage_timer.seconds() * 1e6);
    }
    ++stage_index;
  }
  const double wall = total_timer.seconds();
  for (std::size_t p = 0; p < count; ++p) reports[p].wall_seconds = wall;
}

}  // namespace

std::vector<ExecutionReport> execute_plan(
    const ExecutionPlan& plan, const device::Cluster& cluster,
    const std::vector<BatchPoint>& points) {
  std::vector<ExecutionReport> reports(points.size());
  walk(plan, cluster, points.data(), points.size(), reports.data());
  return reports;
}

ExecutionReport execute_plan(const ExecutionPlan& plan,
                             const device::Cluster& cluster, DistState& state,
                             const ParamEnv& env) {
  BatchPoint point;
  point.state = &state;
  point.env = env;
  ExecutionReport report;
  walk(plan, cluster, &point, 1, &report);
  return report;
}

std::size_t approx_resident_bytes(const ExecutionPlan& plan) {
  std::size_t bytes = sizeof(ExecutionPlan);
  for (const PlannedStage& stage : plan.stages) {
    bytes += sizeof(PlannedStage);
    for (const Gate& g : stage.subcircuit.gates()) {
      bytes += sizeof(Gate);
      bytes += g.qubits().size() * sizeof(Qubit);
      bytes += g.params().size() * sizeof(Param);
      if (g.kind() == GateKind::Unitary) {
        // A Unitary's explicit target matrix: 2^T x 2^T complex doubles.
        bytes += (sizeof(Amp) << (2 * g.num_targets()));
      }
    }
    bytes += stage.original_indices.size() * sizeof(int);
    bytes += (stage.partition.local.size() + stage.partition.regional.size() +
              stage.partition.global.size()) *
             sizeof(Qubit);
    for (const kernelize::Kernel& k : stage.kernels.kernels) {
      bytes += sizeof(kernelize::Kernel);
      bytes += k.gate_indices.size() * sizeof(int);
      bytes += k.qubits.size() * sizeof(Qubit);
    }
  }
  return bytes;
}

}  // namespace atlas::exec
