#include "walk.h"

#include <vector>

#include "common/bits.h"
#include "exec/remap.h"
#include "exec/stage_program.h"
#include "sim/apply.h"
#include "sim/shm_executor.h"

namespace perfbench {

using namespace atlas;

ReplayCounters& ReplayCounters::operator+=(const ReplayCounters& o) {
  for (int p = 0; p < kPaths; ++p) {
    busy_ns[p] += o.busy_ns[p];
    calls[p] += o.calls[p];
    bytes[p] += o.bytes[p];
  }
  return *this;
}

namespace {

constexpr int kShmPath = ReplayCounters::kPaths - 1;

/// exec::run_stage_program for one shard, one timed call per kernel.
/// Scalar factors of non-local diagonal gates are not a path; they count
/// toward the shard's busy time only.
void replay_shard(const exec::StageProgram& prog, int shard, Amp* data,
                  Index size, std::vector<Amp>& scratch, ReplayCounters& rc) {
  const double call_bytes = 2.0 * static_cast<double>(size) * sizeof(Amp);
  for (const auto& kpp : prog.kernels) {
    const exec::KernelProgram& kp = *kpp;
    Index pattern = 0;
    for (std::size_t i = 0; i < kp.pattern_bits.size(); ++i)
      if (test_bit(static_cast<Index>(shard), kp.pattern_bits[i]))
        pattern |= bit(static_cast<int>(i));
    const exec::KernelVariant& v = kp.variants[pattern];
    if (v.scale != Amp(1, 0)) scale_buffer(data, size, v.scale);
    int path = -1;
    const std::int64_t t0 = now_ns();
    switch (v.op) {
      case exec::KernelVariant::Op::None:
        break;
      case exec::KernelVariant::Op::Fused:
        apply_prepared(data, size, v.fused);
        path = static_cast<int>(v.fused.path);
        break;
      case exec::KernelVariant::Op::Shm:
        run_shm_program(data, size, v.shm, scratch);
        path = kShmPath;
        break;
    }
    if (path < 0) continue;
    rc.busy_ns[path] += now_ns() - t0;
    rc.calls[path] += 1;
    rc.bytes[path] += call_bytes;
  }
}

}  // namespace

exec::DistState traced_walk(const Session& session,
                            const CompiledCircuit& compiled,
                            const SlotValues& slots, SpanLog& log, int parent,
                            int op, WalkTotals& totals) {
  const exec::ExecutionPlan& plan = *compiled.plan();
  const device::Cluster& cluster = session.cluster();
  const device::ClusterConfig& cfg = cluster.config();
  ParamEnv env;
  env.slots = &slots;
  totals.pool_threads = static_cast<int>(cluster.pool().size());

  int span = log.begin("exec.init", parent, op);
  exec::DistState state = session.executor().initial_state(plan, cluster);
  log.end(span);

  for (const exec::PlannedStage& stage : plan.stages) {
    span = log.begin("exec.remap", parent, op);
    const exec::Layout target = exec::Layout::for_partition(
        stage.partition, cfg.local_qubits, cfg.regional_qubits,
        state.layout());
    totals.remap += exec::remap(state, target, cluster);
    log.end(span);

    span = log.begin("exec.bind", parent, op);
    const std::shared_ptr<const exec::StageSkeleton> skeleton =
        stage.skeleton->get_or_build(state.layout(), [&] {
          return exec::compile_stage_skeleton(stage.subcircuit, stage.kernels,
                                              state.layout());
        });
    const exec::StageProgram program =
        exec::bind_stage_program(stage.subcircuit, *skeleton, env);
    log.end(span);

    span = log.begin("sim.replay", parent, op);
    const Index size = state.shard_size();
    std::vector<ReplayCounters> per_shard(
        static_cast<std::size_t>(state.num_shards()));
    std::vector<std::int64_t> shard_ns(per_shard.size(), 0);
    cluster.pool().parallel_for(per_shard.size(), [&](std::size_t s) {
      const std::int64_t t0 = now_ns();
      std::vector<Amp> scratch;
      replay_shard(program, static_cast<int>(s),
                   state.shard(static_cast<int>(s)).data(), size, scratch,
                   per_shard[s]);
      const std::int64_t t1 = now_ns();
      shard_ns[s] = t1 - t0;
      log.add("sim.shard", t0, t1, span, op);
    });
    log.end(span);
    state.layout().shard_xor = program.final_xor;
    const Span& region = log.spans()[static_cast<std::size_t>(span)];
    totals.replay_wall_ns += region.end - region.start;
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      totals.replay += per_shard[s];
      totals.replay_busy_ns += shard_ns[s];
    }
  }
  return state;
}

std::uint64_t state_digest(const exec::DistState& state) {
  const exec::Layout& layout = state.layout();
  std::uint64_t h = fnv_bytes(layout.phys_of_logical.data(),
                              layout.phys_of_logical.size() * sizeof(int));
  h = fnv_bytes(&layout.shard_xor, sizeof layout.shard_xor, h);
  for (int s = 0; s < state.num_shards(); ++s)
    h = fnv_bytes(state.shard(s).data(), state.shard(s).size() * sizeof(Amp),
                  h);
  return h;
}

}  // namespace perfbench
