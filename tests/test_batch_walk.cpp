// The one stage walk (exec::execute_plan) as a batch: on offloading
// shapes the "offload" and "auto" executors run Session::sweep() and
// noisy-Pauli trajectory chunks as one stage-major batch with
// value-aware bind reuse. Batching must be invisible to results —
// states, derived seeds, sample streams and CommStats metering equal
// per-point runs — while the bind accounting shows the reuse: an
// N-point batch pays K + (N-1)*P kernel binds per stage and builds
// each stage skeleton once. The TSan job runs this whole binary.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "common/error.h"
#include "core/session.h"
#include "exec/backend.h"
#include "exec/stage_program.h"
#include "noise/channel.h"
#include "noise/model.h"
#include "noise/result.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace atlas {
namespace {

Circuit make_ansatz(int n, int layers) {
  Circuit c(n, "batch_ansatz");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (int l = 0; l < layers; ++l) {
    const Param gamma = Param::symbol("gamma" + std::to_string(l));
    const Param theta = Param::symbol("theta" + std::to_string(l));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rzz(q, (q + 1) % n, gamma));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rx(q, theta));
  }
  return c;
}

/// Constant layers across every qubit, rotations confined to qubit 0:
/// kernelization groups gates by qubit set, so the kernels that never
/// see qubit 0 are parameter-independent — the shape that makes the
/// bind reuse measurable (P < K).
Circuit make_mixed_circuit(int n) {
  Circuit c(n, "batch_mixed");
  for (int layer = 0; layer < 3; ++layer) {
    for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
    for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::cx(q, q + 1));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::t(q));
  }
  const Param theta = Param::symbol("theta");
  c.add(Gate::rx(0, theta));
  c.add(Gate::rz(0, theta));
  return c;
}

std::vector<Amp> amplitudes(const SimulationResult& r) {
  return r.state.gather().amplitudes();
}

/// `gpus` defaults to the non-offloading 2^R; pass fewer to force the
/// DRAM-offloading regime (shards outnumber modeled GPUs).
SessionConfig shaped(const std::string& executor, int local, int regional,
                     int global, int gpus = 0) {
  SessionConfig cfg;
  cfg.executor = executor;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = gpus > 0 ? gpus : (1 << regional);
  cfg.cluster.num_threads = 2;
  return cfg;
}

std::vector<std::vector<double>> sweep_points(const CompiledCircuit& compiled,
                                              int count,
                                              std::uint64_t seed = 17) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(static_cast<std::size_t>(count));
  for (auto& p : points) {
    p.resize(compiled.symbols().size());
    for (double& v : p) v = rng.uniform() * 6.28318 - 3.14159;
  }
  return points;
}

void expect_same_stats(const device::CommStats& a, const device::CommStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.intra_gpu_bytes, b.intra_gpu_bytes) << where;
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes) << where;
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes) << where;
  EXPECT_EQ(a.kernel_bytes, b.kernel_bytes) << where;
  EXPECT_EQ(a.offload_bytes, b.offload_bytes) << where;
}

TEST(BatchWalk, BuiltinsBatchExactlyOnOffloadingShapes) {
  const device::ClusterConfig offloading =
      shaped("offload", 4, 2, 0, /*gpus=*/1).cluster;
  const device::ClusterConfig resident = shaped("offload", 4, 2, 0).cluster;
  for (const char* name : {"offload", "auto"}) {
    const auto backend = exec::executor_registry().create(name);
    EXPECT_EQ(backend->name(), name);
    EXPECT_NO_THROW(backend->validate(offloading)) << name;
    EXPECT_TRUE(backend->batched_launches(offloading)) << name;
    EXPECT_FALSE(backend->batched_launches(resident)) << name;
  }
  const auto inmemory = exec::executor_registry().create("inmemory");
  EXPECT_FALSE(inmemory->batched_launches(resident));
  EXPECT_FALSE(exec::executor_registry().contains("device"));
}

// -------------------------------------------------------------------
// Bit-identity: batched sweeps vs per-point runs on random shapes.
// -------------------------------------------------------------------

class BatchShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchShapeTest, BatchedSweepBitIdenticalToPerPointRuns) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const int local = 4 + static_cast<int>(rng.index(2));     // 4..5
  const int regional = 1 + static_cast<int>(rng.index(2));  // 1..2
  const int global = static_cast<int>(rng.index(2));        // 0..1
  const int gpus = 1 + static_cast<int>(rng.index((1u << regional) - 1));
  const int n = local + regional + global;
  // A random fixed-angle prefix, then a parameterized ansatz layer.
  Circuit c = circuits::random_circuit(n, 30, seed * 131);
  const Circuit ansatz = make_ansatz(n, 1);
  for (const Gate& g : ansatz.gates()) c.add(g);

  const Session walk(
      shaped(seed % 2 ? "offload" : "auto", local, regional, global, gpus));
  ASSERT_TRUE(walk.executor().batched_launches(walk.cluster().config()));
  const CompiledCircuit compiled = walk.compile(c);
  const std::vector<std::vector<double>> points =
      sweep_points(compiled, 6, seed);
  const std::vector<SimulationResult> batched = walk.sweep(compiled, points);
  ASSERT_EQ(batched.size(), points.size());

  // The same points on the resident shape fan out per point instead.
  const Session mem(shaped("inmemory", local, regional, global));
  const std::vector<SimulationResult> resident =
      mem.sweep(mem.compile(c), points);

  for (std::size_t i = 0; i < points.size(); ++i) {
    const SimulationResult solo = walk.run(compiled, points[i]);
    EXPECT_EQ(batched[i].seed, solo.seed) << "point " << i;
    const std::vector<Amp> ab = amplitudes(batched[i]);
    EXPECT_EQ(ab, amplitudes(solo)) << "point " << i << " seed " << seed;
    EXPECT_EQ(ab, amplitudes(resident[i])) << "point " << i;
    // Repeated draws advance each result's sample counter the same way
    // — the whole stream matches, not just the first shot batch.
    EXPECT_EQ(batched[i].sample(8), solo.sample(8)) << "point " << i;
    EXPECT_EQ(batched[i].sample(8), solo.sample(8)) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchShapeTest, ::testing::Range(1, 9));

// -------------------------------------------------------------------
// Metering: a batch meters exactly what its points meter alone.
// -------------------------------------------------------------------

TEST(BatchWalk, OffloadMeteringEqualsPerPointRuns) {
  // 4 shards/node on 1 modeled GPU: every stage stages each shard
  // through the GPU, so offload_bytes is nonzero.
  const Session off(shaped("offload", 4, 2, 1, /*gpus=*/1));
  const CompiledCircuit compiled = off.compile(make_ansatz(7, 2));
  const std::vector<std::vector<double>> points = sweep_points(compiled, 5);
  const std::vector<SimulationResult> batched = off.sweep(compiled, points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SimulationResult solo = off.run(compiled, points[i]);
    EXPECT_GT(batched[i].report.totals.offload_bytes, 0u);
    EXPECT_GT(batched[i].report.totals.kernel_bytes, 0u);
    expect_same_stats(batched[i].report.totals, solo.report.totals,
                      "point " + std::to_string(i));
    ASSERT_EQ(batched[i].report.stages.size(), solo.report.stages.size());
  }

  // "auto" meters an offloading run field for field like "offload".
  const Circuit qft = circuits::qft(7);
  const SimulationResult ro = off.simulate(qft);
  const SimulationResult ra =
      Session(shaped("auto", 4, 2, 1, /*gpus=*/1)).simulate(qft);
  EXPECT_EQ(amplitudes(ro), amplitudes(ra));
  expect_same_stats(ro.report.totals, ra.report.totals, "qft auto");
}

TEST(BatchWalk, PerKernelReloadMeteringEqualsPerPointRuns) {
  // QDAO-like baseline plans have no stage-level planning and reload
  // every shard once per kernel; a batch must meter that per point too.
  SimulatorConfig cfg;
  cfg.cluster = shaped("offload", 4, 2, 0, /*gpus=*/1).cluster;
  exec::ExecutionPlan plan = baselines::plan_baseline(
      baselines::BaselineKind::Qdao, circuits::qft(6), cfg);
  ASSERT_TRUE(plan.offload_reload_per_kernel);
  std::size_t kernels = 0;
  for (const exec::PlannedStage& stage : plan.stages)
    kernels += stage.kernels.kernels.size();
  ASSERT_GT(kernels, plan.stages.size()) << "need a multi-kernel stage";
  const device::Cluster cluster(cfg.cluster);

  std::vector<exec::DistState> states(3, exec::initial_state(plan, cluster));
  std::vector<exec::BatchPoint> batch(states.size());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].state = &states[i];
  const std::vector<exec::ExecutionReport> reports =
      exec::execute_plan(plan, cluster, batch);
  ASSERT_EQ(reports.size(), states.size());

  exec::DistState solo = exec::initial_state(plan, cluster);
  const exec::ExecutionReport r = exec::execute_plan(plan, cluster, solo);
  for (std::size_t i = 0; i < states.size(); ++i) {
    expect_same_stats(reports[i].totals, r.totals,
                      "point " + std::to_string(i));
    EXPECT_EQ(states[i].gather().amplitudes(), solo.gather().amplitudes());
  }
  // Per-kernel reloads meter more than a once-per-stage swap.
  plan.offload_reload_per_kernel = false;
  exec::DistState staged = exec::initial_state(plan, cluster);
  EXPECT_GT(r.totals.offload_bytes,
            exec::execute_plan(plan, cluster, staged).totals.offload_bytes);
}

TEST(BatchWalk, RejectsNullStatesAndRunsEmptyBatches) {
  const Session off(shaped("offload", 4, 1, 0, /*gpus=*/1));
  const CompiledCircuit compiled = off.compile(circuits::ghz(5));
  std::vector<exec::BatchPoint> batch(1);
  EXPECT_THROW(exec::execute_plan(*compiled.plan(), off.cluster(), batch),
               Error);
  EXPECT_TRUE(
      exec::execute_plan(*compiled.plan(), off.cluster(), {}).empty());
}

// -------------------------------------------------------------------
// Noisy trajectory chunks through the batch.
// -------------------------------------------------------------------

TEST(BatchWalk, RunNoisyBitIdenticalToInmemory) {
  const Circuit c = make_ansatz(5, 1).bind(
      {{"gamma0", 0.37}, {"theta0", 1.21}});
  noise::NoiseModel model;
  model.after_all_gates(noise::KrausChannel::depolarizing(0.06));
  model.readout_error_all(0.02, 0.03);
  noise::NoisyRunOptions opts;
  opts.trajectories = 70;  // > 2 chunks through the batched path
  opts.shots = 12;
  opts.accumulate_probabilities = true;

  const noise::NoisyResult rb =
      Session(shaped("offload", 3, 1, 1, /*gpus=*/1))
          .run_noisy(c, model, opts);
  const noise::NoisyResult rm =
      Session(shaped("inmemory", 3, 1, 1)).run_noisy(c, model, opts);

  ASSERT_TRUE(rb.pauli_fast_path());
  EXPECT_EQ(rb.counts(), rm.counts());
  EXPECT_EQ(rb.probabilities(), rm.probabilities());
  for (Qubit q = 0; q < c.num_qubits(); ++q) {
    EXPECT_EQ(rb.expectation_z(q).value, rm.expectation_z(q).value) << q;
    EXPECT_EQ(rb.expectation_z(q).std_error, rm.expectation_z(q).std_error)
        << q;
  }
}

// -------------------------------------------------------------------
// Bind and skeleton accounting.
// -------------------------------------------------------------------

TEST(BatchWalk, BatchPaysKPlusNMinus1PKernelBinds) {
  const Session walk(shaped("auto", 4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = walk.compile(make_mixed_circuit(6));
  const std::vector<std::vector<double>> p1 = sweep_points(compiled, 1);
  walk.run(compiled, p1[0]);  // warm the skeleton cache

  // A batch of N pays K + (N-1)*P kernel binds: K full binds for the
  // first point of each stage, then only the P parameter-dependent
  // kernels per additional point. Probe K, then solve for P from two
  // batch sizes and check the affine structure holds exactly.
  const std::uint64_t b0 = exec::stage_kernel_binds();
  walk.run(compiled, p1[0]);
  const std::uint64_t k = exec::stage_kernel_binds() - b0;  // K + 0*P
  obs::Counter& runs = obs::counter(obs::names::kExecRuns);
  const std::uint64_t runs0 = runs.value();
  const std::uint64_t b1 = exec::stage_kernel_binds();
  walk.sweep(compiled, sweep_points(compiled, 8));
  const std::uint64_t binds8 = exec::stage_kernel_binds() - b1;  // K + 7P
  EXPECT_EQ(runs.value() - runs0, 8u);  // one run per batch point
  const std::uint64_t b2 = exec::stage_kernel_binds();
  walk.sweep(compiled, sweep_points(compiled, 16));
  const std::uint64_t binds16 = exec::stage_kernel_binds() - b2;  // K + 15P

  ASSERT_GT(k, 0u);
  ASSERT_GE(binds8, k);
  const std::uint64_t p8 = binds8 - k;    // 7P
  const std::uint64_t p16 = binds16 - k;  // 15P
  EXPECT_EQ(p8 % 7, 0u);
  EXPECT_EQ(p16 % 15, 0u);
  EXPECT_EQ(p8 / 7, p16 / 15);  // same P both ways
  EXPECT_GT(p8 / 7, 0u);        // the swept kernel re-binds per point
  EXPECT_LT(p8 / 7, k);         // and the constant ones do not
  // The whole point: far fewer binds than naive N*K rebinding.
  EXPECT_LT(binds16, 16 * k);
}

TEST(BatchWalk, SweepBuildsOneSkeletonPerStage) {
  const Session walk(shaped("offload", 4, 2, 0, /*gpus=*/2));
  const CompiledCircuit compiled = walk.compile(make_ansatz(6, 2));
  const std::vector<std::vector<double>> points = sweep_points(compiled, 12);
  const std::uint64_t stages = compiled.plan()->stages.size();
  ASSERT_GT(stages, 0u);

  const std::uint64_t s0 = exec::stage_skeleton_compiles();
  walk.sweep(compiled, points);  // cold: every stage builds once
  EXPECT_EQ(exec::stage_skeleton_compiles() - s0, stages);
  const std::uint64_t s1 = exec::stage_skeleton_compiles();
  walk.sweep(compiled, points);  // warm: the plan's cache serves all
  EXPECT_EQ(exec::stage_skeleton_compiles() - s1, 0u);
}

}  // namespace
}  // namespace atlas
