// Distributed-execution tests: layout/remap correctness, insular
// partial evaluation, and end-to-end equivalence of the full Atlas
// pipeline (STAGE + KERNELIZE + EXECUTE) against the reference
// simulator, across circuit families, machine shapes, and offloading.

#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/families.h"
#include "common/rng.h"
#include "core/atlas.h"
#include "exec/partial_eval.h"
#include "exec/remap.h"
#include "sim/reference.h"

namespace atlas {
namespace {

constexpr double kTol = 1e-9;

exec::Layout layout_for(const std::vector<Qubit>& order, int num_local) {
  exec::Layout l;
  l.num_local = num_local;
  const int n = static_cast<int>(order.size());
  l.phys_of_logical.assign(n, -1);
  l.logical_of_phys.assign(n, -1);
  for (int p = 0; p < n; ++p) {
    l.logical_of_phys[p] = order[p];
    l.phys_of_logical[order[p]] = p;
  }
  return l;
}

TEST(DistState, ScatterGatherRoundTrip) {
  const StateVector sv = StateVector::random(8, 42);
  const auto layout = layout_for({3, 1, 7, 0, 2, 6, 4, 5}, 5);
  const exec::DistState st = exec::DistState::scatter(sv, layout);
  EXPECT_EQ(st.num_shards(), 8);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

TEST(DistState, ZeroStateHasUnitAmplitudeAtZero) {
  const auto layout = layout_for({2, 0, 1, 3}, 2);
  const exec::DistState st = exec::DistState::zero_state(layout);
  const StateVector sv = st.gather();
  EXPECT_EQ(sv[0], Amp(1, 0));
  EXPECT_NEAR(sv.norm_sq(), 1.0, kTol);
}

TEST(Remap, PreservesStateAcrossArbitraryPermutations) {
  const StateVector sv = StateVector::random(9, 7);
  device::ClusterConfig cc;
  cc.local_qubits = 5;
  cc.regional_qubits = 2;
  cc.global_qubits = 2;
  cc.gpus_per_node = 4;
  cc.num_threads = 2;
  device::Cluster cluster(cc);
  exec::DistState st =
      exec::DistState::scatter(sv, layout_for({0, 1, 2, 3, 4, 5, 6, 7, 8}, 5));
  // Chain several remaps through scrambled layouts, then return.
  const auto l1 = layout_for({8, 6, 4, 2, 0, 7, 5, 3, 1}, 5);
  const auto l2 = layout_for({1, 3, 5, 7, 8, 0, 2, 4, 6}, 5);
  const auto l0 = layout_for({0, 1, 2, 3, 4, 5, 6, 7, 8}, 5);
  auto stats = exec::remap(st, l1, cluster);
  EXPECT_GT(stats.inter_node_bytes + stats.intra_node_bytes, 0u);
  exec::remap(st, l2, cluster);
  exec::remap(st, l0, cluster);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

TEST(Remap, IdentityMovesNothing) {
  const StateVector sv = StateVector::random(7, 3);
  device::ClusterConfig cc;
  cc.local_qubits = 4;
  cc.regional_qubits = 2;
  cc.global_qubits = 1;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);
  const auto l = layout_for({0, 1, 2, 3, 4, 5, 6}, 4);
  exec::DistState st = exec::DistState::scatter(sv, l);
  const auto stats = exec::remap(st, l, cluster);
  EXPECT_EQ(stats.intra_node_bytes, 0u);
  EXPECT_EQ(stats.inter_node_bytes, 0u);
  EXPECT_EQ(stats.alltoall_rounds, 0);
}

TEST(Remap, LocalOnlyShuffleStaysIntraGpu) {
  // Permuting only local positions never crosses shard boundaries.
  const StateVector sv = StateVector::random(7, 9);
  device::ClusterConfig cc;
  cc.local_qubits = 4;
  cc.regional_qubits = 2;
  cc.global_qubits = 1;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);
  exec::DistState st =
      exec::DistState::scatter(sv, layout_for({0, 1, 2, 3, 4, 5, 6}, 4));
  const auto stats =
      exec::remap(st, layout_for({3, 2, 1, 0, 4, 5, 6}, 4), cluster);
  EXPECT_EQ(stats.intra_node_bytes, 0u);
  EXPECT_EQ(stats.inter_node_bytes, 0u);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

// Random layout chains with shard_xor on both sides: every remap must
// produce exactly (==) the shards of scattering the gathered state into
// the new layout, and meter exactly the bytes a per-amplitude walk
// attributes to each link class.
TEST(Remap, RandomChainsAreBitExactAndMeteredPerAmplitude) {
  Rng rng(31337);
  int blocked = 0, unblocked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    device::ClusterConfig cc;
    // Shards past 2^8 amplitudes take more than one lookup table.
    cc.local_qubits = static_cast<int>(trial < 4 ? 3 + rng.index(3)
                                                 : 9 + rng.index(3));
    cc.regional_qubits = 1 + static_cast<int>(rng.index(2));
    cc.global_qubits = static_cast<int>(rng.index(3));
    cc.gpus_per_node = 1 << cc.regional_qubits;
    cc.num_threads = 2;
    device::Cluster cluster(cc);
    const int n = cc.total_qubits();
    const int L = cc.local_qubits;
    const Index num_shards = Index{1} << (n - L);

    exec::Layout layout = exec::Layout::identity(n, L);
    layout.shard_xor = rng.index(num_shards);
    exec::DistState st =
        exec::DistState::scatter(StateVector::random(n, 50 + trial), layout);
    for (int step = 0; step < 8; ++step) {
      // Half the steps keep a random prefix of physical positions in
      // place (block_bits > 0), the rest shuffle every position.
      const int keep = step % 2 == 0 ? 0 : 1 + static_cast<int>(rng.index(L));
      std::vector<Qubit> order = st.layout().logical_of_phys;
      std::shuffle(order.begin() + keep, order.end(), rng.engine());
      exec::Layout next = layout_for(order, L);
      next.shard_xor = rng.index(num_shards);
      if (order[0] == st.layout().logical_of_phys[0]) ++blocked;
      else ++unblocked;

      const bool same = order == st.layout().logical_of_phys &&
                        next.shard_xor == st.layout().shard_xor;
      const exec::DistState expected =
          exec::DistState::scatter(st.gather(), next);
      device::CommStats counted;
      for (int s1 = 0; s1 < static_cast<int>(num_shards); ++s1)
        for (Index o = 0; o < st.shard_size(); ++o) {
          const int s0 = st.layout().locate(next.logical_of(s1, o)).first;
          if (s0 == s1) counted.intra_gpu_bytes += sizeof(Amp);
          else if (cluster.node_of_shard(s0) == cluster.node_of_shard(s1))
            counted.intra_node_bytes += sizeof(Amp);
          else counted.inter_node_bytes += sizeof(Amp);
        }

      const device::CommStats stats = exec::remap(st, next, cluster);
      for (int s = 0; s < st.num_shards(); ++s)
        ASSERT_EQ(st.shard(s), expected.shard(s))
            << "trial " << trial << " step " << step << " shard " << s;
      EXPECT_EQ(st.layout().logical_of_phys, next.logical_of_phys);
      EXPECT_EQ(st.layout().shard_xor, next.shard_xor);
      if (same) counted = device::CommStats{};  // nothing moves
      EXPECT_EQ(stats.intra_gpu_bytes, counted.intra_gpu_bytes);
      EXPECT_EQ(stats.intra_node_bytes, counted.intra_node_bytes);
      EXPECT_EQ(stats.inter_node_bytes, counted.inter_node_bytes);
    }
  }
  EXPECT_GT(blocked, 0);
  EXPECT_GT(unblocked, 0);
}

TEST(PartialEval, NonLocalControlSkipsOrDrops) {
  // Layout: qubit 2 is non-local (position 3 of 4, L=3).
  const auto layout = layout_for({0, 1, 3, 2}, 3);
  const Gate cx = Gate::cx(2, 0);  // control q2 (non-local), target q0
  // Shard 0: q2 = 0 -> skip.
  const auto op0 = exec::partial_evaluate(cx, layout, 0);
  EXPECT_TRUE(op0.skip);
  // Shard 1: q2 = 1 -> plain X on q0.
  const auto op1 = exec::partial_evaluate(cx, layout, 1);
  ASSERT_TRUE(op1.gate.has_value());
  EXPECT_EQ(op1.gate->num_controls(), 0);
  EXPECT_TRUE(op1.gate->target_matrix().is_antidiagonal());
}

TEST(PartialEval, DiagonalGateRestriction) {
  const auto layout = layout_for({0, 1, 3, 2}, 3);
  const Gate cp = Gate::cp(2, 0, 0.7);  // fully diagonal, q2 non-local
  // Shard 1 (q2=1): P(0.7) remains on q0.
  const auto op = exec::partial_evaluate(cp, layout, 1);
  ASSERT_TRUE(op.gate.has_value());
  const Matrix m = op.gate->target_matrix();
  EXPECT_NEAR(std::arg(m(1, 1)), 0.7, kTol);
  // Shard 0 (q2=0): identity.
  const auto op0 = exec::partial_evaluate(cp, layout, 0);
  if (op0.gate.has_value()) {
    EXPECT_LT(Matrix::max_abs_diff(op0.gate->target_matrix(),
                                   Matrix::identity(2)),
              kTol);
  } else {
    EXPECT_TRUE(op0.skip || op0.scale == Amp(1, 0));
  }
}

TEST(PartialEval, AntidiagonalFlip) {
  const auto layout = layout_for({0, 1, 3, 2}, 3);
  const auto op = exec::partial_evaluate(Gate::x(2), layout, 0);
  EXPECT_EQ(op.flip_phys_bit, 3);
  EXPECT_EQ(op.scale, Amp(1, 0));
  // Y carries the +-i phases.
  const auto opy0 = exec::partial_evaluate(Gate::y(2), layout, 0);
  const auto opy1 = exec::partial_evaluate(Gate::y(2), layout, 1);
  EXPECT_EQ(opy0.scale, Amp(0, 1));
  EXPECT_EQ(opy1.scale, Amp(0, -1));
}

// ---------------------------------------------------------------------------
// End-to-end: the full pipeline must match the reference simulator.

SimulatorConfig small_config(int n, int local, int regional, int global,
                             int gpus_per_node) {
  SimulatorConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = gpus_per_node;
  cfg.cluster.num_threads = 2;
  EXPECT_EQ(cfg.cluster.total_qubits(), n);
  return cfg;
}

class EndToEndFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EndToEndFamilyTest, MatchesReference) {
  const int n = 12;
  const Circuit c = circuits::make_family(GetParam(), n);
  const Simulator sim(small_config(n, 8, 2, 2, 4));
  const SimulationResult result = sim.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EndToEndFamilyTest,
                         ::testing::ValuesIn(circuits::family_names()));

TEST(EndToEnd, RandomCircuitsAcrossShapes) {
  struct Shape {
    int local, regional, global, gpus;
  };
  const Shape shapes[] = {
      {10, 0, 0, 1}, {8, 2, 0, 4}, {8, 0, 2, 1}, {7, 2, 1, 4}, {6, 2, 2, 4},
  };
  for (const auto& sh : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Circuit c = circuits::random_circuit(10, 60, seed);
      const Simulator sim(
          small_config(10, sh.local, sh.regional, sh.global, sh.gpus));
      const SimulationResult result = sim.simulate(c);
      const StateVector expected = simulate_reference(c);
      EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
          << "L=" << sh.local << " R=" << sh.regional << " G=" << sh.global
          << " seed=" << seed;
    }
  }
}

TEST(EndToEnd, OffloadingMatchesReference) {
  // 2^2 = 4 DRAM shards per node but only 1 physical GPU: shards swap
  // through the GPU (Section VII-C).
  const int n = 11;
  SimulatorConfig cfg = small_config(n, 7, 3, 1, 1);
  EXPECT_TRUE(cfg.cluster.offloading());
  const Circuit c = circuits::qft(n);
  const Simulator sim(cfg);
  const SimulationResult result = sim.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8);
  EXPECT_GT(result.report.totals.offload_bytes, 0u);
}

TEST(EndToEnd, ReportAccounting) {
  const int n = 11;
  const Circuit c = circuits::su2random(n);
  const Simulator sim(small_config(n, 8, 2, 1, 4));
  const SimulationResult r = sim.simulate(c);
  EXPECT_EQ(r.report.stages.size(), r.plan->stages.size());
  EXPECT_GT(r.report.wall_seconds, 0.0);
  EXPECT_GT(r.report.totals.kernel_bytes, 0u);
  // Multi-stage plans must have moved data between devices.
  if (r.plan->stages.size() > 1) {
    EXPECT_GT(r.report.totals.intra_node_bytes +
                  r.report.totals.inter_node_bytes,
              0u);
  }
  const double modeled = r.report.modeled_seconds(
      sim.config().comm, sim.cluster().config().num_nodes() * 4,
      sim.cluster().config().num_nodes());
  EXPECT_GT(modeled, 0.0);
}

TEST(EndToEnd, PlanIsReusableAcrossRuns) {
  const int n = 10;
  const Circuit c = circuits::ising(n);
  const Simulator sim(small_config(n, 7, 2, 1, 4));
  const exec::ExecutionPlan plan = sim.plan(c);
  exec::DistState s1 = exec::initial_state(plan, sim.cluster());
  exec::DistState s2 = exec::initial_state(plan, sim.cluster());
  sim.execute(plan, s1);
  sim.execute(plan, s2);
  EXPECT_LT(s1.gather().max_abs_diff(s2.gather()), kTol);
}

TEST(EndToEnd, XGateOnGlobalQubitViaShardXor) {
  // A circuit that forces X on a qubit the stager keeps non-local:
  // only insular gates touch the high qubit.
  const int n = 10;
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.add(Gate::h(std::min(q, 7)));
  c.add(Gate::x(9));           // insular, can stay global
  c.add(Gate::cp(9, 0, 0.5));  // diagonal, reads q9 = 1 now
  const Simulator sim(small_config(n, 8, 1, 1, 2));
  const SimulationResult result = sim.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8);
}

TEST(EndToEnd, HhlSmallMatchesReference) {
  const Circuit c = circuits::hhl(5, 10);
  const Simulator sim(small_config(10, 7, 2, 1, 4));
  const SimulationResult result = sim.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-7);
}

}  // namespace
}  // namespace atlas
