// Verification-layer tests: adversarial corruption of every artifact
// the verify/ checkers cover (hand-assembled circuits, stagings,
// plans, stage programs, Kraus sets, readout confusion), asserting the
// precise diagnostic Code each corruption class raises — plus a
// clean-pass property sweep over the Table-I benchmark families at
// paranoid level proving the checkers raise no false positives on
// everything the real pipeline produces.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "common/bits.h"
#include "core/pipeline.h"
#include "exec/executor.h"
#include "exec/stage_program.h"
#include "ir/circuit.h"
#include "ir/gate.h"
#include "ir/matrix.h"
#include "ir/param.h"
#include "kernelize/kernelizer.h"
#include "noise/channel.h"
#include "noise/model.h"
#include "sim/shm_executor.h"
#include "staging/registry.h"
#include "staging/stage.h"
#include "verify/verify.h"

namespace atlas {
namespace {

using verify::Code;
using verify::VerifyLevel;
using verify::VerifyReport;

bool has_code(const VerifyReport& report, Code code) {
  for (const auto& d : report.diags)
    if (d.code == code) return true;
  return false;
}

// Renders the report into the gtest failure message.
::testing::AssertionResult clean(const VerifyReport& report) {
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

exec::ExecutionPlan make_plan(const Circuit& circuit,
                              const staging::MachineShape& shape) {
  CompilePipeline::Config pc;
  pc.shape = shape;
  pc.verify = VerifyLevel::off;  // tests corrupt the artifacts themselves
  CompilePipeline pipeline(pc, staging::stager_registry().create("auto"),
                          kernelize::kernelizer_registry().create("best"));
  return pipeline.build_plan(circuit, nullptr);
}

// ghz(4) = h q0; cx q0,q1; cx q1,q2; cx q2,q3 — and a staging of it
// that verify_staged accepts, which the corruption tests then break.
staging::MachineShape shape211() { return {2, 1, 1}; }

staging::StagedCircuit valid_ghz4_staging() {
  staging::StagedCircuit staged;
  staged.stages.push_back({{0, 1}, {{0, 1}, {2}, {3}}});
  staged.stages.push_back({{2, 3}, {{2, 3}, {1}, {0}}});
  return staged;
}

// --- circuit invariants -------------------------------------------------

TEST(VerifyCircuit, ConstructorsAlreadyRejectDuplicateQubits) {
  // Code::duplicate_qubit exists for deserialized/corrupted gates; the
  // factories are the first line of defense and refuse to build one.
  EXPECT_THROW(Gate::unitary({0, 0}, Matrix::identity(4)), Error);
}

TEST(VerifyCircuit, NonunitaryMatrixCaughtOnlyAtParanoid) {
  Circuit c(1);
  c.add(Gate::unitary({0}, Matrix::square(2, {{2, 0}, {0, 0}, {0, 0}, {2, 0}})));
  EXPECT_TRUE(clean(verify::verify_circuit(c, VerifyLevel::boundaries)));
  const auto report = verify::verify_circuit(c, VerifyLevel::paranoid);
  EXPECT_TRUE(has_code(report, Code::nonunitary_matrix));
}

TEST(VerifyCircuit, DanglingSlotSymbol) {
  Circuit c(1);
  c.add(Gate::rx(0, Param::symbol("$2")));  // slots must be dense {$0}
  const auto report = verify::verify_circuit(c);
  EXPECT_TRUE(has_code(report, Code::dangling_slot));
}

TEST(VerifyCircuit, DenseSlotsPass) {
  Circuit c(2);
  c.add(Gate::rx(0, Param::symbol("$0")));
  c.add(Gate::rz(1, Param::symbol("$1")));
  EXPECT_TRUE(clean(verify::verify_circuit(c, VerifyLevel::paranoid)));
}

// --- staging invariants -------------------------------------------------

TEST(VerifyStaged, ValidStagingPasses) {
  const Circuit c = circuits::ghz(4);
  EXPECT_TRUE(clean(verify::verify_staged(c, valid_ghz4_staging(), shape211())));
}

TEST(VerifyStaged, GateUnstaged) {
  const Circuit c = circuits::ghz(4);
  auto staged = valid_ghz4_staging();
  staged.stages[1].gate_indices.pop_back();  // drop gate 3
  const auto report = verify::verify_staged(c, staged, shape211());
  EXPECT_TRUE(has_code(report, Code::gate_unstaged));
}

TEST(VerifyStaged, GateDoubleStaged) {
  const Circuit c = circuits::ghz(4);
  auto staged = valid_ghz4_staging();
  staged.stages[1].gate_indices.push_back(1);  // gate 1 already in stage 0
  const auto report = verify::verify_staged(c, staged, shape211());
  EXPECT_TRUE(has_code(report, Code::gate_double_staged));
}

TEST(VerifyStaged, DependencyRunsBackwards) {
  const Circuit c = circuits::ghz(4);
  auto staged = valid_ghz4_staging();
  std::swap(staged.stages[0], staged.stages[1]);
  const auto report = verify::verify_staged(c, staged, shape211());
  EXPECT_TRUE(has_code(report, Code::stage_order));
}

TEST(VerifyStaged, NonInsularQubitNotLocal) {
  const Circuit c = circuits::ghz(4);
  auto staged = valid_ghz4_staging();
  // cx q1,q2 executes in stage 1; banish its target to global.
  staged.stages[1].partition = {{0, 3}, {1}, {2}};
  const auto report = verify::verify_staged(c, staged, shape211());
  EXPECT_TRUE(has_code(report, Code::stage_locality));
}

TEST(VerifyStaged, PartitionNotPermutation) {
  const Circuit c = circuits::ghz(4);
  auto staged = valid_ghz4_staging();
  staged.stages[1].partition = {{2, 2}, {1}, {0}};  // qubit 2 twice, 3 gone
  const auto report = verify::verify_staged(c, staged, shape211());
  EXPECT_TRUE(has_code(report, Code::partition_not_permutation));
}

// --- plan invariants ----------------------------------------------------

TEST(VerifyPlan, RealPlanPasses) {
  const Circuit c = circuits::ghz(4);
  const auto plan = make_plan(c, shape211());
  EXPECT_TRUE(clean(
      verify::verify_plan(plan, shape211(), &c, VerifyLevel::paranoid)));
}

TEST(VerifyPlan, SubcircuitIndexMismatch) {
  const Circuit c = circuits::ghz(4);
  auto plan = make_plan(c, shape211());
  ASSERT_FALSE(plan.stages.empty());
  ASSERT_FALSE(plan.stages[0].original_indices.empty());
  plan.stages[0].original_indices.pop_back();
  const auto report = verify::verify_plan(plan, shape211());
  EXPECT_TRUE(has_code(report, Code::stage_subcircuit_mismatch));
}

TEST(VerifyPlan, KernelDropsAGate) {
  const Circuit c = circuits::ghz(4);
  auto plan = make_plan(c, shape211());
  ASSERT_FALSE(plan.stages.empty());
  ASSERT_FALSE(plan.stages[0].kernels.kernels.empty());
  auto& kernel = plan.stages[0].kernels.kernels.back();
  ASSERT_FALSE(kernel.gate_indices.empty());
  kernel.gate_indices.pop_back();
  const auto report = verify::verify_plan(plan, shape211());
  EXPECT_TRUE(has_code(report, Code::kernel_coverage));
}

TEST(VerifyPlan, KernelLiesAboutItsQubits) {
  const Circuit c = circuits::ghz(4);
  auto plan = make_plan(c, shape211());
  ASSERT_FALSE(plan.stages.empty());
  ASSERT_FALSE(plan.stages[0].kernels.kernels.empty());
  auto& kernel = plan.stages[0].kernels.kernels[0];
  ASSERT_FALSE(kernel.qubits.empty());
  kernel.qubits.pop_back();  // declared union no longer matches members
  const auto report = verify::verify_plan(plan, shape211());
  EXPECT_TRUE(has_code(report, Code::kernel_qubits));
}

// --- stage-program invariants -------------------------------------------

TEST(VerifyStageProgram, PatternBitsUnsortedOrOutOfRange) {
  exec::StageProgram program;
  exec::KernelProgram kp;
  kp.pattern_bits = {1, 0};  // not ascending
  kp.variants.resize(4);
  program.kernels.push_back(
      std::make_shared<const exec::KernelProgram>(std::move(kp)));
  auto report = verify::verify_stage_program(program, 2, 2);
  EXPECT_TRUE(has_code(report, Code::pattern_bits_invalid));

  exec::KernelProgram kp2;
  kp2.pattern_bits = {0, 5};  // 5 >= num_shard_bits
  kp2.variants.resize(4);
  program.kernels[0] =
      std::make_shared<const exec::KernelProgram>(std::move(kp2));
  report = verify::verify_stage_program(program, 2, 2);
  EXPECT_TRUE(has_code(report, Code::pattern_bits_invalid));
}

TEST(VerifyStageProgram, VariantCountMismatch) {
  exec::StageProgram program;
  exec::KernelProgram kp;
  kp.pattern_bits = {0};
  kp.variants.resize(1);  // want 2^1 = 2
  program.kernels.push_back(
      std::make_shared<const exec::KernelProgram>(std::move(kp)));
  const auto report = verify::verify_stage_program(program, 2, 2);
  EXPECT_TRUE(has_code(report, Code::variant_count));
}

TEST(VerifyStageProgram, GatherTableRepeatsAnOffset) {
  exec::StageProgram program;
  exec::KernelProgram kp;
  kp.variants.resize(1);
  kp.variants[0].op = exec::KernelVariant::Op::Shm;
  kp.variants[0].shm.active = {0};
  kp.variants[0].shm.offset = {3, 3};  // size ok, but not injective
  program.kernels.push_back(
      std::make_shared<const exec::KernelProgram>(std::move(kp)));
  const auto report = verify::verify_stage_program(program, 2, 2);
  EXPECT_TRUE(has_code(report, Code::gather_not_bijective));
}

TEST(VerifyStageProgram, GatherTableExceedsShardBounds) {
  exec::StageProgram program;
  exec::KernelProgram kp;
  kp.variants.resize(1);
  kp.variants[0].op = exec::KernelVariant::Op::Shm;
  kp.variants[0].shm.active = {0};
  kp.variants[0].shm.offset = {1, 7};  // shard holds 2^2 = 4 amplitudes
  program.kernels.push_back(
      std::make_shared<const exec::KernelProgram>(std::move(kp)));
  const auto report = verify::verify_stage_program(program, 2, 2);
  EXPECT_TRUE(has_code(report, Code::gather_not_bijective));
}

/// A stage program holding one Shm kernel whose single variant is `shm`.
exec::StageProgram one_shm_kernel(ShmProgram shm) {
  exec::StageProgram program;
  exec::KernelProgram kp;
  kp.variants.resize(1);
  kp.variants[0].op = exec::KernelVariant::Op::Shm;
  kp.variants[0].shm = std::move(shm);
  program.kernels.push_back(
      std::make_shared<const exec::KernelProgram>(std::move(kp)));
  return program;
}

TEST(VerifyStageProgram, CompiledShmProgramIsClean) {
  MatrixOp h;
  h.m = Gate::h(0).target_matrix();
  h.targets = {4};
  const ShmSkeleton skel = compile_shm_skeleton({h});
  const ShmProgram shm = bind_shm_program(skel, {&h.m});
  ASSERT_EQ(shm.active, (std::vector<int>{0, 1, 2, 4}));
  const auto report = verify::verify_stage_program(one_shm_kernel(shm), 5, 0);
  EXPECT_TRUE(clean(report)) << report.to_string();
}

TEST(VerifyStageProgram, ShmActiveBitsMissTheLowRun) {
  // A bijective table over bits {0, 1, 3}: the replay's 8-amplitude
  // gather would read past the 8-Amp scratch and the table's bit 2.
  ShmProgram shm;
  shm.active = {0, 1, 3};
  for (Index v = 0; v < 8; ++v) shm.offset.push_back(spread_bits(v, shm.active));
  const auto report = verify::verify_stage_program(one_shm_kernel(shm), 4, 0);
  EXPECT_TRUE(has_code(report, Code::shm_runs_invalid));
  EXPECT_FALSE(has_code(report, Code::gather_not_bijective));
}

TEST(VerifyStageProgram, ShmOffsetTableBreaksAnEightAmpRun) {
  // Bits 0-2 are active and the table is a bijection, but two entries
  // of the first run are swapped, so copying whole runs would misplace
  // them.
  ShmProgram shm;
  shm.active = {0, 1, 2, 3};
  for (Index v = 0; v < 16; ++v) shm.offset.push_back(spread_bits(v, shm.active));
  std::swap(shm.offset[1], shm.offset[2]);
  const auto report = verify::verify_stage_program(one_shm_kernel(shm), 4, 0);
  EXPECT_TRUE(has_code(report, Code::shm_runs_invalid));
  EXPECT_FALSE(has_code(report, Code::gather_not_bijective));
}

// --- noise invariants ---------------------------------------------------

TEST(VerifyNoise, KrausOperatorWrongShape) {
  const auto report =
      verify::verify_kraus_ops({Matrix::identity(4)}, /*num_qubits=*/1);
  EXPECT_TRUE(has_code(report, Code::kraus_shape));
}

TEST(VerifyNoise, KrausSetNotCptp) {
  // sum K^dagger K = I/4: trace-decreasing, violates completeness.
  const Matrix k = Matrix::square(2, {{0.5, 0}, {0, 0}, {0, 0}, {0.5, 0}});
  const auto report = verify::verify_kraus_ops({k}, /*num_qubits=*/1);
  EXPECT_TRUE(has_code(report, Code::non_cptp));
}

TEST(VerifyNoise, ValidKrausSetPasses) {
  const auto ch = noise::KrausChannel::amplitude_damping(0.25);
  EXPECT_TRUE(clean(verify::verify_kraus_ops(ch.kraus_ops(), 1)));
}

TEST(VerifyNoise, ReadoutConfusionRowsNotStochastic) {
  noise::ReadoutError bad;
  bad.p01 = 1.5;
  bad.p10 = -0.1;
  const auto report = verify::verify_readout(bad, /*qubit=*/0);
  EXPECT_TRUE(has_code(report, Code::readout_not_stochastic));
  EXPECT_TRUE(clean(verify::verify_readout({0.01, 0.03}, 0)));
}

TEST(VerifyNoise, WellFormedModelPassesParanoid) {
  noise::NoiseModel model;
  model.after_all_gates(noise::KrausChannel::depolarizing(0.01));
  model.after_gate("cx", noise::KrausChannel::amplitude_damping(0.02));
  model.readout_error_all(0.01, 0.03);
  EXPECT_TRUE(clean(
      verify::verify_noise_model(model, 4, VerifyLevel::paranoid)));
}

// --- check() escalation -------------------------------------------------

TEST(VerifyCheck, ThrowsWithEveryDiagnosticInTheMessage) {
  Circuit c(1);
  c.add(Gate::rx(0, Param::symbol("$7")));
  const auto report = verify::verify_circuit(c);
  try {
    verify::check(report, ErrorCode::invalid_argument);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("dangling_slot"), std::string::npos);
  }
}

TEST(VerifyCheck, CleanReportIsANoOp) {
  EXPECT_NO_THROW(verify::check(verify::verify_circuit(circuits::ghz(3))));
}

// --- clean-pass property sweep ------------------------------------------

// Every Table-I family circuit the real pipeline can produce must pass
// the paranoid checkers at every phase: zero false positives is as
// much a part of the verifier's contract as catching corruption.
TEST(VerifyProperty, TableOneFamiliesCleanAtParanoid) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> qubits(4, 6);
  const std::vector<std::pair<std::string, Circuit (*)(int)>> families = {
      {"ghz", circuits::ghz},       {"dj", circuits::dj},
      {"graphstate", circuits::graphstate},
      {"ising", circuits::ising},   {"qft", circuits::qft},
      {"wstate", circuits::wstate},
  };
  for (const int opt_level : {0, 2}) {
    for (const auto& [name, make] : families) {
      const int n = qubits(rng);
      const Circuit c = make(n);
      SCOPED_TRACE(name + "(" + std::to_string(n) + ") opt " +
                   std::to_string(opt_level));
      EXPECT_TRUE(clean(verify::verify_circuit(c, VerifyLevel::paranoid)));

      CompilePipeline::Config pc;
      pc.shape = {n - 2, 1, 1};
      pc.opt.level = opt_level;
      pc.verify = VerifyLevel::paranoid;  // pipeline throws on any finding
      CompilePipeline pipeline(pc, staging::stager_registry().create("auto"),
                              kernelize::kernelizer_registry().create("best"));
      exec::ExecutionPlan plan;
      ASSERT_NO_THROW(plan = pipeline.build_plan(pipeline.optimize(c), nullptr));
      EXPECT_TRUE(clean(verify::verify_plan(plan, pc.shape, nullptr,
                                            VerifyLevel::paranoid)));
    }
  }
}

// Seeded-parameter families (random rotation angles) exercise the
// unitarity checks with matrices far from the named-gate library.
TEST(VerifyProperty, SeededFamiliesCleanAtParanoid) {
  std::mt19937 rng(77);
  std::uniform_int_distribution<int> qubits(4, 6);
  for (const int opt_level : {0, 2}) {
    for (int trial = 0; trial < 3; ++trial) {
      const int n = qubits(rng);
      const std::uint64_t seed = rng();
      const Circuit c = trial == 0   ? circuits::qsvm(n, seed)
                        : trial == 1 ? circuits::su2random(n, seed)
                                     : circuits::vqc(n, seed);
      SCOPED_TRACE(c.name() + " n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed) + " opt=" + std::to_string(opt_level));
      EXPECT_TRUE(clean(verify::verify_circuit(c, VerifyLevel::paranoid)));

      CompilePipeline::Config pc;
      pc.shape = {n - 2, 1, 1};
      pc.opt.level = opt_level;
      pc.verify = VerifyLevel::paranoid;
      CompilePipeline pipeline(pc, staging::stager_registry().create("auto"),
                              kernelize::kernelizer_registry().create("best"));
      ASSERT_NO_THROW(pipeline.build_plan(pipeline.optimize(c), nullptr));
    }
  }
}

}  // namespace
}  // namespace atlas
