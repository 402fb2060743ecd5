// Property tests for the apply fast paths: every specialized kernel
// (1q/2q dense, diagonal, permutation, blocked general-k, shm programs)
// must produce amplitudes exactly equal (operator==, which treats
// -0.0 == +0.0) to a naive textbook gather/mat-vec/scatter loop, across
// randomized gates, randomized states, and randomized bit layouts.
// Exactness is the contract that lets the executor pick fast paths
// freely without perturbing results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/rng.h"
#include "ir/gate.h"
#include "sim/apply.h"
#include "sim/fusion.h"
#include "sim/reference.h"
#include "sim/shm_executor.h"
#include "sim/state_vector.h"

namespace atlas {
namespace {

/// The textbook loop the fast paths must reproduce bit-for-bit: gather
/// the 2^k amplitudes of each group, dense mat-vec in ascending column
/// order, scatter back.
void naive_apply(std::vector<Amp>& amps, const std::vector<int>& targets,
                 const std::vector<int>& controls, const Matrix& m) {
  const int k = static_cast<int>(targets.size());
  const int c = static_cast<int>(controls.size());
  std::vector<int> all = targets;
  all.insert(all.end(), controls.begin(), controls.end());
  std::sort(all.begin(), all.end());
  Index ctrl_mask = 0;
  for (int cq : controls) ctrl_mask |= bit(cq);
  const Index dim = Index{1} << k;
  const Index groups = static_cast<Index>(amps.size()) >> (k + c);
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, all) | ctrl_mask;
    for (Index v = 0; v < dim; ++v) in[v] = amps[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index col = 0; col < dim; ++col)
        acc += m(static_cast<int>(r), static_cast<int>(col)) * in[col];
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) amps[base | offset[v]] = out[v];
  }
}

std::vector<Amp> random_amps(int n, std::uint64_t seed) {
  return StateVector::random(n, seed).amplitudes();
}

/// Draws `count` distinct bit positions in [0, n).
std::vector<int> random_bits(Rng& rng, int n, int count) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < count; ++i)
    std::swap(all[i], all[i + static_cast<int>(rng.index(n - i))]);
  all.resize(count);
  return all;
}

/// A gate pool covering every fast-path class: dense/diagonal/
/// anti-diagonal 1q, controlled, 2q dense and diagonal, 3q
/// permutations.
Gate random_gate(Rng& rng, const std::vector<int>& q) {
  switch (rng.index(18)) {
    case 0: return Gate::h(q[0]);
    case 1: return Gate::x(q[0]);
    case 2: return Gate::y(q[0]);
    case 3: return Gate::z(q[0]);
    case 4: return Gate::s(q[0]);
    case 5: return Gate::t(q[0]);
    case 6: return Gate::sx(q[0]);
    case 7: return Gate::rz(q[0], rng.uniform(0, 6.28));
    case 8: return Gate::u3(q[0], rng.uniform(0, 3.1), rng.uniform(0, 3.1),
                            rng.uniform(0, 3.1));
    case 9: return Gate::cx(q[0], q[1]);
    case 10: return Gate::cz(q[0], q[1]);
    case 11: return Gate::cp(q[0], q[1], rng.uniform(0, 6.28));
    case 12: return Gate::crx(q[0], q[1], rng.uniform(0, 6.28));
    case 13: return Gate::swap(q[0], q[1]);
    case 14: return Gate::rzz(q[0], q[1], rng.uniform(0, 6.28));
    case 15: return Gate::rxx(q[0], q[1], rng.uniform(0, 6.28));
    case 16: return Gate::ccx(q[0], q[1], q[2]);
    default: return Gate::ccz(q[0], q[1], q[2]);
  }
}

class FastPathTest : public ::testing::TestWithParam<int> {};

TEST_P(FastPathTest, RandomGatesRandomLayoutsMatchNaiveExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 1299709);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 3 + static_cast<int>(rng.index(6));  // 3..8 bits
    std::vector<Amp> a = random_amps(n, seed * 131 + trial);
    std::vector<Amp> b = a;
    const Gate g = random_gate(rng, random_bits(rng, n, 3));

    // Randomized layout: logical qubit q lives at buffer bit
    // bit_of_qubit[q], a random permutation — the naive reference gets
    // the already-mapped positions, so any remapping bug diverges.
    const std::vector<int> bit_of_qubit = random_bits(rng, n, n);
    apply_gate_mapped(a.data(), static_cast<Index>(a.size()), g,
                      bit_of_qubit);

    std::vector<int> targets, controls;
    for (Qubit q : g.targets())
      targets.push_back(bit_of_qubit[static_cast<std::size_t>(q)]);
    for (Qubit q : g.controls())
      controls.push_back(bit_of_qubit[static_cast<std::size_t>(q)]);
    naive_apply(b, targets, controls, g.target_matrix());

    ASSERT_EQ(a, b) << "gate " << g.to_string() << " trial " << trial
                    << " seed " << seed;
  }
}

TEST_P(FastPathTest, PreparedGateMatchesOneShotExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 4 + static_cast<int>(rng.index(5));  // 4..8 bits
    const int k = 1 + static_cast<int>(rng.index(3));  // 1..3 targets
    const int c = static_cast<int>(rng.index(2));      // 0..1 controls
    std::vector<int> bits = random_bits(rng, n, k + c);
    MatrixOp op;
    op.targets.assign(bits.begin(), bits.begin() + k);
    op.controls.assign(bits.begin() + k, bits.end());
    op.m = Matrix(1 << k, 1 << k);
    for (int r = 0; r < (1 << k); ++r)
      for (int col = 0; col < (1 << k); ++col) op.m(r, col) = rng.amp();

    std::vector<Amp> a = random_amps(n, seed * 977 + trial);
    std::vector<Amp> b = a;
    const PreparedGate prepared = prepare_gate(op);
    apply_prepared(a.data(), static_cast<Index>(a.size()), prepared);
    naive_apply(b, op.targets, op.controls, op.m);
    ASSERT_EQ(a, b) << "k=" << k << " c=" << c << " trial " << trial;
  }
}

TEST_P(FastPathTest, ShmProgramMatchesDirectApplicationExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 65537 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 5 + static_cast<int>(rng.index(4));  // 5..8 bits
    // A random permutation layout for the first `n` logical qubits.
    std::vector<int> bit_of_qubit = random_bits(rng, n, n);
    std::vector<Gate> gates;
    const int num_gates = 2 + static_cast<int>(rng.index(5));
    for (int i = 0; i < num_gates; ++i)
      gates.push_back(random_gate(rng, random_bits(rng, n, 3)));

    std::vector<Amp> a = random_amps(n, seed * 31 + trial);
    std::vector<Amp> b = a;
    run_shared_memory_kernel(a.data(), static_cast<Index>(a.size()), gates,
                             bit_of_qubit);
    for (const Gate& g : gates)
      apply_gate_mapped(b.data(), static_cast<Index>(b.size()), g,
                        bit_of_qubit);
    ASSERT_EQ(a, b) << "trial " << trial << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathTest, ::testing::Range(1, 9));

// --- Split re/im shared-memory replay vs the interleaved per-gate loop --

/// A component that is often an exact zero of either sign, so sign-of-
/// zero differences (e.g. a dropped `0.0 +` accumulator start) show.
double sparse_component(Rng& rng) {
  switch (rng.index(4)) {
    case 0: return 0.0;
    case 1: return -0.0;
    default: return rng.normal();
  }
}

Amp sparse_amp(Rng& rng) {
  return Amp(sparse_component(rng), sparse_component(rng));
}

/// A random phased permutation matrix of dimension `dim`.
Matrix phased_permutation(Rng& rng, int dim) {
  std::vector<int> cols(static_cast<std::size_t>(dim));
  for (int c = 0; c < dim; ++c) cols[static_cast<std::size_t>(c)] = c;
  for (int c = dim - 1; c > 0; --c)
    std::swap(cols[static_cast<std::size_t>(c)],
              cols[rng.index(static_cast<std::uint64_t>(c) + 1)]);
  Matrix m(dim, dim);
  for (int r = 0; r < dim; ++r) m(r, cols[static_cast<std::size_t>(r)]) =
      rng.amp();
  return m;
}

/// One random member of every in-buffer class and of the classes that
/// take the General path, on bits drawn from `pool`. `kind` picks the
/// class: 0-1 dense 1q, 2-3 diagonal 1q, 4-5 anti-diagonal 1q, 6-7 2q
/// permutation (odd = with controls), 8 diagonal 2q, 9 dense 2q, 10
/// dense 3q, 11 3q permutation.
MatrixOp random_shm_member(Rng& rng, const std::vector<int>& pool,
                           int kind) {
  const int k = kind < 6 ? 1 : (kind < 10 ? 2 : 3);
  // Odd in-buffer kinds carry 1-2 controls; the General kinds 0-1.
  const int want = kind < 8 ? (kind % 2) * (1 + static_cast<int>(rng.index(2)))
                            : static_cast<int>(rng.index(2));
  const int c = std::min(want, static_cast<int>(pool.size()) - k);
  std::vector<int> bits = pool;
  for (int i = 0; i < k + c; ++i)
    std::swap(bits[static_cast<std::size_t>(i)],
              bits[static_cast<std::size_t>(i) +
                   rng.index(bits.size() - static_cast<std::size_t>(i))]);
  MatrixOp op;
  op.targets.assign(bits.begin(), bits.begin() + k);
  op.controls.assign(bits.begin() + k, bits.begin() + k + c);
  const int dim = 1 << k;
  op.m = Matrix(dim, dim);
  switch (kind) {
    case 0: case 1: case 9: case 10:  // dense, some entries exact zeros
      for (int r = 0; r < dim; ++r)
        for (int col = 0; col < dim; ++col)
          op.m(r, col) = (r + col) % 2 == 0 ? rng.amp() : sparse_amp(rng);
      break;
    case 2: case 3: case 8:  // diagonal
      for (int v = 0; v < dim; ++v) op.m(v, v) = rng.amp();
      break;
    default:  // 4-7, 11: phased permutation (1q: anti-diagonal)
      if (k == 1) {
        op.m(0, 1) = rng.amp();
        op.m(1, 0) = rng.amp();
      } else {
        op.m = phased_permutation(rng, dim);
      }
      break;
  }
  return op;
}

TEST(ShmSplitLayout, MatchesInterleavedPerGateReplayBitForBit) {
  Rng rng(0x5417);
  std::vector<Amp> scratch;  // reused across programs, like a shard worker
  std::vector<Amp> ref_scratch;
  std::set<int> active_sizes;
  std::set<ShmOp::Kind> kinds;
  std::set<Index> runs;  // 2^(lowest op bit) of the in-buffer ops
  for (int trial = 0; trial < 400; ++trial) {
    // Active bits: the always-active 0-2 plus `extra` high bits of an
    // n-bit buffer; members draw their bits from that pool.
    const int extra = static_cast<int>(rng.index(kShmQubits - 2));  // 0..7
    const int n = 3 + extra + static_cast<int>(rng.index(3));
    std::vector<int> high;
    for (int b = 3; b < n; ++b) high.push_back(b);
    for (std::size_t i = 0; i < static_cast<std::size_t>(extra); ++i)
      std::swap(high[i], high[i + rng.index(high.size() - i)]);
    std::vector<int> pool = {0, 1, 2};
    pool.insert(pool.end(), high.begin(), high.begin() + extra);

    std::vector<MatrixOp> ops;
    const int members = 1 + static_cast<int>(rng.index(10));
    for (int i = 0; i < members; ++i)
      ops.push_back(
          random_shm_member(rng, pool, static_cast<int>(rng.index(12))));

    std::vector<Amp> a(std::size_t{1} << n);
    for (Amp& x : a) x = sparse_amp(rng);
    std::vector<Amp> b = a;

    const ShmProgram prog = compile_shm_program(ops);
    run_shm_program(a.data(), static_cast<Index>(a.size()), prog, scratch);
    run_interleaved_shm(b.data(), static_cast<Index>(b.size()),
                        prepare_interleaved_shm(ops), ref_scratch);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Amp)), 0)
        << "trial " << trial << ": " << prog.active.size()
        << " active bits, " << ops.size() << " members";
    ASSERT_EQ(a, b);

    active_sizes.insert(static_cast<int>(prog.active.size()));
    for (const ShmOp& op : prog.ops) {
      kinds.insert(op.kind);
      if (op.kind != ShmOp::Kind::General) runs.insert(op.run);
    }
  }
  // The draw covered what the split layout must get right: every active
  // size, every op class, and runs of 1, 2 and 4 (an op bit among the
  // always-active bits 0-2) as well as longer ones.
  for (int s = 3; s <= kShmQubits; ++s)
    EXPECT_TRUE(active_sizes.count(s)) << "no program with " << s
                                       << " active bits";
  for (ShmOp::Kind k :
       {ShmOp::Kind::Dense1q, ShmOp::Kind::Diag1q, ShmOp::Kind::Perm1q,
        ShmOp::Kind::Perm2q, ShmOp::Kind::General})
    EXPECT_TRUE(kinds.count(k)) << "no op of kind " << static_cast<int>(k);
  for (Index run : {1, 2, 4, 8})
    EXPECT_TRUE(runs.count(run)) << "no op with run " << run;
}

TEST(ShmSplitLayout, RejectsProgramsWithoutTheLowRun) {
  // The replay copies 8-amplitude runs; a hand-built program whose
  // active bits miss 0-2 would overrun its scratch, so it is refused.
  ShmProgram prog;
  prog.active = {0};
  prog.offset = {0, 1};
  std::vector<Amp> data(8), scratch;
  EXPECT_THROW(run_shm_program(data.data(), 8, prog, scratch), Error);
  prog.active = {0, 1, 2};  // offset table too short for 3 active bits
  EXPECT_THROW(run_shm_program(data.data(), 8, prog, scratch), Error);
}

TEST(FastPathClassification, PicksTheExpectedPaths) {
  const auto path_of = [](const Gate& g) {
    MatrixOp op;
    op.m = g.target_matrix();
    for (Qubit q : g.targets()) op.targets.push_back(q);
    for (Qubit q : g.controls()) op.controls.push_back(q);
    return prepare_gate(op).path;
  };
  EXPECT_EQ(path_of(Gate::h(0)), ApplyPath::Dense1q);
  EXPECT_EQ(path_of(Gate::z(0)), ApplyPath::Diag1q);
  EXPECT_EQ(path_of(Gate::rz(0, 0.4)), ApplyPath::Diag1q);
  EXPECT_EQ(path_of(Gate::x(0)), ApplyPath::PermK);
  EXPECT_EQ(path_of(Gate::cx(0, 1)), ApplyPath::PermK);  // X under control
  EXPECT_EQ(path_of(Gate::rzz(0, 1, 0.4)), ApplyPath::DiagK);
  EXPECT_EQ(path_of(Gate::swap(0, 1)), ApplyPath::PermK);
  EXPECT_EQ(path_of(Gate::rxx(0, 1, 0.4)), ApplyPath::Dense2q);
  // A generic dense 3-qubit unitary lands on the blocked general path.
  Rng rng(42);
  Matrix m(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) m(r, c) = rng.amp();
  EXPECT_EQ(path_of(Gate::unitary({0, 1, 2}, m)), ApplyPath::DenseK);
}

TEST(FastPathClassification, ExactZeroTestNeverDropsTinyEntries) {
  // 1e-300 is numerically negligible but not zero: the classifier must
  // keep the dense path so results stay bit-identical to the naive
  // loop.
  Matrix m = Matrix::identity(2);
  m(0, 1) = Amp(1e-300, 0);
  MatrixOp op;
  op.m = m;
  op.targets = {0};
  EXPECT_EQ(prepare_gate(op).path, ApplyPath::Dense1q);

  std::vector<Amp> a = random_amps(4, 99);
  std::vector<Amp> b = a;
  apply_matrix(a.data(), static_cast<Index>(a.size()), {0}, m);
  naive_apply(b, {0}, {}, m);
  EXPECT_EQ(a, b);
}

TEST(FuseMatrixOps, MatchesGateFusionExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Gate> gates;
    std::vector<MatrixOp> ops;
    const int num_gates = 2 + static_cast<int>(rng.index(4));
    for (int i = 0; i < num_gates; ++i) {
      const Gate g = random_gate(rng, random_bits(rng, 4, 3));
      gates.push_back(g);
      MatrixOp op;
      op.m = g.target_matrix();
      for (Qubit q : g.targets()) op.targets.push_back(q);
      for (Qubit q : g.controls()) op.controls.push_back(q);
      ops.push_back(std::move(op));
    }
    const Gate fused = fuse_to_gate(gates);
    std::vector<int> span;
    for (Qubit q : fused.targets()) span.push_back(q);
    const Matrix via_ops = fuse_matrix_ops(ops, span);
    EXPECT_EQ(Matrix::max_abs_diff(fused.target_matrix(), via_ops), 0.0)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace atlas
