// bench_exec_hotpath — the apply-kernel rewrite payoff, measured
// against a faithful reimplementation of the seed loop structure
// (insert-zero-bit index arithmetic per group, std::complex mat-vec,
// per-shard shm table rebuilds):
//
//   general : dense k-qubit apply, k = 1..5 — seed gather/mat-vec loop
//             vs the blocked lane-vectorized kernel;
//   fast    : diagonal and permutation gates — seed dense loop vs the
//             classified in-place fast paths;
//   shm     : a shared-memory kernel replayed across shards — seed
//             rebuild-per-invocation vs one compiled ShmProgram;
//   roofline: run-large's shared-memory kernels (ghz/qft/qpeexact, 21
//             qubits, L18 R2 G1) replayed on one 2^18-amp shard — the
//             interleaved per-gate replay the split re/im layout
//             replaced vs run_shm_program, in GB/s and as a fraction
//             of a single-thread memcpy probe;
//   e2e     : compile()+sweep() vs per-binding simulate() (bit-identity
//             gate on the whole pipeline).
//
// Every timed pair runs the same gates on copies of the same buffer and
// the results are compared with operator== (exact; -0.0 == +0.0), so
// the speedup is never bought with different arithmetic. Full mode
// gates on >= 2x geomean speedup for the general k-qubit path (k>=2)
// and on shared-memory replay at >= 0.5 of the memcpy probe; --smoke
// shrinks buffers and skips the flaky-on-CI perf gates (the roofline
// section still checks every kernel bit for bit); --json PATH emits a
// BENCH_exec.json artifact for trend tracking.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/timer.h"
#include "exec/layout.h"
#include "exec/partial_eval.h"
#include "exec/stage_program.h"
#include "sim/apply.h"
#include "sim/reference.h"
#include "sim/shm_executor.h"
#include "util.h"

namespace atlas::bench {
namespace {

// --- Seed loop structure, reproduced verbatim ---------------------------

/// The seed's specialized 1-qubit path: insert_zero_bit per iteration,
/// std::complex arithmetic.
void seed_apply_1q(Amp* data, Index size, int q, const Matrix& m) {
  const Amp u00 = m(0, 0), u01 = m(0, 1), u10 = m(1, 0), u11 = m(1, 1);
  const Index stride = bit(q);
  const Index groups = size >> 1;
  for (Index g = 0; g < groups; ++g) {
    const Index i0 = insert_zero_bit(g, q);
    const Index i1 = i0 | stride;
    const Amp a0 = data[i0], a1 = data[i1];
    data[i0] = u00 * a0 + u01 * a1;
    data[i1] = u10 * a0 + u11 * a1;
  }
}

/// The seed's general k-qubit path: per-group insert_zero_bits, dense
/// std::complex mat-vec through the Matrix accessor.
void seed_apply_matrix(Amp* data, Index size, const std::vector<int>& targets,
                       const Matrix& m) {
  const int k = static_cast<int>(targets.size());
  if (k == 1) {
    seed_apply_1q(data, size, targets[0], m);
    return;
  }
  std::vector<int> sorted = targets;
  std::sort(sorted.begin(), sorted.end());
  const Index dim = Index{1} << k;
  const Index groups = size >> k;
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, sorted);
    for (Index v = 0; v < dim; ++v) in[v] = data[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index c = 0; c < dim; ++c) {
        acc += m(static_cast<int>(r), static_cast<int>(c)) * in[c];
      }
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) data[base | offset[v]] = out[v];
  }
}

/// The seed's controlled path (apply_1q_1c + the general controlled
/// gather loop).
void seed_apply_controlled(Amp* data, Index size,
                           const std::vector<int>& targets,
                           const std::vector<int>& controls, const Matrix& m) {
  if (controls.empty()) {
    seed_apply_matrix(data, size, targets, m);
    return;
  }
  if (targets.size() == 1 && controls.size() == 1) {
    const Amp u00 = m(0, 0), u01 = m(0, 1), u10 = m(1, 0), u11 = m(1, 1);
    const int t = targets[0], c = controls[0];
    const Index tbit = bit(t), cbit = bit(c);
    const int lo = std::min(t, c), hi = std::max(t, c);
    const Index groups = size >> 2;
    for (Index g = 0; g < groups; ++g) {
      const Index base = insert_zero_bit(insert_zero_bit(g, lo), hi) | cbit;
      const Index i0 = base, i1 = base | tbit;
      const Amp a0 = data[i0], a1 = data[i1];
      data[i0] = u00 * a0 + u01 * a1;
      data[i1] = u10 * a0 + u11 * a1;
    }
    return;
  }
  const int k = static_cast<int>(targets.size());
  const int c = static_cast<int>(controls.size());
  std::vector<int> all = targets;
  all.insert(all.end(), controls.begin(), controls.end());
  std::sort(all.begin(), all.end());
  Index ctrl_mask = 0;
  for (int cq : controls) ctrl_mask |= bit(cq);
  const Index dim = Index{1} << k;
  const Index groups = size >> (k + c);
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, all) | ctrl_mask;
    for (Index v = 0; v < dim; ++v) in[v] = data[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index col = 0; col < dim; ++col)
        acc += m(static_cast<int>(r), static_cast<int>(col)) * in[col];
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) data[base | offset[v]] = out[v];
  }
}

/// The seed's shared-memory kernel: identity map + std::find scan +
/// offset table rebuilt on every invocation.
Index seed_run_shm(Amp* data, Index size, const std::vector<Gate>& gates,
                   const std::vector<int>& bit_of_qubit) {
  std::vector<int> active = {0, 1, 2};
  for (const Gate& g : gates)
    for (Qubit q : g.qubits()) active.push_back(bit_of_qubit[q]);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  const int a = static_cast<int>(active.size());
  const Index batch = Index{1} << a;
  const Index num_batches = size >> a;
  std::vector<int> shm_bit_of_qubit(bit_of_qubit.size(), -1);
  for (std::size_t q = 0; q < bit_of_qubit.size(); ++q) {
    const auto it = std::find(active.begin(), active.end(), bit_of_qubit[q]);
    if (it != active.end())
      shm_bit_of_qubit[q] = static_cast<int>(it - active.begin());
  }
  std::vector<Index> offset(batch);
  for (Index v = 0; v < batch; ++v) offset[v] = spread_bits(v, active);
  std::vector<Amp> shm(batch);
  for (Index b = 0; b < num_batches; ++b) {
    const Index base = insert_zero_bits(b, active);
    for (Index v = 0; v < batch; ++v) shm[v] = data[base | offset[v]];
    for (const Gate& g : gates) {
      std::vector<int> targets, controls;
      for (Qubit q : g.targets()) targets.push_back(shm_bit_of_qubit[q]);
      for (Qubit q : g.controls()) controls.push_back(shm_bit_of_qubit[q]);
      seed_apply_controlled(shm.data(), batch, targets, controls,
                            g.target_matrix());
    }
    for (Index v = 0; v < batch; ++v) data[base | offset[v]] = shm[v];
  }
  return num_batches;
}

// --- Harness ------------------------------------------------------------

std::vector<Amp> random_buffer(int n, std::uint64_t seed) {
  return StateVector::random(n, seed).amplitudes();
}

std::vector<int> random_positions(Rng& rng, int n, int k) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < k; ++i)
    std::swap(all[i], all[i + static_cast<int>(rng.index(n - i))]);
  all.resize(k);
  return all;
}

Matrix random_dense(Rng& rng, int dim) {
  Matrix m(dim, dim);
  for (int r = 0; r < dim; ++r)
    for (int c = 0; c < dim; ++c) m(r, c) = rng.amp();
  return m;
}

struct GateCase {
  std::vector<int> targets;
  Matrix m;
};

struct PairResult {
  double seed_seconds = 0;
  double new_seconds = 0;
  bool identical = false;
  double speedup() const { return seed_seconds / new_seconds; }
};

/// Times the same gate sequence through the seed loop and the prepared
/// kernels, on copies of the same buffer, and compares the results
/// exactly.
PairResult time_pair(const std::vector<Amp>& initial,
                     const std::vector<GateCase>& gates, int reps) {
  PairResult out;
  std::vector<Amp> a, b;
  {
    a = initial;
    Timer t;
    for (int r = 0; r < reps; ++r)
      for (const GateCase& g : gates)
        seed_apply_matrix(a.data(), static_cast<Index>(a.size()), g.targets,
                          g.m);
    out.seed_seconds = t.seconds();
  }
  {
    b = initial;
    std::vector<PreparedGate> prepared;
    prepared.reserve(gates.size());
    Timer t;
    for (const GateCase& g : gates)
      prepared.push_back(prepare_gate(MatrixOp{g.m, g.targets, {}}));
    for (int r = 0; r < reps; ++r)
      for (const PreparedGate& p : prepared)
        apply_prepared(b.data(), static_cast<Index>(b.size()), p);
    out.new_seconds = t.seconds();
  }
  out.identical = a == b;
  return out;
}

// --- Shm roofline: run-large kernels vs the interleaved replay ----------

/// One run-large shared-memory kernel as shard 0 replays it: the
/// program the stage walk binds, and the same members resolved from the
/// stage's gates (so the reference does not read the lowered program).
struct RunLargeShm {
  ShmProgram prog;
  InterleavedShm reference;
};

/// Walks the layouts of run-large's plans (the stage walk's sequence,
/// without moving amplitudes) and collects every shared-memory kernel
/// variant shard 0 replays.
std::vector<RunLargeShm> run_large_shm_kernels() {
  constexpr int kQubits = 21, kLocal = 18, kRegional = 2;
  SessionConfig cfg;
  cfg.cluster.local_qubits = kLocal;
  cfg.cluster.regional_qubits = kRegional;
  cfg.cluster.global_qubits = kQubits - kLocal - kRegional;
  cfg.cluster.gpus_per_node = 4;
  cfg.cluster.num_threads = 1;
  const Session session(cfg);
  std::vector<RunLargeShm> out;
  for (const char* name : {"ghz", "qft", "qpeexact"}) {
    const CompiledCircuit compiled =
        session.compile(circuits::make_family(name, kQubits));
    const exec::ExecutionPlan& plan = *compiled.plan();
    const SlotValues slots = compiled.slot_values(ParamBinding{});
    ParamEnv env;
    env.slots = &slots;
    exec::Layout layout = exec::Layout::for_partition(
        plan.stages.front().partition, kLocal, kRegional,
        exec::Layout::identity(kQubits, kLocal));
    for (const exec::PlannedStage& stage : plan.stages) {
      layout = exec::Layout::for_partition(stage.partition, kLocal,
                                           kRegional, layout);
      const exec::StageSkeleton skel =
          exec::compile_stage_skeleton(stage.subcircuit, stage.kernels,
                                       layout);
      const exec::StageProgram prog =
          exec::bind_stage_program(stage.subcircuit, skel, env);
      layout.shard_xor = prog.final_xor;
      for (std::size_t k = 0; k < skel.kernels.size(); ++k) {
        const exec::KernelVariant& v = prog.kernels[k]->variants[0];
        if (v.op != exec::KernelVariant::Op::Shm) continue;
        const auto& ks = skel.kernels[k];
        std::vector<MatrixOp> ops;
        for (const auto& f : ks.variants[0].ops) {
          const auto& slot = ks.slots[static_cast<std::size_t>(f.slot)];
          const Gate& g = stage.subcircuit.gate(slot.gate);
          if (slot.kind ==
              exec::StageSkeleton::GateSlot::Case::DiagRestrict) {
            // A diagonal on a non-local qubit: shard 0's slice of it.
            ops.push_back(MatrixOp{
                exec::restrict_diagonal(g.full_matrix_resolved(env),
                                        slot.local_pos, f.fixed),
                slot.targets, {}});
          } else {
            ops.push_back(MatrixOp{g.target_matrix_resolved(env),
                                   slot.targets, slot.controls});
          }
        }
        out.push_back(RunLargeShm{v.shm, prepare_interleaved_shm(ops)});
      }
    }
  }
  return out;
}

/// Single-thread memcpy GB/s (bytes copied / s), median of 5 copies —
/// the definition of perfbench's host.memcpy_gbps_1t.
double memcpy_gbps_1t(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    std::memcpy(dst.data(), src.data(), bytes);
    runs.push_back(static_cast<double>(bytes) / t.seconds() / 1e9);
  }
  std::sort(runs.begin(), runs.end());
  return runs[2];
}

struct RooflineResult {
  int kernels = 0;
  double old_gbps = 0, new_gbps = 0, memcpy_gbps = 0;
  bool identical = true;
  double old_frac() const { return old_gbps / memcpy_gbps; }
  double new_frac() const { return new_gbps / memcpy_gbps; }
};

/// Replays every run-large shared-memory kernel on one 2^18-amp shard
/// through both loops, checking each kernel's result with memcmp (so
/// even the sign of a zero must agree). GB/s counts each kernel as one
/// read and one write of the shard, like perfbench's sim.replay_gbps.
RooflineResult shm_roofline(bool smoke) {
  RooflineResult r;
  const std::vector<RunLargeShm> kernels = run_large_shm_kernels();
  r.kernels = static_cast<int>(kernels.size());
  const int reps = smoke ? 1 : 5;
  std::vector<Amp> a = random_buffer(18, 0x5EED), b = a;
  const Index size = static_cast<Index>(a.size());
  std::vector<Amp> scratch;
  double old_s = 0, new_s = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const RunLargeShm& k : kernels) {
      Timer t_old;
      run_interleaved_shm(a.data(), size, k.reference, scratch);
      old_s += t_old.seconds();
      Timer t_new;
      run_shm_program(b.data(), size, k.prog, scratch);
      new_s += t_new.seconds();
      r.identical &= std::memcmp(a.data(), b.data(), size * sizeof(Amp)) == 0;
    }
  }
  const double bytes = 2.0 * static_cast<double>(size * sizeof(Amp)) *
                       static_cast<double>(reps * r.kernels);
  r.old_gbps = bytes / old_s / 1e9;
  r.new_gbps = bytes / new_s / 1e9;
  r.memcpy_gbps = memcpy_gbps_1t((smoke ? std::size_t{16} : std::size_t{64}) << 20);
  return r;
}

int run(bool smoke, const char* json_path) {
  const int n = smoke ? 16 : 20;
  const int reps = smoke ? 2 : 4;
  const int gates_per_k = 4;

  print_header(
      "Execution hot path: seed loop structure vs compiled stage kernels",
      "per-shard gather loops with per-iteration index inserts",
      (std::string("2^") + std::to_string(n) +
       "-amp buffer, dense/diag/perm kernels + shm replay, 1 thread")
          .c_str());

  const std::vector<Amp> initial = random_buffer(n, 0xA71A5);
  Rng rng(12345);
  bool all_identical = true;

  // --- general dense k-qubit apply.
  std::printf("\n%-28s %12s %12s %9s %6s\n", "kernel", "seed [s]", "new [s]",
              "speedup", "exact");
  std::vector<double> general_speedups(6, 0.0);
  for (int k = 1; k <= 5; ++k) {
    std::vector<GateCase> gates;
    for (int i = 0; i < gates_per_k; ++i)
      gates.push_back(
          GateCase{random_positions(rng, n, k), random_dense(rng, 1 << k)});
    const PairResult r = time_pair(initial, gates, reps);
    general_speedups[static_cast<std::size_t>(k)] = r.speedup();
    all_identical &= r.identical;
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n",
                (std::string("dense ") + std::to_string(k) + "q").c_str(),
                r.seed_seconds, r.new_seconds, r.speedup(),
                r.identical ? "yes" : "NO");
  }
  std::vector<double> tail(general_speedups.begin() + 2,
                           general_speedups.end());
  const double general_geomean = geomean(tail);

  // --- diagonal / permutation fast paths (seed ran these dense).
  const auto fast_case = [&](const char* name, int k, bool diag) {
    std::vector<GateCase> gates;
    for (int i = 0; i < gates_per_k; ++i) {
      Matrix m(1 << k, 1 << k);
      if (diag) {
        for (int v = 0; v < (1 << k); ++v) {
          const double t = rng.uniform(0, 6.28);
          m(v, v) = Amp(std::cos(t), std::sin(t));
        }
      } else {
        // A phased cyclic permutation.
        for (int v = 0; v < (1 << k); ++v) {
          const double t = rng.uniform(0, 6.28);
          m(v, (v + 1) % (1 << k)) = Amp(std::cos(t), std::sin(t));
        }
      }
      gates.push_back(GateCase{random_positions(rng, n, k), std::move(m)});
    }
    const PairResult r = time_pair(initial, gates, reps);
    all_identical &= r.identical;
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n", name, r.seed_seconds,
                r.new_seconds, r.speedup(), r.identical ? "yes" : "NO");
    return r.speedup();
  };
  const double diag_speedup = fast_case("diagonal 2q", 2, true);
  const double perm_speedup = fast_case("permutation 3q", 3, false);

  // --- shm kernel: rebuild-per-invocation vs compiled program replay,
  // emulating one stage kernel run across 2^4 shards.
  double shm_speedup;
  {
    const int shards = 16;
    std::vector<int> bit_of_qubit(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) bit_of_qubit[static_cast<std::size_t>(q)] = q;
    std::vector<Gate> gates;
    for (int i = 0; i < 6; ++i) {
      const std::vector<int> qs = random_positions(rng, 8, 2);
      gates.push_back(i % 2 == 0 ? Gate::cx(qs[0], qs[1])
                                 : Gate::u3(qs[0], 0.3 + i, 0.7, 1.1));
    }
    std::vector<Amp> a = initial, b = initial;
    PairResult r;
    {
      Timer t;
      for (int s = 0; s < shards; ++s)
        seed_run_shm(a.data(), static_cast<Index>(a.size()), gates,
                     bit_of_qubit);
      r.seed_seconds = t.seconds();
    }
    {
      Timer t;
      std::vector<MatrixOp> ops;
      for (const Gate& g : gates) {
        MatrixOp op;
        op.m = g.target_matrix();
        for (Qubit q : g.targets()) op.targets.push_back(bit_of_qubit[q]);
        for (Qubit q : g.controls()) op.controls.push_back(bit_of_qubit[q]);
        ops.push_back(std::move(op));
      }
      const ShmProgram prog = compile_shm_program(ops);
      std::vector<Amp> scratch;
      for (int s = 0; s < shards; ++s)
        run_shm_program(b.data(), static_cast<Index>(b.size()), prog, scratch);
      r.new_seconds = t.seconds();
    }
    r.identical = a == b;
    all_identical &= r.identical;
    shm_speedup = r.speedup();
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n", "shm kernel x16 shards",
                r.seed_seconds, r.new_seconds, r.speedup(),
                r.identical ? "yes" : "NO");
  }

  std::printf("\ngeneral k-qubit geomean (k=2..5): %5.2fx\n", general_geomean);

  // --- Shm roofline: run-large's shared-memory kernels on one shard.
  const RooflineResult roof = shm_roofline(smoke);
  all_identical &= roof.identical;
  std::printf(
      "\nShm roofline: %d run-large kernels on a 2^18-amp shard, 1 "
      "thread\n",
      roof.kernels);
  std::printf("  %-30s %8s %9s\n", "replay", "GB/s", "memcpy%");
  std::printf("  %-30s %8.2f %8.1f%%\n", "interleaved per-gate (old)",
              roof.old_gbps, 100 * roof.old_frac());
  std::printf("  %-30s %8.2f %8.1f%%\n", "split re/im (run_shm_program)",
              roof.new_gbps, 100 * roof.new_frac());
  std::printf("  memcpy probe %.2f GB/s; speedup %.2fx; bit-identical: %s\n",
              roof.memcpy_gbps, roof.new_gbps / roof.old_gbps,
              roof.identical ? "yes" : "NO");

  // --- end-to-end bit-identity gate: compile()+sweep() == simulate().
  bool e2e_identical = true;
  {
    const int qubits = smoke ? 8 : 10;
    SessionConfig cfg{scaled_config(qubits - 2, 2, /*threads=*/1)};
    Circuit ansatz(qubits, "hotpath_ansatz");
    for (Qubit q = 0; q < qubits; ++q) ansatz.add(Gate::h(q));
    const Param theta = Param::symbol("theta");
    for (Qubit q = 0; q < qubits; ++q)
      ansatz.add(Gate::rzz(q, (q + 1) % qubits, theta));
    for (Qubit q = 0; q < qubits; ++q) ansatz.add(Gate::rx(q, theta * 0.5));
    const Session session(cfg);
    const CompiledCircuit compiled = session.compile(ansatz);
    for (int i = 0; i < 4; ++i) {
      const ParamBinding b{{"theta", 0.2 + 0.4 * i}};
      const auto via_run = session.run(compiled, b).state.gather();
      const auto direct = session.simulate(ansatz.bind(b)).state.gather();
      e2e_identical &= via_run.amplitudes() == direct.amplitudes();
    }
    std::printf("e2e compile()+run() vs simulate(): %s\n",
                e2e_identical ? "bit-identical" : "MISMATCH");
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exec_hotpath\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"buffer_bits\": %d,\n", n);
    std::fprintf(f, "  \"general_speedup\": {");
    for (int k = 1; k <= 5; ++k)
      std::fprintf(f, "%s\"k%d\": %.3f", k == 1 ? "" : ", ", k,
                   general_speedups[static_cast<std::size_t>(k)]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"general_geomean_k2_5\": %.3f,\n", general_geomean);
    std::fprintf(f, "  \"diag_speedup\": %.3f,\n", diag_speedup);
    std::fprintf(f, "  \"perm_speedup\": %.3f,\n", perm_speedup);
    std::fprintf(f, "  \"shm_speedup\": %.3f,\n", shm_speedup);
    std::fprintf(f,
                 "  \"shm_roofline\": {\"kernels\": %d, "
                 "\"old_gbps\": %.3f, \"new_gbps\": %.3f, "
                 "\"memcpy_gbps_1t\": %.3f, \"old_memcpy_frac\": %.3f, "
                 "\"new_memcpy_frac\": %.3f, \"bit_identical\": %s},\n",
                 roof.kernels, roof.old_gbps, roof.new_gbps,
                 roof.memcpy_gbps, roof.old_frac(), roof.new_frac(),
                 roof.identical ? "true" : "false");
    std::fprintf(f, "  \"bit_identical\": %s\n}\n",
                 (all_identical && e2e_identical) ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  // Correctness gates run in both modes; the perf gate only on a quiet
  // full-mode host (CI smoke workers are too noisy to gate on time).
  if (!all_identical || !e2e_identical) {
    std::printf("FAIL: fast paths are not bit-identical to the seed loop\n");
    return 1;
  }
  if (!smoke && general_geomean < 2.0) {
    std::printf("FAIL: general k-qubit apply speedup %.2fx < 2x target\n",
                general_geomean);
    return 1;
  }
  if (!smoke && roof.new_frac() < 0.5) {
    std::printf("FAIL: Shm replay at %.2f of memcpy < 0.5 target\n",
                roof.new_frac());
    return 1;
  }
  std::printf("check: all kernels bit-identical to seed loops — %s\n",
              smoke ? "SMOKE PASS" : "PASS");
  return 0;
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  return atlas::bench::run(smoke, json_path);
}
