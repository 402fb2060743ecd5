// run-large: the plans are warm; one op is Session::run() from |0...0>
// followed by sample(1024), cycling over ghz, qft and qpeexact at 21
// qubits on L=18, R=2, G=1 with 4 GPUs/node, cluster.num_threads=4 and
// dispatch_threads=1. The seed rotates the cycle's starting circuit and
// picks the probed qft amplitudes. A traced run also takes the compile
// census (compile_census.cpp) on this shape.

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "common/rng.h"
#include "core/session.h"
#include "exec/queries.h"
#include "harness.h"
#include "walk.h"

namespace perfbench {

using namespace atlas;

namespace {

constexpr int kQubits = 21;
constexpr int kShots = 1024;
/// Analytic probabilities must hold to this absolute tolerance.
constexpr double kTol = 1e-9;
const char* const kCircuits[] = {"ghz", "qft", "qpeexact"};
constexpr std::size_t kNumCircuits = 3;
constexpr int kSetups = 8;

SessionConfig large_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 18;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;
  cfg.cluster.num_threads = 4;
  cfg.dispatch_threads = 1;
  return cfg;
}

/// Checks the final state and samples against the circuit's analytic
/// outcome; returns an empty string when they hold.
std::string check_output(std::size_t ci, const exec::DistState& state,
                         const std::vector<Index>& shots, std::uint64_t seed) {
  const Index all = (Index{1} << kQubits) - 1;
  char why[160] = "";
  if (ci == 0) {  // ghz: |0...0> and |1...1>, p = 1/2 each
    const double p0 = exec::probability(state, 0);
    const double p1 = exec::probability(state, all);
    if (std::abs(p0 - 0.5) > kTol || std::abs(p1 - 0.5) > kTol)
      std::snprintf(why, sizeof why, "ghz: p(0)=%.17g p(1..1)=%.17g", p0, p1);
    int zeros = 0;
    for (Index s : shots) {
      if (s != 0 && s != all) {
        std::snprintf(why, sizeof why, "ghz: sampled outcome %llu",
                      static_cast<unsigned long long>(s));
        break;
      }
      zeros += s == 0;
    }
    // Binomial(1024, 1/2): 5 sigma = 80.
    if (why[0] == '\0' && std::abs(zeros - kShots / 2) > 80)
      std::snprintf(why, sizeof why, "ghz: %d of %d shots were |0...0>", zeros,
                    kShots);
  } else if (ci == 1) {  // qft on |0...0>: every probability 2^-21
    const double uniform = std::ldexp(1.0, -kQubits);
    std::mt19937_64 rng(mix_seed(seed, 0x9f7));
    for (int k = 0; k < 16 && why[0] == '\0'; ++k) {
      const Index idx = rng() & all;
      const double p = exec::probability(state, idx);
      if (std::abs(p / uniform - 1.0) > kTol)
        std::snprintf(why, sizeof why, "qft: p(%llu)=%.17g",
                      static_cast<unsigned long long>(idx), p);
    }
    const double norm = exec::norm_sq(state);
    if (why[0] == '\0' && std::abs(norm - 1.0) > kTol)
      std::snprintf(why, sizeof why, "qft: norm %.17g", norm);
    for (Index s : shots)
      if (s > all) std::snprintf(why, sizeof why, "qft: sample out of range");
  } else {  // qpeexact: the phase (2^19 + 1) / 2^20, eigenstate qubit set
    const Index m = kQubits - 1;
    const Index expected =
        (Index{1} << (m - 1)) + 1 + (Index{1} << (kQubits - 1));
    const double p = exec::probability(state, expected);
    if (std::abs(p - 1.0) > kTol)
      std::snprintf(why, sizeof why, "qpeexact: p(%llu)=%.17g",
                    static_cast<unsigned long long>(expected), p);
    for (Index s : shots)
      if (s != expected) {
        std::snprintf(why, sizeof why, "qpeexact: sampled %llu",
                      static_cast<unsigned long long>(s));
        break;
      }
  }
  return why;
}

std::uint64_t shots_digest(const std::vector<Index>& shots) {
  return fnv_bytes(shots.data(), shots.size() * sizeof(Index));
}

}  // namespace

Outcome run_run_large(const Options& options) {
  Outcome out;
  // Set-up: the session and the three compiled circuits, timed kSetups
  // times: once here, then on throwaway copies spread over the window.
  const auto set_up = [] {
    auto session = std::make_unique<Session>(large_config());
    std::vector<CompiledCircuit> compiled;
    for (const char* name : kCircuits)
      compiled.push_back(
          session->compile(circuits::make_family(name, kQubits)));
    return std::make_pair(std::move(session), std::move(compiled));
  };
  SetupTimes setups;
  auto [session, compiled] = setups.time(set_up);
  const std::size_t rotate = static_cast<std::size_t>(options.seed % kNumCircuits);

  // One loop for both modes. A traced run follows every untraced op
  // with the same op through the outside stage walk, which must
  // reproduce the untraced state and samples bit for bit; traced and
  // untraced times are taken side by side.
  SpanLog log;
  std::vector<double> op_ms;
  std::vector<double> untraced_sum(kNumCircuits, 0), traced_sum(kNumCircuits, 0);
  std::vector<double> traced_n(kNumCircuits, 0);
  std::vector<WalkTotals> per_circuit(kNumCircuits);
  WalkTotals all;
  double busy_s = 0;
  int op = 0;
  setups.start_window();
  for (std::size_t i = 0;; ++i) {
    if (i >= kNumCircuits && setups.window_s() >= options.seconds) break;
    if (options.max_ops > 0 && i >= static_cast<std::size_t>(options.max_ops))
      break;
    if (setups.due(options.seconds, kSetups)) setups.time(set_up);
    const std::size_t ci = (i + rotate) % kNumCircuits;
    ++out.attempted;
    std::uint64_t state_ref = 0, shots_ref = 0, seed = 0;
    try {
      const std::int64_t t0 = now_ns();
      SimulationResult r = session->run(compiled[ci], ParamBinding{});
      const std::vector<Index> shots = r.sample(kShots);
      const double ms = ms_between(t0, now_ns());
      op_ms.push_back(ms);
      busy_s += ms / 1e3;
      untraced_sum[ci] += ms;
      const std::string why = check_output(ci, r.state, shots, options.seed);
      if (!why.empty()) {
        out.check_failed(why);
        ++out.failed;
      }
      if (options.trace) {
        state_ref = state_digest(r.state);
        shots_ref = shots_digest(shots);
        seed = r.seed;
      }
    } catch (const std::exception& e) {
      out.check_failed(std::string(kCircuits[ci]) + ": run threw: " + e.what());
      ++out.failed;
      continue;
    }
    if (!options.trace) continue;

    ++out.attempted;
    WalkTotals totals;
    const SlotValues slots = compiled[ci].slot_values(ParamBinding{});
    std::vector<Index> shots;
    exec::DistState state;
    const int root = log.begin("run_large.op", -1, op);
    try {
      state = traced_walk(*session, compiled[ci], slots, log, root, op, totals);
      const int span = log.begin("exec.sample", root, op);
      Rng rng = Rng::for_stream(seed, 0);
      shots = exec::sample(state, kShots, rng);
      log.end(span);
      log.end(root);
    } catch (const std::exception& e) {
      log.end(root);
      out.check_failed(std::string(kCircuits[ci]) + ": traced walk threw: " +
                       e.what());
      ++out.failed;
      ++op;
      continue;
    }
    ++op;
    const Span& r = log.spans()[static_cast<std::size_t>(root)];
    traced_sum[ci] += ms_between(r.start, r.end);
    traced_n[ci] += 1;
    per_circuit[ci].remap += totals.remap;
    per_circuit[ci].replay += totals.replay;
    all.remap += totals.remap;
    all.replay += totals.replay;
    all.replay_wall_ns += totals.replay_wall_ns;
    all.replay_busy_ns += totals.replay_busy_ns;
    all.pool_threads = totals.pool_threads;
    bool ok = true;
    if (state_digest(state) != state_ref || shots_digest(shots) != shots_ref) {
      out.check_failed(std::string(kCircuits[ci]) +
                       ": traced walk is not bit-identical to Session::run");
      ok = false;
    }
    const std::string why = check_output(ci, state, shots, options.seed);
    if (!why.empty()) {
      out.check_failed(why);
      ok = false;
    }
    if (!ok) ++out.failed;
  }
  report_end_to_end(out, op_ms, busy_s, setups.seconds());
  if (!options.trace) return out;
  // The compile layers, measured on this workload's shape: compiling is
  // what its set-up pays.
  compile_census(large_config(), options, out);

  const double ops = static_cast<double>(op);
  const char* layers[] = {"exec.init", "exec.remap", "exec.bind",
                          "sim.replay", "exec.sample"};
  for (const char* l : layers)
    out.set(std::string(l) + "_ms", log.total_ms(l) / ops, "ms");
  // Exact per-cycle counts: every op of a circuit moves the same bytes
  // and makes the same calls, so per-circuit means sum to one cycle.
  device::CommStats cycle_remap;
  ReplayCounters cycle_replay;
  double cycle_traced = 0, cycle_untraced = 0;
  for (std::size_t ci = 0; ci < kNumCircuits; ++ci) {
    const double n = std::max(1.0, traced_n[ci]);
    const auto per = [n](std::uint64_t v) {
      return static_cast<std::uint64_t>(std::llround(static_cast<double>(v) / n));
    };
    cycle_remap.intra_gpu_bytes += per(per_circuit[ci].remap.intra_gpu_bytes);
    cycle_remap.intra_node_bytes += per(per_circuit[ci].remap.intra_node_bytes);
    cycle_remap.inter_node_bytes += per(per_circuit[ci].remap.inter_node_bytes);
    for (int p = 0; p < ReplayCounters::kPaths; ++p)
      cycle_replay.calls[p] += std::llround(
          static_cast<double>(per_circuit[ci].replay.calls[p]) / n);
    cycle_traced += traced_sum[ci] / n;
    cycle_untraced += untraced_sum[ci] / n;
  }
  out.set("exec.remap_bytes.intra_gpu",
          static_cast<double>(cycle_remap.intra_gpu_bytes), "B");
  out.set("exec.remap_bytes.intra_node",
          static_cast<double>(cycle_remap.intra_node_bytes), "B");
  out.set("exec.remap_bytes.inter_node",
          static_cast<double>(cycle_remap.inter_node_bytes), "B");
  const double moved = static_cast<double>(all.remap.intra_gpu_bytes +
                                           all.remap.intra_node_bytes +
                                           all.remap.inter_node_bytes);
  const double remap_gbps = moved / (log.total_ms("exec.remap") / 1e3) / 1e9;
  out.set("exec.remap_gbps", remap_gbps, "GB/s");
  out.set("exec.remap_memcpy_frac", remap_gbps / options.host.memcpy_gbps_4t,
          "frac");
  const std::vector<std::string>& paths = replay_path_names();
  for (int p = 0; p < ReplayCounters::kPaths; ++p) {
    const double busy_ms = static_cast<double>(all.replay.busy_ns[p]) / 1e6;
    out.set("sim.replay_busy_ms." + paths[p], busy_ms / ops, "ms");
    out.set("sim.replay_gbps." + paths[p],
            busy_ms > 0 ? all.replay.bytes[p] / (busy_ms / 1e3) / 1e9 : 0,
            "GB/s");
    out.set("sim.replay_calls." + paths[p],
            static_cast<double>(cycle_replay.calls[p]), "count");
  }
  out.set("sim.replay_parallel_eff",
          static_cast<double>(all.replay_busy_ns) /
              (static_cast<double>(all.pool_threads) *
               static_cast<double>(all.replay_wall_ns)),
          "frac");
  // Coverage: the walk's layers against the untraced op, cycle-weighted.
  double cycle_layers = 0;
  {
    std::vector<double> layer_sum(kNumCircuits, 0);
    for (const Span& s : log.spans())
      if (s.parent >= 0 &&
          log.spans()[static_cast<std::size_t>(s.parent)].parent < 0)
        layer_sum[(static_cast<std::size_t>(s.op) + rotate) % kNumCircuits] +=
            ms_between(s.start, s.end);
    for (std::size_t ci = 0; ci < kNumCircuits; ++ci)
      cycle_layers += layer_sum[ci] / std::max(1.0, traced_n[ci]);
  }
  const double layer_sum_frac = cycle_layers / cycle_untraced;
  check_layer_sum(out, layer_sum_frac);
  out.set("trace.overhead_frac", cycle_traced / cycle_untraced - 1.0, "frac");
  write_spans(options, options.workload, log, out);
  return out;
}

}  // namespace perfbench
