// sweep-gradient: one op is one parameter-shift gradient — a single
// Session::sweep() over the 240 points theta +/- pi/2 e_k of a 12-qubit
// hardware-efficient ansatz with 120 symbols, reading <Z_q> for every
// qubit at every point. Shape L=9, R=2, G=1 (4 GPUs/node, so no
// offload), cluster.num_threads=1, dispatch_threads=4. The base point
// of op i comes from (seed, i). Traced runs also take the serve census
// (serve_census.cpp).

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/session.h"
#include "exec/queries.h"
#include "exec/stage_program.h"
#include "harness.h"
#include "sim/reference.h"
#include "walk.h"

namespace perfbench {

using namespace atlas;

namespace {

constexpr int kQubits = 12;
constexpr int kReps = 4;
constexpr int kSymbols = 2 * kQubits * (kReps + 1);  // 120
constexpr int kPoints = 2 * kSymbols;                 // 240
/// <Z_q> must match the reference simulator to this absolute tolerance.
constexpr double kTol = 1e-10;
constexpr double kPi = 3.14159265358979323846;
constexpr int kSetups = 12;

SessionConfig sweep_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 9;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;
  cfg.cluster.num_threads = 1;
  cfg.dispatch_threads = 4;
  return cfg;
}

/// One ry and one rz layer, then kReps x {cx chain, ry layer, rz layer};
/// symbols t000..t119 in gate order.
Circuit ansatz() {
  Circuit c(kQubits, "hea12");
  int k = 0;
  const auto sym = [&k] {
    char name[8];
    std::snprintf(name, sizeof name, "t%03d", k++);
    return Param::symbol(name);
  };
  const auto rotations = [&] {
    for (int q = 0; q < kQubits; ++q) c.add(Gate::ry(q, sym()));
    for (int q = 0; q < kQubits; ++q) c.add(Gate::rz(q, sym()));
  };
  rotations();
  for (int r = 0; r < kReps; ++r) {
    for (int q = 0; q + 1 < kQubits; ++q) c.add(Gate::cx(q, q + 1));
    rotations();
  }
  return c;
}

/// The 240 shifted points of op `i`: theta + pi/2 e_k, theta - pi/2 e_k.
std::vector<std::vector<double>> gradient_points(std::uint64_t seed,
                                                 std::size_t i) {
  std::mt19937_64 rng(mix_seed(seed, i));
  std::uniform_real_distribution<double> angle(-kPi, kPi);
  std::vector<double> base(kSymbols);
  for (double& v : base) v = angle(rng);
  std::vector<std::vector<double>> points;
  points.reserve(kPoints);
  for (int k = 0; k < kSymbols; ++k)
    for (double shift : {kPi / 2, -kPi / 2}) {
      points.push_back(base);
      points.back()[static_cast<std::size_t>(k)] += shift;
    }
  return points;
}

/// <Z_q> of point `values` by the reference simulator.
std::vector<double> reference_z(const Circuit& circuit,
                                const std::vector<std::string>& symbols,
                                const std::vector<double>& values) {
  ParamBinding binding;
  for (std::size_t k = 0; k < symbols.size(); ++k)
    binding.set(symbols[k], values[k]);
  const StateVector sv = simulate_reference(circuit.bind(binding));
  std::vector<double> z(kQubits, 0);
  for (Index i = 0; i < sv.size(); ++i) {
    const double p = std::norm(sv[i]);
    for (int q = 0; q < kQubits; ++q) z[q] += (i >> q) & 1 ? -p : p;
  }
  return z;
}

}  // namespace

Outcome run_sweep_gradient(const Options& options) {
  Outcome out;
  // Set-up: the session and the compiled ansatz, timed kSetups times:
  // once here, then on throwaway copies spread over the window.
  const auto set_up = [] {
    auto session = std::make_unique<Session>(sweep_config());
    Circuit circuit = ansatz();
    CompiledCircuit cc = session->compile(circuit);
    return std::make_tuple(std::move(session), std::move(circuit),
                           std::move(cc));
  };
  SetupTimes setups;
  auto [session, circuit, cc] = setups.time(set_up);
  const std::vector<std::string>& symbols = cc.symbols();
  std::size_t plan_kernels = 0;
  for (const exec::PlannedStage& st : cc.plan()->stages)
    plan_kernels += st.kernels.kernels.size();

  // One loop for both modes. A traced run follows every untraced sweep
  // with the same 240 points walked serially through the outside stage
  // walk; every fourth point is also run untraced right after its walk,
  // which checks bit-identity and times the serial untraced point.
  SpanLog log;
  std::vector<double> op_ms, point_ms, serial_ms;
  double busy_s = 0;
  std::uint64_t binds_per_op = 0, skeletons_per_op = 0;
  int op = 0;
  setups.start_window();
  for (std::size_t i = 0;; ++i) {
    if (i > 0 && setups.window_s() >= options.seconds) break;
    if (options.max_ops > 0 && i >= static_cast<std::size_t>(options.max_ops))
      break;
    if (setups.due(options.seconds, kSetups)) setups.time(set_up);
    const std::vector<std::vector<double>> points =
        gradient_points(options.seed, i);
    ++out.attempted;
    std::vector<std::vector<double>> z(kPoints, std::vector<double>(kQubits));
    std::vector<std::vector<double>> grad(kSymbols,
                                          std::vector<double>(kQubits));
    try {
      const std::uint64_t binds0 = exec::stage_kernel_binds();
      const std::uint64_t skel0 = exec::stage_skeleton_compiles();
      const std::int64_t t0 = now_ns();
      {
        const std::vector<SimulationResult> results = session->sweep(cc, points);
        for (int p = 0; p < kPoints; ++p)
          for (int q = 0; q < kQubits; ++q) z[p][q] = results[p].expectation_z(q);
        for (int k = 0; k < kSymbols; ++k)
          for (int q = 0; q < kQubits; ++q)
            grad[k][q] = (z[2 * k][q] - z[2 * k + 1][q]) / 2;
      }
      const double ms = ms_between(t0, now_ns());
      op_ms.push_back(ms);
      busy_s += ms / 1e3;
      binds_per_op = exec::stage_kernel_binds() - binds0;
      skeletons_per_op = exec::stage_skeleton_compiles() - skel0;
    } catch (const std::exception& e) {
      out.check_failed(std::string("sweep threw: ") + e.what());
      ++out.failed;
      continue;
    }
    // Output check, outside the timer: two points per op against the
    // reference simulator.
    bool ok = true;
    for (std::size_t p : {(i * 37) % kPoints, (i * 101 + 7) % kPoints}) {
      const std::vector<double> ref = reference_z(circuit, symbols, points[p]);
      for (int q = 0; q < kQubits; ++q)
        if (std::abs(ref[q] - z[p][q]) > kTol) ok = false;
    }
    if (!ok) {
      out.check_failed("op " + std::to_string(i) +
                       ": <Z> differs from simulate_reference");
      ++out.failed;
    }
    if (!options.trace) continue;

    ++out.attempted;
    ok = true;
    try {
      Scoped root(log, "sweep.op", -1, op);
      for (int p = 0; p < kPoints; ++p) {
        const int point = log.begin("sweep.point", root.id(), op);
        int span = log.begin("core.slots", point, op);
        const SlotValues slots = cc.slot_values_from(points[p]);
        log.end(span);
        WalkTotals totals;
        const exec::DistState state =
            traced_walk(*session, cc, slots, log, point, op, totals);
        span = log.begin("exec.expz", point, op);
        std::vector<double> zt(kQubits);
        for (int q = 0; q < kQubits; ++q) zt[q] = exec::expectation_z(state, q);
        log.end(span);
        log.end(point);
        const Span& ps = log.spans()[static_cast<std::size_t>(point)];
        point_ms.push_back(ms_between(ps.start, ps.end));
        if (zt != z[p]) ok = false;
        if (p % 4 != 0) continue;
        const std::int64_t t0 = now_ns();
        const SimulationResult r = session->run(cc, points[p]);
        std::vector<double> zr(kQubits);
        for (int q = 0; q < kQubits; ++q) zr[q] = r.expectation_z(q);
        serial_ms.push_back(ms_between(t0, now_ns()));
        if (state_digest(state) != state_digest(r.state) || zr != zt) ok = false;
      }
    } catch (const std::exception& e) {
      out.check_failed(std::string("traced walk threw: ") + e.what());
      ok = false;
    }
    ++op;
    if (!ok) {
      out.check_failed("traced op " + std::to_string(i) +
                       ": walk is not bit-identical to Session::run");
      ++out.failed;
    }
  }
  report_end_to_end(out, op_ms, busy_s, setups.seconds());
  if (!options.trace) return out;

  const double n = static_cast<double>(point_ms.size());
  double layer_sum_us = 0;
  for (const char* l : {"core.slots", "exec.init", "exec.remap", "exec.bind",
                        "sim.replay", "exec.expz"}) {
    const double us = log.total_ms(l) * 1e3 / n;
    layer_sum_us += us;
    out.set(std::string(l) + "_us", us, "us");
  }
  out.set("exec.kernel_binds", static_cast<double>(binds_per_op), "count");
  out.set("exec.bind_reuse_frac",
          1.0 - static_cast<double>(binds_per_op) /
                    (static_cast<double>(kPoints) *
                     static_cast<double>(plan_kernels)),
          "frac");
  out.set("exec.skeleton_builds", static_cast<double>(skeletons_per_op),
          "count");
  // Serial traced work per op over the dispatch pool's capacity.
  const double traced_point_ms = mean(point_ms);
  out.set("core.dispatch_eff",
          traced_point_ms * kPoints /
              (session->config().dispatch_threads * mean(op_ms)),
          "frac");
  const double serial_point_us = mean(serial_ms) * 1e3;
  check_layer_sum(out, layer_sum_us / serial_point_us);
  out.set("trace.overhead_frac", traced_point_ms * 1e3 / serial_point_us - 1.0,
          "frac");
  write_spans(options, options.workload, log, out);
  serve_census(options, out);
  return out;
}

}  // namespace perfbench
