// The compile census: every Table-I family compiled once through
// Session::compile() (plan cache cleared first) and once decomposed into
// the compile pipeline's public phases — CompilePipeline::optimize,
// Stager::stage and per-stage Kernelizer::kernelize — under spans. Both
// must build the same plan, and the plan must verify. It gives the
// compile layers' per-layer metrics; run-large's traced runs take it on
// their own cluster shape, the set-up cost of that workload.

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "core/session.h"
#include "harness.h"
#include "kernelize/kernel.h"
#include "staging/stage.h"
#include "verify/verify.h"

namespace perfbench {

using namespace atlas;

namespace {

/// Plan-quality figures of one compile; every compile of a family must
/// reproduce them exactly.
struct PlanShape {
  std::size_t stages = 0;
  std::size_t kernels = 0;
  double comm_cost = 0;
  double cost_units = 0;
  std::vector<std::vector<int>> stage_gates;

  bool operator==(const PlanShape& o) const {
    return stages == o.stages && kernels == o.kernels &&
           comm_cost == o.comm_cost && cost_units == o.cost_units &&
           stage_gates == o.stage_gates;
  }
};

PlanShape shape_of(const exec::ExecutionPlan& plan) {
  PlanShape s;
  s.stages = plan.stages.size();
  s.comm_cost = plan.staging_comm_cost;
  s.cost_units = plan.kernel_cost_total;
  for (const exec::PlannedStage& st : plan.stages) {
    s.kernels += st.kernels.kernels.size();
    s.stage_gates.push_back(st.original_indices);
  }
  return s;
}

/// The slot-canonical form the compile pipeline stages: every
/// parameter becomes slot symbol "$k" in walk order.
Circuit canonical_form(const Circuit& circuit) {
  Circuit canonical(circuit.num_qubits(), circuit.name());
  int slot = 0;
  for (const Gate& g : circuit.gates()) {
    if (g.params().empty()) {
      canonical.add(g);
      continue;
    }
    std::vector<Param> params;
    for (std::size_t i = 0; i < g.params().size(); ++i)
      params.push_back(Param::symbol(slot_symbol_name(slot++)));
    canonical.add(g.with_params(std::move(params)));
  }
  return canonical;
}

/// One traced compile: the pipeline's phases called one by one through
/// their public entry points. Returns the plan shape it produced.
PlanShape traced_compile(const Session& session, const Circuit& circuit,
                         SpanLog& log, int op) {
  const SessionConfig& cfg = session.config();
  staging::MachineShape shape;
  shape.num_local = cfg.cluster.local_qubits;
  shape.num_regional = cfg.cluster.regional_qubits;
  shape.num_global = cfg.cluster.global_qubits;
  shape.cost_factor = cfg.stage_cost_factor;

  PlanShape out;
  Scoped root(log, "core.compile", -1, op);
  int span = log.begin("opt.optimize", root.id(), op);
  const Circuit optimized = session.pipeline().optimize(circuit);
  log.end(span);
  const Circuit canonical = canonical_form(optimized);

  span = log.begin("staging.stage", root.id(), op);
  const staging::StagedCircuit staged =
      session.stager().stage(canonical, shape, cfg.staging);
  log.end(span);
  staging::validate_staging(canonical, staged, shape);
  out.stages = staged.stages.size();
  out.comm_cost = staged.comm_cost;

  for (const staging::Stage& stage : staged.stages) {
    const Circuit sub = canonical.subcircuit(stage.gate_indices);
    span = log.begin("kernelize.kernelize", root.id(), op);
    const kernelize::Kernelization k =
        session.kernelizer().kernelize(sub, cfg.cost_model, cfg.kernelize);
    log.end(span);
    kernelize::validate_kernelization(sub, k, cfg.cost_model);
    out.kernels += k.kernels.size();
    out.cost_units += k.total_cost;
    out.stage_gates.push_back(stage.gate_indices);
  }
  return out;
}

}  // namespace

void compile_census(const SessionConfig& config, const Options& options,
                    Outcome& out) {
  const std::vector<std::string>& families = circuits::family_names();
  Session session(config);
  const int qubits = config.cluster.total_qubits();
  SpanLog log;
  PlanShape cycle;
  double untraced_ms = 0, traced_ms = 0;
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const int op = static_cast<int>(fi);
    ++out.attempted;
    try {
      const Circuit circuit = circuits::make_family(families[fi], qubits);
      session.clear_plan_cache();
      const std::int64_t t0 = now_ns();
      const CompiledCircuit cc = session.compile(circuit);
      untraced_ms += ms_between(t0, now_ns());
      const PlanShape expected = shape_of(*cc.plan());
      const PlanShape traced = traced_compile(session, circuit, log, op);
      std::size_t root = log.spans().size() - 1;
      while (log.spans()[root].parent >= 0) --root;
      const double ms =
          ms_between(log.spans()[root].start, log.spans()[root].end);
      traced_ms += ms;
      out.set("core.compile_ms." + families[fi], ms, "ms");
      cycle.stages += expected.stages;
      cycle.kernels += expected.kernels;
      cycle.comm_cost += expected.comm_cost;
      cycle.cost_units += expected.cost_units;
      bool ok = traced == expected;
      if (!ok)
        out.check_failed(families[fi] +
                         ": traced phases built a different plan than "
                         "Session::compile");
      const verify::VerifyReport report = verify::verify_compiled(cc);
      if (!report.ok()) {
        out.check_failed(families[fi] + ": " + report.to_string());
        ok = false;
      }
      // A pipeline phase the traced op does not call would leave its
      // time unattributed.
      for (const CompilePhaseTiming& p : cc.diagnostics().phases)
        if (p.phase != "optimize" && p.phase != "canonicalize" &&
            p.phase != "stage" && p.phase != "kernelize" &&
            p.phase != "program") {
          out.check_failed("compile pipeline phase '" + p.phase +
                           "' is not covered by the traced compile");
          ok = false;
        }
      if (!ok) ++out.failed;
    } catch (const std::exception& e) {
      out.check_failed(families[fi] + ": compile threw: " + e.what());
      ++out.failed;
    }
  }
  const double n = static_cast<double>(families.size());
  const double kernelize_ms = log.total_ms("kernelize.kernelize");
  out.set("opt.optimize_ms", log.total_ms("opt.optimize") / n, "ms");
  out.set("staging.stage_ms", log.total_ms("staging.stage") / n, "ms");
  out.set("kernelize.kernelize_ms", kernelize_ms / n, "ms");
  out.set("core.compile_rest_ms",
          log.total_self_ms("core.compile", log.self_times()) / n, "ms");
  out.set("kernelize.compile_share", kernelize_ms / traced_ms, "frac");
  out.set("staging.stages", static_cast<double>(cycle.stages), "count");
  out.set("staging.comm_cost", cycle.comm_cost, "cost");
  out.set("kernelize.kernels", static_cast<double>(cycle.kernels), "count");
  out.set("kernelize.cost_units", cycle.cost_units, "cost");
  char line[160];
  std::snprintf(line, sizeof line,
                "compile census: %d families at %d qubits, %.1f ms untraced, "
                "%.1f ms traced",
                static_cast<int>(n), qubits, untraced_ms, traced_ms);
  out.note(line);
  write_spans(options, "compile-census", log, out);
}

}  // namespace perfbench
