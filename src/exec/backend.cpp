#include "exec/backend.h"

#include <utility>

#include "common/error.h"

namespace atlas::exec {
namespace {

/// Every built-in name runs the one stage walk; they differ only in
/// which cluster shapes validate() accepts.
class WalkBackend final : public ExecutorBackend {
 public:
  WalkBackend(std::string name, bool refuses_offloading)
      : name_(std::move(name)), refuses_offloading_(refuses_offloading) {}

  std::string name() const override { return name_; }
  void validate(const device::ClusterConfig& cfg) const override {
    ATLAS_CHECK(!refuses_offloading_ || !cfg.offloading(),
                "the " << name_ << " executor needs one GPU per shard: "
                       << cfg.shards_per_node() << " shards/node but only "
                       << cfg.gpus_per_node
                       << " gpus/node; use the 'offload' executor");
  }
  ExecutionReport execute(const ExecutionPlan& plan,
                          const device::Cluster& cluster, DistState& state,
                          const ParamEnv& env) const override {
    validate(cluster.config());  // guards direct registry users too
    return execute_plan(plan, cluster, state, env);
  }
  /// Offloading shapes batch: a sweep's points then share each stage's
  /// parameter-independent kernel binds. Other shapes keep fanning
  /// points out on the session's dispatch pool, which runs them
  /// concurrently.
  bool batched_launches(const device::ClusterConfig& cfg) const override {
    return cfg.offloading();
  }
  std::vector<ExecutionReport> execute_batch(
      const ExecutionPlan& plan, const device::Cluster& cluster,
      const std::vector<BatchPoint>& points) const override {
    validate(cluster.config());
    return execute_plan(plan, cluster, points);
  }

 private:
  std::string name_;
  bool refuses_offloading_;
};

}  // namespace

ExecutorRegistry& executor_registry() {
  static ExecutorRegistry* registry = [] {
    auto* r = new ExecutorRegistry("executor");
    r->add("inmemory",
           [] { return std::make_shared<WalkBackend>("inmemory", true); });
    r->add("offload",
           [] { return std::make_shared<WalkBackend>("offload", false); });
    r->add("auto",
           [] { return std::make_shared<WalkBackend>("auto", false); });
    return r;
  }();
  return *registry;
}

}  // namespace atlas::exec
