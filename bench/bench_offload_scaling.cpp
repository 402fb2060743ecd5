// Figure 8: DRAM offloading scales across GPUs — simulation time of a
// fixed over-memory qft circuit on 1, 2 and 4 GPUs (the paper's
// contrast: QDAO stays flat when given more GPUs; Atlas speeds up).
//
// Times are modeled (Perlmutter-like link constants over the metered
// CommStats); the host's wall time of the walk does not depend on the
// modeled GPU count, so there is no wall-clock ladder here.

#include <cstdio>
#include <cstring>

#include "util.h"

namespace atlas::bench {
namespace {

void figure8(int local) {
  const int n = local + 4;  // 16 DRAM shards

  print_header(
      "Figure 8 — DRAM offloading scales with GPUs",
      "32-qubit qft, 28 local qubits, 1/2/4 GPUs on one node",
      "qft at L+4 qubits, 16 DRAM shards swapped through 1/2/4 virtual "
      "GPUs");

  std::printf("%5s | %12s %12s | %12s\n", "GPUs", "atlas", "qdao-like",
              "atlas scaling");
  double atlas_1gpu = 0;
  for (int gpus : {1, 2, 4}) {
    SimulatorConfig cfg;
    cfg.cluster.local_qubits = local;
    cfg.cluster.regional_qubits = 4;
    cfg.cluster.global_qubits = 0;
    cfg.cluster.gpus_per_node = gpus;
    cfg.cluster.num_threads = gpus;
    const Circuit c = circuits::qft(n);

    Simulator sim(cfg);
    const auto r = sim.simulate(c);
    // With g GPUs sharing the swap link and the kernel work, the
    // modeled time divides the per-stage work across them.
    const double modeled = r.report.modeled_seconds(cfg.comm, gpus, 1);
    // QDAO cannot exploit additional GPUs (the paper's Fig. 8 shows a
    // flat line), so its modeled time always uses one GPU.
    const auto qdao =
        baselines::run_baseline(baselines::BaselineKind::Qdao, c, cfg);
    const double qmodeled = qdao.report.modeled_seconds(cfg.comm, 1, 1);
    if (gpus == 1) atlas_1gpu = modeled;
    std::printf("%5d | %10.2fms %10.2fms | %10.2fx\n", gpus, modeled * 1e3,
                qmodeled * 1e3, atlas_1gpu / modeled);
  }
  std::printf("\n(paper: Atlas scales across GPUs; QDAO's time stays flat)\n");
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  using namespace atlas;
  bool smoke = false;
  int local = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      local = std::atoi(argv[i]);
  }
  bench::figure8(smoke ? 12 : local);
  return 0;
}
