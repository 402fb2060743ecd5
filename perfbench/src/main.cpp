// The repository benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--max-ops K] [--span-dir DIR]
//   perfbench --host-probe
//
// Runs one workload in this process and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, including the host ceilings measured at the start
// and end of the run. Exits 1 when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload run-large|sweep-gradient "
               "--seed N --seconds S --trace 0|1 "
               "[--max-ops K] [--span-dir DIR]\n       perfbench --host-probe\n");
  return 2;
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host-probe") {
      const HostCeilings h = measure_host();
      std::printf("%.6f %.6f %.6f\n", h.memcpy_gbps_1t, h.memcpy_gbps_4t,
                  h.fma_gflops_1t);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--max-ops") {
      options.max_ops = std::atoi(value.c_str());
    } else if (arg == "--span-dir") {
      options.span_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  if (options.span_dir.empty()) options.span_dir = ".";

  Outcome (*workload)(const Options&) = nullptr;
  if (options.workload == "run-large") workload = run_run_large;
  if (options.workload == "sweep-gradient") workload = run_sweep_gradient;
  if (workload == nullptr) return usage();

  const HostCeilings start = probe_host_in_child(argv[0]);
  options.host = start;
  Outcome out = workload(options);
  const HostCeilings end = probe_host_in_child(argv[0]);

  char line[200];
  std::snprintf(line, sizeof line,
                "host start/end: memcpy 1t %.2f/%.2f GB/s, memcpy 4t "
                "%.2f/%.2f GB/s, fma 1t %.2f/%.2f GFLOP/s",
                start.memcpy_gbps_1t, end.memcpy_gbps_1t, start.memcpy_gbps_4t,
                end.memcpy_gbps_4t, start.fma_gflops_1t, end.fma_gflops_1t);
  out.note(line);
  if (options.trace) {
    out.set("host.memcpy_gbps_1t",
            (start.memcpy_gbps_1t + end.memcpy_gbps_1t) / 2, "GB/s");
    out.set("host.memcpy_gbps_4t",
            (start.memcpy_gbps_4t + end.memcpy_gbps_4t) / 2, "GB/s");
    out.set("host.fma_gflops_1t",
            (start.fma_gflops_1t + end.fma_gflops_1t) / 2, "GFLOP/s");
    // Keep only per-layer metrics; a layer this workload's ops never
    // enter reads 0.
    std::map<std::string, Metric> layered;
    for (const auto& [name, unit] : per_layer_metrics()) {
      auto it = out.metrics.find(name);
      layered[name] = it != out.metrics.end() ? it->second : Metric{0, unit};
    }
    out.metrics = std::move(layered);
  }
  if (out.attempted == 0) out.check_failed("no op was attempted");

  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  print_json(out);
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
