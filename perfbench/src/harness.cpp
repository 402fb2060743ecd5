#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Outcome::check_failed(const std::string& what) {
  correct = false;
  // Keep the first few messages; a systematic failure would otherwise
  // print one line per op.
  if (notes.size() < 32) notes.push_back("CHECK FAILED: " + what);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(const char* name, int parent, int op) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end = t;
}

void SpanLog::add(const char* name, std::int64_t start, std::int64_t end,
                  int parent, int op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, op});
}

std::vector<std::int64_t> SpanLog::self_times() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Children may overlap (shard spans run in parallel): subtract the
    // union of their intervals, not their sum.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[i])
      iv.emplace_back(spans_[static_cast<std::size_t>(c)].start,
                      spans_[static_cast<std::size_t>(c)].end);
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_start = 0, cur_end = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (!open || s > cur_end) {
        if (open) covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
        open = true;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (open) covered += cur_end - cur_start;
    self[i] = (spans_[i].end - spans_[i].start) - covered;
  }
  return self;
}

double SpanLog::total_ms(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.end - s.start;
  return static_cast<double>(sum) / 1e6;
}

double SpanLog::total_self_ms(const std::string& name,
                              const std::vector<std::int64_t>& self) const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) sum += self[i];
  return static_cast<double>(sum) / 1e6;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[\"%s\", %.3f, %.3f, %d, %d]%s\n", s.name,
                 static_cast<double>(s.start - t0) / 1e3,
                 static_cast<double>(s.end - t0) / 1e3, s.parent, s.op,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void check_layer_sum(Outcome& out, double layer_sum_frac) {
  out.set("exec.layer_sum_frac", layer_sum_frac, "frac");
  if (!(std::abs(layer_sum_frac - 1.0) <= kLayerSumTolerance))
    out.check_failed("exec.layer_sum_frac " + std::to_string(layer_sum_frac) +
                     " is outside 1 +/- " + std::to_string(kLayerSumTolerance) +
                     ": the traced walk no longer covers Session::run");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv_bytes(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_end_to_end(Outcome& out, const std::vector<double>& op_ms,
                       double busy_s, const std::vector<double>& setups_s) {
  const double ops = static_cast<double>(op_ms.size());
  out.set("ops_per_s", busy_s > 0 ? ops / busy_s : 0, "1/s");
  out.set("latency_ms_p50", quantile(op_ms, 0.5), "ms");
  out.set("latency_ms_p90", quantile(op_ms, 0.9), "ms");
  out.set("setup_s", quantile(setups_s, 0.5), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  char line[160];
  std::snprintf(line, sizeof line,
                "window: %zu ops in %.3f s busy; %zu samples beyond p90; "
                "%zu set-ups",
                op_ms.size(), busy_s,
                op_ms.size() - static_cast<std::size_t>(0.9 * ops),
                setups_s.size());
  out.note(line);
}

namespace {

double memcpy_gbps(int threads, std::vector<char>& src, std::vector<char>& dst) {
  const std::size_t chunk = src.size() / static_cast<std::size_t>(threads);
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t)
      workers.emplace_back([&, t] {
        std::memcpy(dst.data() + chunk * t, src.data() + chunk * t, chunk);
      });
    std::memcpy(dst.data(), src.data(), chunk);
    for (auto& w : workers) w.join();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    runs.push_back(static_cast<double>(chunk * threads) / s / 1e9);
  }
  return quantile(runs, 0.5);
}

double fma_gflops() {
  volatile double seed_m = 0.999999999, seed_c = 1e-9;
  const double m = seed_m, c = seed_c;
  double acc[16];
  for (int j = 0; j < 16; ++j) acc[j] = 1.0 + j;
  const long iters = 20'000'000;
  const std::int64_t t0 = now_ns();
  for (long i = 0; i < iters; ++i)
    for (int j = 0; j < 16; ++j) acc[j] = acc[j] * m + c;
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  volatile double sink = 0;
  for (double a : acc) sink = sink + a;
  return 2.0 * 16.0 * static_cast<double>(iters) / s / 1e9;
}

}  // namespace

HostCeilings measure_host() {
  // 64 MiB per buffer: twice the run-large state.
  std::vector<char> src(std::size_t{64} << 20, 1), dst(src.size(), 0);
  HostCeilings h;
  h.memcpy_gbps_1t = memcpy_gbps(1, src, dst);
  h.memcpy_gbps_4t = memcpy_gbps(4, src, dst);
  h.fma_gflops_1t = fma_gflops();
  return h;
}

HostCeilings probe_host_in_child(const std::string& self) {
  const std::string cmd = "'" + self + "' --host-probe";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) throw std::runtime_error("cannot start the host probe");
  HostCeilings h;
  const int got = std::fscanf(p, "%lf %lf %lf", &h.memcpy_gbps_1t,
                              &h.memcpy_gbps_4t, &h.fma_gflops_1t);
  const int status = pclose(p);
  if (got != 3 || status != 0)
    throw std::runtime_error("host probe failed");
  return h;
}

const std::vector<std::string>& replay_path_names() {
  // Index = static_cast<int>(atlas::ApplyPath), then Shm.
  static const std::vector<std::string> names = {
      "Dense1q", "Diag1q", "Dense2q", "DiagK", "PermK", "DenseK", "Shm"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        // compile census (run-large's traced runs)
        {"opt.optimize_ms", "ms"},
        {"staging.stage_ms", "ms"},
        {"kernelize.kernelize_ms", "ms"},
        {"core.compile_rest_ms", "ms"},
        {"kernelize.compile_share", "frac"},
    };
    for (const char* f : {"ae", "dj", "ghz", "graphstate", "ising", "qft",
                          "qpeexact", "qsvm", "su2random", "vqc", "wstate"})
      m.emplace_back(std::string("core.compile_ms.") + f, "ms");
    m.insert(m.end(), {{"staging.stages", "count"},
                       {"staging.comm_cost", "cost"},
                       {"kernelize.kernels", "count"},
                       {"kernelize.cost_units", "cost"},
                       // run-large
                       {"exec.init_ms", "ms"},
                       {"exec.remap_ms", "ms"},
                       {"exec.bind_ms", "ms"},
                       {"sim.replay_ms", "ms"},
                       {"exec.sample_ms", "ms"},
                       {"exec.remap_bytes.intra_gpu", "B"},
                       {"exec.remap_bytes.intra_node", "B"},
                       {"exec.remap_bytes.inter_node", "B"},
                       {"exec.remap_gbps", "GB/s"},
                       {"exec.remap_memcpy_frac", "frac"}});
    for (const std::string& p : replay_path_names()) {
      m.emplace_back("sim.replay_busy_ms." + p, "ms");
      m.emplace_back("sim.replay_gbps." + p, "GB/s");
      m.emplace_back("sim.replay_calls." + p, "count");
    }
    m.insert(m.end(), {{"sim.replay_parallel_eff", "frac"},
                       // sweep-gradient
                       {"core.slots_us", "us"},
                       {"exec.init_us", "us"},
                       {"exec.remap_us", "us"},
                       {"exec.bind_us", "us"},
                       {"sim.replay_us", "us"},
                       {"exec.expz_us", "us"},
                       {"exec.kernel_binds", "count"},
                       {"exec.bind_reuse_frac", "frac"},
                       {"exec.skeleton_builds", "count"},
                       {"core.dispatch_eff", "frac"},
                       // serve census (traced sweep-gradient)
                       {"serve.inproc_us", "us"},
                       {"serve.codec_us", "us"},
                       {"serve.gap_us", "us"},
                       {"serve.queue_wait_us_p50", "us"},
                       {"serve.server_latency_us_p50", "us"},
                       {"serve.bytes_per_req", "B"},
                       {"serve.refused", "count"},
                       // host ceilings and harness
                       {"host.memcpy_gbps_1t", "GB/s"},
                       {"host.memcpy_gbps_4t", "GB/s"},
                       {"host.fma_gflops_1t", "GFLOP/s"},
                       {"exec.layer_sum_frac", "frac"},
                       {"trace.overhead_frac", "frac"}});
    return m;
  }();
  return list;
}

void write_spans(const Options& options, const std::string& name,
                 const SpanLog& log, Outcome& out) {
  // One file per name, replaced by each traced run.
  const std::string path = options.span_dir + "/" + name + ".json";
  if (log.write(path))
    out.note("spans: " + std::to_string(log.spans().size()) + " written to " +
             path);
  else
    out.note("spans: could not write " + path);
}

}  // namespace perfbench
