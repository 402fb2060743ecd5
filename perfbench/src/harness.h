#pragma once

/// \file harness.h
/// Shared machinery of the repository benchmark: options, the result
/// record every workload fills, the in-memory span log of traced runs,
/// statistics helpers, and the host-ceiling probe.
///
/// The benchmark measures the library from outside: every span wraps a
/// call into one layer's public functions, and nothing under src/ is
/// instrumented for it.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.h"

namespace perfbench {

struct HostCeilings {
  double memcpy_gbps_1t = 0;
  double memcpy_gbps_4t = 0;
  double fma_gflops_1t = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Stop the timed window after this many ops (0 = time-bounded only);
  /// the self-test uses it to keep runs short.
  int max_ops = 0;
  /// Directory the span log of a traced run is written to.
  std::string span_dir;
  /// Host ceilings measured right before the workload started.
  HostCeilings host;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Failed ops count against attempted
/// ones; any failed check also clears `correct`.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable record lines printed before the JSON result.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed output check (the op it belongs to is counted by
  /// the caller).
  void check_failed(const std::string& what);
};

/// Monotonic nanoseconds.
std::int64_t now_ns();
inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// One span of a traced run: [start, end) in now_ns() time, the index of
/// the span that caused it (-1 for an op's root) and the op it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int op = 0;
};

/// Spans stay in memory for the whole run and are written out at the
/// end. Thread-safe: shard workers add spans concurrently.
class SpanLog {
 public:
  /// Opens a span now; close it with end().
  int begin(const char* name, int parent, int op);
  void end(int span);
  /// Records a finished span.
  void add(const char* name, std::int64_t start, std::int64_t end,
           int parent, int op);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the union of its children's intervals, per span.
  std::vector<std::int64_t> self_times() const;
  /// Summed duration (inclusive, or self when `self` is given) of every
  /// span named `name`, in milliseconds.
  double total_ms(const std::string& name) const;
  double total_self_ms(const std::string& name,
                       const std::vector<std::int64_t>& self) const;
  /// Writes the log as a JSON array of [name, start_us, end_us, parent,
  /// op] rows. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span for straight-line code on one thread.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, int parent, int op)
      : log_(log), id_(log.begin(name, parent, op)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Set-up timing spread over a run. The first set-up builds what the ops
/// use; later ones, on throwaway copies between ops, put the reported
/// median under the host conditions of the whole window rather than of
/// one burst at its start. Set-up time taken inside the window does not
/// count toward its length.
class SetupTimes {
 public:
  /// Runs `set_up` and records its duration; what it built is returned
  /// and destroyed by the caller, outside the timing.
  template <typename F>
  auto time(F&& set_up) {
    const std::int64_t t0 = now_ns();
    auto built = set_up();
    const std::int64_t t = now_ns() - t0;
    seconds_.push_back(static_cast<double>(t) / 1e9);
    window_setup_ns_ += t;
    return built;
  }
  void start_window() {
    window_start_ = now_ns();
    window_setup_ns_ = 0;
  }
  /// Seconds since start_window() not spent in set-ups.
  double window_s() const {
    return static_cast<double>(now_ns() - window_start_ - window_setup_ns_) /
           1e9;
  }
  /// True when the next of `total` set-ups, spread evenly over a window
  /// of `window_seconds`, is due.
  bool due(double window_seconds, int total) const {
    return window_s() >= window_seconds *
                             static_cast<double>(seconds_.size()) / total;
  }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::vector<double> seconds_;
  std::int64_t window_start_ = 0;
  std::int64_t window_setup_ns_ = 0;
};

/// Traced-run guard: the layers of the outside stage walk must account
/// for the untraced op within this share (exec.layer_sum_frac in
/// [1 - tol, 1 + tol]). A restructured execution path that the walk no
/// longer mirrors fails the run instead of skewing the per-layer numbers.
inline constexpr double kLayerSumTolerance = 0.2;
void check_layer_sum(Outcome& out, double layer_sum_frac);

/// Linear-interpolated quantile (q in [0, 1]) of `values`.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Mixes two 64-bit values into a well-spread seed (splitmix64).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv_bytes(const void* data, std::size_t size,
                        std::uint64_t h = 0xcbf29ce484222325ull);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Fills the five end-to-end metrics shared by every workload.
/// `op_ms` holds one latency per op of the untraced window, `busy_s`
/// the time the window spent inside ops, `setups_s` every set-up
/// repetition of the run.
void report_end_to_end(Outcome& out, const std::vector<double>& op_ms,
                       double busy_s, const std::vector<double>& setups_s);

/// Measures the host ceilings in this process (memcpy on 64 MiB
/// buffers with 1 and 4 threads, 1-thread multiply-add throughput).
HostCeilings measure_host();
/// Runs measure_host() in a child process — `self --host-probe`, where
/// `self` is this binary — so its buffers never count toward this
/// process's peak RSS, and returns its figures.
HostCeilings probe_host_in_child(const std::string& self);

/// The workloads; each fills an Outcome per the definitions recorded
/// in BENCHMARK.json.
Outcome run_run_large(const Options& options);
Outcome run_sweep_gradient(const Options& options);

/// Compiles every Table-I family on `config`'s cluster shape, once
/// through Session::compile and once phase by phase under spans, checks
/// both plans agree and verify, and sets the compile per-layer metrics.
void compile_census(const atlas::SessionConfig& config, const Options& options,
                    Outcome& out);

/// Serves closed-loop run requests of two clients from an in-process
/// serve::Server, checks every reply against an in-process run, and sets
/// the serve per-layer metrics.
void serve_census(const Options& options, Outcome& out);

/// Every per-layer metric name the benchmark defines, with its unit.
/// A traced run prints all of them; a metric whose layer the
/// workload's ops never enter reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The ApplyPath names as they appear in metric names, plus "Shm".
const std::vector<std::string>& replay_path_names();

/// Writes `log` to <span_dir>/<name>.json and records the path as a note.
void write_spans(const Options& options, const std::string& name,
                 const SpanLog& log, Outcome& out);

}  // namespace perfbench
