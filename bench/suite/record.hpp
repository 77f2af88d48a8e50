// What one suite run records: named metrics with units, the attempted
// and failed operation counts, correctness failures, and -- in a traced
// run -- wall-clock spans around every call the suite makes into a
// layer. Also the host facts stamped into every result file.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hmxp::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
class RunResult {
 public:
  /// Sets (or overwrites) a metric, keeping first-set order.
  void set(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  bool has(const std::string& name) const { return find(name) != nullptr; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Records a correctness failure; the run exits non-zero.
  void fail(const std::string& what);
  const std::vector<std::string>& errors() const { return errors_; }
  bool correct() const { return errors_.empty(); }

  std::size_t attempted = 0;
  std::size_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Linear-interpolated p-quantile (p in [0, 1]) of a non-empty sample.
double quantile(const std::vector<double>& samples, double p);
double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// Bench-side wall-clock spans, one per wrapped call into a layer:
/// {name, start_us, end_us, parent, request_id}. Spans are kept in
/// memory and written once, at exit. Recording stops at `limit` spans
/// (the file states how many were dropped) so long traced runs stay
/// bounded; the per-name totals in the file cover recorded spans only.
/// Thread-safe. Names must be string literals.
class SpanRecorder {
 public:
  static constexpr int kNoSpan = -1;

  SpanRecorder(Clock::time_point origin, std::size_t limit);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span now; returns its id (kNoSpan once the limit is hit).
  int begin(const char* name, int parent, std::uint64_t request_id);
  /// Closes a span opened by begin(); kNoSpan is ignored.
  void end(int span);
  /// Records a span whose ends were measured by the caller.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request_id);

  /// Writes the spans plus, per name, count, total and self time (a
  /// span's duration minus the time its child spans cover).
  void write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::uint64_t request_id;
  };
  double micros(Clock::time_point at) const;

  Clock::time_point origin_;
  std::size_t limit_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::size_t dropped_ = 0;  // guarded by mutex_
};

/// Peak resident set of this process (getrusage ru_maxrss), MiB.
double peak_rss_mb();

/// Host facts for the result file.
struct HostContext {
  unsigned nproc = 0;
  std::string cpu_model;
  double load_before = 0.0;  // 1-minute load average
  double load_after = 0.0;
  double cpu_wake_s = 0.0;   // see wake_cpus
};
unsigned host_nproc();
std::string host_cpu_model();
double load_average();

/// Keeps every CPU busy with arithmetic until all of them run at the
/// speed of one (or `max_seconds` pass); returns the seconds spent. A
/// virtual machine's idle CPUs can take a second to come back: without
/// this, sim-grid's first set-ups of a run took 400-650 ms instead of
/// 130 ms, because only one of four CPUs was running.
double wake_cpus(double max_seconds);

/// JSON helpers: a quoted, escaped string; a number with every digit
/// (17 significant), never NaN or infinity (those are written as null).
std::string json_string(const std::string& text);
std::string json_number(double value);

}  // namespace hmxp::suite
