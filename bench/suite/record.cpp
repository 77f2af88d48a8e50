#include "record.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "util/stats.hpp"

namespace hmxp::suite {

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& metric : metrics_)
    if (metric.name == name) return &metric;
  return nullptr;
}

void RunResult::fail(const std::string& what) { errors_.push_back(what); }

double quantile(const std::vector<double>& samples, double p) {
  util::Samples sorted;
  sorted.add_all(samples);
  return sorted.quantile(p);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

SpanRecorder::SpanRecorder(Clock::time_point origin, std::size_t limit)
    : origin_(origin), limit_(limit) {}

double SpanRecorder::micros(Clock::time_point at) const {
  return std::chrono::duration<double, std::micro>(at - origin_).count();
}

int SpanRecorder::begin(const char* name, int parent,
                        std::uint64_t request_id) {
  const double start = micros(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= limit_) {
    ++dropped_;
    return kNoSpan;
  }
  spans_.push_back(Span{name, start, start, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int span) {
  if (span == kNoSpan) return;
  const double end = micros(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_us = end;
}

int SpanRecorder::add(const char* name, Clock::time_point start,
                      Clock::time_point end, int parent,
                      std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= limit_) {
    ++dropped_;
    return kNoSpan;
  }
  spans_.push_back(Span{name, micros(start), micros(end), parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::write(const std::string& path,
                         const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent != kNoSpan)
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& entry = totals[spans_[i].name];
    const double duration = spans_[i].end_us - spans_[i].start_us;
    ++entry.count;
    entry.total_us += duration;
    entry.self_us += duration - child_us[i];
  }

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"workload\": " << json_string(workload)
      << ", \"recorded\": " << spans_.size() << ", \"dropped\": " << dropped_
      << ",\n \"totals\": {";
  bool first = true;
  for (const auto& [name, entry] : totals) {
    out << (first ? "\n  " : ",\n  ") << json_string(name)
        << ": {\"count\": " << entry.count
        << ", \"total_us\": " << json_number(entry.total_us)
        << ", \"self_us\": " << json_number(entry.self_us) << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                  "%.3f, \"parent\": %d, \"request_id\": %llu}",
                  i == 0 ? "" : ",", span.name, span.start_us, span.end_us,
                  span.parent, static_cast<unsigned long long>(span.request_id));
    out << line;
  }
  out << "]}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned host_nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? std::string() : line.substr(begin);
  }
  return "unknown";
}

namespace {

/// Spins threads that count blocks of arithmetic until destroyed.
class Spinners {
 public:
  explicit Spinners(unsigned threads) {
    for (unsigned i = 0; i < threads; ++i)
      threads_.emplace_back([this] {
        double x = 1.0;
        while (!stop_.load(std::memory_order_relaxed)) {
          for (int step = 0; step < 4096; ++step) x = x * 1.0000001 + 1e-9;
          blocks_.fetch_add(1, std::memory_order_relaxed);
        }
        sink_.store(x, std::memory_order_relaxed);
      });
  }
  Spinners(const Spinners&) = delete;
  Spinners& operator=(const Spinners&) = delete;
  ~Spinners() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }

  /// Blocks per second over the next `seconds`.
  double rate(double seconds) {
    const std::uint64_t before = blocks_.load();
    const Clock::time_point begin = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return static_cast<double>(blocks_.load() - before) /
           seconds_between(begin, Clock::now());
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<double> sink_{0.0};
  std::vector<std::thread> threads_;  // last: the threads use the above
};

}  // namespace

double wake_cpus(double max_seconds) {
  const Clock::time_point start = Clock::now();
  double one = 0.0;
  {
    Spinners single(1);
    single.rate(0.02);  // covers the thread's start
    one = single.rate(0.05);
  }
  const unsigned cpus = host_nproc();
  Spinners all(cpus);
  int good_rounds = 0;
  while (good_rounds < 3 && seconds_between(start, Clock::now()) < max_seconds)
    good_rounds = all.rate(0.1) >= 0.8 * cpus * one ? good_rounds + 1 : 0;
  return seconds_between(start, Clock::now());
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
          out += escaped;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace hmxp::suite
