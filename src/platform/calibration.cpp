#include "platform/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hmxp::platform {

std::size_t block_bytes(const CalibrationConstants& constants) {
  return constants.q * constants.q * constants.element_bytes;
}

model::Time block_comm_seconds(double mbps,
                               const CalibrationConstants& constants) {
  HMXP_REQUIRE(mbps > 0, "bandwidth must be positive");
  const double bits = static_cast<double>(block_bytes(constants)) * 8.0;
  return bits / (mbps * 1e6);
}

model::Time block_update_seconds(double gflops,
                                 const CalibrationConstants& constants) {
  HMXP_REQUIRE(gflops > 0, "compute rate must be positive");
  const double q = static_cast<double>(constants.q);
  return 2.0 * q * q * q / (gflops * 1e9);
}

model::BlockCount memory_blocks(double ram_mib, double usable_fraction,
                                const CalibrationConstants& constants) {
  HMXP_REQUIRE(ram_mib > 0, "memory must be positive");
  HMXP_REQUIRE(usable_fraction > 0 && usable_fraction <= 1,
               "usable fraction must be in (0, 1]");
  const double bytes = ram_mib * 1024.0 * 1024.0 * usable_fraction;
  return static_cast<model::BlockCount>(
      std::floor(bytes / static_cast<double>(block_bytes(constants))));
}

WorkerSpec calibrate(const PhysicalSpec& spec,
                     const CalibrationConstants& constants) {
  WorkerSpec worker;
  worker.c = block_comm_seconds(spec.mbps, constants);
  worker.w = block_update_seconds(spec.gflops, constants);
  worker.m = memory_blocks(spec.ram_mib, spec.usable_fraction, constants);
  worker.label = spec.label;
  return worker;
}

void SpeedEstimate::observe(double per_update_cost, double alpha) {
  HMXP_REQUIRE(per_update_cost > 0, "observed cost must be positive");
  HMXP_REQUIRE(alpha > 0 && alpha <= 1, "EWMA alpha must be in (0, 1]");
  ++observations;
  if (observations <= kWarmup) return;  // cold-start steps lie
  if (observations == kWarmup + 1) {
    ewma = per_update_cost;
  } else {
    ewma = alpha * per_update_cost + (1.0 - alpha) * ewma;
  }
  if (baseline_count < kBaselineWindow) {
    baseline_sum += per_update_cost;
    ++baseline_count;
    baseline = baseline_sum / static_cast<double>(baseline_count);
  }
}

double SpeedEstimate::drift() const {
  if (!calibrated() || baseline <= 0.0) return 1.0;
  return ewma / baseline;
}

// ---- calibration persistence ------------------------------------------------

namespace {

constexpr const char* kCalibHeader = "hmxp-calibration-cache-v1";

std::mutex calib_override_mutex;
std::optional<std::string> calib_override;

/// Key fragments must survive a line-oriented tab-separated file.
std::string sanitize_key_fragment(const std::string& raw) {
  std::string out = raw;
  for (char& ch : out)
    if (ch == '\t' || ch == '\n' || ch == '\r' || ch == ' ') ch = '_';
  return out;
}

/// First "model name" line of /proc/cpuinfo; "unknown-cpu" elsewhere.
/// Keys the cache: estimates only reheat on matching silicon.
const std::string& cpu_model_string() {
  static const std::string model = [] {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      if (line.rfind("model name", 0) == 0) {
        std::string value = line.substr(colon + 1);
        const auto begin = value.find_first_not_of(" \t");
        if (begin != std::string::npos) return value.substr(begin);
      }
    }
    return std::string("unknown-cpu");
  }();
  return model;
}

struct CalibEntry {
  std::string key;
  std::vector<SpeedEstimate> speeds;
};

/// Strict whole-file parse; nullopt on ANY anomaly (missing, stale
/// header, malformed line) -- a suspect cache is treated as absent.
std::optional<std::vector<CalibEntry>> parse_calib_file(
    const std::string& path) {
  std::ifstream stream(path);
  if (!stream.is_open()) return std::nullopt;
  std::string line;
  if (!std::getline(stream, line) || line != kCalibHeader)
    return std::nullopt;
  std::vector<CalibEntry> entries;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) return std::nullopt;
    std::istringstream values(line.substr(tab + 1));
    std::size_t count = 0;
    if (!(values >> count) || count == 0 || count > 1u << 20)
      return std::nullopt;
    CalibEntry entry;
    entry.key = line.substr(0, tab);
    entry.speeds.resize(count);
    for (SpeedEstimate& speed : entry.speeds) {
      if (!(values >> speed.ewma >> speed.baseline >> speed.baseline_sum >>
            speed.baseline_count >> speed.observations))
        return std::nullopt;
      if (!std::isfinite(speed.ewma) || !std::isfinite(speed.baseline) ||
          !std::isfinite(speed.baseline_sum))
        return std::nullopt;
    }
    std::string trailing;
    if (values >> trailing) return std::nullopt;
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

void set_calibration_cache_override(std::optional<std::string> path_or_off) {
  const std::lock_guard<std::mutex> lock(calib_override_mutex);
  calib_override = std::move(path_or_off);
}

std::string calibration_cache_path() {
  {
    const std::lock_guard<std::mutex> lock(calib_override_mutex);
    if (calib_override.has_value())
      return util::to_lower(*calib_override) == "off" ? std::string()
                                                      : *calib_override;
  }
  const char* env = std::getenv("HMXP_CALIB_CACHE");
  if (env != nullptr && *env != '\0')
    return util::to_lower(env) == "off" ? std::string() : std::string(env);
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && *xdg != '\0')
    return std::string(xdg) + "/hmxp/calibration";
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0')
    return std::string(home) + "/.cache/hmxp/calibration";
  return std::string();  // nowhere sane to persist
}

std::string calibration_cache_key(const std::string& fleet_label,
                                  std::size_t workers) {
  return sanitize_key_fragment(cpu_model_string()) + '|' +
         sanitize_key_fragment(fleet_label) + "|p" + std::to_string(workers);
}

std::optional<std::vector<SpeedEstimate>> load_calibration(
    const std::string& path, const std::string& key, std::size_t workers) {
  if (path.empty()) return std::nullopt;
  try {
    const auto entries = parse_calib_file(path);
    if (!entries.has_value()) return std::nullopt;
    for (const CalibEntry& entry : *entries)
      if (entry.key == key && entry.speeds.size() == workers)
        return entry.speeds;
  } catch (...) {
    // Filesystem/locale surprises read as "no cache", never a crash.
  }
  return std::nullopt;
}

bool store_calibration(const std::string& path, const std::string& key,
                       const std::vector<SpeedEstimate>& speeds) {
  if (path.empty() || speeds.empty()) return false;
  try {
    namespace fs = std::filesystem;
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
      fs::create_directories(target.parent_path(), ec);
    // Keep every other fleet's entry a concurrent process may have
    // written; replace ours.
    auto entries = parse_calib_file(path).value_or(std::vector<CalibEntry>{});
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const CalibEntry& entry) {
                                   return entry.key == key;
                                 }),
                  entries.end());
    entries.push_back({key, speeds});
    const fs::path tmp =
        target.string() + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out.is_open()) return false;
      out.precision(17);
      out << kCalibHeader << '\n';
      for (const CalibEntry& entry : entries) {
        out << entry.key << '\t' << entry.speeds.size();
        for (const SpeedEstimate& speed : entry.speeds)
          out << ' ' << speed.ewma << ' ' << speed.baseline << ' '
              << speed.baseline_sum << ' ' << speed.baseline_count << ' '
              << speed.observations;
        out << '\n';
      }
      if (!out.good()) {
        out.close();
        fs::remove(tmp, ec);
        return false;
      }
    }
    fs::rename(tmp, target, ec);  // atomic: readers see old or new file
    if (ec) {
      fs::remove(tmp, ec);
      return false;
    }
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace hmxp::platform
