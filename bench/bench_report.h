// Machine-readable bench output: each experiment binary appends records
// and writes a BENCH_<name>.json next to its stdout tables, so the perf
// trajectory of the repo can be tracked across PRs by diffing/plotting
// the JSON instead of scraping printf tables.
//
// Schema: a JSON array of objects, two record shapes:
//   timing: {"name": str, "iters": int, "ns_per_op": float,
//            "mb_per_s": float}
//   gauge:  {"name": str, "value": float, "unit": str}
// where ns_per_op is wall time per iteration, mb_per_s is 0 when a
// record has no natural byte volume, and gauges carry point-in-time
// measurements (e.g. a reel count or a kernel speedup).

#ifndef ULE_BENCH_BENCH_REPORT_H_
#define ULE_BENCH_BENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ule {
namespace bench {

struct BenchRecord {
  std::string name;
  bool is_gauge = false;
  uint64_t iters = 1;
  double ns_per_op = 0.0;
  double mb_per_s = 0.0;
  double value = 0.0;
  std::string unit;
};

/// Peak resident set size of this process so far, in bytes (0 where the
/// platform offers no getrusage). Monotone over the process's life, so a
/// reading covers everything the process ran before it. perfbench
/// reports it as `peak_rss_mb`.
inline uint64_t MaxRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

class BenchReport {
 public:
  void Add(std::string name, uint64_t iters, double seconds_total,
           double bytes_total = 0.0) {
    BenchRecord r;
    r.name = std::move(name);
    r.iters = iters > 0 ? iters : 1;
    r.ns_per_op = seconds_total * 1e9 / static_cast<double>(r.iters);
    r.mb_per_s =
        seconds_total > 0 ? bytes_total / 1e6 / seconds_total : 0.0;
    records_.push_back(std::move(r));
  }

  /// Adds a point-in-time measurement (peak RSS, live bytes, counters).
  void AddGauge(std::string name, double value, std::string unit) {
    BenchRecord r;
    r.name = std::move(name);
    r.is_gauge = true;
    r.value = value;
    r.unit = std::move(unit);
    records_.push_back(std::move(r));
  }

  /// Writes BENCH_<name>.json in the current directory. Returns false (and
  /// prints a warning) when the file cannot be written.
  bool Write(const std::string& bench_name) const {
    const std::string path = "BENCH_" + bench_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      const char* sep = i + 1 < records_.size() ? "," : "";
      if (r.is_gauge) {
        std::fprintf(f, "  {\"name\": \"%s\", \"value\": %.3f, "
                     "\"unit\": \"%s\"}%s\n",
                     Escaped(r.name).c_str(), r.value,
                     Escaped(r.unit).c_str(), sep);
      } else {
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"iters\": %llu, "
                     "\"ns_per_op\": %.3f, \"mb_per_s\": %.3f}%s\n",
                     Escaped(r.name).c_str(),
                     static_cast<unsigned long long>(r.iters), r.ns_per_op,
                     r.mb_per_s, sep);
      }
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<BenchRecord> records_;
};

}  // namespace bench
}  // namespace ule

#endif  // ULE_BENCH_BENCH_REPORT_H_
