// Span recorder of the traced run.
//
// The benchmark drives the library from outside, so a span is opened by
// the benchmark around each call it makes into a layer's public
// functions. A span records its name ("<layer>.<what>"), start, end and
// the operation it belongs to; operations (one archive, one restore, one
// lookup, ...) are spans of their own with no parent. Spans stay in
// memory and are written out once, when the run ends.

#ifndef ULE_PERFBENCH_TRACE_H_
#define ULE_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  int op = 0;  ///< operation id; 0 = not inside an operation
  Clock::time_point start;
  Clock::time_point end;
};

struct OpRecord {
  int id = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe: layer spans are recorded from pool workers.
class Tracer {
 public:
  int BeginOp(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    OpRecord op;
    op.id = static_cast<int>(ops_.size()) + 1;
    op.name = std::move(name);
    op.start = Clock::now();
    ops_.push_back(std::move(op));
    return ops_.back().id;
  }
  void EndOp(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_[static_cast<size_t>(id - 1)].end = Clock::now();
  }
  void Record(const char* name, int op, Clock::time_point start,
              Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, op, start, end});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<OpRecord>& ops() const { return ops_; }

  /// Summed duration of every span called `name` (a layer's busy time).
  double Busy(std::string_view name) const {
    double total = 0;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) total += Seconds(s.start, s.end);
    }
    return total;
  }

  /// Summed duration of the layer spans inside operations called `op_name`.
  double BusyInOps(std::string_view op_name) const {
    double total = 0;
    for (const SpanRecord& s : spans_) {
      if (s.op > 0 && ops_[static_cast<size_t>(s.op - 1)].name == op_name) {
        total += Seconds(s.start, s.end);
      }
    }
    return total;
  }

  /// Wall time of an operation minus the part of it its spans cover.
  double SelfTime(const OpRecord& op) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const SpanRecord& s : spans_) {
      if (s.op == op.id) cover.emplace_back(s.start, s.end);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point reach = op.start;
    for (const auto& [a, b] : cover) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += Seconds(from, b);
        reach = b;
      }
    }
    return Seconds(op.start, op.end) - covered;
  }

  /// Writes every operation and span as JSON, times in seconds since the
  /// first operation began.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point t0 = ops_.empty() ? Clock::now() : ops_[0].start;
    std::fprintf(f, "{\"ops\": [\n");
    for (size_t i = 0; i < ops_.size(); ++i) {
      const OpRecord& op = ops_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"name\": \"%s\", \"start\": %.6f, "
                   "\"end\": %.6f, \"self\": %.6f}%s\n",
                   op.id, op.name.c_str(), Seconds(t0, op.start),
                   Seconds(t0, op.end), SelfTime(op),
                   i + 1 < ops_.size() ? "," : "");
    }
    std::fprintf(f, "], \"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"op\": %d, \"start\": %.6f, "
                   "\"end\": %.6f}%s\n",
                   s.name, s.op, Seconds(t0, s.start), Seconds(t0, s.end),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<OpRecord> ops_;
  std::vector<SpanRecord> spans_;
};

/// Records one span over its own lifetime.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int op)
      : tracer_(tracer), name_(name), op_(op), start_(Clock::now()) {}
  ~Span() { tracer_.Record(name_, op_, start_, Clock::now()); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  int op_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // ULE_PERFBENCH_TRACE_H_
