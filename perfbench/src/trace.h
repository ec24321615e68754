#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory spans for the traced run. The benchmark records a span
/// around each call it makes into a layer of the program (name, start,
/// end, parent span, request id); nothing inside src/ is instrumented.
/// Spans stay in memory until the run ends and are then written as one
/// JSON array.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t name = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int32_t parent = -1;
  uint32_t request = 0;
};

class Tracer {
 public:
  Tracer();

  /// Returns the id of `name`, interning it on first use.
  uint32_t Intern(const std::string& name);
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  /// Opens a span now; returns its index.
  int32_t Begin(uint32_t name, int32_t parent, uint32_t request);
  void End(int32_t span);
  /// Records a finished span with explicit times (tests, replays).
  int32_t Add(uint32_t name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint32_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in span order: its duration minus the part
  /// of [start, end] covered by the union of its direct children (each
  /// clipped to the parent), so overlapping children are not subtracted
  /// twice.
  std::vector<int64_t> SelfTimes() const;

  /// Writes `[{"name":..,"start_ns":..,"end_ns":..,"parent":..,
  /// "request":..,"self_ns":..}, ...]`.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name, int32_t parent, uint32_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
