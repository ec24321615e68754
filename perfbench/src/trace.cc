#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

uint32_t Tracer::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int32_t Tracer::Begin(uint32_t name, int32_t parent, uint32_t request) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - origin_)
                          .count();
  return Add(name, now, now, parent, request);
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
}

int32_t Tracer::Add(uint32_t name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, uint32_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& iv : c) {
      if (open && iv.first <= run_hi) {
        run_hi = std::max(run_hi, iv.second);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = iv.first;
      run_hi = iv.second;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans_[i].end_ns - spans_[i].start_ns) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u,\"self_ns\":%lld}%s\n",
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request,
                 static_cast<long long>(self[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
