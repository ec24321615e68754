#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Percentile NearestRank(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  out.index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  out.index = std::min(out.index, sorted.size() - 1);
  out.value = sorted[out.index];
  out.beyond = sorted.size() - 1 - out.index;
  out.tail_ok = p <= 0.5 || out.beyond >= kMinTailSamples;
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

std::string Describe(const char* label, const Percentile& p,
                     const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s=%.4f%s n=%zu beyond=%zu%s", label,
                p.value, unit, p.samples, p.beyond,
                p.tail_ok ? "" : " LOW-TAIL(<10 beyond)");
  return buf;
}

WindowedPercentile PercentileOverWindows(
    const std::vector<std::pair<double, double>>& timed, double p,
    size_t windows, double span_s) {
  WindowedPercentile out;
  out.samples = timed.size();
  if (windows == 0 || timed.empty()) {
    out.tail_ok = false;
    return out;
  }
  std::vector<std::vector<double>> slices(windows);
  for (const auto& tv : timed) {
    size_t w = span_s > 0 ? static_cast<size_t>(tv.first / span_s *
                                                static_cast<double>(windows))
                          : 0;
    slices[std::min(w, windows - 1)].push_back(tv.second);
  }
  out.min_beyond = timed.size();
  for (std::vector<double>& slice : slices) {
    std::sort(slice.begin(), slice.end());
    const Percentile q = NearestRank(slice, p);
    out.per_window.push_back(q.value);
    out.min_beyond = std::min(out.min_beyond, q.beyond);
    out.tail_ok = out.tail_ok && q.samples > 0 && q.tail_ok;
  }
  double sum = 0;
  for (double v : out.per_window) sum += v;
  out.value = sum / static_cast<double>(windows);
  return out;
}

std::string Describe(const char* label, const WindowedPercentile& p,
                     const char* unit) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s=%.4f%s (mean of %zu windows) n=%zu min_beyond=%zu%s [",
                label, p.value, unit, p.per_window.size(), p.samples,
                p.min_beyond, p.tail_ok ? "" : " LOW-TAIL(<10 beyond)");
  out = buf;
  for (size_t i = 0; i < p.per_window.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i > 0 ? " " : "",
                  p.per_window[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace perfbench
