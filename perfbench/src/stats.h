#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// Order statistics the benchmark reports: nearest-rank percentiles with
/// their sample counts, medians, and percentiles over time windows.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A tail percentile needs at least this many samples beyond it before
/// it is reported without a flag.
inline constexpr size_t kMinTailSamples = 10;

struct Percentile {
  double value = 0;
  /// Samples the percentile was taken over.
  size_t samples = 0;
  /// Index of the reported sample in ascending order.
  size_t index = 0;
  /// Samples strictly after the reported one in ascending order.
  size_t beyond = 0;
  /// False when a tail percentile (p > 0.5) has fewer than
  /// kMinTailSamples samples beyond it.
  bool tail_ok = true;
};

/// Nearest-rank percentile: the smallest sample with at least a share
/// `p` (0 < p <= 1) of all samples at or below it. `sorted` ascending;
/// an empty input yields a zero Percentile with samples == 0.
Percentile NearestRank(const std::vector<double>& sorted, double p);

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty input.
double Median(std::vector<double> v);

/// A percentile taken in each of several equal time windows of a run and
/// summarized by the mean of the windows' values. On a shared host,
/// requests run in a fast and a slow mode whose mix drifts from one
/// window to the next; a single percentile over the run, or the median of
/// the windows, jumps between the modes as the mix crosses one half,
/// while the mean of the windows moves with the mix. No window is left
/// out, so a stall the program causes in any window moves the summary by
/// its share of the windows.
struct WindowedPercentile {
  double value = 0;
  size_t samples = 0;
  /// Fewest samples beyond the percentile in any window.
  size_t min_beyond = 0;
  /// False when some window's tail percentile has fewer than
  /// kMinTailSamples samples beyond it (or a window is empty).
  bool tail_ok = true;
  std::vector<double> per_window;
};

/// `timed` holds (completion time in s, value) pairs; windows split
/// [0, span_s) into `windows` equal slices (later samples join the last).
WindowedPercentile PercentileOverWindows(
    const std::vector<std::pair<double, double>>& timed, double p,
    size_t windows, double span_s);

/// "p99=3.1400ms n=4123 beyond=41" (+ " LOW-TAIL" when !tail_ok).
std::string Describe(const char* label, const Percentile& p,
                     const char* unit);
/// "p99=3.1400ms (mean of 6 windows) n=4123 min_beyond=8 [..]".
std::string Describe(const char* label, const WindowedPercentile& p,
                     const char* unit);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
