// perfbench: the served-query benchmark. Starts the real server stack in
// process, drives it over loopback sockets in a closed loop and prints
// every end-to-end metric (--trace 0) or every per-layer metric of the
// traced layer ladder (--trace 1). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
//
//   perfbench --workload point|closure --seed N --seconds S
//             --trace 0|1 [--data-dir DIR]

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "engine/workload_file.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using pathalg::PropertyGraph;
using pathalg::Result;
using Clock = std::chrono::steady_clock;

// Latency percentiles and qps are taken per equal time window and
// summarized by the mean of the windows (stats.h).
constexpr size_t kWindows = 6;
// Set-ups timed before the timed loop and after each of its windows;
// setup_s is the median of these and the served stack's own set-up.
constexpr size_t kSetupGroup = 5;
// Writes of the probe, sent in one chunk after each window: 1100 per
// window, enough for a p99 with at least 10 samples beyond it in each.
constexpr size_t kProbeWrites = 6600;
// Writes of the probe down the write ladder of the traced run (five
// compactions at the threshold of 64).
constexpr size_t kLadderProbeWrites = 320;

struct Options {
  Workload workload = Workload::kPoint;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!ParseWorkload(val, &o->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || o->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (key == "--data-dir") {
      o->data_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

size_t StreamLength(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return 1 << 14;
    case Workload::kClosure:
      return 1 << 13;
  }
  return 1 << 13;
}

/// Stream requests sent before the clock starts, so the plan cache and
/// the allocator reach their steady state (closure also sends each of its
/// distinct texts once first: every timed closure request is a hit).
size_t Warmup(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return 2000;
    case Workload::kClosure:
      return 100;
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "fs-0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One timed set-up: a fresh stack of `spec` (catalog Get, session
/// manager, TCP listener), torn down again unless `keep` receives it.
bool TimeSetup(const std::string& spec, std::vector<double>* setup_s,
               std::vector<double>* catalog_get_us,
               std::unique_ptr<Stack>* keep) {
  double get_us = 0;
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Stack>> started = StartStack(spec, "", true, &get_us);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!started.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 started.status().ToString().c_str());
    return false;
  }
  setup_s->push_back(elapsed);
  catalog_get_us->push_back(get_us);
  if (keep != nullptr) *keep = std::move(started).value();
  return true;
}

/// p10/p50/p90 of each class of `by_ms` ((ms, class) pairs, ascending).
void PrintClasses(const std::vector<std::string>& names,
                  const std::vector<std::pair<double, uint16_t>>& by_ms) {
  for (size_t c = 0; c < names.size(); ++c) {
    std::vector<double> v;
    for (const auto& x : by_ms) {
      if (x.second == c) v.push_back(x.first);
    }
    std::printf("class %-20s n=%-6zu p10=%.4f p50=%.4f p90=%.4f ms\n",
                names[c].c_str(), v.size(), NearestRank(v, 0.10).value,
                NearestRank(v, 0.50).value, NearestRank(v, 0.90).value);
  }
}

/// The pooled p50 and p99 of `samples` over the whole timed loop, with
/// the class of the sample each falls on.
void PrintPooled(const char* what, const std::vector<Sample>& samples,
                 const std::vector<std::string>& names) {
  std::vector<std::pair<double, uint16_t>> by_ms;
  for (const Sample& x : samples) by_ms.emplace_back(x.ms, x.cls);
  std::sort(by_ms.begin(), by_ms.end());
  std::vector<double> pooled;
  for (const auto& v : by_ms) pooled.push_back(v.first);
  for (double p : {0.50, 0.99}) {
    const Percentile q = NearestRank(pooled, p);
    if (q.samples == 0) continue;
    const std::string label =
        std::string(what) + (p == 0.5 ? "_p50" : "_p99");
    std::printf("pooled %s class=%s\n",
                Describe(label.c_str(), q, "ms").c_str(),
                names[by_ms[q.index].second].c_str());
  }
  PrintClasses(names, by_ms);
}

int Run(const Options& opt) {
  const WorkloadDef def = Define(opt.workload);
  const std::string name = WorkloadName(opt.workload);
  std::vector<Stream> streams;
  for (size_t s = 0; s < def.sessions; ++s) {
    streams.push_back(MakeStream(def, opt.seed, s, StreamLength(opt.workload)));
  }

  // Expected answers. The untraced run pins counts in a child process
  // (before any thread exists) so the spec engine never shows in setup_s
  // or rss_peak_mb; the traced run keeps full path sets in process.
  std::vector<std::vector<size_t>> expected(def.sessions);
  if (!opt.trace) {
    std::vector<std::string> all;
    for (const Stream& s : streams) {
      all.insert(all.end(), s.pins.begin(), s.pins.end());
    }
    Result<std::vector<size_t>> counts =
        ComputePinCountsIsolated(def.graph_spec, all);
    if (!counts.ok()) {
      std::fprintf(stderr, "pinning failed: %s\n",
                   counts.status().ToString().c_str());
      return 1;
    }
    size_t off = 0;
    for (size_t s = 0; s < def.sessions; ++s) {
      expected[s].assign(counts->begin() + static_cast<long>(off),
                         counts->begin() +
                             static_cast<long>(off + streams[s].pins.size()));
      off += streams[s].pins.size();
    }
  }

  const std::string run_dir =
      opt.data_dir + "/" + name + "-" + std::to_string(getpid());
  if (!FreshDir(run_dir)) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }
  struct DirGuard {
    std::string dir;
    ~DirGuard() { RemoveTree(dir); }
  } guard{run_dir};

  // The served stack is the first set-up; the others are torn down.
  std::vector<double> setup_s, catalog_get_us;
  std::unique_ptr<Stack> stack;
  if (!TimeSetup(def.graph_spec, &setup_s, &catalog_get_us, &stack)) return 1;
  auto time_setups = [&](size_t n) {
    for (size_t r = 0; r < n; ++r) {
      if (!TimeSetup(def.graph_spec, &setup_s, &catalog_get_us, nullptr)) {
        return false;
      }
    }
    return true;
  };

  // The write probe's own journaled stack.
  const std::string probe_dir = run_dir + "/probe";
  Result<std::unique_ptr<Stack>> probe_started =
      FreshDir(probe_dir)
          ? StartStack(ProbeGraphSpec(), probe_dir, true, nullptr)
          : Result<std::unique_ptr<Stack>>(
                pathalg::Status::Internal("cannot create " + probe_dir));
  if (!probe_started.ok()) {
    std::fprintf(stderr, "write probe set-up failed: %s\n",
                 probe_started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Stack> probe = std::move(probe_started).value();
  const size_t compact_every = CatalogOptions("").mutation_compact_threshold;

  const pathalg::server::GraphStats& gs = stack->entry->stats;
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "cpu=\"%s\" build=%s compiler=\"%s\"\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  size_t distinct = 0, stream_requests = 0;
  for (const Stream& s : streams) {
    distinct += s.distinct_reads.size();
    stream_requests += s.requests.size();
  }
  const pathalg::server::GraphStats& ps = probe->entry->stats;
  std::printf("context: graph=\"%s\" nodes=%zu edges=%zu labels=%zu "
              "sessions=%zu stream_requests=%zu distinct_read_texts=%zu "
              "plan_cache_capacity=128 eval_threads=1\n",
              def.graph_spec.c_str(), gs.nodes, gs.edges, gs.labels,
              def.sessions, stream_requests, distinct);
  std::printf("context: probe_graph=\"%s\" nodes=%zu edges=%zu "
              "probe_writes=%zu mutation_dir_fs=%s flush=fsync-per-record "
              "compact_threshold=%zu compaction=inline\n",
              ProbeGraphSpec(), ps.nodes, ps.edges,
              opt.trace ? kLadderProbeWrites : kProbeWrites,
              FilesystemOf(probe_dir).c_str(), compact_every);

  if (opt.trace) {
    if (!time_setups(kSetupGroup * kWindows)) return 1;
    Result<PropertyGraph> built = pathalg::engine::BuildWorkloadGraph(
        def.graph_spec);
    if (!built.ok()) return 1;
    LadderInput in;
    in.def = def;
    in.seed = opt.seed;
    in.seconds = opt.seconds;
    in.data_dir = run_dir;
    in.streams = streams;
    in.base = std::make_shared<const PropertyGraph>(std::move(built).value());
    for (size_t s = 0; s < def.sessions; ++s) {
      Result<Pinned> pinned = ComputePins(in.base, streams[s].pins, true);
      if (!pinned.ok()) {
        std::fprintf(stderr, "pinning failed: %s\n",
                     pinned.status().ToString().c_str());
        return 1;
      }
      in.pinned_paths.push_back(std::move(pinned->paths));
    }
    in.stack = stack.get();
    in.probe = probe.get();
    in.probe_writes = MakeWriteProbe(opt.seed, kLadderProbeWrites);
    in.catalog_get_us = Median(catalog_get_us);
    std::vector<double> build_us;
    for (size_t r = 0; r < setup_s.size(); ++r) {
      const Clock::time_point t0 = Clock::now();
      Result<PropertyGraph> g =
          pathalg::engine::BuildWorkloadGraph(def.graph_spec);
      build_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (!g.ok()) return 1;
    }
    in.graph_build_us = Median(build_us);
    LadderResult lr = RunLadder(in);
    probe.reset();
    stack.reset();
    for (const std::string& line : lr.report) {
      std::printf("%s\n", line.c_str());
    }
    for (const std::string& e : lr.errors) {
      std::printf("FAILED: %s\n", e.c_str());
    }
    std::vector<Metric> metrics;
    for (const auto& kv : lr.metrics) {
      const std::string& n = kv.first;
      std::string unit = "count";
      if (n.size() > 3 && n.compare(n.size() - 3, 3, "_us") == 0) {
        unit = "us";
      } else if (n.find("ratio") != std::string::npos ||
                 n.find("yield") != std::string::npos ||
                 n.find("per_") != std::string::npos) {
        unit = "ratio";
      }
      std::printf("metric %s = %s %s\n", n.c_str(), Num(kv.second).c_str(),
                  unit.c_str());
      metrics.push_back({n, kv.second, unit});
    }
    PrintResult(lr.failed == 0 && lr.errors.empty(), lr.attempted, lr.failed,
                metrics);
    return 0;
  }

  // --- Untraced run: the end-to-end metrics. ---
  // The timed loop runs in kWindows equal segments. After each segment
  // one chunk of the write probe goes to the probe stack (so no write
  // overlaps a read and the served graph stays read-only), then a group
  // of set-ups is timed: writes and set-ups sample the same stretches of
  // the host as the reads.
  const std::vector<std::string> probe_lines =
      MakeWriteProbe(opt.seed, kProbeWrites);
  const size_t per_chunk = probe_lines.size() / kWindows;
  const double segment_s = opt.seconds / static_cast<double>(kWindows);
  LoopConfig config;
  config.port = stack->tcp->port();
  config.seconds = segment_s;
  config.start.assign(def.sessions, 0);
  std::vector<Sample> reads, writes;
  std::vector<std::string> failures;
  size_t attempted = 0, failed = 0;
  if (!time_setups(kSetupGroup)) return 1;
  for (size_t seg = 0; seg < kWindows; ++seg) {
    config.warm_distinct = seg == 0 && opt.workload == Workload::kClosure;
    config.warmup = seg == 0 ? Warmup(opt.workload) : 0;
    LoopResult part = RunClosedLoop(config, streams, expected);
    const double offset = segment_s * static_cast<double>(seg);
    for (Sample x : part.samples) {
      x.done_s += offset;
      reads.push_back(x);
    }
    attempted += part.attempted;
    failed += part.failed;
    failures.insert(failures.end(), part.errors.begin(), part.errors.end());
    config.start = part.sent;

    const std::vector<std::string> chunk(
        probe_lines.begin() + static_cast<long>(seg * per_chunk),
        probe_lines.begin() + static_cast<long>((seg + 1) * per_chunk));
    std::vector<Sample> chunk_samples;
    RunWrites(probe->tcp->port(), chunk, &chunk_samples, &attempted, &failed,
              &failures);
    for (size_t j = 0; j < chunk_samples.size(); ++j) {
      Sample x = chunk_samples[j];
      // One probe chunk per window: place it inside the window. Class 1
      // is the write that crosses the compaction threshold.
      x.done_s = offset + segment_s * 0.5;
      x.cls = (seg * per_chunk + j + 1) % compact_every == 0 ? 1 : 0;
      writes.push_back(x);
    }
    if (!time_setups(kSetupGroup)) return 1;
  }
  const double rss_mb = PeakRssMb();

  // The graph the writes went to, rebuilt for the reference.
  Result<PropertyGraph> built =
      pathalg::engine::BuildWorkloadGraph(ProbeGraphSpec());
  if (!built.ok()) return 1;
  std::vector<std::string> texts;
  for (size_t i = 0; i < per_chunk * kWindows; ++i) {
    texts.push_back(probe_lines[i].substr(std::string("!mutate ").size()));
  }
  const std::vector<std::string> check = CheckVersionAndRecovery(
      probe.get(),
      std::make_shared<const PropertyGraph>(std::move(built).value()), texts);
  attempted += 2;  // the !version and the recovery check
  for (const std::string& c : check) {
    ++failed;
    failures.push_back(c);
  }
  probe.reset();
  stack.reset();

  std::vector<std::pair<double, double>> read_t, write_t;
  for (const Sample& x : reads) read_t.emplace_back(x.done_s, x.ms);
  for (const Sample& x : writes) write_t.emplace_back(x.done_s, x.ms);
  const WindowedPercentile q50 =
      PercentileOverWindows(read_t, 0.50, kWindows, opt.seconds);
  const WindowedPercentile q99 =
      PercentileOverWindows(read_t, 0.99, kWindows, opt.seconds);
  const WindowedPercentile m50 =
      PercentileOverWindows(write_t, 0.50, kWindows, opt.seconds);
  const WindowedPercentile m99 =
      PercentileOverWindows(write_t, 0.99, kWindows, opt.seconds);
  std::vector<double> per_window_qps(kWindows, 0);
  for (const Sample& x : reads) {
    const size_t w = static_cast<size_t>(x.done_s / segment_s);
    per_window_qps[std::min(w, kWindows - 1)] += 1 / segment_s;
  }
  double qps = 0;
  for (double q : per_window_qps) qps += q / static_cast<double>(kWindows);

  std::printf("requests: reads=%zu writes=%zu attempted=%zu failed=%zu\n",
              read_t.size(), write_t.size(), attempted, failed);
  std::printf("setup_s: median of %zu set-ups = %.6f s\n", setup_s.size(),
              Median(setup_s));
  std::string qps_line;
  for (double q : per_window_qps) {
    qps_line += (qps_line.empty() ? "" : " ") + std::to_string(q);
  }
  std::printf("qps=%.2f (mean of %zu windows) pooled=%.2f [%s]\n", qps,
              kWindows, static_cast<double>(reads.size()) / opt.seconds,
              qps_line.c_str());
  std::printf("%s\n", Describe("query_p50", q50, "ms").c_str());
  std::printf("%s\n", Describe("query_p99", q99, "ms").c_str());
  std::printf("%s\n", Describe("mutate_p50", m50, "ms").c_str());
  // Printed, not gated: its run-to-run spread on a shared disk is wider
  // than any bound the gate allows (NOTES.md).
  std::printf("%s (not gated)\n", Describe("mutate_p99", m99, "ms").c_str());
  std::printf("rss_peak_mb: %.3f (after the timed loop)\n", rss_mb);
  // Where the pooled percentiles fall: each should sit inside one class.
  std::vector<std::string> read_classes;
  for (const QueryClass& c : def.classes) read_classes.push_back(c.name);
  PrintPooled("query", reads, read_classes);
  PrintPooled("mutate", writes, {"write", "compacting_write"});
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", qps, "1/s"},
      {"query_p50_ms", q50.value, "ms"},
      {"query_p99_ms", q99.value, "ms"},
      {"mutate_p50_ms", m50.value, "ms"},
      {"rss_peak_mb", rss_mb, "MiB"},
  };
  PrintResult(failed == 0 && failures.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point|closure --seed N "
                 "--seconds S --trace 0|1 [--data-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
