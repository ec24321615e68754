#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

/// \file generator.h
/// The benchmark's workloads and their seeded request streams. The
/// server only ever receives the lines generated here; the graph a
/// workload runs on is part of its definition (a fixed generator spec),
/// and `--seed` selects the request stream over it: anchors, their
/// Zipf ranks, the order of query classes, and the write probe's
/// episodes.
///
/// Every stream is built from blocks of 100 requests whose class counts
/// are fixed per workload (shuffled inside the block), so the class mix a
/// run measures is exact up to one partial block, whatever the seed and
/// however many requests complete. The class shares and the Zipf
/// exponent are synthetic: they were chosen so that each reported
/// percentile falls inside one query class, not taken from recorded
/// traffic (see NOTES.md).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the same seed gives the same stream with every compiler
/// and standard library, which the <random> distributions do not.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

enum class Workload { kPoint, kClosure };

/// Parses "point" / "closure".
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

struct QueryClass {
  std::string name;
  /// Requests of this class per 100-request block.
  uint32_t per_block = 0;
};

struct WorkloadDef {
  Workload workload = Workload::kPoint;
  /// Catalog spec of the graph (engine/workload_file.h grammar).
  std::string graph_spec;
  size_t persons = 0;
  /// Concurrent client sessions of the closed loop.
  size_t sessions = 1;
  std::vector<QueryClass> classes;
};

WorkloadDef Define(Workload w);

struct Request {
  std::string line;
  uint16_t cls = 0;
  /// Index into Stream::pins.
  uint32_t pin = 0;
};

struct Stream {
  std::vector<Request> requests;
  /// The distinct query texts; the expected answer of a request is the
  /// spec engine's answer to pins[request.pin].
  std::vector<std::string> pins;
  /// The first request of every distinct query text (the plan-cache
  /// working set), in first-use order.
  std::vector<Request> distinct_reads;
};

/// The request stream of client `session` of `def` under `seed`: at least
/// `min_requests` requests, a whole number of blocks.
Stream MakeStream(const WorkloadDef& def, uint64_t seed, size_t session,
                  size_t min_requests);

/// Catalog spec of the graph the write probe mutates (the `point` graph).
const char* ProbeGraphSpec();

/// The write probe every workload sends to its own journaled stack over
/// ProbeGraphSpec(): `!mutate` lines of net-zero episodes (add a person,
/// wire it to two base persons, remove it again), at least `min_writes`
/// of them, a whole number of episodes.
std::vector<std::string> MakeWriteProbe(uint64_t seed, size_t min_writes);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
