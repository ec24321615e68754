#include "generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "point") {
    *out = Workload::kPoint;
  } else if (name == "closure") {
    *out = Workload::kClosure;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return "point";
    case Workload::kClosure:
      return "closure";
  }
  return "?";
}

namespace {

// The mid-size graph of `point` and of the write probe: large enough that
// σ's full node scan (there is no property index) costs about as much as
// the fixed per-request path, small enough that a materialization after a
// write stays around a millisecond.
constexpr const char* kMidGraph =
    "social persons=200 messages=400 ring=2 chords=200 likes=2 seed=7";
// The social_mixed graph: `closure` needs a small ϕ working set to be
// steady (see NOTES.md).
constexpr const char* kSmallGraph =
    "social persons=40 messages=80 ring=2 chords=40 likes=2 seed=7";

// Zipf exponent of point anchors over the 200 persons: a synthetic skew
// that gives about 800 distinct texts per session, several times the
// plan cache's 128 entries, while the hottest anchors still hit.
constexpr double kZipfExponent = 1.1;
constexpr size_t kProbePersons = 200;
constexpr size_t kEpisodeTemplates = 16;
constexpr uint64_t kEpisodeIdBase = 100000;

std::string Person(size_t i) { return "\"person" + std::to_string(i) + "\""; }

// Social-graph persons are the first nodes built, with display names
// n1..n<persons>.
std::string PersonNode(size_t i) { return "n" + std::to_string(i + 1); }

void Shuffle(std::vector<uint16_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// Assigns one pin per distinct query text and records distinct reads.
class StreamBuilder {
 public:
  void Read(uint16_t cls, std::string query) {
    auto it = pin_index_.find(query);
    const bool first = it == pin_index_.end();
    if (first) {
      it = pin_index_.emplace(query, stream_.pins.size()).first;
      stream_.pins.push_back(query);
    }
    Request req{std::move(query), cls, static_cast<uint32_t>(it->second)};
    if (first) stream_.distinct_reads.push_back(req);
    stream_.requests.push_back(std::move(req));
  }
  size_t size() const { return stream_.requests.size(); }
  Stream Take() { return std::move(stream_); }

 private:
  Stream stream_;
  std::map<std::string, size_t> pin_index_;
};

std::vector<uint16_t> BlockClasses(const WorkloadDef& def) {
  std::vector<uint16_t> block;
  for (size_t c = 0; c < def.classes.size(); ++c) {
    block.insert(block.end(), def.classes[c].per_block,
                 static_cast<uint16_t>(c));
  }
  return block;
}

std::string PointQuery(uint16_t cls, size_t anchor) {
  const std::string a = Person(anchor);
  switch (cls) {
    case 0:
      return "MATCH ALL WALK p = (?x {name:" + a + "})-[:Knows]->(?y)";
    case 1:
      return "MATCH ALL WALK p = (?x {name:" + a +
             "})-[:Likes/:Has_creator]->(?y)";
    case 2:
      return "MATCH ALL WALK p = (?x {name:" + a + "})-[:Knows/:Knows]->(?y)";
    case 3:
      return "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y) WHERE "
             "first.name = " + a;
    case 4:
      return "MATCH ALL WALK p = (?x {name:" + a +
             "})-[:Knows/:Knows/:Knows]->(?y)";
    default:
      // Unanchored, like the all-pairs compositions of
      // bench/workloads/social_mixed.gqlw: about four times the cost of
      // an anchored read, all of it in ⋈.
      return "MATCH ALL WALK p = (?x)-[:Knows/:Knows/:Knows]->(?y)";
  }
}

std::string ClosureQuery(uint16_t cls, size_t anchor, bool alternate) {
  const std::string a = Person(anchor);
  switch (cls) {
    case 0:
      return "MATCH ALL SHORTEST p = (?x {name:" + a +
             "})-[(:Likes/:Has_creator)+]->(?y)";
    case 1:
      return std::string("MATCH ALL ") + (alternate ? "SIMPLE" : "TRAIL") +
             " p = (?x)-[(:Has_creator/:Knows)+]->(?y)";
    case 2:
      return "MATCH ANY SHORTEST p = (?x {name:" + a + "})-[:Knows+]->(?y)";
    case 3:
      return "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS SHORTEST p = (?x "
             "{name:" + a + "})-[(:Knows)+]->(?y) GROUP BY TARGET ORDER BY "
             "PATH";
    case 4:
      return "MATCH ANY SHORTEST p = (?x)-[(:Likes/:Has_creator)+]->(?y)";
    default:
      return "MATCH ALL SHORTEST p = (?x)-[:Knows+]->(?y)";
  }
}

/// The writes of one probe episode over template `t` (base persons a,
/// b): add a person, wire it to a and b, and remove it again. Each
/// episode leaves the graph byte-identical to the one it started from.
std::vector<std::string> EpisodeWrites(size_t t, size_t a, size_t b) {
  const std::string c = "c" + std::to_string(t);
  const std::string ea = "ce" + std::to_string(t) + "a";
  const std::string eb = "ce" + std::to_string(t) + "b";
  return {"add-node " + c + " label=Person id=" +
              std::to_string(kEpisodeIdBase + t),
          "add-edge " + c + " " + PersonNode(a) + " label=Knows name=" + ea,
          "add-edge " + PersonNode(b) + " " + c + " label=Knows name=" + eb,
          "rm-edge " + ea, "rm-node " + c};
}

uint64_t SessionSeed(uint64_t seed, size_t session) {
  Rng mix(seed ^ (0x51ed270b27a1f3c5ULL * (session + 1)));
  return mix.Next();
}

}  // namespace

WorkloadDef Define(Workload w) {
  WorkloadDef def;
  def.workload = w;
  switch (w) {
    case Workload::kPoint:
      def.graph_spec = kMidGraph;
      def.persons = 200;
      def.sessions = 2;
      // Synthetic shares, chosen for percentile placement: the cheap
      // single-label hop holds the median, and p99 falls in the middle of
      // the 2% all-pairs class, above the scheduler's hiccups.
      def.classes = {{"hop1", 58},       {"likes_creator", 12},
                     {"hop2", 12},       {"where_first", 10},
                     {"hop3", 6},        {"knows3_allpairs", 2}};
      break;
    case Workload::kClosure:
      def.graph_spec = kSmallGraph;
      def.persons = 40;
      def.sessions = 1;
      // Synthetic shares, chosen for percentile placement and ordered
      // cheapest first: the median falls in the middle of the anchored
      // Knows+ class, p99 in the middle of the 2% all-pairs ALL SHORTEST
      // Knows+ class.
      def.classes = {{"lhc_anchored_all", 15}, {"restricted_trail", 8},
                     {"knows_anchored_any", 50}, {"grouped_target", 12},
                     {"lhc_allpairs_any", 13}, {"knows_allpairs_all", 2}};
      break;
  }
  return def;
}

Stream MakeStream(const WorkloadDef& def, uint64_t seed, size_t session,
                  size_t min_requests) {
  Rng rng(SessionSeed(seed, session));
  StreamBuilder out;
  std::vector<uint16_t> block = BlockClasses(def);
  std::vector<size_t> persons(def.persons);
  for (size_t i = 0; i < persons.size(); ++i) persons[i] = i;
  for (size_t i = persons.size(); i > 1; --i) {
    std::swap(persons[i - 1], persons[rng.Below(i)]);
  }
  // Zipf CDF over ranks; rank r maps to the seeded person persons[r].
  std::vector<double> cdf(def.persons);
  double total = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  while (out.size() < min_requests) {
    Shuffle(&block, &rng);
    for (uint16_t cls : block) {
      if (def.workload == Workload::kPoint) {
        const double u = rng.Unit() * total;
        const size_t rank = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const size_t anchor = persons[std::min(rank, persons.size() - 1)];
        out.Read(cls, PointQuery(cls, anchor));
      } else {
        // Every person anchors: each run averages over the whole graph,
        // so the seed moves the order, not the cost, of the mix.
        const size_t anchor = persons[rng.Below(persons.size())];
        out.Read(cls, ClosureQuery(cls, anchor, rng.Below(2) == 1));
      }
    }
  }
  return out.Take();
}

const char* ProbeGraphSpec() { return kMidGraph; }

std::vector<std::string> MakeWriteProbe(uint64_t seed, size_t min_writes) {
  Rng rng(SessionSeed(seed, 1000));
  std::vector<std::vector<std::string>> templates;
  for (size_t t = 0; t < kEpisodeTemplates; ++t) {
    const size_t a = rng.Below(kProbePersons);
    size_t b = rng.Below(kProbePersons - 1);
    if (b >= a) ++b;
    templates.push_back(EpisodeWrites(t, a, b));
  }
  // Whole rounds of a seeded permutation of the templates.
  std::vector<uint16_t> order(templates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint16_t>(i);
  std::vector<std::string> writes;
  while (writes.size() < min_writes) {
    Shuffle(&order, &rng);
    for (uint16_t t : order) {
      for (const std::string& w : templates[t]) {
        writes.push_back("!mutate " + w);
      }
    }
  }
  return writes;
}

}  // namespace perfbench
