// The traced run: the workload's request stream replayed down a ladder
// of public entry points, one span per rung. The rungs are separate
// calls, each with its own plan cache, so every rung sees the same cache
// history; a layer's cost is the difference between the medians of
// adjacent rungs:
//
//   server.roundtrip   LineClient::RoundTrip over loopback TCP
//   server.handle_line ServerSession::HandleLine, in process
//   engine.execute     QueryEngine::Execute
//   engine.prepare     QueryEngine::Prepare (own cache)
//   plan.ladder        NormalizeQueryText, Query::Parse, Optimize and
//                      plan::Evaluate called one by one (child spans)
//
// The write probe goes down LineClient::RoundTrip (the probe stack),
// HandleLine (a second journaled stack), LiveGraph::Mutate (+ Current,
// Compact and SnapshotWriter::Write on a private live graph) and
// DeltaJournal::Append on a private journal.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "engine/query_engine.h"
#include "engine/workload_file.h"
#include "mutation/delta_log.h"
#include "mutation/live_graph.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "server/line_client.h"
#include "stats.h"
#include "storage/snapshot_writer.h"
#include "trace.h"

namespace perfbench {

using pathalg::PathSet;
using pathalg::PlanKind;
using pathalg::PropertyGraph;
using pathalg::Result;
using pathalg::Status;
using Clock = std::chrono::steady_clock;

namespace {

// Requests replayed down the ladder before spans are recorded, so every
// rung's plan cache and allocator are warm.
size_t LadderWarmup(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return 300;
    case Workload::kClosure:
      return 60;
  }
  return 0;
}

// The budget-refusal probe: an unrestricted WALK closure over a cyclic
// graph trips the default max_paths budget; the cheap anchored read that
// follows it shows what the refusal leaves behind.
constexpr const char* kRefusalQuery =
    "MATCH ALL WALK p = (?x)-[:Knows+]->(?y)";
constexpr const char* kAfterRefusalQuery =
    "MATCH ALL WALK p = (?x {name:\"person0\"})-[:Knows]->(?y)";

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                      : 0;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

std::string Strip(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

struct ReadSample {
  double roundtrip_us = 0, handle_us = 0, execute_us = 0, prepare_us = 0;
  double normalize_us = 0, parse_us = 0, optimize_us = 0, evaluate_us = 0;
  pathalg::EvalStats eval;
  size_t result_paths = 0;
  uint16_t cls = 0;
};

/// The private write path of the ladder: a live graph compacted
/// explicitly at the catalog's threshold, and a bare journal.
struct WriteRungs {
  std::shared_ptr<pathalg::mutation::LiveGraph> live;
  std::unique_ptr<pathalg::mutation::DeltaJournal> journal;
  std::string dir;
  uint64_t bytes_written = 0;
  uint64_t user_bytes = 0;
  uint64_t journal_size = 0;
};

class Ladder {
 public:
  Ladder(const LadderInput& in, LadderResult* out) : in_(in), out_(out) {
    rt_ = tr_.Intern("server.roundtrip");
    hl_ = tr_.Intern("server.handle_line");
    ex_ = tr_.Intern("engine.execute");
    prep_ = tr_.Intern("engine.prepare");
    plan_ = tr_.Intern("plan.ladder");
    norm_ = tr_.Intern("gql.normalize");
    parse_ = tr_.Intern("gql.parse");
    opt_ = tr_.Intern("plan.optimize");
    eval_ = tr_.Intern("plan.evaluate");
    req_ = tr_.Intern("request");
    mut_ = tr_.Intern("mutation.mutate");
    cur_ = tr_.Intern("mutation.current");
    compact_ = tr_.Intern("mutation.compact");
    snap_ = tr_.Intern("storage.snapshot_write");
    append_ = tr_.Intern("mutation.journal_append");
    refusal_ = tr_.Intern("engine.refusal");
    after_ = tr_.Intern("engine.after_refusal");
  }

  void Run();

 private:
  void Fail(const std::string& what) {
    ++out_->failed;
    if (out_->errors.size() < 8) out_->errors.push_back(what);
  }
  Status OpenWriteRungs(const std::string& dir,
                        std::shared_ptr<const PropertyGraph> base);
  /// One request down every rung; spans only when `traced`.
  void Read(const Request& req, const PathSet& want, bool traced,
            uint32_t rid);
  void Write(const std::string& line, uint32_t rid);
  /// The write probe down the write ladder; false when it could not be
  /// set up.
  bool WriteProbe(uint32_t rid);
  void RefusalProbe();
  void Report(const std::vector<double>& untraced_read_us);

  const LadderInput& in_;
  LadderResult* out_;
  Tracer tr_;
  uint32_t rt_, hl_, ex_, prep_, plan_, norm_, parse_, opt_, eval_, req_,
      mut_, cur_, compact_, snap_, append_, refusal_, after_;

  // The rungs.
  pathalg::server::LineClient client_;
  std::unique_ptr<Stack> side_;  // in-process sessions' stack
  std::unique_ptr<pathalg::server::ServerSession> session_;
  std::unique_ptr<pathalg::engine::QueryEngine> exec_engine_;
  std::unique_ptr<pathalg::engine::QueryEngine> prep_engine_;
  WriteRungs w_;
  std::shared_ptr<const PropertyGraph> current_;

  std::vector<ReadSample> reads_;
  size_t traced_writes_ = 0;
  const size_t compact_threshold_ =
      CatalogOptions("").mutation_compact_threshold;
};

Status Ladder::OpenWriteRungs(const std::string& dir,
                              std::shared_ptr<const PropertyGraph> base) {
  w_ = WriteRungs();
  w_.dir = dir;
  if (!FreshDir(dir)) return Status::Internal("cannot create " + dir);
  pathalg::mutation::LiveGraphOptions options;
  options.journal_path = dir + "/live.journal";
  options.base_snapshot_path = dir + "/live.base.snap";
  Result<std::shared_ptr<pathalg::mutation::LiveGraph>> live =
      pathalg::mutation::LiveGraph::Open(base, options);
  if (!live.ok()) return live.status();
  w_.live = std::move(live).value();
  w_.journal_size = FileSize(options.journal_path);
  Result<std::unique_ptr<pathalg::mutation::DeltaJournal>> journal =
      pathalg::mutation::DeltaJournal::OpenForAppend(
          dir + "/bare.journal",
          pathalg::storage::SnapshotWriter::VersionId(*base));
  if (!journal.ok()) return journal.status();
  w_.journal = std::move(journal).value();
  current_ = w_.live->Current();
  return Status::OK();
}

void Ladder::Read(const Request& req, const PathSet& want, bool traced,
                  uint32_t rid) {
  Tracer* t = traced ? &tr_ : nullptr;
  ScopedSpan root(t, req_, -1, rid);
  ReadSample s;
  s.cls = req.cls;
  Clock::time_point t0 = Clock::now();
  auto lap = [&t0]() {
    const Clock::time_point now = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - t0).count();
    t0 = now;
    return us;
  };

  Result<std::string> rt = Status::Internal("unset");
  {
    ScopedSpan span(t, rt_, root.index(), rid);
    t0 = Clock::now();
    rt = client_.RoundTrip(req.line);
    s.roundtrip_us = lap();
  }
  ++out_->attempted;
  if (!rt.ok() || !QueryResponseMatches(*rt, want.size())) {
    Fail("roundtrip '" + req.line + "' -> " +
         (rt.ok() ? *rt : rt.status().ToString()));
  }

  std::string reply;
  {
    ScopedSpan span(t, hl_, root.index(), rid);
    t0 = Clock::now();
    session_->HandleLine(req.line, &reply);
    s.handle_us = lap();
  }
  ++out_->attempted;
  if (!QueryResponseMatches(Strip(reply), want.size())) {
    Fail("handle_line '" + req.line + "' -> " + Strip(reply));
  }

  pathalg::engine::ExecStats st;
  Result<PathSet> ex = Status::Internal("unset");
  {
    ScopedSpan span(t, ex_, root.index(), rid);
    t0 = Clock::now();
    ex = exec_engine_->Execute(req.line, &st);
    s.execute_us = lap();
  }
  ++out_->attempted;
  if (!ex.ok() || *ex != want) {
    Fail("execute '" + req.line + "': path set differs from the spec "
         "engine's");
  }

  {
    ScopedSpan span(t, prep_, root.index(), rid);
    t0 = Clock::now();
    Result<pathalg::engine::PreparedQueryPtr> p =
        prep_engine_->Prepare(req.line);
    s.prepare_us = lap();
    if (!p.ok()) Fail("prepare '" + req.line + "'");
  }

  ScopedSpan ladder(t, plan_, root.index(), rid);
  std::string normalized;
  {
    ScopedSpan span(t, norm_, ladder.index(), rid);
    t0 = Clock::now();
    normalized = pathalg::NormalizeQueryText(req.line);
    s.normalize_us = lap();
  }
  Result<pathalg::Query> q = Status::Internal("unset");
  {
    ScopedSpan span(t, parse_, ladder.index(), rid);
    t0 = Clock::now();
    q = pathalg::Query::Parse(req.line);
    s.parse_us = lap();
  }
  if (!q.ok()) {
    Fail("parse '" + req.line + "'");
    return;
  }
  pathalg::OptimizeResult optimized;
  {
    ScopedSpan span(t, opt_, ladder.index(), rid);
    t0 = Clock::now();
    optimized = pathalg::Optimize(q->plan(), pathalg::OptimizerOptions{});
    s.optimize_us = lap();
  }
  pathalg::EvalOptions eval_options;
  eval_options.stats = &s.eval;
  Result<PathSet> ev = Status::Internal("unset");
  {
    ScopedSpan span(t, eval_, ladder.index(), rid);
    t0 = Clock::now();
    ev = pathalg::Evaluate(*current_, optimized.plan, eval_options);
    s.evaluate_us = lap();
  }
  ++out_->attempted;
  if (!ev.ok() || ev->size() != want.size()) {
    Fail("evaluate '" + req.line + "': count differs from the spec engine's");
  }
  s.result_paths = ev.ok() ? ev->size() : 0;
  if (traced) reads_.push_back(std::move(s));
}

void Ladder::Write(const std::string& line, uint32_t rid) {
  Tracer* t = &tr_;
  ScopedSpan root(t, req_, -1, rid);
  const std::string text = line.substr(std::string("!mutate ").size());
  {
    ScopedSpan span(t, rt_, root.index(), rid);
    Result<std::string> rt = client_.RoundTrip(line);
    ++out_->attempted;
    if (!rt.ok() || !MutateResponseOk(*rt)) {
      Fail("roundtrip '" + line + "' -> " +
           (rt.ok() ? *rt : rt.status().ToString()));
    }
  }
  {
    std::string reply;
    ScopedSpan span(t, hl_, root.index(), rid);
    session_->HandleLine(line, &reply);
    ++out_->attempted;
    if (!MutateResponseOk(reply)) {
      Fail("handle_line '" + line + "' -> " + Strip(reply));
    }
  }
  Result<pathalg::mutation::DeltaRecord> rec =
      pathalg::mutation::ParseMutationCommand(text);
  ++out_->attempted;
  if (!rec.ok()) {
    Fail("mutation grammar rejected '" + text + "'");
    return;
  }
  const pathalg::mutation::DeltaRecord record = *rec;
  {
    ScopedSpan span(t, mut_, root.index(), rid);
    Status st = w_.live->Mutate(record);
    if (!st.ok()) Fail("LiveGraph::Mutate '" + text + "': " + st.ToString());
  }
  w_.user_bytes += text.size();
  const std::string journal_path = w_.dir + "/live.journal";
  const uint64_t size = FileSize(journal_path);
  if (size > w_.journal_size) w_.bytes_written += size - w_.journal_size;
  w_.journal_size = size;
  {
    // What the server's !mutate does next: publish the new version.
    ScopedSpan span(t, cur_, root.index(), rid);
    current_ = w_.live->Current();
  }
  if (w_.live->counters().pending >= compact_threshold_) {
    {
      ScopedSpan span(t, compact_, root.index(), rid);
      Status st = w_.live->Compact();
      if (!st.ok()) Fail("LiveGraph::Compact: " + st.ToString());
    }
    w_.journal_size = FileSize(journal_path);
    w_.bytes_written += FileSize(w_.dir + "/live.base.snap") + w_.journal_size;
    current_ = w_.live->Current();
    ScopedSpan span(t, snap_, root.index(), rid);
    Status st = pathalg::storage::SnapshotWriter::Write(
        *current_, w_.dir + "/copy.snap");
    if (!st.ok()) Fail("SnapshotWriter::Write: " + st.ToString());
  }
  {
    ScopedSpan span(t, append_, root.index(), rid);
    Status st = w_.journal->Append(record);
    if (!st.ok()) Fail("DeltaJournal::Append: " + st.ToString());
  }
  ++traced_writes_;
}

void Ladder::RefusalProbe() {
  pathalg::engine::QueryEngine engine(in_.base);
  Result<PathSet> refused = Status::Internal("unset");
  {
    ScopedSpan span(&tr_, refusal_, -1, 0);
    refused = engine.Execute(kRefusalQuery);
  }
  ++out_->attempted;
  if (refused.ok() || !refused.status().IsResourceExhausted()) {
    Fail(std::string("refusal probe: '") + kRefusalQuery +
         "' was not refused by the default budget");
  }
  Result<PathSet> after = Status::Internal("unset");
  {
    ScopedSpan span(&tr_, after_, -1, 0);
    after = engine.Execute(kAfterRefusalQuery);
  }
  Result<Pinned> want = ComputePins(in_.base, {kAfterRefusalQuery}, true);
  ++out_->attempted;
  if (!after.ok() || !want.ok() || *after != want->paths[0]) {
    Fail("query after the refusal differs from the spec engine's answer");
  }
}

bool Ladder::WriteProbe(uint32_t rid) {
  // The round-trip rung is the probe stack the end-to-end run writes to;
  // the HandleLine rung gets a journaled stack of its own.
  const std::string side_dir = in_.data_dir + "/ladder-probe-side";
  Result<std::unique_ptr<Stack>> side =
      FreshDir(side_dir)
          ? StartStack(ProbeGraphSpec(), side_dir, false, nullptr)
          : Result<std::unique_ptr<Stack>>(Status::Internal(side_dir));
  Result<PropertyGraph> built =
      pathalg::engine::BuildWorkloadGraph(ProbeGraphSpec());
  if (!side.ok() || !built.ok()) {
    Fail("write ladder set-up failed");
    return false;
  }
  const auto base =
      std::make_shared<const PropertyGraph>(std::move(built).value());
  Status opened = OpenWriteRungs(in_.data_dir + "/ladder-writes", base);
  Result<std::unique_ptr<pathalg::server::ServerSession>> session =
      (*side)->manager->Open();
  if (!opened.ok() || !session.ok() ||
      !client_.Connect(in_.probe->tcp->port()).ok()) {
    Fail("write ladder sessions failed");
    return false;
  }
  session_ = std::move(session).value();
  side_ = std::move(side).value();
  const pathalg::mutation::LiveGraphCounters before =
      in_.probe->entry->live->counters();
  std::vector<std::string> texts;
  for (const std::string& line : in_.probe_writes) {
    Write(line, rid++);
    texts.push_back(line.substr(std::string("!mutate ").size()));
  }
  const pathalg::mutation::LiveGraphCounters after =
      in_.probe->entry->live->counters();
  out_->metrics["mutation.compactions"] =
      static_cast<double>(after.compactions - before.compactions);
  client_.Close();
  for (const std::string& f : CheckVersionAndRecovery(in_.probe, base, texts)) {
    Fail(f);
  }
  out_->attempted += 2;
  return true;
}

void Ladder::Run() {
  const WorkloadDef& def = in_.def;
  // One interleaved stream over every session's stream, with its pins.
  Stream merged;
  std::vector<size_t> merged_counts;
  std::vector<const PathSet*> merged_paths;
  std::vector<size_t> pin_offset;
  for (size_t s = 0; s < in_.streams.size(); ++s) {
    pin_offset.push_back(merged_counts.size());
    for (const PathSet& p : in_.pinned_paths[s]) {
      merged_counts.push_back(p.size());
      merged_paths.push_back(&p);
    }
  }
  size_t longest = 0;
  for (const Stream& s : in_.streams) {
    longest = std::max(longest, s.requests.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    for (size_t s = 0; s < in_.streams.size(); ++s) {
      const std::vector<Request>& reqs = in_.streams[s].requests;
      if (i >= reqs.size()) continue;
      Request r = reqs[i];
      r.pin += static_cast<uint32_t>(pin_offset[s]);
      merged.requests.push_back(std::move(r));
    }
  }
  for (size_t s = 0; s < in_.streams.size(); ++s) {
    for (Request r : in_.streams[s].distinct_reads) {
      r.pin += static_cast<uint32_t>(pin_offset[s]);
      merged.distinct_reads.push_back(std::move(r));
    }
  }

  // Phase 1: the same stream, one client, no tracing: the base of
  // trace.overhead_ratio.
  LoopConfig config;
  config.port = in_.stack->tcp->port();
  config.seconds = in_.seconds / 2;
  config.warm_distinct = def.workload == Workload::kClosure;
  config.warmup = LadderWarmup(def.workload);
  LoopResult untraced = RunClosedLoop(config, {merged}, {merged_counts});
  out_->attempted += untraced.attempted;
  out_->failed += untraced.failed;
  for (const std::string& e : untraced.errors) out_->errors.push_back(e);
  std::vector<double> untraced_us;
  for (const Sample& x : untraced.samples) untraced_us.push_back(x.ms * 1000.0);

  // Phase 2: the ladder, continuing the stream where phase 1 stopped.
  Status st = client_.Connect(in_.stack->tcp->port());
  if (st.ok()) {
    Result<std::string> r = client_.RoundTrip("!timing off");
    if (!r.ok()) st = r.status();
  }
  Result<std::unique_ptr<Stack>> side =
      StartStack(def.graph_spec, "", false, nullptr);
  if (!st.ok() || !side.ok()) {
    Fail("ladder set-up: " + (st.ok() ? side.status().ToString()
                                      : st.ToString()));
    return;
  }
  side_ = std::move(side).value();
  Result<std::unique_ptr<pathalg::server::ServerSession>> session =
      side_->manager->Open();
  if (!session.ok()) {
    Fail("in-process session: " + session.status().ToString());
    return;
  }
  session_ = std::move(session).value();
  std::string ignored;
  session_->HandleLine("!timing off", &ignored);
  // The in-process rungs evaluate over the served graph instance itself,
  // so rungs differ only in the layers they include.
  current_ = in_.stack->entry->graph;
  exec_engine_ = std::make_unique<pathalg::engine::QueryEngine>(current_);
  prep_engine_ = std::make_unique<pathalg::engine::QueryEngine>(current_);

  pathalg::engine::PlanCacheStats cache_before{};
  if (def.workload == Workload::kClosure) {
    // As in the end-to-end run, every rung caches every closure text
    // before anything is timed.
    for (const Request& req : merged.distinct_reads) {
      Read(req, *merged_paths[req.pin], false, 0);
    }
  }
  const size_t start = untraced.sent[0];
  const size_t warm = LadderWarmup(def.workload);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(in_.seconds / 2));
  uint32_t rid = 0;
  for (size_t i = start;; ++i) {
    const bool traced = i >= start + warm;
    if (i == start + warm) cache_before = exec_engine_->cache().stats();
    if (traced && Clock::now() >= deadline) break;
    const Request& req = merged.requests[i % merged.requests.size()];
    Read(req, *merged_paths[req.pin], traced, rid);
    if (traced) ++rid;
  }
  const pathalg::engine::PlanCacheStats cache_after =
      exec_engine_->cache().stats();
  client_.Close();
  session_.reset();
  side_.reset();

  if (!WriteProbe(rid)) return;
  RefusalProbe();

  MetricMap& m = out_->metrics;
  m["engine.plan_cache_lookups"] = static_cast<double>(
      (cache_after.hits + cache_after.misses) -
      (cache_before.hits + cache_before.misses));
  m["engine.plan_cache_hits"] =
      static_cast<double>(cache_after.hits - cache_before.hits);
  m["engine.plan_cache_hit_ratio"] =
      m["engine.plan_cache_lookups"] > 0
          ? m["engine.plan_cache_hits"] / m["engine.plan_cache_lookups"]
          : 0;
  m["storage.bytes_written_per_user_byte"] =
      w_.user_bytes > 0 ? static_cast<double>(w_.bytes_written) /
                              static_cast<double>(w_.user_bytes)
                        : 0;
  Report(untraced_us);

  // Beside the run's own directory, which is removed when the run ends.
  const std::string trace_path =
      std::filesystem::path(in_.data_dir).parent_path().string() +
      "/trace-" + WorkloadName(def.workload) + "-" +
      std::to_string(in_.seed) + ".json";
  if (tr_.WriteJson(trace_path)) {
    out_->report.push_back("spans: " + std::to_string(tr_.spans().size()) +
                           " written to " + trace_path);
  }
}

void Ladder::Report(const std::vector<double>& untraced_read_us) {
  MetricMap& m = out_->metrics;
  auto med = [this](double ReadSample::*field) {
    std::vector<double> v;
    for (const ReadSample& s : reads_) v.push_back(s.*field);
    return Median(std::move(v));
  };
  auto med_stat = [this](auto getter) {
    std::vector<double> v;
    for (const ReadSample& s : reads_) {
      v.push_back(static_cast<double>(getter(s.eval)));
    }
    return Median(std::move(v));
  };
  auto span_med = [this](uint32_t name) {
    std::vector<double> v;
    for (const Span& s : tr_.spans()) {
      if (s.name == name) v.push_back(Us(s.end_ns - s.start_ns));
    }
    return Median(std::move(v));
  };

  // A layer's cost: the median over requests of the difference between
  // adjacent rungs for the same request (robust to the class mix).
  auto med_diff = [this](double ReadSample::*upper, double ReadSample::*lower) {
    std::vector<double> v;
    for (const ReadSample& s : reads_) v.push_back(s.*upper - s.*lower);
    return Median(std::move(v));
  };
  const double rt = med(&ReadSample::roundtrip_us);
  const double ex = med(&ReadSample::execute_us);
  m["server.roundtrip_us"] = rt;
  m["server.transport_us"] =
      med_diff(&ReadSample::roundtrip_us, &ReadSample::handle_us);
  m["server.session_us"] =
      med_diff(&ReadSample::handle_us, &ReadSample::execute_us);
  m["server.catalog_get_us"] = in_.catalog_get_us;
  m["engine.execute_us"] = ex;
  m["engine.prepare_us"] = med(&ReadSample::prepare_us);
  m["engine.refusal_us"] = span_med(refusal_);
  m["engine.after_refusal_us"] = span_med(after_);
  m["gql.normalize_us"] = med(&ReadSample::normalize_us);
  m["gql.parse_us"] = med(&ReadSample::parse_us);
  m["plan.optimize_us"] = med(&ReadSample::optimize_us);
  m["plan.evaluate_us"] = med(&ReadSample::evaluate_us);
  m["plan.nodes_evaluated"] =
      med_stat([](const pathalg::EvalStats& e) { return e.nodes_evaluated; });
  m["plan.peak_intermediate_paths"] = med_stat(
      [](const pathalg::EvalStats& e) { return e.peak_intermediate_paths; });
  double results = 0, peaks = 0, fused_results = 0, states = 0;
  for (const ReadSample& s : reads_) {
    results += static_cast<double>(s.result_paths);
    peaks += static_cast<double>(s.eval.peak_intermediate_paths);
    if (s.eval.frontier_states_expanded > 0) {
      fused_results += static_cast<double>(s.result_paths);
      states += static_cast<double>(s.eval.frontier_states_expanded);
    }
  }
  m["plan.result_per_peak_ratio"] = peaks > 0 ? results / peaks : 0;
  const size_t phi = static_cast<size_t>(PlanKind::kRecursive);
  const size_t sel = static_cast<size_t>(PlanKind::kSelect);
  const size_t join = static_cast<size_t>(PlanKind::kJoin);
  m["algebra.phi_us"] = med_stat(
      [phi](const pathalg::EvalStats& e) { return e.op_us[phi]; });
  m["algebra.select_us"] = med_stat(
      [sel](const pathalg::EvalStats& e) { return e.op_us[sel]; });
  m["algebra.join_us"] = med_stat(
      [join](const pathalg::EvalStats& e) { return e.op_us[join]; });
  m["algebra.label_scan_hits"] =
      med_stat([](const pathalg::EvalStats& e) { return e.label_scan_hits; });
  m["algebra.fused_closure_hits"] = med_stat(
      [](const pathalg::EvalStats& e) { return e.fused_closure_hits; });
  m["algebra.frontier_states_expanded"] = med_stat(
      [](const pathalg::EvalStats& e) { return e.frontier_states_expanded; });
  m["algebra.frontier_paths_reconstructed"] =
      med_stat([](const pathalg::EvalStats& e) {
        return e.frontier_paths_reconstructed;
      });
  m["algebra.frontier_yield"] = states > 0 ? fused_results / states : 0;

  m["mutation.mutate_us"] = span_med(mut_);
  m["mutation.journal_append_us"] = span_med(append_);
  // Current() right after a write is the materialization of the new
  // version.
  {
    std::vector<double> v;
    const std::vector<Span>& spans = tr_.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != cur_ || spans[i].parent < 0) continue;
      // The write's own Current() is the span right after its Mutate.
      if (i > 0 && spans[i - 1].name == mut_) {
        v.push_back(Us(spans[i].end_ns - spans[i].start_ns));
      }
    }
    m["mutation.materialize_us"] = Median(std::move(v));
  }
  m["mutation.compact_us"] = span_med(compact_);
  m["storage.snapshot_write_us"] = span_med(snap_);
  m["graph.build_us"] = in_.graph_build_us;
  const double untraced = Median(untraced_read_us);
  m["trace.overhead_ratio"] = untraced > 0 ? rt / untraced : 0;

  // Self time of the plan rung (glue between its child calls).
  const std::vector<int64_t> self = tr_.SelfTimes();
  std::vector<double> plan_self;
  for (size_t i = 0; i < tr_.spans().size(); ++i) {
    if (tr_.spans()[i].name == plan_) plan_self.push_back(Us(self[i]));
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ladder: %zu traced reads, %zu traced writes, untraced "
                "phase %zu reads (median %.1f us), plan.ladder self time "
                "median %.2f us",
                reads_.size(), traced_writes_, untraced_read_us.size(),
                untraced, Median(plan_self));
  out_->report.push_back(buf);
  // Per-class medians: each percentile of the end-to-end run should sit
  // inside one class.
  const WorkloadDef& def = in_.def;
  for (size_t c = 0; c < def.classes.size(); ++c) {
    std::vector<double> rts, evs;
    for (const ReadSample& s : reads_) {
      if (s.cls != c) continue;
      rts.push_back(s.roundtrip_us);
      evs.push_back(s.evaluate_us);
    }
    std::snprintf(buf, sizeof(buf),
                  "class %-20s share=%3u%% n=%-6zu roundtrip_median=%.1f us "
                  "evaluate_median=%.1f us",
                  def.classes[c].name.c_str(), def.classes[c].per_block,
                  rts.size(), Median(rts), Median(evs));
    out_->report.push_back(buf);
  }
}

}  // namespace

LadderResult RunLadder(const LadderInput& input) {
  LadderResult out;
  Ladder ladder(input, &out);
  ladder.Run();
  return out;
}

}  // namespace perfbench
