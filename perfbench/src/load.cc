// Server stacks, the closed-loop load generator and the durability checks.

#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "checker.h"
#include "server/line_client.h"
#include "storage/snapshot_writer.h"

namespace perfbench {

using pathalg::Result;
using pathalg::Status;
using pathalg::server::LineClient;
using Clock = std::chrono::steady_clock;

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Stack::~Stack() { Shutdown(); }

void Stack::Shutdown() {
  if (tcp != nullptr) tcp->Stop();
  tcp.reset();
  manager.reset();
  entry.reset();
  catalog.reset();
}

pathalg::server::GraphCatalogOptions CatalogOptions(
    const std::string& mutation_dir) {
  pathalg::server::GraphCatalogOptions options;
  options.mutation_dir = mutation_dir;
  options.mutation_background_compaction = false;
  return options;
}

Result<std::unique_ptr<Stack>> StartStack(const std::string& spec,
                                          const std::string& mutation_dir,
                                          bool with_tcp,
                                          double* catalog_get_us) {
  auto stack = std::make_unique<Stack>();
  stack->spec = spec;
  stack->mutation_dir = mutation_dir;
  stack->catalog = std::make_unique<pathalg::server::GraphCatalog>(
      CatalogOptions(mutation_dir));
  const Clock::time_point get_start = Clock::now();
  Result<pathalg::server::CatalogEntryPtr> entry = stack->catalog->Get(spec);
  if (catalog_get_us != nullptr) {
    *catalog_get_us = MsBetween(get_start, Clock::now()) * 1000.0;
  }
  if (!entry.ok()) return entry.status();
  stack->entry = std::move(entry).value();
  pathalg::server::SessionManagerOptions options;
  options.default_graph_spec = spec;
  stack->manager = std::make_unique<pathalg::server::SessionManager>(
      stack->catalog.get(), options);
  if (with_tcp) {
    stack->tcp =
        std::make_unique<pathalg::server::TcpServer>(stack->manager.get());
    PATHALG_RETURN_NOT_OK(stack->tcp->Start({}));
  }
  return stack;
}

bool FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec) && !ec;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

namespace {

/// Connects and switches the session to deterministic responses.
Status OpenClient(uint16_t port, LineClient* client) {
  PATHALG_RETURN_NOT_OK(client->Connect(port));
  Result<std::string> r = client->RoundTrip("!timing off");
  if (!r.ok()) return r.status();
  if (*r != "OK timing off") {
    return Status::Internal("unexpected reply to !timing off: " + *r);
  }
  return Status::OK();
}

struct SessionLog {
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  size_t sent = 0;
  std::vector<std::string> errors;
};

bool CheckResponse(const Request& req, const Result<std::string>& response,
                   const std::vector<size_t>& expected, SessionLog* log) {
  const bool ok =
      response.ok() && QueryResponseMatches(*response, expected[req.pin]);
  if (!ok) {
    ++log->failed;
    if (log->errors.size() < 5) {
      log->errors.push_back(
          "'" + req.line + "' -> " +
          (response.ok() ? *response : response.status().ToString()));
    }
  }
  return ok;
}

}  // namespace

LoopResult RunClosedLoop(const LoopConfig& config,
                         const std::vector<Stream>& streams,
                         const std::vector<std::vector<size_t>>& expected) {
  const size_t sessions = streams.size();
  std::vector<SessionLog> logs(sessions);
  std::mutex mu;
  std::condition_variable cv;
  size_t ready = 0;
  bool go = false;
  Clock::time_point start;

  auto run = [&](size_t s) {
    SessionLog& log = logs[s];
    const std::vector<Request>& reqs = streams[s].requests;
    LineClient client;
    Status opened = OpenClient(config.port, &client);
    if (!opened.ok()) {
      ++log.attempted;
      ++log.failed;
      log.errors.push_back("connect: " + opened.ToString());
    }
    if (opened.ok() && config.warm_distinct) {
      for (const Request& req : streams[s].distinct_reads) {
        ++log.attempted;
        CheckResponse(req, client.RoundTrip(req.line), expected[s], &log);
      }
    }
    log.sent = config.start.empty() ? 0 : config.start[s];
    for (size_t w = 0; opened.ok() && w < config.warmup; ++w, ++log.sent) {
      const Request& req = reqs[log.sent % reqs.size()];
      ++log.attempted;
      CheckResponse(req, client.RoundTrip(req.line), expected[s], &log);
    }
    Clock::time_point t0;
    {
      std::unique_lock<std::mutex> lock(mu);
      ++ready;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
      t0 = start;
    }
    if (!opened.ok()) return;
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(config.seconds));
    for (;;) {
      const Clock::time_point send = Clock::now();
      if (send >= deadline) break;
      const Request& req = reqs[log.sent % reqs.size()];
      Result<std::string> response = client.RoundTrip(req.line);
      const Clock::time_point done = Clock::now();
      ++log.sent;
      ++log.attempted;
      CheckResponse(req, response, expected[s], &log);
      log.samples.push_back(
          Sample{MsBetween(t0, done) / 1000.0, MsBetween(send, done), req.cls});
      if (!response.ok()) break;  // the connection is gone
    }
  };

  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) threads.emplace_back(run, s);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == sessions; });
    start = Clock::now();
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();

  LoopResult out;
  for (SessionLog& log : logs) {
    out.samples.insert(out.samples.end(), log.samples.begin(),
                       log.samples.end());
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.sent.push_back(log.sent);
    for (std::string& e : log.errors) out.errors.push_back(std::move(e));
  }
  return out;
}

void RunWrites(uint16_t port, const std::vector<std::string>& writes,
               std::vector<Sample>* samples, size_t* attempted,
               size_t* failed, std::vector<std::string>* errors) {
  LineClient client;
  Status opened = OpenClient(port, &client);
  if (!opened.ok()) {
    ++*attempted;
    ++*failed;
    errors->push_back("connect: " + opened.ToString());
    return;
  }
  const Clock::time_point start = Clock::now();
  for (const std::string& line : writes) {
    const Clock::time_point send = Clock::now();
    Result<std::string> r = client.RoundTrip(line);
    const Clock::time_point done = Clock::now();
    samples->push_back(Sample{MsBetween(start, done) / 1000.0,
                              MsBetween(send, done), 0});
    ++*attempted;
    if (!r.ok() || !MutateResponseOk(*r)) {
      ++*failed;
      if (errors->size() < 5) {
        errors->push_back("'" + line + "' -> " +
                          (r.ok() ? *r : r.status().ToString()));
      }
      if (!r.ok()) return;
    }
  }
}

std::vector<std::string> CheckVersionAndRecovery(
    Stack* stack, const std::shared_ptr<const pathalg::PropertyGraph>& base,
    const std::vector<std::string>& writes) {
  std::vector<std::string> failures;
  Result<pathalg::PropertyGraph> reference = ReferenceGraph(base, writes);
  if (!reference.ok()) {
    failures.push_back("reference rebuild: " + reference.status().ToString());
    stack->Shutdown();
    return failures;
  }
  // With no write at all the live graph still serves the generator's own
  // build, whose id differs from the canonical rebuild's.
  const uint64_t want = pathalg::storage::SnapshotWriter::VersionId(
      writes.empty() ? *base : *reference);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(want));
  const std::string want_line = std::string("OK version ") + hex;

  LineClient client;
  Result<std::string> got = Status::Internal("not connected");
  if (client.Connect(stack->tcp->port()).ok()) {
    got = client.RoundTrip("!version");
  }
  client.Close();
  if (!got.ok() || *got != want_line) {
    failures.push_back("!version after " + std::to_string(writes.size()) +
                       " writes: got '" +
                       (got.ok() ? *got : got.status().ToString()) +
                       "', reference '" + want_line + "'");
  }

  const std::string dir = stack->mutation_dir;
  const std::string spec = stack->spec;
  stack->Shutdown();
  pathalg::server::GraphCatalog reopened(CatalogOptions(dir));
  Result<pathalg::server::CatalogEntryPtr> entry = reopened.Get(spec);
  if (!entry.ok() || (*entry)->live == nullptr) {
    failures.push_back("reopen of the mutation dir failed: " +
                       (entry.ok() ? std::string("not live")
                                   : entry.status().ToString()));
  } else if ((*entry)->live->VersionId() != want) {
    failures.push_back("recovered version differs from the last "
                       "acknowledged one");
  }
  return failures;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
