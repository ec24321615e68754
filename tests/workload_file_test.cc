// Tests for the `.gqlw` workload format (engine/workload_file.h) and the
// replay driver (engine/replay.h): parsing and directives, bad-directive
// diagnostics, format round-trip, graph-spec building, and
// expected-cardinality / cache-hit checking end to end.

#include <gtest/gtest.h>

#include "engine/replay.h"
#include "engine/workload_file.h"

namespace pathalg {
namespace engine {
namespace {

// --- ParseWorkload ---------------------------------------------------------

TEST(WorkloadFileTest, ParsesDirectivesAndDefaults) {
  auto w = ParseWorkload(
      "## a comment\n"
      "# graph social persons=10 seed=3\n"
      "\n"
      "# name warmup\n"
      "# expect 42\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n"
      "# repeat 3\n"
      "MATCH ALL WALK p = (?x)-[:Likes]->(?y)\n"
      "MATCH ALL WALK p = (?x)-[:Follows]->(?y)\n");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->graph_spec, "social persons=10 seed=3");
  ASSERT_EQ(w->entries.size(), 3u);

  EXPECT_EQ(w->entries[0].name, "warmup");
  EXPECT_EQ(w->entries[0].repeat, 1u);
  EXPECT_EQ(w->entries[0].expect, std::optional<size_t>(42));
  EXPECT_EQ(w->entries[0].line, 6u);

  // expect/name are one-shot; repeat is sticky; names default to q<i>.
  EXPECT_EQ(w->entries[1].name, "q2");
  EXPECT_EQ(w->entries[1].repeat, 3u);
  EXPECT_FALSE(w->entries[1].expect.has_value());
  EXPECT_EQ(w->entries[2].repeat, 3u);
}

TEST(WorkloadFileTest, EmptyAndCommentOnlyInputs) {
  auto empty = ParseWorkload("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->entries.empty());
  EXPECT_TRUE(empty->graph_spec.empty());
  auto comments = ParseWorkload("## only\n##comments\n#\n");
  ASSERT_TRUE(comments.ok()) << comments.status();
  EXPECT_TRUE(comments->entries.empty());
}

TEST(WorkloadFileTest, BadDirectiveDiagnostics) {
  struct Case {
    const char* text;
    const char* want;  // substring of the error message
  };
  const Case cases[] = {
      {"# bogus 1\n", "unknown directive"},
      {"# repeat\nq\n", "'# repeat' takes one integer"},
      {"# repeat zero\nq\n", "non-negative integer"},
      {"# repeat 0\nq\n", "must be >= 1"},
      {"# expect -3\nq\n", "non-negative integer"},
      {"# expect 1\n# expect 2\nq\n", "duplicate '# expect'"},
      {"# name a\n# name b\nq\n", "duplicate '# name'"},
      {"# expect 5\n", "no following query"},
      {"# graph figure1\n# graph figure1\n", "duplicate '# graph'"},
      {"q1\n# graph figure1\n", "must precede the first query"},
      {"# threads\nq\n", "'# threads' takes one integer"},
      {"# threads four\nq\n", "non-negative integer"},
      {"# threads 2\n# threads 4\nq\n", "duplicate '# threads'"},
      {"q1\n# threads 2\n", "must precede the first query"},
      {"# graph\n", "'# graph' needs a spec"},
      {"# graph klein_bottle\n", "unknown graph kind"},
      {"# graph social wombats=3\n", "unknown parameter 'wombats'"},
      {"# graph social persons=many\n", "non-negative integer"},
      {"# graph social persons\n", "expected key=value"},
      // Names key the replay JSON rollups, so collisions are rejected —
      // including an explicit name shadowing a later default ("q2").
      {"# name a\nq1\n# name a\nq2\n", "duplicate query name 'a'"},
      {"# name q2\nq1\nq2\n", "duplicate query name 'q2'"},
  };
  for (const Case& c : cases) {
    auto w = ParseWorkload(c.text);
    ASSERT_FALSE(w.ok()) << "accepted: " << c.text;
    EXPECT_TRUE(w.status().IsParseError()) << c.text;
    EXPECT_NE(w.status().message().find(c.want), std::string::npos)
        << "for input <" << c.text << "> got: " << w.status().message();
    // Every diagnostic carries a line number.
    EXPECT_NE(w.status().message().find("workload line"), std::string::npos);
  }
}

TEST(WorkloadFileTest, ErrorsCarryTheRightLineNumber) {
  auto w = ParseWorkload("## fine\nq1\n# bogus\n");
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("workload line 3"), std::string::npos)
      << w.status().message();
}

TEST(WorkloadFileTest, ThreadsDirectiveParsesAndDefaultsToUnset) {
  auto w = ParseWorkload("# graph figure1\n# threads 4\nq1\n");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->threads, std::optional<size_t>(4));
  // 0 is legal: hardware concurrency (EvalOptions::threads semantics).
  auto hw = ParseWorkload("# threads 0\nq1\n");
  ASSERT_TRUE(hw.ok()) << hw.status();
  EXPECT_EQ(hw->threads, std::optional<size_t>(0));
  auto unset = ParseWorkload("q1\n");
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset->threads.has_value());
}

TEST(WorkloadFileTest, FormatRoundTrips) {
  const char* text =
      "# graph skewed persons=50 knows=3 seed=9\n"
      "# threads 4\n"
      "# name first\n"
      "# expect 7\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n"
      "# repeat 4\n"
      "MATCH ALL WALK p = (?x)-[:Follows]->(?y)\n"
      "# repeat 1\n"
      "# name last\n"
      "MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)\n";
  auto w = ParseWorkload(text);
  ASSERT_TRUE(w.ok()) << w.status();
  std::string formatted = FormatWorkload(*w);
  auto reparsed = ParseWorkload(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*w, *reparsed) << formatted;
  // And formatting is a fixpoint.
  EXPECT_EQ(FormatWorkload(*reparsed), formatted);
}

TEST(WorkloadFileTest, LoadMissingFileIsNotFound) {
  auto w = LoadWorkloadFile("/nonexistent/nope.gqlw");
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsNotFound());
}

// --- BuildWorkloadGraph ----------------------------------------------------

TEST(BuildWorkloadGraphTest, BuildsEveryFamily) {
  auto fig1 = BuildWorkloadGraph("figure1");
  ASSERT_TRUE(fig1.ok());
  EXPECT_EQ(fig1->num_nodes(), 7u);
  EXPECT_EQ(fig1->num_edges(), 11u);

  // Empty spec defaults to figure1.
  auto dflt = BuildWorkloadGraph("");
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ(dflt->num_nodes(), 7u);

  auto cycle = BuildWorkloadGraph("cycle n=5 label=Hop");
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle->num_nodes(), 5u);
  EXPECT_NE(cycle->FindLabel("Hop"), kNoLabel);

  auto chain = BuildWorkloadGraph("chain n=5");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->num_edges(), 4u);

  auto grid = BuildWorkloadGraph("grid w=3 h=4");
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_nodes(), 12u);

  auto diamond = BuildWorkloadGraph("diamond k=2");
  ASSERT_TRUE(diamond.ok());
  EXPECT_EQ(diamond->num_edges(), 8u);

  auto random = BuildWorkloadGraph("random n=10 m=20 seed=1 labels=a,b");
  ASSERT_TRUE(random.ok());
  EXPECT_EQ(random->num_edges(), 20u);

  auto social = BuildWorkloadGraph("social persons=10 messages=5 seed=2");
  ASSERT_TRUE(social.ok());
  EXPECT_EQ(social->num_nodes(), 15u);

  auto skewed = BuildWorkloadGraph("skewed persons=20 knows=2 follows=1");
  ASSERT_TRUE(skewed.ok());
  EXPECT_EQ(skewed->num_nodes(), 20u);
  EXPECT_EQ(skewed->num_edges(), 60u);
}

TEST(BuildWorkloadGraphTest, RejectsDegenerateParameters) {
  EXPECT_FALSE(BuildWorkloadGraph("social persons=1").ok());
  EXPECT_FALSE(BuildWorkloadGraph("skewed persons=0").ok());
  EXPECT_FALSE(BuildWorkloadGraph("random n=0").ok());
}

// --- ReplayWorkload --------------------------------------------------------

Workload Figure1Workload() {
  auto w = ParseWorkload(
      "# graph figure1\n"
      "# expect 9\n"
      "MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)\n"
      "# repeat 2\n"
      "# expect 4\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n");
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(w).value();
}

TEST(ReplayWorkloadTest, ChecksExpectationsAndCountsCacheHits) {
  ReplayOptions options;
  options.passes = 2;
  auto report = ReplayWorkload(Figure1Workload(), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->passes, 2u);
  EXPECT_EQ(report->total_runs, 6u);  // (1 + 2) entries x 2 passes
  EXPECT_EQ(report->cache_misses, 2u);  // one per distinct query
  EXPECT_EQ(report->cache_hits, 4u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->expect_failures, 0u);
  ASSERT_EQ(report->queries.size(), 2u);
  EXPECT_EQ(report->queries[0].result_paths, 9u);
  EXPECT_TRUE(report->queries[0].stable_cardinality);
  EXPECT_GT(report->queries[0].eval_us + report->queries[0].parse_us, 0u);
}

TEST(ReplayWorkloadTest, ThreadsDirectiveAndOverrideReachTheEngine) {
  Workload w = Figure1Workload();
  w.threads = 4;
  // The workload directive configures the replay...
  auto report = ReplayWorkload(w);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->threads, 4u);
  // ...but is scoped to it: a long-lived session keeps its own setting.
  {
    PropertyGraph g = BuildWorkloadGraph(w.graph_spec).value();
    EngineOptions eng_options;
    eng_options.query.eval.threads = 8;
    QueryEngine session(std::move(g), eng_options);
    auto scoped = ReplayWorkload(session, w);
    ASSERT_TRUE(scoped.ok()) << scoped.status();
    EXPECT_EQ(scoped->threads, 4u);        // the replay ran at 4
    EXPECT_EQ(session.eval_threads(), 8u);  // the session came back at 8
  }
  EXPECT_NE(ReplayReportToJson(*report).find("\"threads\": 4"),
            std::string::npos);
  // ...an explicit ReplayOptions override wins (the bench sweep knob)...
  ReplayOptions options;
  options.threads = 2;
  auto overridden = ReplayWorkload(w, options);
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  EXPECT_EQ(overridden->threads, 2u);
  // ...and results are identical at every thread count (determinism).
  auto serial_opts = ReplayOptions();
  serial_opts.threads = 1;
  auto serial = ReplayWorkload(w, serial_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->queries.size(), overridden->queries.size());
  for (size_t i = 0; i < serial->queries.size(); ++i) {
    EXPECT_EQ(serial->queries[i].result_paths,
              overridden->queries[i].result_paths);
  }
}

TEST(ReplayWorkloadTest, ReportsExpectationFailure) {
  auto w = ParseWorkload(
      "# graph figure1\n"
      "# expect 12345\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n");
  ASSERT_TRUE(w.ok());
  auto report = ReplayWorkload(*w);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->expect_failures, 1u);
  EXPECT_FALSE(report->queries[0].expect_ok);
  EXPECT_EQ(report->queries[0].result_paths, 4u);
  EXPECT_EQ(report->errors, 0u);  // a miss is not an error
}

TEST(ReplayWorkloadTest, RecordsQueryErrorsAndContinues) {
  auto w = ParseWorkload(
      "# graph figure1\n"
      "NOT GQL AT ALL\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n");
  ASSERT_TRUE(w.ok());
  auto report = ReplayWorkload(*w);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->errors, 1u);
  EXPECT_FALSE(report->queries[0].error.ok());
  EXPECT_TRUE(report->queries[1].error.ok());
  EXPECT_EQ(report->queries[1].result_paths, 4u);

  ReplayOptions fail_fast;
  fail_fast.fail_fast = true;
  auto failed = ReplayWorkload(*w, fail_fast);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsParseError());
}

TEST(ReplayWorkloadTest, ConsecutiveMutatesBuildOneVersionForTheNextQuery) {
  // Three mutate steps then one query: the steps only record their
  // changes, and the query entry builds the version it reads, once per
  // pass. Cardinalities are those of the fully mutated graph.
  auto w = ParseWorkload(
      "# graph figure1\n"
      "# expect 4\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n"
      "# mutate add-node a label=Person\n"
      "# mutate add-node b label=Person\n"
      "# mutate add-edge a b label=Knows\n"
      "# expect 5\n"
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n"
      "# mutate rm-node a\n");
  ASSERT_TRUE(w.ok()) << w.status();
  ReplayOptions options;
  options.passes = 2;
  auto report = ReplayWorkload(*w, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->mutations, 8u);  // 4 steps x 2 passes
  // The trailing rm-node is read by no query, so it builds nothing.
  EXPECT_EQ(report->materializations, 2u);
  ASSERT_EQ(report->queries.size(), 6u);
  EXPECT_EQ(report->queries[0].result_paths, 4u);
  EXPECT_EQ(report->queries[4].result_paths, 5u);
  EXPECT_TRUE(report->queries[4].stable_cardinality);
}

TEST(ReplayWorkloadTest, JsonReportHasCompareCompatibleRollups) {
  auto report = ReplayWorkload(Figure1Workload());
  ASSERT_TRUE(report.ok());
  std::string json = ReplayReportToJson(*report);
  EXPECT_NE(json.find("\"schema\": \"pathalg-replay-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_time_ms\": {\"q1\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sum_iteration_time_ms\": {\"q1\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"expect\": 9"), std::string::npos);
  std::string table = ReplayReportToTable(*report);
  EXPECT_NE(table.find("q1"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
}

TEST(ReplayWorkloadTest, JsonEscapesControlCharacters) {
  // A query with an interior tab is legal (the GQL lexer skips it) but
  // must be escaped in the JSON report, not emitted raw.
  auto w = ParseWorkload(
      "# graph figure1\n"
      "MATCH ALL WALK p =\t(?x)-[:Knows]->(?y)\n");
  ASSERT_TRUE(w.ok()) << w.status();
  auto report = ReplayWorkload(*w);
  ASSERT_TRUE(report.ok());
  std::string json = ReplayReportToJson(*report);
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
  EXPECT_NE(json.find("p =\\t("), std::string::npos) << json;
}

TEST(ReplayWorkloadTest, RejectsZeroPasses) {
  ReplayOptions options;
  options.passes = 0;
  auto report = ReplayWorkload(Figure1Workload(), options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

}  // namespace
}  // namespace engine
}  // namespace pathalg
