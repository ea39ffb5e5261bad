// ShardedEngine correctness: a sharded deployment must produce exactly the
// detections of the single-threaded fused deployment -- same records, same
// (event-seq, query-id) order -- for every shard count, batch size, and
// matcher mode, fed directly or through the StreamEngine/EngineRunner
// ingestion path. Plus shard bookkeeping: partitioning, rebalancing on
// skew, lifecycle errors.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep/composite.h"
#include "cep/multi_match_operator.h"
#include "cep/pattern.h"
#include "cep/sharded_engine.h"
#include "cep_workload_test_util.h"
#include "core/query_gen.h"
#include "kinect/sensor.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "stream/runner.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;
using testing::CompileDefinitions;
using testing::DetectionRecord;
using testing::MakeSpec;
using testing::Recorder;
using testing::TrainedDefinitions;
using testing::Workload;

/// Detections of the single-threaded fused operator over `events`:
/// the ground truth order (event, then query registration order).
std::vector<DetectionRecord> FusedBaseline(
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<Event>& events, MatcherOptions options) {
  MultiMatchOperator op(options);
  std::vector<DetectionRecord> records;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    op.AddQuery(MakeSpec(std::move(compiled), Recorder(&records)));
  }
  for (const Event& event : events) {
    EPL_EXPECT_OK(op.Process(event));
  }
  return records;
}

class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(ShardedEquivalence, MatchesFusedDeployment) {
  const int num_shards = std::get<0>(GetParam());
  const size_t batch_size = std::get<1>(GetParam());
  const bool exhaustive = std::get<2>(GetParam()) != 0;

  MatcherOptions matcher_options;
  matcher_options.mode = exhaustive ? MatcherOptions::Mode::kExhaustive
                                    : MatcherOptions::Mode::kDominant;
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, matcher_options);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = batch_size;
  options.matcher = matcher_options;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EXPECT_EQ(sharded.num_queries(), definitions.size());
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.processed(), events.size());
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections at "
      << num_shards << " shards";
}

INSTANTIATE_TEST_SUITE_P(
    ShardsBatchesModes, ShardedEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values<size_t>(1, 7, 64),
                       ::testing::Values(0, 1)));

// The pure placement policy behind Rebalance: one greedy weighted step.
TEST(RebalancePolicyTest, BalancedWithinSkewBudgetDoesNotMove) {
  EXPECT_EQ(PickRebalanceVictim({30, 20}, {{7, 10}}, 10), -1);
  EXPECT_EQ(PickRebalanceVictim({20, 20, 20}, {{1, 20}}, 0), -1);
  EXPECT_EQ(PickRebalanceVictim({5}, {{1, 5}}, 0), -1);  // one shard
}

TEST(RebalancePolicyTest, PicksWeightClosestToHalfTheGap) {
  // Gap 40: moving weight 18 leaves a residual gap of 4, better than
  // weight 5 (residual 30) or weight 30 (residual 20).
  EXPECT_EQ(PickRebalanceVictim({60, 20}, {{1, 5}, {2, 18}, {3, 30}}, 10), 2);
}

TEST(RebalancePolicyTest, RefusesMovesThatCannotShrinkTheGap) {
  // Gap 12 exceeds the budget, but moving the only candidate (weight 12)
  // would just mirror the imbalance; the policy keeps the status quo.
  EXPECT_EQ(PickRebalanceVictim({24, 12}, {{5, 12}}, 10), -1);
  // A zero-weight candidate cannot shrink the gap either.
  EXPECT_EQ(PickRebalanceVictim({10, 0}, {{1, 0}}, 5), -1);
}

TEST(RebalancePolicyTest, TieBreaksTowardTheYoungestQuery) {
  EXPECT_EQ(PickRebalanceVictim({40, 0}, {{2, 10}, {9, 10}, {4, 10}}, 5), 9);
}

/// A synthetic `poses`-pose chain gesture: its placement weight
/// (QueryCostWeight: states + distinct bank predicates) scales with the
/// pose count, unlike the uniform TrainedDefinitions.
core::GestureDefinition PosesDefinition(const std::string& name, int poses) {
  core::GestureDefinition definition;
  definition.name = name;
  definition.source_stream = "kinect";
  definition.joints = {kinect::JointId::kRightHand};
  for (int i = 0; i < poses; ++i) {
    core::PoseWindow pose;
    core::JointWindow window;
    window.center = Vec3(640.0 * i / std::max(1, poses - 1), 150.0, -150.0);
    window.half_width = Vec3(60, 60, 60);
    pose.joints[kinect::JointId::kRightHand] = window;
    pose.max_gap = i == 0 ? 0 : kSecond;
    definition.poses.push_back(pose);
  }
  return definition;
}

TEST(ShardedEngineTest, PlacementBalancesWeightNotCount) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine sharded(options);
  std::vector<query::CompiledQuery> compiled =
      CompileDefinitions({PosesDefinition("heavy", 8),
                          PosesDefinition("light_a", 2),
                          PosesDefinition("light_b", 2)});
  EXPECT_EQ(QueryCostWeight(compiled[0].pattern), 16u);
  EXPECT_EQ(QueryCostWeight(compiled[1].pattern), 4u);
  std::vector<int> ids;
  for (query::CompiledQuery& query : compiled) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(query), nullptr)));
  }
  // Count-only balancing would pair the heavy query with a light one;
  // weighted balancing stacks both light queries opposite it.
  EXPECT_EQ(sharded.shard_of(ids[0]), 0);
  EXPECT_EQ(sharded.shard_of(ids[1]), 1);
  EXPECT_EQ(sharded.shard_of(ids[2]), 1);
  EXPECT_EQ(sharded.shard_weights(), (std::vector<uint64_t>{16, 8}));
  EXPECT_EQ(sharded.shard_query_counts(), (std::vector<size_t>{1, 2}));
}

TEST(ShardedEngineTest, RebalanceNeverResetsQueryStats) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(4);
  std::vector<Event> events = Workload(3);

  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 4;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> records;
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled),
                                            Recorder(&records))));
  }
  EPL_ASSERT_OK(sharded.Start());
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Flush());

  std::vector<ShardedEngine::QueryStatsSnapshot> before =
      sharded.QueryStats();
  ASSERT_EQ(before.size(), 4u);
  for (const auto& snapshot : before) {
    EXPECT_EQ(snapshot.stats.events, half) << "query " << snapshot.query_id;
  }

  // Empty shard 1: the rebalancer moves a survivor, whose counters must
  // travel with its matcher instead of restarting from zero.
  EPL_ASSERT_OK(sharded.RemoveQuery(ids[1]));
  EPL_ASSERT_OK(sharded.RemoveQuery(ids[3]));
  EXPECT_GT(sharded.rebalanced_queries(), 0u);
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  std::vector<ShardedEngine::QueryStatsSnapshot> after = sharded.QueryStats();
  ASSERT_EQ(after.size(), 2u);
  for (const auto& snapshot : after) {
    // Every event of the stream is accounted for despite the mid-stream
    // shard move ...
    EXPECT_EQ(snapshot.stats.events, events.size())
        << "query " << snapshot.query_id;
    // ... and so is every match this query ever produced.
    const std::string& name =
        definitions[static_cast<size_t>(snapshot.query_id)].name;
    size_t delivered = 0;
    for (const DetectionRecord& record : records) {
      delivered += record.name == name ? 1 : 0;
    }
    EXPECT_EQ(snapshot.stats.matches, delivered)
        << "query " << snapshot.query_id;
    EXPECT_GT(snapshot.stats.matches, 0u) << "query " << snapshot.query_id;
  }
}

TEST(ShardedEngineTest, QueriesSpreadAcrossShards) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options);
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled), nullptr)));
  }
  EXPECT_EQ(sharded.shard_query_counts(), (std::vector<size_t>{2, 2, 2, 2}));
  for (int id : ids) {
    EXPECT_GE(sharded.shard_of(id), 0);
  }
  EXPECT_EQ(sharded.shard_of(99), -1);
}

TEST(ShardedEngineTest, RemovalSkewTriggersRebalance) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options);
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled), nullptr)));
  }
  // Ids 0..3 land on shards 0..3 (least-loaded, lowest index first), then
  // 4..7 wrap around; shard 0 hosts {0, 4}.
  ASSERT_EQ(sharded.shard_of(ids[0]), 0);
  ASSERT_EQ(sharded.shard_of(ids[4]), 0);

  EPL_ASSERT_OK(sharded.RemoveQuery(ids[0]));
  // Skew 1 is tolerated.
  EXPECT_EQ(sharded.rebalanced_queries(), 0u);

  EPL_ASSERT_OK(sharded.RemoveQuery(ids[4]));
  // Shard 0 is empty, the rest host 2 each: one query moves over.
  EXPECT_EQ(sharded.rebalanced_queries(), 1u);
  std::vector<size_t> counts = sharded.shard_query_counts();
  EXPECT_EQ(counts, (std::vector<size_t>{1, 1, 2, 2}));

  EXPECT_EQ(sharded.RemoveQuery(ids[0]).code(), StatusCode::kNotFound);
}

TEST(ShardedEngineTest, ShardedDeploymentViaEngineRunner) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(6);
  std::vector<Event> events = Workload(13);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<DetectionRecord> actual;
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_size = 8;
  EPL_ASSERT_OK_AND_ASSIGN(
      query::ShardedDeployment deployment,
      core::DeployGesturesSharded(&engine, definitions, Recorder(&actual),
                                  core::QueryGenConfig(), options));
  EXPECT_EQ(engine.deployment_count(), 1u);
  EXPECT_TRUE(deployment.engine->running());

  stream::EngineRunner runner(&engine);
  EPL_ASSERT_OK(runner.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(runner.Enqueue("kinect", event));
  }
  EPL_ASSERT_OK(runner.Stop());
  EXPECT_EQ(runner.processed(), events.size());

  EPL_ASSERT_OK(deployment.engine->Flush());
  EXPECT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections";

  // Undeploy stops the shard workers.
  EPL_ASSERT_OK(engine.Undeploy(deployment.id));
  EXPECT_EQ(engine.deployment_count(), 0u);
}

TEST(ShardedEngineTest, AddShardedGestureJoinsLiveDeployment) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(4);
  std::vector<Event> events = Workload(21);

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<DetectionRecord> records;
  EPL_ASSERT_OK_AND_ASSIGN(
      query::ShardedDeployment deployment,
      core::DeployGesturesSharded(
          &engine, {definitions[0], definitions[1]}, Recorder(&records)));

  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  EPL_ASSERT_OK_AND_ASSIGN(
      int added, core::AddShardedGesture(&engine, deployment, definitions[2],
                                         Recorder(&records)));
  EXPECT_EQ(deployment.engine->num_queries(), 3u);
  for (size_t i = half; i < events.size(); ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  EPL_ASSERT_OK(deployment.engine->Flush());
  EXPECT_FALSE(records.empty());
  EPL_ASSERT_OK(deployment.engine->RemoveQuery(added));
  EXPECT_EQ(deployment.engine->num_queries(), 2u);

  // A gesture reading another stream is rejected.
  core::GestureDefinition other = definitions[3];
  other.source_stream = "other";
  Result<int> bad =
      core::AddShardedGesture(&engine, deployment, other, nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, CrossThreadExchangeWhileStreaming) {
  // An application thread exchanges queries while a producer thread
  // streams: the control mutex must serialize them (timing-dependent
  // interleaving, so this asserts invariants, not exact match sets; run
  // under ASan/UBSan in CI). One query lives through the whole stream and
  // must keep detecting.
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(6);
  std::vector<Event> events = Workload(31);

  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 4;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> survivor_records;
  std::vector<query::CompiledQuery> compiled =
      CompileDefinitions(definitions);
  int survivor_id =
      sharded.AddQuery(MakeSpec(std::move(compiled[0]),
                                Recorder(&survivor_records)));
  EPL_ASSERT_OK(sharded.Start());

  std::thread producer([&sharded, &events] {
    for (int round = 0; round < 3; ++round) {
      for (const Event& event : events) {
        ASSERT_TRUE(sharded.Push(event));
      }
    }
  });
  // Churn the remaining five definitions from this thread.
  for (int round = 0; round < 10; ++round) {
    std::vector<int> ids;
    for (size_t i = 1; i < definitions.size(); ++i) {
      std::vector<query::CompiledQuery> one =
          CompileDefinitions({definitions[i]});
      ids.push_back(sharded.AddQuery(MakeSpec(std::move(one[0]), nullptr)));
    }
    for (int id : ids) {
      EPL_EXPECT_OK(sharded.RemoveQuery(id));
    }
  }
  producer.join();
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.num_queries(), 1u);
  EXPECT_EQ(sharded.shard_of(survivor_id) >= 0, true);
  // The survivor detected throughout (3 workload rounds of swipes).
  EXPECT_GT(survivor_records.size(), 0u);
}

TEST(MeasuredWeightTest, FallsBackToStaticWeightWithoutEvents) {
  MatcherStats cold;
  EXPECT_EQ(MeasuredQueryCostWeight(cold, 16), 16u);
  // Never returns 0, even on a degenerate static weight.
  EXPECT_EQ(MeasuredQueryCostWeight(cold, 0), 1u);
}

TEST(MeasuredWeightTest, ScalesWithObservedPerEventReads) {
  // A hot query (many predicate reads per event) outweighs a statically
  // heavy query the stream never wakes up (one seed read per event).
  MatcherStats hot;
  hot.events = 100;
  hot.predicate_cache_hits = 380;  // ~3.8 reads/event
  MatcherStats cold;
  cold.events = 100;
  cold.predicate_cache_hits = 100;  // seed read only
  const uint64_t hot_weight = MeasuredQueryCostWeight(hot, 6);
  const uint64_t cold_weight = MeasuredQueryCostWeight(cold, 16);
  EXPECT_EQ(hot_weight, 8u);   // ceil(2 * 380 / 100)
  EXPECT_EQ(cold_weight, 2u);  // measured activity overrides static 16
  EXPECT_GT(hot_weight, cold_weight);
  // Direct interpretations count the same as bank-served reads.
  MatcherStats mixed = cold;
  mixed.predicate_evaluations = 280;
  EXPECT_EQ(MeasuredQueryCostWeight(mixed, 16), 8u);
}

/// An n-state chain over field "x": every predicate is an interval around
/// `center` of half-width `width`, with distinct centers so the static
/// weight is states + states distinct predicates.
MultiMatchOperator::QuerySpec ChainSpecX(const std::string& name, int states,
                                         double center, double width,
                                         DetectionCallback callback) {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x"});
  std::vector<PatternExprPtr> poses;
  for (int s = 0; s < states; ++s) {
    poses.push_back(PatternExpr::Pose(
        "s", Expr::RangePredicate("x", center + 0.001 * s, width)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), std::nullopt,
                             WithinMode::kGap),
      *schema);
  EPL_CHECK(compiled.ok()) << compiled.status();
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = std::move(compiled).value();
  spec.callback = std::move(callback);
  return spec;
}

TEST(ShardedEngineTest, MeasuredHotQueriesOutweighStaticallyHeavyColdOnes) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 8;
  ShardedEngine sharded(options);
  // "heavy" never fires beyond its seed read (centers far from the
  // stream); the "hot" chains advance on every event.
  const int heavy_id = sharded.AddQuery(ChainSpecX("heavy", 8, 500.0, 1.0,
                                                   nullptr));
  const int hot_a_id =
      sharded.AddQuery(ChainSpecX("hot_a", 3, 1.0, 50.0, nullptr));
  const int hot_b_id =
      sharded.AddQuery(ChainSpecX("hot_b", 3, 1.0, 40.0, nullptr));
  // Static placement: heavy (weight 16) alone, the two hots (6 each)
  // together.
  ASSERT_NE(sharded.shard_of(heavy_id), sharded.shard_of(hot_a_id));
  ASSERT_EQ(sharded.shard_of(hot_a_id), sharded.shard_of(hot_b_id));

  EPL_ASSERT_OK(sharded.Start());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(sharded.Push(Event(DurationFromMillis(10.0 * i), {1.0})));
  }
  EPL_ASSERT_OK(sharded.Flush());

  // The quiesced snapshot re-derives weights from measured cost: observed
  // activity outranks the structural heuristic.
  std::vector<ShardedEngine::QueryStatsSnapshot> snapshots =
      sharded.QueryStats();
  ASSERT_EQ(snapshots.size(), 3u);
  uint64_t heavy_weight = 0;
  uint64_t hot_weight = 0;
  for (const auto& snapshot : snapshots) {
    if (snapshot.query_id == heavy_id) {
      heavy_weight = snapshot.weight;
    } else if (snapshot.query_id == hot_a_id) {
      hot_weight = snapshot.weight;
    }
    EXPECT_EQ(snapshot.stats.events, 30u) << "query " << snapshot.query_id;
    // The snapshot also carries the shard bank's evaluation counters:
    // 30 events through batch_size=8 windows must have resolved every
    // (field, event) row as a region-memo hit or a region search.
    EXPECT_GT(snapshot.bank.region_memo_hits + snapshot.bank.region_searches,
              0u)
        << "query " << snapshot.query_id;
  }
  EXPECT_LT(heavy_weight, 16u);  // measured demotes the cold heavy query
  EXPECT_GT(hot_weight, heavy_weight);

  // Placement now follows measured cost: a new query lands NEXT TO the
  // statically heaviest pattern, because that shard is measurably idle
  // (impossible under static weights: 16 + 6 vs 12).
  const int late_id =
      sharded.AddQuery(ChainSpecX("late", 3, 1.0, 30.0, nullptr));
  EXPECT_EQ(sharded.shard_of(late_id), sharded.shard_of(heavy_id));
  EPL_ASSERT_OK(sharded.Stop());
}

TEST(ShardedEngineTest, LifecycleErrors) {
  ShardedEngine sharded;
  EXPECT_EQ(sharded.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.Stop().code(), StatusCode::kFailedPrecondition);
  EPL_ASSERT_OK(sharded.Start());
  EXPECT_EQ(sharded.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sharded.Push(Event(0, {})));
  EPL_ASSERT_OK(sharded.Flush());
  EPL_ASSERT_OK(sharded.Stop());
  EXPECT_FALSE(sharded.Push(Event(1, {})));
  EXPECT_EQ(sharded.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.Resize(2).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.AdaptShardCount().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The pure steal policy behind the worker scheduler.

TEST(StealPolicyTest, PicksDeepestClaimableBacklog) {
  EXPECT_EQ(PickStealVictim({1, 5, 3}, {1, 1, 1}, 0), 1);
  // The deepest shard is mid-execution (busy): the next-deepest wins.
  EXPECT_EQ(PickStealVictim({1, 5, 3}, {1, 0, 1}, 0), 2);
  // Parked/retired shards (claimable 0) are invisible even with backlog.
  EXPECT_EQ(PickStealVictim({0, 7, 2}, {1, 0, 0}, 0), -1);
}

TEST(StealPolicyTest, NeverPicksItselfOrEmptyShards) {
  // A worker's own backlog never counts as a steal (it is served by the
  // own-shard-first fast path).
  EXPECT_EQ(PickStealVictim({9, 0, 0}, {1, 1, 1}, 0), -1);
  EXPECT_EQ(PickStealVictim({0, 0, 0}, {1, 1, 1}, 1), -1);
  EXPECT_EQ(PickStealVictim({4}, {1}, 0), -1);  // single-shard fleet
}

TEST(StealPolicyTest, TieBreaksTowardTheLowestShard) {
  EXPECT_EQ(PickStealVictim({0, 4, 4}, {1, 1, 1}, 0), 1);
  EXPECT_EQ(PickStealVictim({4, 2, 4}, {1, 1, 1}, 0), 2);
}

// ---------------------------------------------------------------------------
// The pure fleet-sizing policy behind AdaptShardCount.

AdaptiveShardOptions AdaptiveBounds(int min_shards, int max_shards) {
  AdaptiveShardOptions options;
  options.min_shards = min_shards;
  options.max_shards = max_shards;
  return options;  // thresholds keep their defaults: grow .75, shrink .25
}

TEST(AdaptivePolicyTest, GrowsWhenTheBottleneckShardSaturates) {
  // Shard 0 was executing 90% of the window: one more shard.
  EXPECT_EQ(RecommendShardCount(2, {900, 100}, 1000, AdaptiveBounds(1, 8)), 3);
  // Saturated but already at max_shards: hold.
  EXPECT_EQ(RecommendShardCount(8, {999, 0, 0, 0, 0, 0, 0, 0}, 1000,
                                AdaptiveBounds(1, 8)),
            8);
}

TEST(AdaptivePolicyTest, ShrinksOnlyAMostlyIdleFleet) {
  // Total utilization 0.10 fits under 0.25 x 3 survivors: drop one shard.
  EXPECT_EQ(RecommendShardCount(4, {25, 25, 25, 25}, 1000,
                                AdaptiveBounds(1, 8)),
            3);
  // Moderate load (total 0.5 > 0.25 x 1) sits in the hysteresis band:
  // neither grow (peak 0.3 < 0.75) nor shrink.
  EXPECT_EQ(RecommendShardCount(2, {300, 200}, 1000, AdaptiveBounds(1, 8)),
            2);
  // Idle but already at min_shards: hold.
  EXPECT_EQ(RecommendShardCount(1, {0}, 1000, AdaptiveBounds(1, 8)), 1);
}

TEST(AdaptivePolicyTest, DegenerateWindowsRecommendNoChange) {
  EXPECT_EQ(RecommendShardCount(3, {}, 1000, AdaptiveBounds(1, 8)), 3);
  EXPECT_EQ(RecommendShardCount(3, {500, 500, 500}, 0, AdaptiveBounds(1, 8)),
            3);
  // An out-of-bounds current count clamps into [min, max] regardless.
  EXPECT_EQ(RecommendShardCount(9, {}, 0, AdaptiveBounds(2, 4)), 4);
  EXPECT_EQ(RecommendShardCount(1, {}, 0, AdaptiveBounds(2, 4)), 2);
}

// ---------------------------------------------------------------------------
// Scheduling modes: work stealing, pinning, and spin-then-park must leave
// detections bit-identical to the fused single-threaded operator.

class ShardedScheduling
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedScheduling, StealingAndPinningMatchFusedDeployment) {
  const int num_shards = std::get<0>(GetParam());
  const bool pin_and_spin = std::get<1>(GetParam()) != 0;

  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 2;  // many small batches: maximal steal opportunity
  options.work_stealing = true;
  options.pin_workers = pin_and_spin;
  options.spin_wait_iterations = pin_and_spin ? 2000 : 0;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.processed(), events.size());
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections at "
      << num_shards << " shards (stealing"
      << (pin_and_spin ? " + pinning + spin)" : ")");
}

INSTANTIATE_TEST_SUITE_P(StealPinSpin, ShardedScheduling,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Work-stealing stress: a deliberately skewed fleet (few expensive hot
// chains among many cheap cold ones) streamed in tiny batches, so idle
// workers constantly race the busy shard for its backlog. Detections must
// stay bit-identical to the fused operator at every shard count. The
// interleaving is timing-dependent by design -- this is the TSan CI leg's
// main target for the cross-shard scheduler paths.

std::vector<MultiMatchOperator::QuerySpec> SkewedFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet;
  // Two 8-state chains that advance on nearly every event (hot + heavy)...
  fleet.push_back(ChainSpecX("hot_0", 8, 1.0, 60.0, Recorder(records)));
  fleet.push_back(ChainSpecX("hot_1", 8, 1.2, 55.0, Recorder(records)));
  // ...vs 14 cheap chains that rarely wake up: per-shard batch cost is
  // dominated by wherever the hot chains land.
  for (int q = 0; q < 14; ++q) {
    fleet.push_back(ChainSpecX("cold_" + std::to_string(q), 3,
                               300.0 + 10.0 * q, 2.0, Recorder(records)));
  }
  return fleet;
}

std::vector<Event> SkewedStream(int count) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(count));
  uint64_t state = 42;
  for (int i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // x in [0, 4): inside the hot windows always, inside a cold window
    // (almost) never.
    const double x = 4.0 * static_cast<double>(state >> 40) /
                     static_cast<double>(1 << 24);
    events.push_back(Event(DurationFromMillis(5.0 * i), {x}));
  }
  return events;
}

TEST(WorkStealingStressTest, SkewedFleetBitIdenticalAcrossShardCounts) {
  std::vector<DetectionRecord> expected;
  {
    MultiMatchOperator fused((MatcherOptions()));
    for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&expected)) {
      fused.AddQuery(std::move(spec));
    }
    for (const Event& event : SkewedStream(3000)) {
      EPL_EXPECT_OK(fused.Process(event));
    }
  }
  ASSERT_FALSE(expected.empty());

  for (int num_shards : {1, 2, 4, 8}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.batch_size = 1;  // per-event handoff: maximal contention
    options.queue_capacity = 8;
    options.work_stealing = true;
    options.spin_wait_iterations = 500;
    ShardedEngine sharded(options);
    std::vector<DetectionRecord> actual;
    for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&actual)) {
      sharded.AddQuery(std::move(spec));
    }
    EPL_ASSERT_OK(sharded.Start());
    for (const Event& event : SkewedStream(3000)) {
      ASSERT_TRUE(sharded.Push(event));
    }
    EPL_ASSERT_OK(sharded.Stop());
    ASSERT_TRUE(actual == expected)
        << actual.size() << " vs " << expected.size() << " detections at "
        << num_shards << " shards under stealing stress";
  }
}

// ---------------------------------------------------------------------------
// Composite ladders under stealing stress: the same skewed fleet, now
// tagged so a 2-level composite ladder consumes its detections. The base
// inputs span every shard while idle workers steal the hot shard's
// backlog, so the (event-seq, level, query-id) watermark merge is the
// only thing keeping epochs ordered -- any reorder, dropped epoch, or
// merge/runner race diverges from the fused baseline (and trips TSan in
// the sanitizer CI leg, which is this test's main target).

std::vector<MultiMatchOperator::QuerySpec> CompositeSkewedFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet = SkewedFleet(records);
  for (MultiMatchOperator::QuerySpec& spec : fleet) {
    spec.tag = GestureTag(spec.output_name);
  }
  auto composite = [&](const std::string& name, int level,
                       const std::vector<std::string>& inputs) {
    std::vector<PatternExprPtr> poses;
    for (const std::string& input : inputs) {
      poses.push_back(PatternExpr::Pose(
          kDetectionStreamName,
          Expr::RangePredicate(kDetectionGestureField, GestureTag(input),
                               0.5)));
    }
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *PatternExpr::Sequence(std::move(poses), std::nullopt,
                               WithinMode::kSpan),
        DetectionSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    MultiMatchOperator::QuerySpec spec;
    spec.output_name = name;
    spec.pattern = std::move(compiled).value();
    spec.callback = Recorder(records);
    spec.level = level;
    spec.tag = GestureTag(name);
    return spec;
  };
  // High-volume level 1 (one pose: fires on every hot_0 detection), a
  // two-input level 1 whose inputs land on different shards, and a level
  // 2 consuming a composite -- detections of detections.
  fleet.push_back(composite("hot_echo", 1, {"hot_0"}));
  fleet.push_back(composite("pair_of_hots", 1, {"hot_0", "hot_1"}));
  fleet.push_back(composite("meta_pair", 2, {"pair_of_hots"}));
  return fleet;
}

TEST(WorkStealingStressTest, CompositeLaddersBitIdenticalUnderStealing) {
  std::vector<DetectionRecord> expected;
  {
    MultiMatchOperator fused((MatcherOptions()));
    for (MultiMatchOperator::QuerySpec& spec :
         CompositeSkewedFleet(&expected)) {
      fused.AddQuery(std::move(spec));
    }
    for (const Event& event : SkewedStream(3000)) {
      EPL_EXPECT_OK(fused.Process(event));
    }
  }
  ASSERT_FALSE(expected.empty());
  size_t composite_detections = 0;
  for (const DetectionRecord& record : expected) {
    composite_detections += record.name == "hot_echo" ||
                            record.name == "pair_of_hots" ||
                            record.name == "meta_pair";
  }
  ASSERT_GT(composite_detections, 0u)
      << "the skewed stream produced no composite detections";

  for (int num_shards : {1, 2, 4, 8}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.batch_size = 1;  // per-event handoff: maximal contention
    options.queue_capacity = 8;
    options.work_stealing = true;
    options.spin_wait_iterations = 500;
    ShardedEngine sharded(options);
    std::vector<DetectionRecord> actual;
    for (MultiMatchOperator::QuerySpec& spec : CompositeSkewedFleet(&actual)) {
      sharded.AddQuery(std::move(spec));
    }
    EPL_ASSERT_OK(sharded.Start());
    for (const Event& event : SkewedStream(3000)) {
      ASSERT_TRUE(sharded.Push(event));
    }
    EPL_ASSERT_OK(sharded.Stop());
    ASSERT_TRUE(actual == expected)
        << actual.size() << " vs " << expected.size() << " detections at "
        << num_shards << " shards under composite stealing stress";
  }
}

// ---------------------------------------------------------------------------
// Fleet resizing.

TEST(ShardedEngineTest, ResizeGrowsAndShrinksPreservingDetections) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 1;
  options.batch_size = 4;
  options.work_stealing = true;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EPL_ASSERT_OK(sharded.Start());

  const size_t third = events.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(4));  // grow mid-stream, mid-gesture
  EXPECT_EQ(sharded.num_shards(), 4);
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(2));  // shrink mid-stream, mid-gesture
  EXPECT_EQ(sharded.num_shards(), 2);
  // Every query survived the migrations under its stable id.
  EXPECT_EQ(sharded.num_queries(), definitions.size());
  for (size_t i = 2 * third; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.resize_count(), 2u);
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections across grow + shrink";
}

TEST(ShardedEngineTest, ResizeBeforeStartAndNoopResize) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine sharded(options);
  sharded.AddQuery(ChainSpecX("a", 3, 1.0, 50.0, nullptr));
  sharded.AddQuery(ChainSpecX("b", 3, 2.0, 50.0, nullptr));
  // Cold resize restructures the fleet before any worker exists.
  EPL_ASSERT_OK(sharded.Resize(3));
  EXPECT_EQ(sharded.num_shards(), 3);
  EPL_ASSERT_OK(sharded.Resize(1));
  EXPECT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.num_queries(), 2u);
  // Same-size resizes are free and uncounted.
  EPL_ASSERT_OK(sharded.Resize(1));
  EXPECT_EQ(sharded.resize_count(), 2u);
  // Requests are clamped like the constructor's num_shards.
  EPL_ASSERT_OK(sharded.Resize(0));
  EXPECT_EQ(sharded.num_shards(), 1);
  EPL_ASSERT_OK(sharded.Start());
  EXPECT_TRUE(sharded.Push(Event(0, {1.0})));
  EPL_ASSERT_OK(sharded.Stop());
}

TEST(ShardedEngineTest, AdaptiveSizingFollowsForcedPolicyEndToEnd) {
  const std::vector<Event> events = SkewedStream(2000);
  std::vector<DetectionRecord> expected;
  {
    MultiMatchOperator fused((MatcherOptions()));
    for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&expected)) {
      fused.AddQuery(std::move(spec));
    }
    for (const Event& event : events) {
      EPL_EXPECT_OK(fused.Process(event));
    }
  }
  ASSERT_FALSE(expected.empty());

  // Grow leg: a zero grow threshold makes every observation window with
  // any busy time recommend one more shard, so the fleet must climb to
  // max_shards while detections stay exact.
  ShardedEngineOptions grow;
  grow.num_shards = 1;
  grow.batch_size = 4;
  grow.adaptive.enabled = true;
  grow.adaptive.min_shards = 1;
  grow.adaptive.max_shards = 3;
  grow.adaptive.check_every_events = 32;
  grow.adaptive.grow_utilization = 0.0;
  // A fully idle window (producer starved before any worker ran) would
  // satisfy the shrink branch and oscillate the fleet on a loaded
  // machine; a negative threshold disables shrinking for the forced
  // grow policy.
  grow.adaptive.shrink_utilization = -1.0;
  ShardedEngine growing(grow);
  std::vector<DetectionRecord> grow_records;
  for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&grow_records)) {
    growing.AddQuery(std::move(spec));
  }
  EPL_ASSERT_OK(growing.Start());
  size_t pushed = 0;
  for (const Event& event : events) {
    ASSERT_TRUE(growing.Push(event));
    if (++pushed % 32 == 0) {
      // Drain between windows so every observation window has recorded
      // busy time, whatever the worker/producer interleaving.
      EPL_ASSERT_OK(growing.Flush());
    }
  }
  EXPECT_EQ(growing.num_shards(), 3);
  EXPECT_GE(growing.resize_count(), 2u);
  EPL_ASSERT_OK(growing.Stop());
  EXPECT_TRUE(grow_records == expected);

  // Shrink leg: an unreachable grow threshold plus an always-satisfied
  // shrink threshold walks the fleet down to min_shards no matter how
  // busy the workers actually were.
  ShardedEngineOptions shrink;
  shrink.num_shards = 4;
  shrink.batch_size = 4;
  shrink.adaptive.enabled = true;
  shrink.adaptive.min_shards = 1;
  shrink.adaptive.max_shards = 4;
  shrink.adaptive.check_every_events = 32;
  shrink.adaptive.grow_utilization = 2.0;  // peak utilization can't exceed 1
  shrink.adaptive.shrink_utilization = 8.0;
  ShardedEngine shrinking(shrink);
  std::vector<DetectionRecord> shrink_records;
  for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&shrink_records)) {
    shrinking.AddQuery(std::move(spec));
  }
  EPL_ASSERT_OK(shrinking.Start());
  pushed = 0;
  for (const Event& event : events) {
    ASSERT_TRUE(shrinking.Push(event));
    if (++pushed % 32 == 0) {
      EPL_ASSERT_OK(shrinking.Flush());
    }
  }
  EXPECT_EQ(shrinking.num_shards(), 1);
  EPL_ASSERT_OK(shrinking.Stop());
  EXPECT_TRUE(shrink_records == expected);
}

// ---------------------------------------------------------------------------
// Interest-routed fan-out + session-affinity placement: events reach only
// the shards hosting their session's queries, skipped shards advance by
// token, and detections stay bit-identical to broadcast and to the fused
// operator.

constexpr int kRoutedSessions = 4;
constexpr int kRoutedSessionField = 1;

/// An n-state chain over {"x", "session"} gated to one session: the gate
/// admits only events whose trailing session field equals `session`, and
/// the spec carries the engine's (session_tag, session_scoped) routing
/// contract -- exactly what GestureRuntime stamps on session deploys.
MultiMatchOperator::QuerySpec SessionChainSpec(const std::string& name,
                                               int session, int states,
                                               double center, double width,
                                               DetectionCallback callback) {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x", "session"});
  std::vector<PatternExprPtr> poses;
  for (int s = 0; s < states; ++s) {
    poses.push_back(PatternExpr::Pose(
        "s", Expr::RangePredicate("x", center + 0.001 * s, width)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), std::nullopt, WithinMode::kGap),
      *schema);
  EPL_CHECK(compiled.ok()) << compiled.status();
  Result<CompiledPattern> gate = CompiledPattern::Compile(
      *PatternExpr::Pose("s", Expr::RangePredicate(
                                  "session", static_cast<double>(session),
                                  0.5)),
      *schema);
  EPL_CHECK(gate.ok()) << gate.status();
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = std::move(compiled).value();
  spec.gate =
      std::make_shared<const CompiledPattern>(std::move(gate).value());
  spec.session_tag = static_cast<double>(session);
  spec.session_scoped = true;
  spec.callback = std::move(callback);
  return spec;
}

/// Two chains per session, all firing on the same x-range so every
/// session produces detections. Weights are equal across sessions (6 + 8),
/// which lets kSessionAffinity pack one session per shard at 4 shards.
std::vector<MultiMatchOperator::QuerySpec> SessionFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet;
  for (int k = 0; k < kRoutedSessions; ++k) {
    const std::string tag = "_s" + std::to_string(k);
    fleet.push_back(
        SessionChainSpec("chain_a" + tag, k, 3, 1.0, 50.0, Recorder(records)));
    fleet.push_back(
        SessionChainSpec("chain_b" + tag, k, 4, 1.2, 40.0, Recorder(records)));
  }
  return fleet;
}

/// Pseudo-random x stream with the session id cycling through `sessions`
/// as the trailing field (sessions == 1 pins every event to session 0).
std::vector<Event> SessionStream(int count, int sessions) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(count));
  uint64_t state = 7;
  for (int i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = 4.0 * static_cast<double>(state >> 40) /
                     static_cast<double>(1 << 24);
    events.push_back(Event(DurationFromMillis(5.0 * i),
                           {x, static_cast<double>(i % sessions)}));
  }
  return events;
}

std::vector<DetectionRecord> SessionBaseline(const std::vector<Event>& events) {
  std::vector<DetectionRecord> records;
  MultiMatchOperator fused((MatcherOptions()));
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&records)) {
    fused.AddQuery(std::move(spec));
  }
  for (const Event& event : events) {
    EPL_EXPECT_OK(fused.Process(event));
  }
  return records;
}

struct RoutedRun {
  std::vector<DetectionRecord> records;
  ShardedEngine::EngineStats stats;
  uint64_t processed = 0;
};

RoutedRun RunSessionFleet(const std::vector<Event>& events,
                          const ShardedEngineOptions& options) {
  ShardedEngine sharded(options);
  RoutedRun run;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&run.records)) {
    sharded.AddQuery(std::move(spec));
  }
  EPL_CHECK(sharded.Start().ok());
  for (const Event& event : events) {
    EPL_CHECK(sharded.Push(event));
  }
  Status stopped = sharded.Stop();
  EPL_CHECK(stopped.ok()) << stopped;
  run.stats = sharded.engine_stats();
  run.processed = sharded.processed();
  return run;
}

TEST(InterestRoutingTest, RoutedMatchesBroadcastBitIdentically) {
  const std::vector<Event> events = SessionStream(2000, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  for (int num_shards : {1, 4}) {
    ShardedEngineOptions broadcast;
    broadcast.num_shards = num_shards;
    broadcast.batch_size = 8;
    const RoutedRun off = RunSessionFleet(events, broadcast);

    ShardedEngineOptions routed = broadcast;
    routed.routing_field = kRoutedSessionField;
    routed.placement = ShardPlacement::kSessionAffinity;
    const RoutedRun on = RunSessionFleet(events, routed);

    EXPECT_EQ(on.processed, events.size());
    ASSERT_TRUE(off.records == expected)
        << off.records.size() << " vs " << expected.size()
        << " broadcast detections at " << num_shards << " shards";
    ASSERT_TRUE(on.records == expected)
        << on.records.size() << " vs " << expected.size()
        << " routed detections at " << num_shards << " shards";
    if (num_shards == 1) {
      // One shard hosts every session: routing degenerates to full
      // windows sharing the producer's batch, with nothing to skip.
      EXPECT_EQ(on.stats.fanout_subbatches, 0u);
      EXPECT_EQ(on.stats.events_skipped_by_filter, 0u);
      EXPECT_EQ(on.stats.events_routed, off.stats.events_routed);
    } else {
      // Affinity packs one session per shard, so each 8-event round-robin
      // window splits into 2-event sub-batches: 4x fewer copies.
      EXPECT_GT(on.stats.fanout_subbatches, 0u);
      EXPECT_GT(on.stats.events_skipped_by_filter, 0u);
      EXPECT_LT(on.stats.events_routed, off.stats.events_routed);
      EXPECT_EQ(on.stats.events_routed + on.stats.events_skipped_by_filter,
                off.stats.events_routed);
    }
  }
}

TEST(InterestRoutingTest, AffinityPacksSessionsBalancedSpreadsThem) {
  ShardedEngineOptions options;
  options.num_shards = kRoutedSessions;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<std::pair<int, int>> ids;  // (session, query id)
  for (int k = 0; k < kRoutedSessions; ++k) {
    const std::string tag = "_s" + std::to_string(k);
    ids.emplace_back(
        k, sharded.AddQuery(SessionChainSpec("a" + tag, k, 3, 1.0, 50.0,
                                             nullptr)));
    ids.emplace_back(
        k, sharded.AddQuery(SessionChainSpec("b" + tag, k, 4, 1.2, 40.0,
                                             nullptr)));
  }
  // Every session's queries share one shard, and the four equal-weight
  // sessions land on four distinct shards (no skew to pay for packing).
  std::vector<int> session_shard(kRoutedSessions, -1);
  for (const auto& [session, id] : ids) {
    const int shard = sharded.shard_of(id);
    if (session_shard[static_cast<size_t>(session)] < 0) {
      session_shard[static_cast<size_t>(session)] = shard;
    }
    EXPECT_EQ(shard, session_shard[static_cast<size_t>(session)])
        << "session " << session << " split across shards";
  }
  std::vector<int> sorted = session_shard;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sharded.shard_weights(),
            (std::vector<uint64_t>{14, 14, 14, 14}));
}

TEST(InterestRoutingTest, SkippedShardsAdvanceByTokenWithoutWakeups) {
  // Every event belongs to session 0, so with affinity placement three of
  // the four shards host no interested query at all.
  const std::vector<Event> events = SessionStream(2000, 1);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions broadcast;
  broadcast.num_shards = 4;
  broadcast.batch_size = 8;
  const RoutedRun off = RunSessionFleet(events, broadcast);
  ASSERT_TRUE(off.records == expected);

  ShardedEngineOptions routed = broadcast;
  routed.routing_field = kRoutedSessionField;
  routed.placement = ShardPlacement::kSessionAffinity;
  const RoutedRun on = RunSessionFleet(events, routed);

  ASSERT_TRUE(on.records == expected)
      << on.records.size() << " vs " << expected.size()
      << " detections with three fully skipped shards";
  // The skipped shards' watermarks advanced without queue traffic: every
  // window hands 3 advance tokens out, and the producer signalled far
  // fewer worker wakeups than the 4-destinations-per-window broadcast.
  EXPECT_EQ(on.processed, events.size());
  EXPECT_GT(on.stats.advance_tokens, 0u);
  EXPECT_EQ(on.stats.events_routed, events.size());
  EXPECT_EQ(on.stats.events_skipped_by_filter, 3 * events.size());
  EXPECT_LT(on.stats.worker_wakeups, off.stats.worker_wakeups);
}

TEST(InterestRoutingTest, FlippedInterestBitLosesExactlyThatSession) {
  // Mutation test backing the differential-fuzz leg: routing is only
  // trustworthy if a single wrong interest bit visibly diverges.
  const std::vector<Event> events = SessionStream(2000, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.batch_size = 8;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  int mutated_session_query = -1;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&actual)) {
    const bool mutated = spec.session_tag == 2.0;
    const int id = sharded.AddQuery(std::move(spec));
    if (mutated && mutated_session_query < 0) {
      mutated_session_query = id;
    }
  }
  ASSERT_GE(mutated_session_query, 0);
  // Drop session 2's true interest bit: its events now bypass the shard
  // hosting its queries (no rebuild runs during a pure Push stream).
  sharded.TestOnlyFlipInterestBit(2.0, sharded.shard_of(
                                           mutated_session_query));
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  // Session 2's detections vanish; every other session is untouched.
  std::vector<DetectionRecord> without_s2;
  for (const DetectionRecord& record : expected) {
    if (record.name.find("_s2") == std::string::npos) {
      without_s2.push_back(record);
    }
  }
  ASSERT_LT(without_s2.size(), expected.size())
      << "baseline produced no session-2 detections to lose";
  EXPECT_TRUE(actual == without_s2)
      << actual.size() << " vs " << without_s2.size()
      << " detections after dropping session 2's interest bit";
}

TEST(InterestRoutingTest, ResizePreservesRoutingAndAffinity) {
  const std::vector<Event> events = SessionStream(2100, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 1;
  options.batch_size = 8;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  std::vector<std::pair<int, int>> ids;  // (session, query id)
  {
    std::vector<MultiMatchOperator::QuerySpec> fleet = SessionFleet(&actual);
    for (size_t q = 0; q < fleet.size(); ++q) {
      const int session = static_cast<int>(fleet[q].session_tag);
      ids.emplace_back(session, sharded.AddQuery(std::move(fleet[q])));
    }
  }
  EPL_ASSERT_OK(sharded.Start());
  const size_t third = events.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(4));  // grow: interest index must follow
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(2));  // shrink: sessions re-pack onto survivors
  for (size_t i = 2 * third; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections across routed grow + shrink";
  // Post-shrink the four sessions still live un-split on the two
  // survivors (affinity-preserving migration).
  std::vector<int> session_shard(kRoutedSessions, -1);
  for (const auto& [session, id] : ids) {
    const int shard = sharded.shard_of(id);
    if (session_shard[static_cast<size_t>(session)] < 0) {
      session_shard[static_cast<size_t>(session)] = shard;
    }
    EXPECT_EQ(shard, session_shard[static_cast<size_t>(session)])
        << "session " << session << " split across shards after shrink";
  }
}

}  // namespace
}  // namespace epl::cep
