// Randomized differential fuzzing of the multi-pattern runtime: random
// patterns (1-4 states, range / conjunction / fallback predicates, gap and
// span time constraints, both consume policies) run over random event
// streams (random walks with timestamp jitter, NaN and infinity
// injection), and three independent executions must agree bit-exactly on
// every pattern's match sequence:
//
//   1. per-query NfaMatcher::Process      (the behavioral oracle)
//   2. MultiPatternMatcher::ProcessBatch  (flat, one-event windows)
//   3. MultiPatternMatcher::ProcessBatch  (flat, random batch chunking)
//
// Every scenario derives from a logged seed: on failure the error message
// names the exact environment (EPL_FUZZ_SEED / EPL_FUZZ_SCENARIOS) that
// replays just that scenario. CI runs the suite twice: the normal ctest
// job uses the fixed default seed below, and the ASan/UBSan job adds a
// longer wall-clock-bounded randomized pass (EPL_FUZZ_TIME_BUDGET_MS with
// a per-run seed).
//
// A second leg (FeedbackTopologyAgreesWithTwoPassOracle) fuzzes the
// feedback topology of cep/composite.h: random base patterns plus a
// random 2-3-level composite DAG over their detection streams, where the
// oracle evaluates each source event's epoch naively level by level with
// independent matchers, and the fused operator and the sharded engine at
// 1 and 4 shards must reproduce every match sequence bit-exactly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep/composite.h"
#include "cep/detection.h"
#include "cep/matcher.h"
#include "cep/multi_match_operator.h"
#include "cep/multi_matcher.h"
#include "common/logging.h"
#include "cep/nfa.h"
#include "cep/pattern.h"
#include "cep/sharded_engine.h"
#include "cep/simd.h"
#include "stream/event.h"
#include "stream/schema.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;

constexpr uint64_t kDefaultSeed = 0x5EED2026;
constexpr int kDefaultScenarios = 24;

const stream::Schema& FuzzSchema() {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"a", "b", "c"});
  return *schema;
}

const char* FieldName(int field) {
  static const char* kFields[] = {"a", "b", "c"};
  return kFields[field];
}

uint64_t EnvSeed() {
  const char* value = std::getenv("EPL_FUZZ_SEED");
  return value != nullptr ? std::strtoull(value, nullptr, 10) : kDefaultSeed;
}

int EnvScenarios() {
  const char* value = std::getenv("EPL_FUZZ_SCENARIOS");
  return value != nullptr ? std::atoi(value) : kDefaultScenarios;
}

int64_t EnvTimeBudgetMs() {
  const char* value = std::getenv("EPL_FUZZ_TIME_BUDGET_MS");
  return value != nullptr ? std::atoll(value) : 0;
}

double Uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

int UniformInt(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

ExprPtr RandomRange(std::mt19937_64& rng) {
  return Expr::RangePredicate(FieldName(UniformInt(rng, 0, 2)),
                              Uniform(rng, -40.0, 40.0),
                              Uniform(rng, 0.5, 25.0));
}

/// Range predicates dominate (the learned-query shape the interval index
/// serves); conjunctions exercise multi-field intersection and the
/// remaining shapes are deliberately non-decomposable so the fallback
/// (lazy ExprProgram) path stays under test.
ExprPtr RandomPredicate(std::mt19937_64& rng) {
  const int roll = UniformInt(rng, 0, 99);
  if (roll < 50) {
    return RandomRange(rng);
  }
  if (roll < 70) {
    const int f1 = UniformInt(rng, 0, 2);
    const int f2 = (f1 + UniformInt(rng, 1, 2)) % 3;
    std::vector<ExprPtr> terms;
    terms.push_back(Expr::RangePredicate(FieldName(f1),
                                         Uniform(rng, -40.0, 40.0),
                                         Uniform(rng, 2.0, 30.0)));
    terms.push_back(Expr::RangePredicate(FieldName(f2),
                                         Uniform(rng, -40.0, 40.0),
                                         Uniform(rng, 2.0, 30.0)));
    return Expr::And(std::move(terms));
  }
  if (roll < 80) {
    // abs(field - c) > w: a disjunction of half-lines, not an interval.
    return Expr::Binary(
        BinaryOp::kGt,
        Expr::Abs(Expr::Binary(BinaryOp::kSub,
                               Expr::Field(FieldName(UniformInt(rng, 0, 2))),
                               Expr::Constant(Uniform(rng, -30.0, 30.0)))),
        Expr::Constant(Uniform(rng, 1.0, 25.0)));
  }
  if (roll < 90) {
    // Two-field linear form: ExtractLinear rejects it.
    const int f1 = UniformInt(rng, 0, 2);
    const int f2 = (f1 + UniformInt(rng, 1, 2)) % 3;
    return Expr::Binary(BinaryOp::kLt,
                        Expr::Binary(BinaryOp::kAdd,
                                     Expr::Field(FieldName(f1)),
                                     Expr::Field(FieldName(f2))),
                        Expr::Constant(Uniform(rng, -40.0, 40.0)));
  }
  return Expr::Binary(BinaryOp::kOr, RandomRange(rng), RandomRange(rng));
}

PatternExprPtr RandomPattern(std::mt19937_64& rng) {
  const int num_states = UniformInt(rng, 1, 4);
  std::vector<ExprPtr> predicates;
  predicates.reserve(static_cast<size_t>(num_states));
  for (int s = 0; s < num_states; ++s) {
    if (s > 0 && UniformInt(rng, 0, 3) == 0) {
      // Duplicate an earlier state's predicate: exercises the per-pattern
      // distinct-slot dedup and the bank's cross-pattern canonical keys.
      predicates.push_back(
          predicates[static_cast<size_t>(UniformInt(rng, 0, s - 1))]
              ->Clone());
    } else {
      predicates.push_back(RandomPredicate(rng));
    }
  }

  const ConsumePolicy consume =
      UniformInt(rng, 0, 9) < 7 ? ConsumePolicy::kAll : ConsumePolicy::kNone;
  std::optional<Duration> within;
  WithinMode mode = WithinMode::kGap;
  switch (UniformInt(rng, 0, 2)) {
    case 0:
      break;  // unconstrained
    case 1:
      within = DurationFromMillis(Uniform(rng, 40.0, 2000.0));
      mode = WithinMode::kGap;
      break;
    default:
      within = DurationFromMillis(Uniform(rng, 80.0, 4000.0));
      mode = WithinMode::kSpan;
      break;
  }

  std::vector<PatternExprPtr> poses;
  poses.reserve(predicates.size());
  for (ExprPtr& predicate : predicates) {
    poses.push_back(PatternExpr::Pose("fuzz", std::move(predicate)));
  }

  if (num_states >= 3 && UniformInt(rng, 0, 1) == 0) {
    // Nest a prefix sequence with its own gap bound, so constraints from
    // different nesting levels overlap on the same states.
    const int split = UniformInt(rng, 2, num_states - 1);
    std::vector<PatternExprPtr> inner;
    for (int s = 0; s < split; ++s) {
      inner.push_back(std::move(poses[static_cast<size_t>(s)]));
    }
    std::vector<PatternExprPtr> outer;
    outer.push_back(PatternExpr::Sequence(
        std::move(inner), DurationFromMillis(Uniform(rng, 40.0, 1500.0)),
        WithinMode::kGap));
    for (int s = split; s < num_states; ++s) {
      outer.push_back(std::move(poses[static_cast<size_t>(s)]));
    }
    return PatternExpr::Sequence(std::move(outer), within, mode,
                                 SelectPolicy::kFirst, consume);
  }
  return PatternExpr::Sequence(std::move(poses), within, mode,
                               SelectPolicy::kFirst, consume);
}

std::vector<Event> RandomEvents(std::mt19937_64& rng, int count) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(count));
  TimePoint now = 0;
  std::vector<double> values(3);
  for (double& v : values) {
    v = Uniform(rng, -45.0, 45.0);
  }
  for (int i = 0; i < count; ++i) {
    if (i > 0 && UniformInt(rng, 0, 19) != 0) {
      now += DurationFromMillis(Uniform(rng, 1.0, 120.0));
    }  // else: duplicate timestamp (non-decreasing is the only contract)
    Event event;
    event.timestamp = now;
    event.values.resize(3);
    for (size_t f = 0; f < 3; ++f) {
      values[f] += Uniform(rng, -8.0, 8.0);
      if (UniformInt(rng, 0, 39) == 0) {
        values[f] = Uniform(rng, -45.0, 45.0);  // occasional jump
      }
      event.values[f] = values[f];
      const int special = UniformInt(rng, 0, 99);
      if (special == 0) {
        event.values[f] = std::numeric_limits<double>::quiet_NaN();
      } else if (special == 1) {
        event.values[f] = UniformInt(rng, 0, 1) == 0
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
      }
    }
    events.push_back(std::move(event));
  }
  return events;
}

using MatchLists = std::vector<std::vector<PatternMatch>>;

bool SameMatches(const MatchLists& a, const MatchLists& b,
                 std::string* diff) {
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) {
      *diff = "pattern " + std::to_string(q) + ": " +
              std::to_string(a[q].size()) + " vs " +
              std::to_string(b[q].size()) + " matches";
      return false;
    }
    for (size_t m = 0; m < a[q].size(); ++m) {
      if (a[q][m].state_times != b[q][m].state_times) {
        *diff = "pattern " + std::to_string(q) + " match " +
                std::to_string(m) + " state_times diverge";
        return false;
      }
    }
  }
  return true;
}

/// Runs one seeded scenario in one matcher mode; returns the total match
/// count (so the suite can assert it is not vacuously passing).
size_t RunScenario(uint64_t scenario_seed, MatcherOptions::Mode mode) {
  std::mt19937_64 rng(scenario_seed);
  const int num_patterns = UniformInt(rng, 1, 5);
  const int num_events =
      mode == MatcherOptions::Mode::kExhaustive ? 160 : 400;

  std::vector<PatternExprPtr> exprs;
  std::vector<CompiledPattern> patterns;
  for (int q = 0; q < num_patterns; ++q) {
    exprs.push_back(RandomPattern(rng));
    Result<CompiledPattern> compiled =
        CompiledPattern::Compile(*exprs.back(), FuzzSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    patterns.push_back(std::move(compiled).value());
  }
  // Gated twins: every pattern is ALSO registered a second time with a
  // random gate predicate. The runtime gets the original (unconjoined)
  // pattern plus the gate -- it must enforce the gate as an extra conjunct
  // on every state -- while the oracle runs an explicitly conjoined clone
  // (Rescope), so any gate enforcement or group-skip bug diverges here.
  // Non-decomposable gates keep the fallback gate-read path under test.
  std::vector<ExprPtr> gate_exprs;
  std::vector<CompiledPattern> gates;
  for (int q = 0; q < num_patterns; ++q) {
    ExprPtr gate =
        UniformInt(rng, 0, 3) == 0
            ? Expr::Binary(BinaryOp::kOr, RandomRange(rng), RandomRange(rng))
            : RandomRange(rng);
    PatternExprPtr pose = PatternExpr::Pose("fuzz", gate->Clone());
    Result<CompiledPattern> compiled_gate =
        CompiledPattern::Compile(*pose, FuzzSchema());
    EPL_CHECK(compiled_gate.ok()) << compiled_gate.status();
    gates.push_back(std::move(compiled_gate).value());
    // The oracle's conjoined clone of the twin at index num_patterns + q.
    exprs.push_back(exprs[static_cast<size_t>(q)]->Rescope("", gate.get()));
    Result<CompiledPattern> compiled =
        CompiledPattern::Compile(*exprs.back(), FuzzSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    patterns.push_back(std::move(compiled).value());
    gate_exprs.push_back(std::move(gate));
  }
  const int total_patterns = 2 * num_patterns;
  // What the runtime registers for index q: originals run ungated; the
  // twin of pattern q reuses the ORIGINAL compiled pattern (shared pose
  // predicates, the production shape) plus gates[q].
  auto runtime_pattern = [&](int index) -> const CompiledPattern* {
    return index >= num_patterns
               ? &patterns[static_cast<size_t>(index - num_patterns)]
               : &patterns[static_cast<size_t>(index)];
  };
  auto gate_of = [&](int index) -> const CompiledPattern* {
    return index >= num_patterns ? &gates[static_cast<size_t>(
                                       index - num_patterns)]
                                 : nullptr;
  };
  const std::vector<Event> events = RandomEvents(rng, num_events);

  MatcherOptions options;
  options.mode = mode;
  // A small run cap makes exhaustive overflow (oldest-run drop) part of
  // the differential surface instead of a rare untested branch.
  options.max_runs = 256;

  // 1. Oracle: independent per-query matchers (gated twins included; the
  // oracle never sees gates, only the conjoined predicates).
  MatchLists oracle(static_cast<size_t>(total_patterns));
  for (int q = 0; q < total_patterns; ++q) {
    NfaMatcher matcher(&patterns[static_cast<size_t>(q)], options);
    for (const Event& event : events) {
      matcher.Process(event, &oracle[static_cast<size_t>(q)]);
    }
  }

  // 2. Flat, every event its own one-event window (the runtime's
  // batch_size = 1 path: fold-kernel evaluation, gates read from row 0).
  MatchLists flat(static_cast<size_t>(total_patterns));
  {
    MultiPatternMatcher multi(options);
    for (int q = 0; q < total_patterns; ++q) {
      multi.AddPattern(runtime_pattern(q), gate_of(q));
    }
    std::vector<MultiPatternMatcher::MultiMatch> scratch;
    for (const Event& event : events) {
      scratch.clear();
      multi.ProcessBatch(&event, 1, &scratch);
      for (MultiPatternMatcher::MultiMatch& match : scratch) {
        EPL_CHECK(match.batch_index == 0) << "one-event window tag";
        flat[static_cast<size_t>(match.pattern_index)].push_back(
            std::move(match.match));
      }
    }
  }

  // 3. Flat, random batch chunking (including single-event chunks).
  MatchLists batched(static_cast<size_t>(total_patterns));
  {
    MultiPatternMatcher multi(options);
    for (int q = 0; q < total_patterns; ++q) {
      multi.AddPattern(runtime_pattern(q), gate_of(q));
    }
    std::vector<MultiPatternMatcher::MultiMatch> scratch;
    size_t pos = 0;
    while (pos < events.size()) {
      const size_t chunk = std::min<size_t>(
          static_cast<size_t>(UniformInt(rng, 1, 17)), events.size() - pos);
      scratch.clear();
      multi.ProcessBatch(events.data() + pos, chunk, &scratch);
      int last_index = 0;
      for (MultiPatternMatcher::MultiMatch& match : scratch) {
        // Tags must be valid and per-event ordered.
        EPL_CHECK(match.batch_index >= last_index &&
                  match.batch_index < static_cast<int>(chunk))
            << "batch_index out of order";
        last_index = match.batch_index;
        batched[static_cast<size_t>(match.pattern_index)].push_back(
            std::move(match.match));
      }
      pos += chunk;
    }
  }

  std::string diff;
  EXPECT_TRUE(SameMatches(oracle, flat, &diff))
      << "flat B=1 windows diverged from the NfaMatcher oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(oracle, batched, &diff))
      << "flat-batched diverged from the NfaMatcher oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";

  size_t total = 0;
  for (const std::vector<PatternMatch>& matches : oracle) {
    total += matches.size();
  }
  return total;
}

TEST(DifferentialFuzzTest, BatchedFlatAndOracleAgree) {
  const uint64_t base_seed = EnvSeed();
  const int64_t budget_ms = EnvTimeBudgetMs();
  const int scenarios = EnvScenarios();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  size_t total_matches = 0;
  int ran = 0;
  // Fixed scenario count by default (deterministic ctest); when a time
  // budget is set, keep drawing fresh scenarios until it is spent.
  for (int i = 0; budget_ms > 0 ? elapsed_ms() < budget_ms : i < scenarios;
       ++i) {
    const uint64_t scenario_seed = base_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("scenario seed " + std::to_string(scenario_seed));
    total_matches +=
        RunScenario(scenario_seed, MatcherOptions::Mode::kDominant);
    total_matches +=
        RunScenario(scenario_seed, MatcherOptions::Mode::kExhaustive);
    ++ran;
    if (::testing::Test::HasFailure()) {
      break;  // the first failing seed is the actionable one
    }
  }
  // The suite must exercise real matches, not vacuous empty streams.
  EXPECT_GT(total_matches, 0u) << "fuzz produced no matches in " << ran
                               << " scenarios (seed " << base_seed << ")";
}

/// Mid-stream churn differential: every query gets a random live window
/// [add_at, remove_at) of the stream, applied via runtime
/// AddQuery/RemoveQuery on (a) a fused MultiMatchOperator with random
/// batch accumulation and (b) a ShardedEngine with random shard count and
/// fan-out batch. The oracle for each query is a fresh NfaMatcher over
/// exactly its window slice -- the boundary-exactness contract of runtime
/// query exchange. Returns the oracle's total match count.
size_t RunChurnScenario(uint64_t scenario_seed, MatcherOptions::Mode mode) {
  std::mt19937_64 rng(scenario_seed ^ 0x9E3779B97F4A7C15ull);
  const int num_queries = UniformInt(rng, 2, 5);
  const int num_events =
      mode == MatcherOptions::Mode::kExhaustive ? 140 : 320;

  std::vector<PatternExprPtr> exprs;
  std::vector<int> add_at(static_cast<size_t>(num_queries));
  std::vector<int> remove_at(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    exprs.push_back(RandomPattern(rng));
    add_at[static_cast<size_t>(q)] =
        UniformInt(rng, 0, 1) == 0 ? 0 : UniformInt(rng, 0, num_events - 1);
    remove_at[static_cast<size_t>(q)] =
        UniformInt(rng, 0, 1) == 0
            ? num_events
            : UniformInt(rng, add_at[static_cast<size_t>(q)], num_events);
  }
  const std::vector<Event> events = RandomEvents(rng, num_events);

  MatcherOptions options;
  options.mode = mode;
  options.max_runs = 256;

  auto compile = [&](int q) {
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *exprs[static_cast<size_t>(q)], FuzzSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    return std::move(compiled).value();
  };

  // Oracle: a fresh matcher fed exactly the query's window slice.
  MatchLists oracle(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    CompiledPattern pattern = compile(q);
    NfaMatcher matcher(&pattern, options);
    for (int i = add_at[static_cast<size_t>(q)];
         i < remove_at[static_cast<size_t>(q)]; ++i) {
      matcher.Process(events[static_cast<size_t>(i)],
                      &oracle[static_cast<size_t>(q)]);
    }
  }

  auto record_into = [](MatchLists* lists, int q) {
    return [lists, q](const Detection& detection) {
      PatternMatch match;
      match.state_times = detection.pose_times;
      (*lists)[static_cast<size_t>(q)].push_back(std::move(match));
    };
  };

  // Leg A: one fused operator, random batch accumulation, add/remove at
  // exact event boundaries.
  MatchLists fused(static_cast<size_t>(num_queries));
  {
    MultiMatchOperator op(options,
                          static_cast<size_t>(UniformInt(rng, 1, 9)));
    std::vector<int> ids(static_cast<size_t>(num_queries), -1);
    for (int i = 0; i <= num_events; ++i) {
      for (int q = 0; q < num_queries; ++q) {
        if (add_at[static_cast<size_t>(q)] == i && i < num_events) {
          MultiMatchOperator::QuerySpec spec;
          spec.output_name = "q" + std::to_string(q);
          spec.pattern = compile(q);
          spec.callback = record_into(&fused, q);
          ids[static_cast<size_t>(q)] = op.AddQuery(std::move(spec));
        }
      }
      for (int q = 0; q < num_queries; ++q) {
        if (remove_at[static_cast<size_t>(q)] == i &&
            ids[static_cast<size_t>(q)] >= 0 && i < num_events) {
          EPL_CHECK(op.RemoveQuery(ids[static_cast<size_t>(q)]).ok());
        }
      }
      if (i < num_events) {
        EPL_CHECK(op.Process(events[static_cast<size_t>(i)]).ok());
      }
    }
    EPL_CHECK(op.Close().ok());  // flush the accumulated tail
  }

  // Leg B: a sharded engine, random shard count and fan-out batch; the
  // control operations quiesce at exact event boundaries.
  MatchLists sharded(static_cast<size_t>(num_queries));
  {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = UniformInt(rng, 1, 3);
    sharded_options.batch_size = static_cast<size_t>(UniformInt(rng, 1, 8));
    sharded_options.matcher = options;
    ShardedEngine engine(sharded_options);
    EPL_CHECK(engine.Start().ok());
    std::vector<int> ids(static_cast<size_t>(num_queries), -1);
    for (int i = 0; i <= num_events; ++i) {
      for (int q = 0; q < num_queries; ++q) {
        if (add_at[static_cast<size_t>(q)] == i && i < num_events) {
          MultiMatchOperator::QuerySpec spec;
          spec.output_name = "q" + std::to_string(q);
          spec.pattern = compile(q);
          spec.callback = record_into(&sharded, q);
          ids[static_cast<size_t>(q)] = engine.AddQuery(std::move(spec));
        }
      }
      for (int q = 0; q < num_queries; ++q) {
        if (remove_at[static_cast<size_t>(q)] == i &&
            ids[static_cast<size_t>(q)] >= 0 && i < num_events) {
          EPL_CHECK(engine.RemoveQuery(ids[static_cast<size_t>(q)]).ok());
        }
      }
      if (i < num_events) {
        EPL_CHECK(engine.Push(events[static_cast<size_t>(i)]));
      }
    }
    EPL_CHECK(engine.Stop().ok());
  }

  std::string diff;
  EXPECT_TRUE(SameMatches(oracle, fused, &diff))
      << "fused churn diverged from the per-window oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(oracle, sharded, &diff))
      << "sharded churn diverged from the per-window oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";

  size_t total = 0;
  for (const std::vector<PatternMatch>& matches : oracle) {
    total += matches.size();
  }
  return total;
}

/// Feedback-topology differential: random base patterns plus a random
/// 2-3-level composite DAG over their detections (see cep/composite.h).
/// The oracle is a NAIVE TWO-PASS PER-LEVEL evaluation with independent
/// per-query NfaMatchers and hand-fed derived events; the fused operator
/// (random batch accumulation) and the sharded engine at 1 and 4 shards
/// must agree with it bit-exactly on every query's match sequence --
/// base and composite alike. Returns the oracle's total match count.
size_t RunFeedbackScenario(uint64_t scenario_seed, MatcherOptions::Mode mode) {
  std::mt19937_64 rng(scenario_seed ^ 0xC0FFEE12345678ull);
  const int num_base = UniformInt(rng, 2, 4);
  const int num_events =
      mode == MatcherOptions::Mode::kExhaustive ? 120 : 280;

  std::vector<PatternExprPtr> base_exprs;
  std::vector<double> base_tags;
  for (int q = 0; q < num_base; ++q) {
    base_exprs.push_back(RandomPattern(rng));
    base_tags.push_back(GestureTag("base_" + std::to_string(q)));
  }

  // Composite DAG: 1-2 level-1 queries over base tags, and sometimes one
  // level-2 query over any lower tag (level-2 patterns legitimately see
  // base AND level-1 derived events inside one epoch).
  auto random_composite = [&](const std::vector<double>& input_tags) {
    const int num_states = UniformInt(rng, 1, 2);
    std::vector<PatternExprPtr> poses;
    for (int s = 0; s < num_states; ++s) {
      const double tag = input_tags[static_cast<size_t>(UniformInt(
          rng, 0, static_cast<int>(input_tags.size()) - 1))];
      poses.push_back(PatternExpr::Pose(
          kDetectionStreamName,
          Expr::RangePredicate(kDetectionGestureField, tag, 0.5)));
    }
    const ConsumePolicy consume = UniformInt(rng, 0, 3) < 3
                                      ? ConsumePolicy::kAll
                                      : ConsumePolicy::kNone;
    std::optional<Duration> within;
    if (num_states > 1 && UniformInt(rng, 0, 1) == 0) {
      within = DurationFromMillis(Uniform(rng, 200.0, 5000.0));
    }
    return PatternExpr::Sequence(std::move(poses), within, WithinMode::kSpan,
                                 SelectPolicy::kFirst, consume);
  };

  const int num_l1 = UniformInt(rng, 1, 2);
  const int num_l2 = UniformInt(rng, 0, 1);
  struct CompositeSpec {
    int level = 1;
    double tag = 0;
    PatternExprPtr expr;
  };
  std::vector<CompositeSpec> composites;
  std::vector<double> l1_tags;
  for (int q = 0; q < num_l1; ++q) {
    CompositeSpec spec;
    spec.level = 1;
    spec.tag = GestureTag("l1_" + std::to_string(q));
    spec.expr = random_composite(base_tags);
    l1_tags.push_back(spec.tag);
    composites.push_back(std::move(spec));
  }
  std::vector<double> lower_tags = base_tags;
  lower_tags.insert(lower_tags.end(), l1_tags.begin(), l1_tags.end());
  for (int q = 0; q < num_l2; ++q) {
    CompositeSpec spec;
    spec.level = 2;
    spec.tag = GestureTag("l2_" + std::to_string(q));
    spec.expr = random_composite(lower_tags);
    composites.push_back(std::move(spec));
  }
  const int total_queries = num_base + static_cast<int>(composites.size());
  const std::vector<Event> events = RandomEvents(rng, num_events);

  MatcherOptions options;
  options.mode = mode;
  options.max_runs = 256;

  auto compile_base = [&](int q) {
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *base_exprs[static_cast<size_t>(q)], FuzzSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    return std::move(compiled).value();
  };
  auto compile_composite = [&](int c) {
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *composites[static_cast<size_t>(c)].expr, DetectionSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    return std::move(compiled).value();
  };

  // 1. Oracle: per-event epochs, evaluated naively level by level with
  // independent matchers. Base detections of one event become derived
  // events; each composite level consumes every derived event visible
  // when the level starts and spills its own detections to the next.
  MatchLists oracle(static_cast<size_t>(total_queries));
  {
    std::vector<CompiledPattern> base_patterns;
    std::vector<CompiledPattern> comp_patterns;
    for (int q = 0; q < num_base; ++q) {
      base_patterns.push_back(compile_base(q));
    }
    for (size_t c = 0; c < composites.size(); ++c) {
      comp_patterns.push_back(compile_composite(static_cast<int>(c)));
    }
    std::vector<std::unique_ptr<NfaMatcher>> base_matchers, comp_matchers;
    for (int q = 0; q < num_base; ++q) {
      base_matchers.push_back(std::make_unique<NfaMatcher>(
          &base_patterns[static_cast<size_t>(q)], options));
    }
    for (size_t c = 0; c < composites.size(); ++c) {
      comp_matchers.push_back(
          std::make_unique<NfaMatcher>(&comp_patterns[c], options));
    }
    auto derived = [](double tag, TimePoint time, const PatternMatch& match) {
      Detection detection;
      detection.time = time;
      detection.pose_times = match.state_times;
      return MakeDerivedEvent(tag, 0.0, detection);
    };
    std::vector<Event> epoch;
    std::vector<Event> spill;
    std::vector<PatternMatch> tmp;
    for (const Event& event : events) {
      epoch.clear();
      for (int q = 0; q < num_base; ++q) {
        tmp.clear();
        base_matchers[static_cast<size_t>(q)]->Process(event, &tmp);
        for (PatternMatch& match : tmp) {
          epoch.push_back(derived(base_tags[static_cast<size_t>(q)],
                                  event.timestamp, match));
          oracle[static_cast<size_t>(q)].push_back(std::move(match));
        }
      }
      if (epoch.empty()) {
        continue;  // the runner skips empty epochs; exact, see composite.h
      }
      for (int level = 1; level <= 2; ++level) {
        const size_t visible = epoch.size();
        spill.clear();
        for (size_t i = 0; i < visible; ++i) {
          for (size_t c = 0; c < composites.size(); ++c) {
            if (composites[c].level != level) {
              continue;
            }
            tmp.clear();
            comp_matchers[c]->Process(epoch[i], &tmp);
            for (PatternMatch& match : tmp) {
              spill.push_back(
                  derived(composites[c].tag, epoch[i].timestamp, match));
              oracle[static_cast<size_t>(num_base) + c].push_back(
                  std::move(match));
            }
          }
        }
        epoch.insert(epoch.end(), std::make_move_iterator(spill.begin()),
                     std::make_move_iterator(spill.end()));
      }
    }
  }

  auto record_into = [](MatchLists* lists, int q) {
    return [lists, q](const Detection& detection) {
      PatternMatch match;
      match.state_times = detection.pose_times;
      (*lists)[static_cast<size_t>(q)].push_back(std::move(match));
    };
  };
  auto add_queries = [&](auto&& add_base, auto&& add_composite) {
    for (int q = 0; q < num_base; ++q) {
      MultiMatchOperator::QuerySpec spec;
      spec.output_name = "b" + std::to_string(q);
      spec.pattern = compile_base(q);
      spec.tag = base_tags[static_cast<size_t>(q)];
      add_base(std::move(spec), q);
    }
    for (size_t c = 0; c < composites.size(); ++c) {
      MultiMatchOperator::QuerySpec spec;
      spec.output_name = "c" + std::to_string(c);
      spec.pattern = compile_composite(static_cast<int>(c));
      spec.level = composites[c].level;
      spec.tag = composites[c].tag;
      add_composite(std::move(spec), num_base + static_cast<int>(c));
    }
  };

  // 2. Fused operator with random batch accumulation.
  MatchLists fused(static_cast<size_t>(total_queries));
  {
    MultiMatchOperator op(options,
                          static_cast<size_t>(UniformInt(rng, 1, 8)));
    auto add = [&](MultiMatchOperator::QuerySpec spec, int q) {
      spec.callback = record_into(&fused, q);
      op.AddQuery(std::move(spec));
    };
    add_queries(add, add);
    for (const Event& event : events) {
      EPL_CHECK(op.Process(event).ok());
    }
    EPL_CHECK(op.Close().ok());
  }

  // 3/4. Sharded engine at 1 and 4 shards: base inputs span shards, the
  // composite runner is driven from the ordered delivery merge.
  auto run_sharded = [&](int num_shards) {
    MatchLists lists(static_cast<size_t>(total_queries));
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = num_shards;
    sharded_options.batch_size = static_cast<size_t>(UniformInt(rng, 1, 8));
    sharded_options.matcher = options;
    ShardedEngine engine(sharded_options);
    EPL_CHECK(engine.Start().ok());
    auto add = [&](MultiMatchOperator::QuerySpec spec, int q) {
      spec.callback = record_into(&lists, q);
      engine.AddQuery(std::move(spec));
    };
    add_queries(add, add);
    for (const Event& event : events) {
      EPL_CHECK(engine.Push(event));
    }
    EPL_CHECK(engine.Stop().ok());
    return lists;
  };
  const MatchLists sharded1 = run_sharded(1);
  const MatchLists sharded4 = run_sharded(4);

  std::string diff;
  EXPECT_TRUE(SameMatches(oracle, fused, &diff))
      << "fused feedback diverged from the two-pass oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(oracle, sharded1, &diff))
      << "sharded(1) feedback diverged from the two-pass oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(oracle, sharded4, &diff))
      << "sharded(4) feedback diverged from the two-pass oracle (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";

  size_t total = 0;
  for (const std::vector<PatternMatch>& matches : oracle) {
    total += matches.size();
  }
  return total;
}

TEST(DifferentialFuzzTest, FeedbackTopologyAgreesWithTwoPassOracle) {
  const uint64_t base_seed = EnvSeed();
  const int64_t budget_ms = EnvTimeBudgetMs();
  const int scenarios = EnvScenarios();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  size_t total_matches = 0;
  size_t composite_matches = 0;
  int ran = 0;
  for (int i = 0; budget_ms > 0 ? elapsed_ms() < budget_ms : i < scenarios;
       ++i) {
    const uint64_t scenario_seed = base_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("scenario seed " + std::to_string(scenario_seed));
    total_matches +=
        RunFeedbackScenario(scenario_seed, MatcherOptions::Mode::kDominant);
    composite_matches +=
        RunFeedbackScenario(scenario_seed, MatcherOptions::Mode::kExhaustive);
    ++ran;
    if (::testing::Test::HasFailure()) {
      break;  // the first failing seed is the actionable one
    }
  }
  EXPECT_GT(total_matches + composite_matches, 0u)
      << "feedback fuzz produced no matches in " << ran << " scenarios (seed "
      << base_seed << ")";
}

// Dispatch differential: the same seeds run with the SIMD layer pinned to
// the scalar table and then pinned to AVX2 (when this machine has it).
// RunScenario already asserts flat and batched against the NfaMatcher
// oracle, and the oracle never touches the bank or its kernels -- so both
// dispatch modes agreeing with the one kernel-independent oracle proves
// the detection streams are bit-identical across dispatches.
TEST(DifferentialFuzzTest, ScalarAndAvx2DispatchAreBitIdentical) {
  const uint64_t base_seed = EnvSeed();
  const int scenarios = std::max(1, EnvScenarios() / 2);

  std::vector<simd::Dispatch> dispatches = {simd::Dispatch::kScalar};
  if (simd::Avx2Available()) {
    dispatches.push_back(simd::Dispatch::kAvx2);
  }
  size_t total_matches = 0;
  for (simd::Dispatch dispatch : dispatches) {
    simd::SetDispatchForTest(dispatch);
    for (int i = 0; i < scenarios; ++i) {
      const uint64_t scenario_seed = base_seed + static_cast<uint64_t>(i);
      SCOPED_TRACE("scenario seed " + std::to_string(scenario_seed) +
                   " dispatch " +
                   (dispatch == simd::Dispatch::kAvx2 ? "avx2" : "scalar"));
      total_matches +=
          RunScenario(scenario_seed, MatcherOptions::Mode::kDominant);
      if (::testing::Test::HasFailure()) {
        break;
      }
    }
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  simd::SetDispatchForTest(std::nullopt);
  EXPECT_GT(total_matches, 0u)
      << "dispatch fuzz produced no matches (seed " << base_seed << ")";
}

/// Interest-routing differential: a random multi-session workload --
/// session-gated base queries (plus sometimes an unscoped one, which
/// keeps its shard wildcard-interested), a 2-level composite ladder,
/// query churn, and a mid-stream Resize. The reference leg is the fused
/// operator (itself validated against oracles by the other scenarios);
/// the broadcast sharded engine and the interest-routed engine at 1 and
/// 4 shards must agree with it bit-identically. A final mutation leg
/// flips one true interest bit and must visibly lose that session's
/// matches, proving the equality checks have teeth. Returns the fused
/// leg's total match count.
size_t RunRoutedScenario(uint64_t scenario_seed, MatcherOptions::Mode mode) {
  std::mt19937_64 rng(scenario_seed ^ 0xF407B17E50C1A1ull);
  static const stream::Schema* routed_schema = new stream::Schema(
      std::vector<std::string>{"a", "b", "c", "session"});
  constexpr int kSessionField = 3;
  const int num_sessions = UniformInt(rng, 2, 4);
  const int num_events =
      mode == MatcherOptions::Mode::kExhaustive ? 140 : 320;

  struct BaseQuery {
    PatternExprPtr expr;
    int session = -1;  // -1: unscoped (wildcard interest)
    double tag = 0;
    int add_at = 0;
    int remove_at = 0;
  };
  std::vector<BaseQuery> bases;
  for (int k = 0; k < num_sessions; ++k) {
    const int per_session = UniformInt(rng, 1, 2);
    for (int q = 0; q < per_session; ++q) {
      BaseQuery base;
      base.expr = RandomPattern(rng);
      base.session = k;
      bases.push_back(std::move(base));
    }
  }
  if (UniformInt(rng, 0, 1) == 0) {
    BaseQuery base;
    base.expr = RandomPattern(rng);
    bases.push_back(std::move(base));  // unscoped: events reach its shard
  }
  const int num_base = static_cast<int>(bases.size());
  std::vector<double> base_tags;
  for (int q = 0; q < num_base; ++q) {
    bases[static_cast<size_t>(q)].tag = GestureTag("rb_" + std::to_string(q));
    base_tags.push_back(bases[static_cast<size_t>(q)].tag);
    // Churn window: half the queries live the whole stream, the rest get
    // random [add_at, remove_at) -- every add/remove rebuilds the
    // interest index mid-stream.
    bases[static_cast<size_t>(q)].add_at =
        UniformInt(rng, 0, 1) == 0 ? 0 : UniformInt(rng, 0, num_events - 1);
    bases[static_cast<size_t>(q)].remove_at =
        UniformInt(rng, 0, 1) == 0
            ? num_events
            : UniformInt(rng, bases[static_cast<size_t>(q)].add_at,
                         num_events);
  }

  // 2-level composite ladder over the base tags, live the whole stream:
  // detections re-enter as derived events regardless of which shard (or
  // sub-batch) produced them.
  struct CompositeSpec {
    int level = 1;
    double tag = 0;
    PatternExprPtr expr;
  };
  auto random_composite = [&](const std::vector<double>& input_tags) {
    const int num_states = UniformInt(rng, 1, 2);
    std::vector<PatternExprPtr> poses;
    for (int s = 0; s < num_states; ++s) {
      const double tag = input_tags[static_cast<size_t>(UniformInt(
          rng, 0, static_cast<int>(input_tags.size()) - 1))];
      poses.push_back(PatternExpr::Pose(
          kDetectionStreamName,
          Expr::RangePredicate(kDetectionGestureField, tag, 0.5)));
    }
    return PatternExpr::Sequence(std::move(poses), std::nullopt,
                                 WithinMode::kSpan);
  };
  std::vector<CompositeSpec> composites;
  {
    CompositeSpec l1;
    l1.level = 1;
    l1.tag = GestureTag("rl1");
    l1.expr = random_composite(base_tags);
    composites.push_back(std::move(l1));
    if (UniformInt(rng, 0, 1) == 0) {
      std::vector<double> lower = base_tags;
      lower.push_back(GestureTag("rl1"));
      CompositeSpec l2;
      l2.level = 2;
      l2.tag = GestureTag("rl2");
      l2.expr = random_composite(lower);
      composites.push_back(std::move(l2));
    }
  }
  const int total_queries = num_base + static_cast<int>(composites.size());

  // Events: the fuzz stream plus a trailing session id. Mostly ids with
  // resident queries; occasionally an orphan session nobody hosts (the
  // interest-miss path) and, for session 0, a -0.0 spelling (RoutingKey
  // canonicalizes signed zero).
  std::vector<Event> events = RandomEvents(rng, num_events);
  for (Event& event : events) {
    double session;
    if (UniformInt(rng, 0, 49) == 0) {
      session = static_cast<double>(num_sessions);  // orphan
    } else {
      session = static_cast<double>(UniformInt(rng, 0, num_sessions - 1));
      if (session == 0.0 && UniformInt(rng, 0, 19) == 0) {
        session = -0.0;
      }
    }
    event.values.push_back(session);
  }

  // Mid-stream resizes, applied at the same event boundaries in every
  // sharded leg.
  const int resize1_at = UniformInt(rng, 1, num_events - 1);
  const int resize1_to = UniformInt(rng, 1, 4);
  const int resize2_at = UniformInt(rng, resize1_at, num_events);
  const int resize2_to = UniformInt(rng, 1, 4);

  MatcherOptions options;
  options.mode = mode;
  options.max_runs = 256;

  std::vector<std::shared_ptr<const CompiledPattern>> gates;
  for (int k = 0; k < num_sessions; ++k) {
    Result<CompiledPattern> gate = CompiledPattern::Compile(
        *PatternExpr::Pose("fuzz",
                           Expr::RangePredicate(
                               "session", static_cast<double>(k), 0.5)),
        *routed_schema);
    EPL_CHECK(gate.ok()) << gate.status();
    gates.push_back(
        std::make_shared<const CompiledPattern>(std::move(gate).value()));
  }
  auto build_spec = [&](int q) {
    MultiMatchOperator::QuerySpec spec;
    if (q < num_base) {
      const BaseQuery& base = bases[static_cast<size_t>(q)];
      spec.output_name = "rb" + std::to_string(q);
      Result<CompiledPattern> compiled =
          CompiledPattern::Compile(*base.expr, *routed_schema);
      EPL_CHECK(compiled.ok()) << compiled.status();
      spec.pattern = std::move(compiled).value();
      spec.tag = base.tag;
      if (base.session >= 0) {
        spec.gate = gates[static_cast<size_t>(base.session)];
        spec.session_tag = static_cast<double>(base.session);
        spec.session_scoped = true;
      }
    } else {
      const CompositeSpec& composite =
          composites[static_cast<size_t>(q - num_base)];
      spec.output_name = "rc" + std::to_string(q - num_base);
      Result<CompiledPattern> compiled =
          CompiledPattern::Compile(*composite.expr, DetectionSchema());
      EPL_CHECK(compiled.ok()) << compiled.status();
      spec.pattern = std::move(compiled).value();
      spec.level = composite.level;
      spec.tag = composite.tag;
    }
    return spec;
  };
  auto add_at = [&](int q) {
    return q < num_base ? bases[static_cast<size_t>(q)].add_at : 0;
  };
  auto remove_at = [&](int q) {
    return q < num_base ? bases[static_cast<size_t>(q)].remove_at
                        : num_events;
  };
  auto record_into = [](MatchLists* lists, int q) {
    return [lists, q](const Detection& detection) {
      PatternMatch match;
      match.state_times = detection.pose_times;
      (*lists)[static_cast<size_t>(q)].push_back(std::move(match));
    };
  };

  // Per-leg batch sizes drawn up front so leg internals cannot skew the
  // shared rng sequence.
  const size_t fused_batch = static_cast<size_t>(UniformInt(rng, 1, 8));
  const size_t broadcast_batch = static_cast<size_t>(UniformInt(rng, 1, 8));
  const int broadcast_shards = UniformInt(rng, 1, 4);
  const size_t routed_batch = static_cast<size_t>(UniformInt(rng, 1, 8));
  const size_t mutation_batch = static_cast<size_t>(UniformInt(rng, 1, 8));

  // Reference leg: the fused operator with the same churn schedule
  // (resizes are sharded-only and must be transparent).
  MatchLists fused(static_cast<size_t>(total_queries));
  {
    MultiMatchOperator op(options, fused_batch);
    std::vector<int> ids(static_cast<size_t>(total_queries), -1);
    for (int i = 0; i <= num_events; ++i) {
      for (int q = 0; q < total_queries; ++q) {
        if (add_at(q) == i && i < num_events) {
          MultiMatchOperator::QuerySpec spec = build_spec(q);
          spec.callback = record_into(&fused, q);
          ids[static_cast<size_t>(q)] = op.AddQuery(std::move(spec));
        }
      }
      for (int q = 0; q < total_queries; ++q) {
        if (remove_at(q) == i && ids[static_cast<size_t>(q)] >= 0 &&
            i < num_events) {
          EPL_CHECK(op.RemoveQuery(ids[static_cast<size_t>(q)]).ok());
        }
      }
      if (i < num_events) {
        EPL_CHECK(op.Process(events[static_cast<size_t>(i)]).ok());
      }
    }
    EPL_CHECK(op.Close().ok());
  }

  auto run_sharded = [&](int num_shards, bool routed, size_t batch) {
    MatchLists lists(static_cast<size_t>(total_queries));
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = num_shards;
    sharded_options.batch_size = batch;
    sharded_options.matcher = options;
    if (routed) {
      sharded_options.routing_field = kSessionField;
      sharded_options.placement = ShardPlacement::kSessionAffinity;
    }
    ShardedEngine engine(sharded_options);
    EPL_CHECK(engine.Start().ok());
    std::vector<int> ids(static_cast<size_t>(total_queries), -1);
    for (int i = 0; i <= num_events; ++i) {
      if (i == resize1_at) {
        EPL_CHECK(engine.Resize(resize1_to).ok());
      }
      if (i == resize2_at && i < num_events) {
        EPL_CHECK(engine.Resize(resize2_to).ok());
      }
      for (int q = 0; q < total_queries; ++q) {
        if (add_at(q) == i && i < num_events) {
          MultiMatchOperator::QuerySpec spec = build_spec(q);
          spec.callback = record_into(&lists, q);
          ids[static_cast<size_t>(q)] = engine.AddQuery(std::move(spec));
        }
      }
      for (int q = 0; q < total_queries; ++q) {
        if (remove_at(q) == i && ids[static_cast<size_t>(q)] >= 0 &&
            i < num_events) {
          EPL_CHECK(engine.RemoveQuery(ids[static_cast<size_t>(q)]).ok());
        }
      }
      if (i < num_events) {
        EPL_CHECK(engine.Push(events[static_cast<size_t>(i)]));
      }
    }
    EPL_CHECK(engine.Stop().ok());
    return lists;
  };
  const MatchLists broadcast =
      run_sharded(broadcast_shards, false, broadcast_batch);
  const MatchLists routed1 = run_sharded(1, true, routed_batch);
  const MatchLists routed4 = run_sharded(4, true, routed_batch);

  std::string diff;
  EXPECT_TRUE(SameMatches(fused, broadcast, &diff))
      << "broadcast sharded diverged from fused (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(fused, routed1, &diff))
      << "routed sharded(1) diverged from fused (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";
  EXPECT_TRUE(SameMatches(fused, routed4, &diff))
      << "routed sharded(4) diverged from fused (" << diff
      << "); reproduce with EPL_FUZZ_SEED=" << scenario_seed
      << " EPL_FUZZ_SCENARIOS=1";

  // Mutation leg: scoped bases only (an unscoped co-resident would keep
  // its shard wildcard-interested and mask the flip), full windows, no
  // churn or resize (both rebuild the interest index and would undo the
  // flip). One wrong interest bit must erase the victim's matches.
  auto run_mutation = [&](int flip_victim) {
    MatchLists lists(static_cast<size_t>(num_base));
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = 4;
    sharded_options.batch_size = mutation_batch;
    sharded_options.matcher = options;
    sharded_options.routing_field = kSessionField;
    sharded_options.placement = ShardPlacement::kSessionAffinity;
    ShardedEngine engine(sharded_options);
    std::vector<int> ids(static_cast<size_t>(num_base), -1);
    for (int q = 0; q < num_base; ++q) {
      if (bases[static_cast<size_t>(q)].session < 0) {
        continue;
      }
      MultiMatchOperator::QuerySpec spec = build_spec(q);
      spec.level = 0;
      spec.callback = record_into(&lists, q);
      ids[static_cast<size_t>(q)] = engine.AddQuery(std::move(spec));
    }
    if (flip_victim >= 0) {
      engine.TestOnlyFlipInterestBit(
          static_cast<double>(bases[static_cast<size_t>(flip_victim)].session),
          engine.shard_of(ids[static_cast<size_t>(flip_victim)]));
    }
    EPL_CHECK(engine.Start().ok());
    for (const Event& event : events) {
      EPL_CHECK(engine.Push(event));
    }
    EPL_CHECK(engine.Stop().ok());
    return lists;
  };
  const MatchLists intact = run_mutation(-1);
  int victim = -1;
  for (int q = 0; q < num_base; ++q) {
    if (bases[static_cast<size_t>(q)].session >= 0 &&
        !intact[static_cast<size_t>(q)].empty()) {
      victim = q;
      break;
    }
  }
  if (victim >= 0) {
    const MatchLists mutated = run_mutation(victim);
    EXPECT_TRUE(mutated[static_cast<size_t>(victim)].empty())
        << "flipping the interest bit of session "
        << bases[static_cast<size_t>(victim)].session
        << " did not starve query " << victim
        << "; reproduce with EPL_FUZZ_SEED=" << scenario_seed
        << " EPL_FUZZ_SCENARIOS=1";
  }

  size_t total = 0;
  for (const std::vector<PatternMatch>& matches : fused) {
    total += matches.size();
  }
  return total;
}

TEST(DifferentialFuzzTest, RoutedShardingAgreesWithBroadcastAndFused) {
  const uint64_t base_seed = EnvSeed();
  const int64_t budget_ms = EnvTimeBudgetMs();
  const int scenarios = EnvScenarios();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  size_t total_matches = 0;
  int ran = 0;
  for (int i = 0; budget_ms > 0 ? elapsed_ms() < budget_ms : i < scenarios;
       ++i) {
    const uint64_t scenario_seed = base_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("scenario seed " + std::to_string(scenario_seed));
    total_matches +=
        RunRoutedScenario(scenario_seed, MatcherOptions::Mode::kDominant);
    total_matches +=
        RunRoutedScenario(scenario_seed, MatcherOptions::Mode::kExhaustive);
    ++ran;
    if (::testing::Test::HasFailure()) {
      break;  // the first failing seed is the actionable one
    }
  }
  EXPECT_GT(total_matches, 0u) << "routed fuzz produced no matches in " << ran
                               << " scenarios (seed " << base_seed << ")";
}

TEST(DifferentialFuzzTest, ChurnAndShardedAgreeWithOracle) {
  const uint64_t base_seed = EnvSeed();
  const int64_t budget_ms = EnvTimeBudgetMs();
  const int scenarios = EnvScenarios();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  size_t total_matches = 0;
  int ran = 0;
  for (int i = 0; budget_ms > 0 ? elapsed_ms() < budget_ms : i < scenarios;
       ++i) {
    const uint64_t scenario_seed = base_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("scenario seed " + std::to_string(scenario_seed));
    total_matches +=
        RunChurnScenario(scenario_seed, MatcherOptions::Mode::kDominant);
    total_matches +=
        RunChurnScenario(scenario_seed, MatcherOptions::Mode::kExhaustive);
    ++ran;
    if (::testing::Test::HasFailure()) {
      break;  // the first failing seed is the actionable one
    }
  }
  EXPECT_GT(total_matches, 0u) << "churn fuzz produced no matches in " << ran
                               << " scenarios (seed " << base_seed << ")";
}

}  // namespace
}  // namespace epl::cep
