// replay_fused / replay_sharded: 64 sessions x 16 learned gestures, raw
// frames through each session's kinect_t view, replayed in a closed loop
// at full speed from one producer thread. The two workloads differ only in
// the backend, so their difference isolates fan-out, queue hand-off and
// the watermark merge.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kinect/skeleton.h"
#include "layers.h"
#include "reference.h"
#include "stream/engine.h"
#include "trace.h"
#include "workflow/gesture_runtime.h"
#include "workloads.h"

namespace epl::e2e {

namespace {

using workflow::GestureRuntime;
using workflow::GestureRuntimeOptions;
using workflow::RuntimeBackend;
using workflow::SessionId;

constexpr int kSessions = 64;
/// Trainers per shape: 8 shapes x 2 = 16 learned gestures per session.
constexpr int kVariants = 2;
constexpr int kTrainingSamples = 4;
constexpr int kSetupRepeats = 5;
constexpr size_t kBatchSize = 32;
/// Shard workers: with the producer thread, one thread per core of a
/// 4-core runner.
constexpr int kShardWorkers = 3;
/// Every gesture is re-learned once per round, in a seeded order, each
/// time into a seeded session.
constexpr int kRelearnRounds = 2;
constexpr int kReferenceSessions = 8;
constexpr int kMinPasses = 3;
/// Quiet time between replay passes: longer than any learned pose gap,
/// so no partial match carries over from one pass into the next.
constexpr Duration kPassGap = 3 * kSecond;
constexpr size_t kSpanCapacity = 1 << 18;

struct Inputs {
  std::vector<int> gesture_shape;
  std::vector<std::string> gesture_name;
  /// Per gesture: the training recordings; per round and gesture: the
  /// fresh recording that round's re-learn adds.
  std::vector<std::vector<Frames>> training;
  std::vector<std::vector<Frames>> fresh;
  std::vector<SessionScript> scripts;
  /// Arrival order: (session index, frame index), by timestamp.
  std::vector<std::pair<int, int>> feed;
  Duration pass_period = 0;
  std::vector<int> reference_sessions;
  /// (session index, gesture, round) of each re-learn.
  std::vector<std::tuple<int, int, int>> relearns;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  const int shapes = static_cast<int>(Vocabulary().size());
  std::vector<kinect::UserProfile> trainers;
  for (int v = 0; v < kVariants; ++v) {
    trainers.push_back(RandomUser(&rng));
  }
  for (int shape = 0; shape < shapes; ++shape) {
    for (int v = 0; v < kVariants; ++v) {
      in.gesture_shape.push_back(shape);
      in.gesture_name.push_back(Vocabulary()[static_cast<size_t>(shape)].name +
                                (v == 0 ? ".a" : ".b"));
      in.training.push_back(Recordings(trainers[static_cast<size_t>(v)],
                                       shape, kTrainingSamples,
                                       rng.NextUint64()));
    }
  }
  const Duration stagger = kinect::kFramePeriod / kSessions;
  TimePoint end = 0;
  for (int s = 0; s < kSessions; ++s) {
    const kinect::UserProfile user = RandomUser(&rng);
    const std::vector<int> order = Permutation(shapes, &rng);
    in.scripts.push_back(BuildScript(user, rng.NextUint64(), order, 0.6, 1.0,
                                     s * stagger));
    end = std::max(end, in.scripts.back().frames.back().timestamp);
  }
  in.pass_period = end + kPassGap;
  in.feed = ArrivalOrder(in.scripts, end + 1);
  const std::vector<int> sessions = Permutation(kSessions, &rng);
  in.reference_sessions.assign(sessions.begin(),
                               sessions.begin() + kReferenceSessions);
  const int gestures = static_cast<int>(in.gesture_shape.size());
  for (int round = 0; round < kRelearnRounds; ++round) {
    in.fresh.emplace_back();
    for (int g = 0; g < gestures; ++g) {
      in.fresh.back().push_back(
          Recordings(trainers[static_cast<size_t>(g % kVariants)],
                     in.gesture_shape[static_cast<size_t>(g)], 1,
                     rng.NextUint64())[0]);
    }
    for (int g : Permutation(gestures, &rng)) {
      in.relearns.emplace_back(
          static_cast<int>(rng.UniformInt(0, kSessions - 1)), g, round);
    }
  }
  return in;
}

/// Everything the detection callbacks touch. Callbacks run on the producer
/// thread (inside PushFrame/Flush), for both backends.
struct State {
  const Inputs* in = nullptr;
  /// Per session: frame timestamps (pass 0), and frame -> feed position.
  std::vector<std::vector<TimePoint>> times;
  std::vector<std::vector<uint32_t>> feed_pos;
  /// Per feed position: when the current pass pushed it.
  std::vector<int64_t> push_ns;
  Duration offset = 0;
  bool first_pass = true;
  bool measure = true;
  Tracer* tracer = nullptr;
  /// Pass-0 detections per session, in delivery order.
  std::vector<std::vector<Det>> first;
  /// Latencies of the current pass, and each pass's p50 / p95 / p99.
  std::vector<double> latency_us;
  std::vector<double> pass_p50_us;
  std::vector<double> pass_p95_us;
  std::vector<double> pass_p99_us;
  uint64_t latency_samples = 0;
  /// Wall time of the current pass's first batch of PushFrames (the
  /// first matcher sweep, which rebuilds what a hot-swap invalidated).
  int64_t first_batch_ns = 0;
  uint64_t detections = 0;
  Isolation isolation;
  uint64_t idle_hits = 0;

  explicit State(const Inputs* inputs) : in(inputs) {
    times.resize(kSessions);
    feed_pos.resize(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      for (const kinect::SkeletonFrame& frame :
           in->scripts[static_cast<size_t>(s)].frames) {
        times[static_cast<size_t>(s)].push_back(frame.timestamp);
      }
      feed_pos[static_cast<size_t>(s)].resize(
          times[static_cast<size_t>(s)].size());
    }
    for (size_t i = 0; i < in->feed.size(); ++i) {
      feed_pos[static_cast<size_t>(in->feed[i].first)]
              [static_cast<size_t>(in->feed[i].second)] =
                  static_cast<uint32_t>(i);
    }
    push_ns.assign(in->feed.size(), 0);
    first.resize(kSessions);
  }

  void OnDetection(int s, int g, const cep::Detection& detection) {
    const int64_t now = NowNs();
    ScopedSpan span(tracer, "workflow.detection_callback");
    ++detections;
    const auto session = static_cast<size_t>(s);
    const TimePoint t = detection.time - offset;
    const int64_t frame =
        isolation.Admit(times[session], t, detection.name,
                        in->gesture_name[static_cast<size_t>(g)]);
    if (frame < 0) {
      return;
    }
    for (const Segment& segment : in->scripts[session].segments) {
      if (segment.kind == Segment::Kind::kIdle && t >= segment.begin &&
          t <= segment.end) {
        ++idle_hits;
      }
    }
    if (measure) {
      latency_us.push_back(
          static_cast<double>(
              now - push_ns[feed_pos[session][static_cast<size_t>(frame)]]) /
          1e3);
    }
    if (first_pass) {
      first[session].push_back(Det::From(g, detection));
    }
  }
};

GestureRuntimeOptions Options(bool sharded) {
  GestureRuntimeOptions options;
  options.backend = sharded ? RuntimeBackend::kSharded : RuntimeBackend::kFused;
  options.batch_size = kBatchSize;
  options.num_shards = kShardWorkers;
  options.sync_detections = false;
  return options;
}

/// One runtime with the whole fleet deployed. The runtime is declared
/// after the engine it references, so it is destroyed first.
struct Fleet {
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<GestureRuntime> runtime;
  std::vector<SessionId> sessions;
  std::vector<core::GestureLearner> learners;
  std::vector<core::GestureDefinition> definitions;
};

cep::DetectionCallback Callback(State* state, int s, int g) {
  return [state, s, g](const cep::Detection& detection) {
    state->OnDetection(s, g, detection);
  };
}

/// Learning, compiling, opening sessions and deploying, up to the point
/// where the first frame can be pushed. Returns the seconds it took.
double SetUp(const Inputs& in, const GestureRuntimeOptions& options,
             State* state, Fleet* fleet, RunResult* result,
             std::vector<double>* learn_ms, std::vector<double>* deploy_us,
             Tracer* tracer) {
  const int64_t start = NowNs();
  fleet->learners.clear();
  fleet->definitions.clear();
  for (size_t g = 0; g < in.gesture_shape.size(); ++g) {
    ScopedSpan span(tracer, "core.learn");
    const int64_t t0 = NowNs();
    core::GestureLearner learner =
        MakeLearner(in.gesture_name[g], in.gesture_shape[g]);
    bool ok = true;
    for (const Frames& recording : in.training[g]) {
      ok = ok && result->ops.Count(
                     AddRecording(&learner, recording, options.transform),
                     "learn");
    }
    Result<core::GestureDefinition> definition = learner.Learn();
    result->ops.Count(definition.status(), "learn");
    if (!ok || !definition.ok()) {
      return 0.0;
    }
    learn_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
    fleet->learners.push_back(std::move(learner));
    fleet->definitions.push_back(std::move(definition).value());
  }
  fleet->runtime.reset();
  fleet->engine = std::make_unique<stream::StreamEngine>();
  fleet->runtime =
      std::make_unique<GestureRuntime>(fleet->engine.get(), options);
  fleet->sessions.clear();
  for (int s = 0; s < kSessions; ++s) {
    Result<SessionId> id = [&] {
      ScopedSpan span(tracer, "workflow.OpenSession");
      return fleet->runtime->OpenSession("user" + std::to_string(s));
    }();
    if (!result->ops.Count(id.status(), "OpenSession")) {
      return 0.0;
    }
    fleet->sessions.push_back(*id);
    for (size_t g = 0; g < fleet->definitions.size(); ++g) {
      ScopedSpan span(tracer, "workflow.Deploy");
      const int64_t t0 = NowNs();
      result->ops.Count(
          fleet->runtime->Deploy(*id, fleet->definitions[g],
                                 Callback(state, s, static_cast<int>(g))),
          "Deploy");
      deploy_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// Pushes the whole feed once, time-shifted by `state->offset`, then
/// flushes. Returns the wall time from the first PushFrame to the return
/// of the Flush.
int64_t Pass(const Inputs& in, Fleet* fleet, State* state, RunResult* result,
             Tracer* tracer) {
  kinect::SkeletonFrame frame;
  const int64_t start = NowNs();
  for (size_t i = 0; i < in.feed.size(); ++i) {
    const auto [s, k] = in.feed[i];
    frame = in.scripts[static_cast<size_t>(s)].frames[static_cast<size_t>(k)];
    frame.timestamp += state->offset;
    ScopedSpan span(tracer, "workflow.PushFrame");
    state->push_ns[i] = NowNs();
    result->ops.Count(
        fleet->runtime->PushFrame(fleet->sessions[static_cast<size_t>(s)],
                                  frame),
        "PushFrame");
    if (i + 1 == std::min(kBatchSize, in.feed.size())) {
      state->first_batch_ns = NowNs() - state->push_ns[0];
    }
  }
  {
    ScopedSpan span(tracer, "workflow.Flush");
    result->ops.Count(fleet->runtime->Flush(), "Flush");
  }
  return NowNs() - start;
}

void CheckOutputs(const Inputs& in, const Fleet& fleet, const State& state,
                  bool sharded, RunResult* result) {
  Checks& checks = result->checks;
  checks.Expect(state.detections > 0, "no detections at all");
  state.isolation.Check(&checks);
  checks.Expect(state.idle_hits == 0,
                std::to_string(state.idle_hits) +
                    " detections fired inside a scripted idle stretch");

  // Recall of every gesture over every session's first pass.
  Recall recall(in.gesture_shape.size());
  std::vector<int> key(in.gesture_shape.size());
  for (size_t g = 0; g < key.size(); ++g) {
    key[g] = static_cast<int>(g);
  }
  for (int s = 0; s < kSessions; ++s) {
    recall.Add(in.scripts[static_cast<size_t>(s)], in.gesture_shape, key,
               state.first[static_cast<size_t>(s)]);
  }
  CheckRecall(recall, in.gesture_name, &checks);

  // cep::NfaMatcher on a standalone kinect_t view, per query, for a seeded
  // subset of sessions: bit-identical to what the runtime delivered.
  // Pass 0 runs the initial definitions throughout.
  std::vector<Deployed> history;
  for (size_t g = 0; g < fleet.definitions.size(); ++g) {
    history.push_back(
        Deployed{static_cast<int>(g), 0, &fleet.definitions[g]});
  }
  const GestureRuntimeOptions options = Options(sharded);
  for (int s : in.reference_sessions) {
    Result<std::vector<stream::Event>> view = ReferenceView(
        in.scripts[static_cast<size_t>(s)].frames, options.transform);
    Result<std::vector<Det>> expected =
        view.ok() ? ReferenceSession(history, *view, options.query)
                  : Result<std::vector<Det>>(view.status());
    checks.Expect(expected.ok(), "reference: " + expected.status().ToString());
    if (!expected.ok()) {
      continue;
    }
    std::vector<Det> actual = state.first[static_cast<size_t>(s)];
    SortByTime(&actual);
    checks.Expect(*expected == actual,
                  "session " + std::to_string(s) + ": runtime delivered " +
                      std::to_string(actual.size()) +
                      " detections, NfaMatcher reference " +
                      std::to_string(expected->size()) + " (or they differ)");
  }
}

/// The other backend on the same definitions and first pass: the
/// per-session detection sequences must be identical.
/// Returns the sharded runtime's fan-out counters over that pass when the
/// other backend is the sharded one.
cep::ShardedEngine::EngineStats CheckOtherBackend(const Inputs& in,
                                                  const Fleet& fleet,
                                                  const State& state,
                                                  bool sharded,
                                                  RunResult* result) {
  State other(&in);
  other.measure = false;
  Fleet twin;
  twin.engine = std::make_unique<stream::StreamEngine>();
  twin.runtime =
      std::make_unique<GestureRuntime>(twin.engine.get(), Options(!sharded));
  OpCounter ops;
  for (int s = 0; s < kSessions; ++s) {
    Result<SessionId> id =
        twin.runtime->OpenSession("user" + std::to_string(s));
    if (!ops.Count(id.status(), "OpenSession")) {
      break;
    }
    twin.sessions.push_back(*id);
    for (size_t g = 0; g < fleet.definitions.size(); ++g) {
      ops.Count(twin.runtime->Deploy(*id, fleet.definitions[g],
                                     Callback(&other, s, static_cast<int>(g))),
                "Deploy");
    }
  }
  RunResult scratch;
  const cep::ShardedEngine::EngineStats before = twin.runtime->ShardedStats();
  if (ops.failed == 0) {
    Pass(in, &twin, &other, &scratch, nullptr);
  }
  cep::ShardedEngine::EngineStats stats = twin.runtime->ShardedStats();
  stats.events_routed -= before.events_routed;
  stats.fanout_batches -= before.fanout_batches;
  stats.worker_wakeups -= before.worker_wakeups;
  result->checks.Expect(ops.failed == 0 && scratch.ops.failed == 0,
                        "the other backend's verification run failed");
  for (int s = 0; s < kSessions; ++s) {
    result->checks.Expect(
        other.first[static_cast<size_t>(s)] ==
            state.first[static_cast<size_t>(s)],
        std::string("session ") + std::to_string(s) +
            ": fused and sharded detection sequences differ");
  }
  return stats;
}

}  // namespace

void RunReplay(const RunConfig& config, bool sharded, RunResult* result) {
  const Inputs in = MakeInputs(config.seed);
  const GestureRuntimeOptions options = Options(sharded);
  std::unique_ptr<Tracer> tracer;
  if (config.trace) {
    tracer = std::make_unique<Tracer>(kSpanCapacity);
  }
  State state(&in);

  // Set-up once before the window; the remaining set-ups, and every
  // re-learn, are spread across the window between passes (a side fleet
  // for the set-ups, the measured fleet for the re-learns), so that all
  // three figures sample the same stretch of machine time.
  std::vector<double> setup_s;
  std::vector<double> learn_ms;
  std::vector<double> deploy_us;
  Fleet fleet;
  setup_s.push_back(SetUp(in, options, &state, &fleet, result, &learn_ms,
                          &deploy_us, tracer.get()));
  if (result->ops.failed > 0) {
    result->checks.Expect(false, "set-up failed");
    return;
  }

  HandoffMarker* marker = nullptr;
  if (config.trace) {
    auto owned = std::make_unique<HandoffMarker>(nullptr);
    marker = owned.get();
    result->ops.Count(
        fleet.engine->Deploy(workflow::kSessionStreamName, std::move(owned))
            .status(),
        "Deploy marker");
  }

  // Re-learn + hot-swap on the loaded fleet: a fresh recording into the
  // gesture's learner, Learn(), and the Deploy that swaps it in.
  std::vector<double> relearn_ms;
  auto relearn = [&](int s, int g, int round) {
    ScopedSpan span(tracer.get(), "workflow.relearn");
    const int64_t t0 = NowNs();
    core::GestureLearner& learner = fleet.learners[static_cast<size_t>(g)];
    bool ok = result->ops.Count(
        AddRecording(&learner,
                     in.fresh[static_cast<size_t>(round)]
                             [static_cast<size_t>(g)],
                     options.transform),
        "relearn");
    Result<core::GestureDefinition> definition = learner.Learn();
    ok = result->ops.Count(definition.status(), "relearn") && ok;
    if (ok) {
      result->ops.Count(
          fleet.runtime->Deploy(fleet.sessions[static_cast<size_t>(s)],
                                *definition, Callback(&state, s, g)),
          "Deploy");
    }
    relearn_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  };
  auto side_setup = [&] {
    State side_state(&in);
    Fleet side;
    std::vector<double> side_learn_ms;
    std::vector<double> side_deploy_us;
    setup_s.push_back(SetUp(in, options, &side_state, &side, result,
                            &side_learn_ms, &side_deploy_us, nullptr));
  };

  // The timed window: whole passes until --seconds have elapsed. A traced
  // run alternates untraced and traced passes; only the untraced ones
  // count towards its end-to-end reference figures.
  std::vector<double> rates;
  std::vector<double> traced_rates;
  // First-batch times of passes right after a re-learn, and of the rest.
  std::vector<double> rebuild_ms;
  std::vector<double> steady_ms;
  uint64_t frames = 0;
  uint64_t traced_frames = 0;
  int64_t cpu_ns = 0;
  const cep::ShardedEngine::EngineStats stats_before =
      fleet.runtime->ShardedStats();
  const auto window = static_cast<int64_t>(config.seconds * 1e9);
  const int64_t window_start = NowNs();
  const size_t relearns = in.relearns.size();
  const size_t side_setups = kSetupRepeats - 1;
  size_t next_relearn = 0;
  size_t next_setup = 0;
  bool after_relearn = false;
  for (int pass = 0;; ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    state.offset = static_cast<Duration>(pass) * in.pass_period;
    state.first_pass = pass == 0;
    state.tracer = traced ? tracer.get() : nullptr;
    if (marker != nullptr) {
      marker->set_tracer(state.tracer);
    }
    state.latency_us.clear();
    const int64_t cpu_before = ProcessCpuNs();
    const int64_t ns = Pass(in, &fleet, &state, result, state.tracer);
    cpu_ns += ProcessCpuNs() - cpu_before;
    (after_relearn ? rebuild_ms : steady_ms)
        .push_back(static_cast<double>(state.first_batch_ns) / 1e6);
    after_relearn = false;
    if (!traced) {
      state.pass_p50_us.push_back(Quantile(state.latency_us, 0.5));
      state.pass_p99_us.push_back(Quantile(state.latency_us, 0.99));
      state.pass_p95_us.push_back(Quantile(state.latency_us, 0.95));
      state.latency_samples += state.latency_us.size();
    }
    const double rate = static_cast<double>(in.feed.size()) * 1e9 /
                        static_cast<double>(ns);
    (traced ? traced_rates : rates).push_back(rate);
    (traced ? traced_frames : frames) += in.feed.size();

    // Pass 0 is the checked one: nothing is swapped before it ends.
    const int64_t elapsed = NowNs() - window_start;
    const bool done = pass + 1 >= kMinPasses && elapsed >= window;
    while (next_relearn < relearns &&
           (done || elapsed >= static_cast<int64_t>(next_relearn + 1) *
                                   window /
                                   static_cast<int64_t>(relearns + 1))) {
      const auto [s, g, round] = in.relearns[next_relearn++];
      relearn(s, g, round);
      after_relearn = true;
    }
    while (next_setup < side_setups &&
           (done || elapsed >= (2 * static_cast<int64_t>(next_setup) + 1) *
                                   window /
                                   static_cast<int64_t>(2 * side_setups))) {
      ++next_setup;
      side_setup();
    }
    if (done) {
      break;
    }
  }
  const cep::ShardedEngine::EngineStats stats_after =
      fleet.runtime->ShardedStats();
  state.tracer = nullptr;
  if (marker != nullptr) {
    marker->set_tracer(nullptr);
  }
  const double peak_rss_mb = PeakRssMb();
  CheckOutputs(in, fleet, state, sharded, result);
  const cep::ShardedEngine::EngineStats twin_stats =
      CheckOtherBackend(in, fleet, state, sharded, result);

  std::printf(
      "%s: passes=%zu frames/pass=%zu detections=%llu latency_samples=%zu "
      "(per pass: median p50=%.1f p95=%.1f p99=%.1f us) setup_runs=%zu "
      "relearns=%zu checks=%llu\n",
      config.workload.c_str(), rates.size() + traced_rates.size(),
      in.feed.size(), static_cast<unsigned long long>(state.detections),
      static_cast<size_t>(state.latency_samples), Median(state.pass_p50_us),
      Median(state.pass_p95_us), Median(state.pass_p99_us), setup_s.size(),
      relearn_ms.size(),
      static_cast<unsigned long long>(result->checks.evaluated()));

  const double events_per_s = Median(rates);
  if (!config.trace) {
    result->Add("events_per_s", "1/s", events_per_s);
    result->Add("detect_p50_us", "us", Median(state.pass_p50_us));
    result->Add("detect_p99_us", "us", Median(state.pass_p99_us));
    result->Add("setup_s", "s", Median(setup_s));
    result->Add("relearn_ms", "ms", Median(relearn_ms));
    result->Add("cpu_us_per_event", "us",
                static_cast<double>(cpu_ns) / 1e3 /
                    static_cast<double>(frames + traced_frames));
    result->Add("peak_rss_mb", "MB", peak_rss_mb);
    return;
  }

  // Traced run: per-layer numbers.
  LayerInputs layer_inputs;
  for (const auto& [s, k] : in.feed) {
    layer_inputs.feed.emplace_back(
        fleet.sessions[static_cast<size_t>(s)],
        &in.scripts[static_cast<size_t>(s)].frames[static_cast<size_t>(k)]);
  }
  for (SessionId id : fleet.sessions) {
    for (const core::GestureDefinition& definition : fleet.definitions) {
      layer_inputs.queries.emplace_back(id, &definition);
    }
  }
  layer_inputs.batch_size = kBatchSize;
  layer_inputs.shard_workers = kShardWorkers;
  layer_inputs.transform = options.transform;
  layer_inputs.query = options.query;
  Result<LayerNumbers> layers = MeasureLayers(layer_inputs);
  result->checks.Expect(layers.ok(),
                        "layer replays: " + layers.status().ToString());
  const LayerNumbers numbers = layers.ok() ? *layers : LayerNumbers();

  const double e2e_ns = 1e9 / events_per_s;
  const double covered =
      numbers.transform_ns + 2 * numbers.publish_ns +
      (sharded ? numbers.shard_producer_ns + numbers.merge_deliver_ns
               : numbers.bank_eval_ns + numbers.sweep_ns);
  // Fan-out counters of the sharded runtime: the measured fleet's window
  // on replay_sharded, the verification twin's pass on replay_fused.
  double pushed = static_cast<double>(in.feed.size());
  cep::ShardedEngine::EngineStats fanout = twin_stats;
  if (sharded) {
    pushed = static_cast<double>(frames + traced_frames);
    fanout.events_routed =
        stats_after.events_routed - stats_before.events_routed;
    fanout.fanout_batches =
        stats_after.fanout_batches - stats_before.fanout_batches;
    fanout.worker_wakeups =
        stats_after.worker_wakeups - stats_before.worker_wakeups;
  }
  const auto copies = static_cast<double>(fanout.events_routed);
  const auto batches = static_cast<double>(fanout.fanout_batches);
  const auto wakeups = static_cast<double>(fanout.worker_wakeups);
  result->Add("core.learn_ms", "ms", Median(learn_ms));
  result->Add("query.compile_us", "us", numbers.compile_us);
  result->Add("transform.frame_ns", "ns", numbers.transform_ns);
  result->Add("stream.publish_ns_per_event", "ns", numbers.publish_ns);
  result->Add("cep.bank.eval_ns_per_event", "ns", numbers.bank_eval_ns);
  result->Add("cep.bank.memo_hit_ratio", "ratio", numbers.memo_hit_ratio);
  result->Add("cep.sweep.ns_per_event", "ns", numbers.sweep_ns);
  result->Add("cep.bank.rebuild_ms", "ms",
              std::max(0.0, Median(rebuild_ms) - Median(steady_ms)));
  result->Add("cep.shard.copies_per_event", "count", copies / pushed);
  result->Add("cep.shard.wakeups_per_batch", "count",
              batches > 0 ? wakeups / batches : 0.0);
  result->Add("cep.shard.busy_share", "ratio", numbers.shard_busy_share);
  result->Add("cep.shard.producer_ns_per_event", "ns",
              numbers.shard_producer_ns);
  result->Add("cep.merge.deliver_ns_per_event", "ns",
              numbers.merge_deliver_ns);
  result->Add("cep.composite.detections", "count", 0);
  result->Add("workflow.deploy_us", "us", Median(deploy_us));
  result->Add("durability.wal.append_ns_per_event", "ns", 0);
  result->Add("durability.wal.bytes_per_event", "B", 0);
  result->Add("durability.wal.fsyncs", "count", 0);
  result->Add("durability.snapshot_ms", "ms", 0);
  result->Add("durability.snapshot_bytes", "B", 0);
  result->Add("durability.replay_records", "count", 0);
  result->Add("durability.recover_s", "s", 0);
  result->Add("trace.overhead_share", "ratio",
              Median(rates) / Median(traced_rates) - 1.0);
  result->Add("trace.layer_coverage", "ratio", covered / e2e_ns);

  const std::string path = std::string(kOutputDir) + "/spans-" +
                           config.workload + "-seed" +
                           std::to_string(config.seed) + ".csv";
  Status written = tracer->Write(path);
  result->checks.Expect(written.ok(), written.ToString());
  std::printf("%s: spans=%llu written to %s\n", config.workload.c_str(),
              static_cast<unsigned long long>(tracer->recorded()),
              path.c_str());
}

}  // namespace epl::e2e
