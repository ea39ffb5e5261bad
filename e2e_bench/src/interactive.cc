// interactive_durable: 256 sessions in an open loop at 30 Hz each, on the
// fused backend with batch_size 1, synchronous detections and the WAL on.
// Every session runs gestures learned from its own user's recordings plus
// a 2-level composite ladder; at a fixed cadence one session re-learns a
// gesture and hot-swaps it; one Checkpoint() runs inside the paced loop;
// the run ends with a timed Recover() into a fresh engine.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
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
#include "workflow/composite.h"
#include "workflow/gesture_runtime.h"
#include "workloads.h"

namespace epl::e2e {

namespace {

using workflow::GestureRuntime;
using workflow::GestureRuntimeOptions;
using workflow::RuntimeBackend;
using workflow::SessionId;

constexpr int kSessions = 256;
constexpr int kGestures = 4;
constexpr int kTrainingSamples = 3;
constexpr int kSetupRepeats = 5;
constexpr int kReferenceSessions = 16;
/// One re-learn + hot-swap every this much schedule time.
constexpr Duration kRelearnEvery = 250 * kMillisecond;
/// Composite ladder: level 1 = gesture 0 then gesture 1, level 2 = level 1
/// then gesture 2.
constexpr double kLevel1Within = 5.0;
constexpr double kLevel2Within = 6.0;
constexpr int kLevel1 = kGestures;
/// Large enough that no WAL segment rotates inside a run: the only fsyncs
/// are the checkpoint's.
constexpr uint64_t kSegmentBytes = 1ull << 30;
/// The schedule starts this far after the loop is entered.
constexpr int64_t kStartDelayNs = 20'000'000;
constexpr size_t kSpanCapacity = 1 << 18;
/// Traced runs alternate untraced and traced stretches of this length.
constexpr Duration kTraceBlock = kSecond;

const char* const kLevelNames[] = {"ladder1", "ladder2"};

struct Relearn {
  TimePoint at = 0;  // schedule time (frame timestamp scale)
  int session = 0;
  int gesture = 0;
  Frames recording;
};

struct Inputs {
  /// Per session: shapes of its gestures, its training recordings (per
  /// gesture) and its script.
  std::vector<std::vector<int>> shapes;
  std::vector<std::vector<std::vector<Frames>>> training;
  std::vector<SessionScript> scripts;
  /// Frames due inside the run, in due order: (session, frame index).
  std::vector<std::pair<int, int>> feed;
  std::vector<Relearn> relearns;
  TimePoint checkpoint_at = 0;
  TimePoint end = 0;
  std::vector<int> reference_sessions;
};

Inputs MakeInputs(uint64_t seed, double seconds) {
  Inputs in;
  Rng rng(seed ^ 0x1a2b3c4d5e6f7788ull);
  const int shapes = static_cast<int>(Vocabulary().size());
  in.end = DurationFromSeconds(seconds);
  in.checkpoint_at = in.end / 2;
  const Duration stagger = kinect::kFramePeriod / kSessions;
  std::vector<kinect::UserProfile> users;
  for (int s = 0; s < kSessions; ++s) {
    const kinect::UserProfile user = RandomUser(&rng);
    users.push_back(user);
    std::vector<int> chosen = Permutation(shapes, &rng);
    chosen.resize(kGestures);
    std::vector<std::vector<Frames>> training;
    for (int shape : chosen) {
      training.push_back(
          Recordings(user, shape, kTrainingSamples, rng.NextUint64()));
    }
    // Perform the session's gestures in order, cycling until the script
    // outlasts the run; the lead-in staggers the sessions' performances.
    std::vector<int> order;
    const int cycles = 1 + static_cast<int>(seconds / 10.0);
    for (int c = 0; c < cycles; ++c) {
      order.insert(order.end(), chosen.begin(), chosen.end());
    }
    in.scripts.push_back(BuildScript(user, rng.NextUint64(), order,
                                     rng.Uniform(0.4, 2.5), 0.8,
                                     s * stagger));
    in.shapes.push_back(std::move(chosen));
    in.training.push_back(std::move(training));
  }
  in.feed = ArrivalOrder(in.scripts, in.end);
  const std::vector<int> order = Permutation(kSessions, &rng);
  size_t next = 0;
  for (TimePoint at = kRelearnEvery; at < in.end; at += kRelearnEvery) {
    Relearn relearn;
    relearn.at = at;
    relearn.session = order[next++ % order.size()];
    relearn.gesture = static_cast<int>(rng.UniformInt(0, kGestures - 1));
    const auto s = static_cast<size_t>(relearn.session);
    relearn.recording =
        Recordings(users[s], in.shapes[s][static_cast<size_t>(relearn.gesture)],
                   1, rng.NextUint64())[0];
    in.relearns.push_back(std::move(relearn));
  }
  const std::vector<int> sessions = Permutation(kSessions, &rng);
  in.reference_sessions.assign(sessions.begin(),
                               sessions.begin() + kReferenceSessions);
  return in;
}

std::string GestureName(const Inputs& in, int s, int g) {
  if (g >= kGestures) {
    return kLevelNames[g - kGestures];
  }
  return Vocabulary()[static_cast<size_t>(
                          in.shapes[static_cast<size_t>(s)]
                                   [static_cast<size_t>(g)])]
      .name;
}

struct Recorded {
  int session = 0;
  Det det;
  bool operator==(const Recorded& other) const {
    return session == other.session && det == other.det;
  }
};

/// Everything the detection callbacks touch (producer thread only).
struct State {
  const Inputs* in = nullptr;
  std::vector<std::vector<TimePoint>> times;  // per session
  int64_t start_ns = 0;                       // wall time of schedule 0
  bool measure = false;
  Tracer* tracer = nullptr;
  std::vector<Recorded> live;
  std::vector<double> latency_us;
  Isolation isolation;
  uint64_t composites = 0;

  explicit State(const Inputs* inputs) : in(inputs) {
    for (const SessionScript& script : in->scripts) {
      std::vector<TimePoint> own;
      for (const kinect::SkeletonFrame& frame : script.frames) {
        own.push_back(frame.timestamp);
      }
      times.push_back(std::move(own));
    }
  }

  void OnDetection(int s, int g, const cep::Detection& detection,
                   std::vector<Recorded>* out) {
    const int64_t now = NowNs();
    ScopedSpan span(tracer, "workflow.detection_callback");
    if (isolation.Admit(times[static_cast<size_t>(s)], detection.time,
                        detection.name, GestureName(*in, s, g)) < 0) {
      return;
    }
    if (measure) {
      latency_us.push_back(
          static_cast<double>(now - (start_ns + detection.time * 1000)) /
          1e3);
      if (g >= kGestures) {
        ++composites;
      }
    }
    out->push_back(Recorded{s, Det::From(g, detection)});
  }
};

/// Per session: one definition per gesture.
using Definitions = std::vector<std::vector<core::GestureDefinition>>;

/// A live or recovered runtime. The runtime is declared after the engine
/// it references, so it is destroyed first.
struct Fleet {
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<GestureRuntime> runtime;
  /// Per session: its learners and current definitions.
  std::vector<std::vector<core::GestureLearner>> learners;
  Definitions definitions;
};

GestureRuntimeOptions Options(const std::string& dir,
                              durability::FileSystem* fs) {
  GestureRuntimeOptions options;
  options.backend = RuntimeBackend::kFused;
  options.batch_size = 1;
  options.sync_detections = true;
  options.durability.dir = dir;
  options.durability.segment_bytes = kSegmentBytes;
  options.durability.sync_every_records = 0;
  options.durability.sync_interval_ms = 0;
  options.durability.fs = fs;
  return options;
}

workflow::CompositeDefinition Ladder(int level, SessionId session,
                                     const Inputs& in, int s) {
  workflow::CompositeDefinition definition;
  definition.name = kLevelNames[level];
  if (level == 0) {
    definition.steps = {{session, GestureName(in, s, 0), 1},
                        {session, GestureName(in, s, 1), 1}};
    definition.within_seconds = kLevel1Within;
  } else {
    definition.steps = {{session, kLevelNames[0], 1},
                        {session, GestureName(in, s, 2), 1}};
    definition.within_seconds = kLevel2Within;
  }
  return definition;
}

double SetUp(const Inputs& in, const GestureRuntimeOptions& options,
             State* state, Fleet* fleet, RunResult* result,
             std::vector<double>* learn_ms, std::vector<double>* deploy_us,
             Tracer* tracer) {
  const int64_t start = NowNs();
  fleet->runtime.reset();
  fleet->engine = std::make_unique<stream::StreamEngine>();
  fleet->runtime =
      std::make_unique<GestureRuntime>(fleet->engine.get(), options);
  fleet->learners.assign(kSessions, {});
  fleet->definitions.assign(kSessions, {});
  for (int s = 0; s < kSessions; ++s) {
    const auto session = static_cast<size_t>(s);
    Result<SessionId> id = [&] {
      ScopedSpan span(tracer, "workflow.OpenSession");
      return fleet->runtime->OpenSession("user" + std::to_string(s));
    }();
    if (!result->ops.Count(id.status(), "OpenSession") || *id != s) {
      return 0.0;
    }
    for (int g = 0; g < kGestures; ++g) {
      const auto gesture = static_cast<size_t>(g);
      const int64_t t0 = NowNs();
      core::GestureLearner learner =
          MakeLearner(GestureName(in, s, g), in.shapes[session][gesture]);
      Result<core::GestureDefinition> definition =
          [&]() -> Result<core::GestureDefinition> {
        ScopedSpan span(tracer, "core.learn");
        for (const Frames& recording : in.training[session][gesture]) {
          EPL_RETURN_IF_ERROR(
              AddRecording(&learner, recording, options.transform));
        }
        return learner.Learn();
      }();
      if (!result->ops.Count(definition.status(), "learn")) {
        return 0.0;
      }
      learn_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
      const int64_t d0 = NowNs();
      {
        ScopedSpan span(tracer, "workflow.Deploy");
        result->ops.Count(
            fleet->runtime->Deploy(
                *id, *definition,
                [state, s, g, out = &state->live](const cep::Detection& d) {
                  state->OnDetection(s, g, d, out);
                }),
            "Deploy");
      }
      deploy_us->push_back(static_cast<double>(NowNs() - d0) / 1e3);
      fleet->learners[session].push_back(std::move(learner));
      fleet->definitions[session].push_back(std::move(definition).value());
    }
    for (int level = 0; level < 2; ++level) {
      ScopedSpan span(tracer, "workflow.DeployComposite");
      const int g = kGestures + level;
      result->ops.Count(
          fleet->runtime->DeployComposite(
              *id, Ladder(level, *id, in, s),
              [state, s, g, out = &state->live](const cep::Detection& d) {
                state->OnDetection(s, g, d, out);
              }),
          "DeployComposite");
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

struct Swap {
  int session = 0;
  int gesture = 0;
  /// Session frames pushed before the swap.
  size_t frame = 0;
  core::GestureDefinition definition;
};

/// Session `s`'s deploy history: its initial definitions from frame 0,
/// then every hot-swap from the frame it was pushed before.
std::vector<Deployed> History(const Definitions& initial,
                              const std::vector<Swap>& swaps, int s) {
  std::vector<Deployed> history;
  for (int g = 0; g < kGestures; ++g) {
    history.push_back(Deployed{
        g, 0, &initial[static_cast<size_t>(s)][static_cast<size_t>(g)]});
  }
  for (const Swap& swap : swaps) {
    if (swap.session == s) {
      history.push_back(Deployed{swap.gesture, swap.frame, &swap.definition});
    }
  }
  return history;
}

/// The session's kinect_t view over its raw frames [begin, end).
Result<std::vector<stream::Event>> View(const Inputs& in, int s, size_t begin,
                                        size_t end,
                                        const GestureRuntimeOptions& options) {
  const Frames& script = in.scripts[static_cast<size_t>(s)].frames;
  const Frames raw(script.begin() + static_cast<std::ptrdiff_t>(begin),
                   script.begin() + static_cast<std::ptrdiff_t>(end));
  return ReferenceView(raw, options.transform);
}

/// cep::NfaMatcher per base query (with its hot-swap history) on a
/// standalone view of each reference session's pushed frames.
void CheckReference(const Inputs& in, const Definitions& initial,
                    const std::vector<Swap>& swaps,
                    const std::vector<size_t>& pushed,
                    const GestureRuntimeOptions& options,
                    const std::vector<std::vector<Det>>& by_session,
                    Checks* checks) {
  for (int s : in.reference_sessions) {
    const auto session = static_cast<size_t>(s);
    Result<std::vector<stream::Event>> view =
        View(in, s, 0, pushed[session], options);
    Result<std::vector<Det>> expected =
        view.ok() ? ReferenceSession(History(initial, swaps, s), *view,
                                     options.query)
                  : Result<std::vector<Det>>(view.status());
    checks->Expect(expected.ok(),
                   "reference: " + expected.status().ToString());
    if (!expected.ok()) {
      continue;
    }
    std::vector<Det> actual;
    for (const Det& det : by_session[session]) {
      if (det.gesture < kGestures) {
        actual.push_back(det);
      }
    }
    SortByTime(&actual);
    checks->Expect(*expected == actual,
                   "session " + std::to_string(s) + ": runtime delivered " +
                       std::to_string(actual.size()) +
                       " base detections, NfaMatcher reference " +
                       std::to_string(expected->size()) +
                       " (or they differ)");
  }
}

/// Every composite detection consumed detections its session really
/// delivered, inside the composite's window.
void CheckComposites(const std::vector<std::vector<Det>>& by_session,
                     Checks* checks) {
  uint64_t seen = 0;
  for (size_t s = 0; s < by_session.size(); ++s) {
    auto delivered = [&](int gesture, TimePoint t) {
      for (const Det& det : by_session[s]) {
        if (det.gesture == gesture && det.time == t) {
          return true;
        }
      }
      return false;
    };
    for (const Det& det : by_session[s]) {
      if (det.gesture < kGestures) {
        continue;
      }
      ++seen;
      const bool level1 = det.gesture == kLevel1;
      const int first = level1 ? 0 : kLevel1;
      const int second = level1 ? 1 : 2;
      const double within = level1 ? kLevel1Within : kLevel2Within;
      const bool ok =
          det.pose_times.size() == 2 && det.time == det.pose_times[1] &&
          det.pose_times[1] - det.pose_times[0] <=
              DurationFromSeconds(within) &&
          delivered(first, det.pose_times[0]) &&
          delivered(second, det.pose_times[1]);
      checks->Expect(ok, "session " + std::to_string(s) + ": composite " +
                             kLevelNames[det.gesture - kGestures] + " at " +
                             std::to_string(det.time) +
                             " lacks its constituents inside its window");
    }
  }
  checks->Expect(seen > 0, "the composite ladder never fired");
}

/// Detections in one stream but not the other (multiset difference, both
/// ways): 0 when recovery reproduced the live suffix exactly.
size_t RecoveryDivergence(const std::vector<Recorded>& recovered,
                          const std::vector<Recorded>& suffix) {
  auto key = [](const Recorded& r) {
    return std::tie(r.session, r.det.gesture, r.det.time, r.det.pose_times,
                    r.det.measures);
  };
  auto less = [&key](const Recorded& a, const Recorded& b) {
    return key(a) < key(b);
  };
  std::vector<Recorded> a = recovered;
  std::vector<Recorded> b = suffix;
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  std::vector<Recorded> only;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(only), less);
  return only.size();
}

struct RecoveryCounts {
  /// Live-suffix detections past their rejoin point (checked exactly).
  size_t checked = 0;
  /// Live-suffix detections before it, and how many detections of either
  /// stream differ there.
  size_t in_flight = 0;
  size_t in_flight_divergent = 0;
};

/// Recover() resumes each session's kinect_t view unsmoothed at the cut
/// (a checkpoint does not carry the view's smoothed yaw / forearm
/// estimates), so a query whose view values or partial runs straddle the
/// cut may complete differently there. From each base query's rejoin
/// point (RejoinIndices) on, the recovered stream must equal the live
/// suffix exactly; for the composites, from the session's last base rejoin
/// plus the ladder windows below them, by their first constituent. The
/// detections before those points are in flight: counted, not checked.
RecoveryCounts CheckRecovery(const Inputs& in, const Definitions& initial,
                             const std::vector<Swap>& swaps,
                             const std::vector<size_t>& cut,
                             const std::vector<size_t>& pushed,
                             const GestureRuntimeOptions& options,
                             const std::vector<Recorded>& suffix,
                             const std::vector<Recorded>& recovered,
                             Checks* checks) {
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  // Per session and gesture (base, then the ladder levels): the time from
  // which its detections must match.
  std::vector<std::vector<TimePoint>> from(
      kSessions, std::vector<TimePoint>(kGestures + 2, kNever));
  for (int s = 0; s < kSessions; ++s) {
    const auto session = static_cast<size_t>(s);
    Result<std::vector<stream::Event>> live =
        View(in, s, 0, pushed[session], options);
    Result<std::vector<stream::Event>> resumed =
        View(in, s, cut[session], pushed[session], options);
    Result<std::vector<size_t>> rejoin =
        live.ok() && resumed.ok()
            ? RejoinIndices(History(initial, swaps, s), kGestures, *live,
                            *resumed, cut[session], options.query)
            : Result<std::vector<size_t>>(
                  live.ok() ? resumed.status() : live.status());
    checks->Expect(rejoin.ok(), "rejoin: " + rejoin.status().ToString());
    if (!rejoin.ok()) {
      continue;
    }
    TimePoint last = 0;
    for (int g = 0; g < kGestures; ++g) {
      const size_t at = (*rejoin)[static_cast<size_t>(g)];
      const TimePoint t = at < live->size() ? (*live)[at].timestamp : kNever;
      from[session][static_cast<size_t>(g)] = t;
      last = std::max(last, t);
    }
    if (last != kNever) {
      from[session][kLevel1] = last + DurationFromSeconds(kLevel1Within);
      from[session][kLevel1 + 1] =
          last + DurationFromSeconds(kLevel1Within + kLevel2Within);
    }
  }
  auto settled = [&from](const Recorded& r) {
    const bool base = r.det.gesture < kGestures || r.det.pose_times.empty();
    const TimePoint anchor = base ? r.det.time : r.det.pose_times.front();
    return anchor >= from[static_cast<size_t>(r.session)]
                         [static_cast<size_t>(r.det.gesture)];
  };
  std::vector<Recorded> live_settled, live_flight, ours_settled, ours_flight;
  for (const Recorded& r : suffix) {
    (settled(r) ? live_settled : live_flight).push_back(r);
  }
  for (const Recorded& r : recovered) {
    (settled(r) ? ours_settled : ours_flight).push_back(r);
  }
  const size_t divergent = RecoveryDivergence(ours_settled, live_settled);
  // The views rejoin ~7 s after the cut, so a run of under ~20 s ends
  // before any detection is checked.
  checks->Expect(!live_settled.empty(),
                 "no live detection past the recovery rejoin points");
  checks->Expect(divergent == 0,
                 std::to_string(divergent) +
                     " detections past the rejoin points differ between "
                     "the recovered stream and the live suffix");
  return RecoveryCounts{live_settled.size(), live_flight.size(),
                        RecoveryDivergence(ours_flight, live_flight)};
}

}  // namespace

void RunInteractive(const RunConfig& config, RunResult* result) {
  const Inputs in = MakeInputs(config.seed, config.seconds);
  const std::string base = std::string(kOutputDir) + "/interactive-" +
                           std::to_string(config.seed);
  RemoveTree(base);
  Status made = MakeDirs(base);
  if (!made.ok()) {
    result->checks.Expect(false, made.ToString());
    return;
  }
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<CountingFileSystem> counting;
  if (config.trace) {
    tracer = std::make_unique<Tracer>(kSpanCapacity);
    counting = std::make_unique<CountingFileSystem>(
        durability::DefaultFileSystem());
  }
  State state(&in);

  // Set-up once before the window; the remaining set-ups run on a side
  // fleet (which never sees a frame) at fixed points inside the window,
  // with the schedule paused around them, so that set-up samples the same
  // stretch of machine time as the paced loop without delaying a frame.
  std::vector<double> setup_s;
  std::vector<double> learn_ms;
  std::vector<double> deploy_us;
  Fleet fleet;
  const GestureRuntimeOptions options =
      Options(base + "/live", counting.get());
  setup_s.push_back(SetUp(in, options, &state, &fleet, result, &learn_ms,
                          &deploy_us, tracer.get()));
  if (result->ops.failed > 0) {
    result->checks.Expect(false, "set-up failed");
    RemoveTree(base);
    return;
  }
  const Definitions initial_definitions = fleet.definitions;
  std::vector<TimePoint> side_setup_at;
  for (int k = 0; k < kSetupRepeats - 1; ++k) {
    side_setup_at.push_back(in.end * (2 * k + 1) / (2 * (kSetupRepeats - 1)) +
                            kRelearnEvery / 2);
  }
  auto side_setup = [&](int k) {
    const std::string dir = base + "/side" + std::to_string(k);
    Fleet side;
    std::vector<double> side_learn_ms;
    std::vector<double> side_deploy_us;
    setup_s.push_back(SetUp(in, Options(dir, nullptr), &state, &side, result,
                            &side_learn_ms, &side_deploy_us, nullptr));
    side.runtime.reset();
    RemoveTree(dir);
  };

  HandoffMarker* marker = nullptr;
  if (config.trace) {
    auto owned = std::make_unique<HandoffMarker>(nullptr);
    marker = owned.get();
    result->ops.Count(
        fleet.engine->Deploy(workflow::kSessionStreamName, std::move(owned))
            .status(),
        "Deploy marker");
  }

  // The paced loop. Every frame, re-learn and checkpoint waits (spinning)
  // until its due time; latency counts from that due time, so a stall is
  // charged to everything due behind it.
  std::vector<size_t> pushed(kSessions, 0);
  std::vector<size_t> pushed_at_checkpoint;
  std::vector<Swap> swaps;
  std::vector<double> relearn_ms;
  size_t live_at_checkpoint = 0;
  double checkpoint_ms = 0;
  int64_t busy_ns = 0;
  int64_t cpu_ns = 0;
  int64_t max_late_ns = 0;
  double late_sum_ns = 0;
  // PushFrame wall time per frame, in untraced [0] and traced [1]
  // stretches (only [0] outside traced runs).
  std::vector<double> frame_ns[2];
  // The first PushFrame after each hot-swap, which rebuilds the bank.
  bool swapped = false;
  std::vector<double> rebuild_ms;
  const CountingFileSystem::Counters io_before =
      counting ? counting->counters() : CountingFileSystem::Counters();
  size_t next_relearn = 0;
  size_t next_setup = 0;
  bool checkpointed = false;
  state.measure = true;
  state.start_ns = NowNs() + kStartDelayNs;
  auto wait_until = [&state](TimePoint at) {
    const int64_t due = state.start_ns + at * 1000;
    int64_t now = NowNs();
    while (now < due) {
      now = NowNs();
    }
    return now - due;
  };
  auto timed = [&](auto&& call) {
    const int64_t w0 = NowNs();
    const int64_t c0 = ThreadCpuNs();
    call();
    cpu_ns += ThreadCpuNs() - c0;
    const int64_t spent = NowNs() - w0;
    busy_ns += spent;
    return spent;
  };
  for (size_t i = 0; i < in.feed.size(); ++i) {
    const auto [s, k] = in.feed[i];
    const auto session = static_cast<size_t>(s);
    const kinect::SkeletonFrame& frame =
        in.scripts[session].frames[static_cast<size_t>(k)];
    const bool traced = config.trace && (frame.timestamp / kTraceBlock) % 2;
    state.tracer = traced ? tracer.get() : nullptr;
    if (marker != nullptr) {
      marker->set_tracer(state.tracer);
    }
    if (next_setup < side_setup_at.size() &&
        side_setup_at[next_setup] <= frame.timestamp) {
      wait_until(side_setup_at[next_setup]);
      const int64_t paused = NowNs();
      side_setup(static_cast<int>(next_setup++));
      state.start_ns += NowNs() - paused;
    }
    while (next_relearn < in.relearns.size() &&
           in.relearns[next_relearn].at <= frame.timestamp) {
      const Relearn& relearn = in.relearns[next_relearn++];
      wait_until(relearn.at);
      const auto rs = static_cast<size_t>(relearn.session);
      const auto rg = static_cast<size_t>(relearn.gesture);
      const int64_t spent = timed([&] {
        ScopedSpan span(state.tracer, "workflow.relearn");
        core::GestureLearner& learner = fleet.learners[rs][rg];
        bool ok = result->ops.Count(
            AddRecording(&learner, relearn.recording, options.transform),
            "relearn");
        Result<core::GestureDefinition> definition = learner.Learn();
        ok = result->ops.Count(definition.status(), "relearn") && ok;
        if (!ok) {
          return;
        }
        const int rsi = relearn.session;
        const int rgi = relearn.gesture;
        result->ops.Count(
            fleet.runtime->Deploy(
                relearn.session, *definition,
                [&state, rsi, rgi](const cep::Detection& d) {
                  state.OnDetection(rsi, rgi, d, &state.live);
                }),
            "Deploy");
        swaps.push_back(Swap{relearn.session, relearn.gesture, pushed[rs],
                             *definition});
        swapped = true;
        fleet.definitions[rs][rg] = std::move(definition).value();
      });
      relearn_ms.push_back(static_cast<double>(spent) / 1e6);
    }
    if (!checkpointed && in.checkpoint_at <= frame.timestamp) {
      checkpointed = true;
      wait_until(in.checkpoint_at);
      const int64_t spent = timed([&] {
        ScopedSpan span(state.tracer, "workflow.Checkpoint");
        result->ops.Count(fleet.runtime->Checkpoint(), "Checkpoint");
      });
      checkpoint_ms = static_cast<double>(spent) / 1e6;
      live_at_checkpoint = state.live.size();
      pushed_at_checkpoint = pushed;
    }
    const int64_t late = wait_until(frame.timestamp);
    max_late_ns = std::max(max_late_ns, late);
    late_sum_ns += static_cast<double>(late);
    const int64_t spent = timed([&] {
      ScopedSpan span(state.tracer, "workflow.PushFrame");
      result->ops.Count(fleet.runtime->PushFrame(s, frame), "PushFrame");
    });
    frame_ns[traced ? 1 : 0].push_back(static_cast<double>(spent));
    if (swapped) {
      rebuild_ms.push_back(static_cast<double>(spent) / 1e6);
      swapped = false;
    }
    ++pushed[session];
  }
  timed([&] {
    ScopedSpan span(state.tracer, "workflow.Flush");
    result->ops.Count(fleet.runtime->Flush(), "Flush");
  });
  state.measure = false;
  state.tracer = nullptr;
  if (marker != nullptr) {
    marker->set_tracer(nullptr);
  }
  const int64_t end_ns = NowNs();
  const double peak_rss_mb = PeakRssMb();
  const CountingFileSystem::Counters io_after =
      counting ? counting->counters() : CountingFileSystem::Counters();

  // Recovery into a fresh engine; CheckRecovery compares its detection
  // stream with the live run's suffix from the snapshot cut.
  const std::vector<Recorded> live = state.live;
  fleet.runtime.reset();
  fleet.engine.reset();
  std::vector<Recorded> recovered;
  workflow::RecoverStats recover_stats;
  double recover_s = 0;
  {
    stream::StreamEngine engine;
    workflow::DetectionCallbackFactory factory =
        [&state, &in, &recovered](SessionId session,
                                  const std::string& name) {
          int g = -1;
          for (int candidate = 0; candidate < kGestures + 2; ++candidate) {
            if (GestureName(in, session, candidate) == name) {
              g = candidate;
            }
          }
          return cep::DetectionCallback(
              [&state, &recovered, session, g](const cep::Detection& d) {
                state.OnDetection(session, g, d, &recovered);
              });
        };
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<GestureRuntime>> runtime = [&] {
      ScopedSpan span(tracer.get(), "workflow.Recover");
      return GestureRuntime::Recover(&engine, options, factory,
                                     &recover_stats);
    }();
    recover_s = static_cast<double>(NowNs() - t0) / 1e9;
    result->ops.Count(runtime.status(), "Recover");
  }
  const std::vector<Recorded> suffix(
      live.begin() + static_cast<std::ptrdiff_t>(live_at_checkpoint),
      live.end());
  Checks& checks = result->checks;
  checks.Expect(pushed_at_checkpoint.size() == kSessions,
                "the checkpoint did not run inside the window");
  RecoveryCounts recovery;
  if (pushed_at_checkpoint.size() == kSessions) {
    recovery = CheckRecovery(in, initial_definitions, swaps,
                             pushed_at_checkpoint, pushed, options, suffix,
                             recovered, &checks);
  }
  if (recovery.in_flight_divergent > 0) {
    std::fprintf(stderr,
                 "e2e_bench: KNOWN FAULT: %zu detections in flight across "
                 "the snapshot cut differ after Recover() (%zu in flight, "
                 "%zu checked exactly)\n",
                 recovery.in_flight_divergent, recovery.in_flight,
                 recovery.checked);
  }

  // Output checks on the live run.
  state.isolation.Check(&checks);
  std::vector<std::vector<Det>> by_session(kSessions);
  for (const Recorded& recorded : live) {
    by_session[static_cast<size_t>(recorded.session)].push_back(recorded.det);
  }
  Recall recall(Vocabulary().size());
  std::vector<std::string> shape_names;
  for (const kinect::GestureShape& shape : Vocabulary()) {
    shape_names.push_back(shape.name);
  }
  for (int s = 0; s < kSessions; ++s) {
    const auto session = static_cast<size_t>(s);
    CheckNoIdleDetections(in.scripts[session], by_session[session], 0,
                          "session " + std::to_string(s), &checks);
    // Only performances that ended (with their slack) inside the run.
    SessionScript done = in.scripts[session];
    done.segments.erase(
        std::remove_if(done.segments.begin(), done.segments.end(),
                       [&in](const Segment& segment) {
                         return segment.end + 400 * kMillisecond >= in.end;
                       }),
        done.segments.end());
    recall.Add(done, in.shapes[session], in.shapes[session],
               by_session[session]);
  }
  CheckRecall(recall, shape_names, &checks);
  CheckReference(in, initial_definitions, swaps, pushed, options, by_session,
                 &checks);
  CheckComposites(by_session, &checks);
  RemoveTree(base);

  const double window_s =
      static_cast<double>(end_ns - state.start_ns) / 1e9;
  const double frames = static_cast<double>(in.feed.size());
  std::printf(
      "%s: sessions=%d frames=%zu detections=%zu composites=%llu "
      "latency_samples=%zu (p50=%.1f p95=%.1f p99=%.1f us) relearns=%zu "
      "checkpoint_ms=%.2f busy_share=%.4f "
      "mean_late_us=%.2f max_late_us=%.1f recovered=%zu replayed=%llu "
      "recovery_checked=%zu in_flight=%zu in_flight_divergent=%zu "
      "recover_s=%.4f checks=%llu\n",
      config.workload.c_str(), kSessions, in.feed.size(), live.size(),
      static_cast<unsigned long long>(state.composites),
      state.latency_us.size(), Quantile(state.latency_us, 0.5),
      Quantile(state.latency_us, 0.95), Quantile(state.latency_us, 0.99),
      relearn_ms.size(), checkpoint_ms,
      static_cast<double>(busy_ns) / 1e9 / window_s,
      late_sum_ns / frames / 1e3, static_cast<double>(max_late_ns) / 1e3,
      recovered.size(),
      static_cast<unsigned long long>(recover_stats.replayed_records),
      recovery.checked, recovery.in_flight, recovery.in_flight_divergent,
      recover_s, static_cast<unsigned long long>(checks.evaluated()));

  if (!config.trace) {
    // The paced loop offers a fixed rate; what the runtime sustains is the
    // frames over the wall time spent inside its calls.
    result->Add("events_per_s", "1/s",
                frames / (static_cast<double>(busy_ns) / 1e9));
    result->Add("detect_p50_us", "us", Quantile(state.latency_us, 0.5));
    result->Add("detect_p99_us", "us", Quantile(state.latency_us, 0.99));
    result->Add("setup_s", "s", Median(setup_s));
    result->Add("relearn_ms", "ms", Median(relearn_ms));
    result->Add("cpu_us_per_event", "us",
                static_cast<double>(cpu_ns) / 1e3 / frames);
    result->Add("peak_rss_mb", "MB", peak_rss_mb);
    return;
  }

  LayerInputs layer_inputs;
  for (const auto& [s, k] : in.feed) {
    layer_inputs.feed.emplace_back(
        s, &in.scripts[static_cast<size_t>(s)].frames[static_cast<size_t>(k)]);
  }
  for (int s = 0; s < kSessions; ++s) {
    for (const core::GestureDefinition& definition :
         initial_definitions[static_cast<size_t>(s)]) {
      layer_inputs.queries.emplace_back(s, &definition);
    }
  }
  layer_inputs.batch_size = 1;
  layer_inputs.wal = true;
  layer_inputs.scratch_dir = base + "-layers";
  layer_inputs.transform = options.transform;
  layer_inputs.query = options.query;
  Result<LayerNumbers> layers = MeasureLayers(layer_inputs);
  RemoveTree(layer_inputs.scratch_dir);
  result->checks.Expect(layers.ok(),
                        "layer replays: " + layers.status().ToString());
  const LayerNumbers numbers = layers.ok() ? *layers : LayerNumbers();

  // Per-frame end-to-end time is the mean PushFrame wall time; the layer
  // replays cover the steady per-event path, the post-swap PushFrames the
  // bank rebuilds.
  double push_total_ns = 0;
  for (const std::vector<double>& samples : frame_ns) {
    for (double ns : samples) {
      push_total_ns += ns;
    }
  }
  double rebuild_total_ms = 0;
  for (double ms : rebuild_ms) {
    rebuild_total_ms += ms;
  }
  const double covered = numbers.transform_ns + 2 * numbers.publish_ns +
                         numbers.bank_eval_ns + numbers.sweep_ns +
                         numbers.wal_append_ns +
                         rebuild_total_ms * 1e6 / frames;
  result->Add("core.learn_ms", "ms", Median(learn_ms));
  result->Add("query.compile_us", "us", numbers.compile_us);
  result->Add("transform.frame_ns", "ns", numbers.transform_ns);
  result->Add("stream.publish_ns_per_event", "ns", numbers.publish_ns);
  result->Add("cep.bank.eval_ns_per_event", "ns", numbers.bank_eval_ns);
  result->Add("cep.bank.memo_hit_ratio", "ratio", numbers.memo_hit_ratio);
  result->Add("cep.sweep.ns_per_event", "ns", numbers.sweep_ns);
  result->Add("cep.bank.rebuild_ms", "ms", Median(rebuild_ms));
  result->Add("cep.shard.copies_per_event", "count", 0);
  result->Add("cep.shard.wakeups_per_batch", "count", 0);
  result->Add("cep.shard.busy_share", "ratio", 0);
  result->Add("cep.shard.producer_ns_per_event", "ns", 0);
  result->Add("cep.merge.deliver_ns_per_event", "ns", 0);
  result->Add("cep.composite.detections", "count",
              static_cast<double>(state.composites));
  result->Add("workflow.deploy_us", "us", Median(deploy_us));
  result->Add("durability.wal.append_ns_per_event", "ns",
              numbers.wal_append_ns);
  result->Add("durability.wal.bytes_per_event", "B",
              static_cast<double>(io_after.wal_bytes - io_before.wal_bytes) /
                  frames);
  result->Add("durability.wal.fsyncs", "count",
              static_cast<double>(io_after.fsyncs - io_before.fsyncs));
  result->Add("durability.snapshot_ms", "ms", checkpoint_ms);
  result->Add("durability.snapshot_bytes", "B",
              static_cast<double>(io_after.snapshot_bytes -
                                  io_before.snapshot_bytes));
  result->Add("durability.replay_records", "count",
              static_cast<double>(recover_stats.replayed_records));
  result->Add("durability.recover_s", "s", recover_s);
  result->Add("trace.overhead_share", "ratio",
              Median(frame_ns[1]) / Median(frame_ns[0]) - 1.0);
  result->Add("trace.layer_coverage", "ratio",
              covered / (push_total_ns / frames));

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
