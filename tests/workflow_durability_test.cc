// GestureRuntime durability semantics that the fork/kill harness
// (durability_crash_test.cc) does not pin down structurally: multi-session
// checkpoint/recover state restoration, bit-identical recovery of a
// gesture in flight across the cut through a smoothing kinect_t view, WAL
// replay of session open/close and deploy/undeploy mutations, recovery
// from an empty directory, the legacy-backend guard -- plus the session GC
// regression: a close -> reopen cycle leaves no trace in the engine.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cep_workload_test_util.h"
#include "kinect/gesture_shapes.h"
#include "kinect/sensor.h"
#include "kinect/synthesizer.h"
#include "test_util.h"
#include "workflow/gesture_runtime.h"

namespace epl::workflow {
namespace {

using cep::testing::DetectionRecord;
using cep::testing::Recorder;
using cep::testing::TrainedDefinitions;
using kinect::SkeletonFrame;
using kinect::UserProfile;

std::vector<SkeletonFrame> SomeFrames(uint64_t seed) {
  kinect::SessionBuilder builder(UserProfile(), seed);
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
  builder.Idle(0.2);
  builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
  return builder.TakeFrames();
}

GestureRuntimeOptions DurableOptions(const std::string& dir) {
  GestureRuntimeOptions options;
  options.backend = RuntimeBackend::kFused;
  options.durability.dir = dir;
  options.durability.segment_bytes = 2048;
  options.durability.sync_every_records = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Session GC (regression): close -> reopen leaves no trace.

TEST(SessionGcTest, CloseUnregistersNamespacedStreams) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  const std::vector<std::string> before = engine.StreamNames();

  EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime.OpenSession("alice"));
  EXPECT_TRUE(engine.HasStream("alice/kinect"));
  EXPECT_TRUE(engine.HasStream("alice/kinect_t"));
  const std::vector<SkeletonFrame> frames = SomeFrames(5);
  EPL_ASSERT_OK(runtime.PushFrame(session, frames[0]));

  EPL_ASSERT_OK(runtime.CloseSession(session));
  EPL_ASSERT_OK(runtime.Flush());
  EXPECT_FALSE(engine.HasStream("alice/kinect"));
  EXPECT_FALSE(engine.HasStream("alice/kinect_t"));
  // Only the shared session stream (registered on first use, shared by
  // future sessions) may remain beyond the initial set.
  for (const std::string& name : engine.StreamNames()) {
    EXPECT_TRUE(name == kSessionStreamName ||
                std::find(before.begin(), before.end(), name) != before.end())
        << "leaked stream: " << name;
  }
}

TEST(SessionGcTest, CloseReopenCycleIsClean) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(1);
  const std::vector<SkeletonFrame> frames = SomeFrames(6);

  std::vector<DetectionRecord> first_cycle, second_cycle;
  for (int cycle = 0; cycle < 2; ++cycle) {
    auto* out = cycle == 0 ? &first_cycle : &second_cycle;
    EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime.OpenSession("alice"));
    EPL_ASSERT_OK(runtime.Deploy(session, defs[0], Recorder(out)));
    EPL_ASSERT_OK(runtime.PushFrames(session, frames));
    EPL_ASSERT_OK(runtime.Flush());
    EPL_ASSERT_OK(runtime.CloseSession(session));
    EPL_ASSERT_OK(runtime.Flush());
    EXPECT_EQ(runtime.DeployedGestures(session).size(), 0u);
  }
  // A reopened session behaves exactly like the first one.
  EXPECT_EQ(second_cycle, first_cycle);
  EXPECT_FALSE(first_cycle.empty());
}

TEST(SessionGcTest, ReopenWhileOpenStillFails) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  EPL_ASSERT_OK(runtime.OpenSession("alice").status());
  EXPECT_FALSE(runtime.OpenSession("alice").ok());
}

// ---------------------------------------------------------------------------
// Checkpoint / Recover structural semantics.

TEST(WorkflowDurabilityTest, RecoverRestoresSessionsQueriesAndCounters) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path());
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(3);
  const std::vector<SkeletonFrame> frames = SomeFrames(7);
  const size_t half = frames.size() / 2;

  SessionId alice = -1;
  SessionId bob = -1;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    std::vector<DetectionRecord> sink;
    EPL_ASSERT_OK_AND_ASSIGN(alice, runtime.OpenSession("alice"));
    EPL_ASSERT_OK_AND_ASSIGN(bob, runtime.OpenSession("bob"));
    EPL_ASSERT_OK(runtime.Deploy(alice, defs[0], Recorder(&sink)));
    EPL_ASSERT_OK(runtime.Deploy(bob, defs[1], Recorder(&sink)));
    for (size_t i = 0; i < half; ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
      EPL_ASSERT_OK(runtime.PushFrame(bob, frames[i]));
    }
    EPL_ASSERT_OK(runtime.Checkpoint());
    // Everything below lands in the WAL suffix and must replay.
    EPL_ASSERT_OK(runtime.Deploy(alice, defs[2], Recorder(&sink)));
    EPL_ASSERT_OK(runtime.Undeploy(alice, defs[0].name));
    EPL_ASSERT_OK(runtime.CloseSession(bob));
    for (size_t i = half; i < frames.size(); ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
    }
    // No Flush, no clean shutdown: the runtime simply goes away.
  }

  stream::StreamEngine engine;
  std::vector<DetectionRecord> recovered_detections;
  RecoverStats stats;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(
          &engine, options,
          [&](SessionId, const std::string&) {
            return Recorder(&recovered_detections);
          },
          &stats));

  // The snapshot covered the pre-checkpoint prefix; the mutations and the
  // second half of alice's frames were replayed from the WAL.
  EXPECT_GT(stats.snapshot_seq, 0u);
  EXPECT_GT(stats.replayed_records, 0u);
  EXPECT_EQ(stats.ingested[alice], frames.size());
  EXPECT_EQ(runtime->ingested_events(alice), frames.size());

  // Alice survived with her post-checkpoint deployment set; bob's close
  // replayed, leaving no session and no streams.
  EPL_ASSERT_OK(runtime->SessionViewStream(alice).status());
  EXPECT_TRUE(runtime->IsDeployed(alice, defs[2].name));
  EXPECT_FALSE(runtime->IsDeployed(alice, defs[0].name));
  EXPECT_FALSE(runtime->SessionViewStream(bob).ok());
  EXPECT_FALSE(engine.HasStream("bob/kinect"));
  EXPECT_FALSE(engine.HasStream("bob/kinect_t"));
  EXPECT_TRUE(engine.HasStream("alice/kinect"));

  // The recovered runtime keeps working: new frames, new sessions, another
  // checkpoint cycle.
  EPL_ASSERT_OK(runtime->PushFrames(alice, SomeFrames(8)));
  EPL_ASSERT_OK(runtime->Flush());
  EPL_ASSERT_OK(runtime->Checkpoint());
  EPL_ASSERT_OK_AND_ASSIGN(SessionId carol, runtime->OpenSession("carol"));
  EXPECT_NE(carol, alice);
  EXPECT_NE(carol, bob);
}

// A user who swipes facing the camera, then turns and swipes again. The
// kinect_t view's smoothed yaw estimate (estimate_smoothing) lags the turn
// for dozens of frames, so at a cut right after the turn the view's
// smoothing state is far from that of a view starting afresh.
std::vector<SkeletonFrame> TurningFrames() {
  kinect::SessionBuilder facing(UserProfile(), 11);
  facing.Perform(kinect::GestureShapes::SwipeRight(), 0.2).Idle(0.4);
  std::vector<SkeletonFrame> frames = facing.TakeFrames();
  UserProfile turned_profile;
  turned_profile.yaw_rad = 0.35;
  kinect::SessionBuilder turned(turned_profile, 12);
  turned.Perform(kinect::GestureShapes::SwipeRight(), 0.2).Idle(0.4);
  turned.Perform(kinect::GestureShapes::RaiseHand(), 0.1).Idle(0.4);
  const TimePoint period = frames[1].timestamp - frames[0].timestamp;
  const TimePoint offset = frames.back().timestamp + period;
  for (SkeletonFrame frame : turned.TakeFrames()) {
    frame.timestamp += offset;
    frames.push_back(frame);
  }
  return frames;
}

TEST(WorkflowDurabilityTest, RecoveryIsBitIdenticalWithAGestureInFlight) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path());
  ASSERT_TRUE(options.transform_sessions);
  ASSERT_LT(options.transform.estimate_smoothing, 1.0);  // smoothing on
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(2);
  const std::vector<SkeletonFrame> frames = TurningFrames();
  // Mid-way through the second swipe, ~0.35 s into it (checked below).
  const size_t cut = 121;

  // The live run; the checkpoint flushes, so every detection of a frame
  // before the cut is delivered before it.
  std::vector<DetectionRecord> live;
  size_t at_cut = 0;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
    for (const core::GestureDefinition& definition : defs) {
      EPL_ASSERT_OK(runtime.Deploy(alice, definition, Recorder(&live)));
    }
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i == cut) {
        EPL_ASSERT_OK(runtime.Checkpoint());
        at_cut = live.size();
      }
      EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
    }
    EPL_ASSERT_OK(runtime.Flush());
    // No clean shutdown: the runtime simply goes away.
  }
  const std::vector<DetectionRecord> after_cut(
      live.begin() + static_cast<std::ptrdiff_t>(at_cut), live.end());

  // A gesture is in flight across the cut: it started before the
  // checkpoint and completes after it.
  ASSERT_FALSE(after_cut.empty());
  EXPECT_LT(after_cut.front().pose_times.front(), frames[cut].timestamp);

  stream::StreamEngine engine;
  std::vector<DetectionRecord> recovered;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [&](SessionId, const std::string&) {
                                return Recorder(&recovered);
                              }));
  EXPECT_EQ(recovered, after_cut);
}

TEST(WorkflowDurabilityTest, SessionIdsNeverRecycleAcrossRecovery) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path());
  SessionId bob = -1;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK(runtime.OpenSession("alice").status());
    EPL_ASSERT_OK_AND_ASSIGN(bob, runtime.OpenSession("bob"));
    EPL_ASSERT_OK(runtime.CloseSession(bob));
    EPL_ASSERT_OK(runtime.Flush());
    EPL_ASSERT_OK(runtime.Checkpoint());
  }
  stream::StreamEngine engine;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [](SessionId, const std::string&) {
                                return [](const cep::Detection&) {};
                              }));
  // A new session must not reuse bob's id, even though bob is gone: gates
  // and WAL records encode ids, so recycling one would cross-wire them.
  EPL_ASSERT_OK_AND_ASSIGN(SessionId carol, runtime->OpenSession("carol"));
  EXPECT_GT(carol, bob);
}

TEST(WorkflowDurabilityTest, RecoverFromEmptyDirIsAFreshStart) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path() + "/new");
  stream::StreamEngine engine;
  RecoverStats stats;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [](SessionId, const std::string&) {
                                return [](const cep::Detection&) {};
                              },
                              &stats));
  EXPECT_EQ(stats.snapshot_seq, 0u);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(runtime->num_deployed(), 0u);
  // And it is a perfectly usable durable runtime.
  EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime->OpenSession("alice"));
  EPL_ASSERT_OK(runtime->PushFrames(session, SomeFrames(9)));
  EPL_ASSERT_OK(runtime->Checkpoint());
}

TEST(WorkflowDurabilityTest, DurabilityRequiresSharedBackend) {
  epl::testing::ScopedTempDir dir;
  GestureRuntimeOptions options = DurableOptions(dir.path());
  options.backend = RuntimeBackend::kLegacyPerQuery;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  Status status = runtime.OpenSession("alice").status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
}

TEST(WorkflowDurabilityTest, CheckpointRequiresDurability) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);  // no durability dir
  EXPECT_EQ(runtime.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace epl::workflow
