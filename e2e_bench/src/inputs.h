// Seeded inputs of the end-to-end benchmark: user panels, scripted
// sessions (kinect::SessionBuilder) with their segment boundaries, and
// training recordings for core::GestureLearner. Everything here is a pure
// function of the seed; the runtime only ever sees the frames.

#ifndef EPL_E2E_BENCH_INPUTS_H_
#define EPL_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/gesture_definition.h"
#include "core/learner.h"
#include "kinect/body_model.h"
#include "kinect/gesture_shapes.h"
#include "kinect/skeleton.h"
#include "transform/transform.h"

namespace epl::e2e {

using Frames = std::vector<kinect::SkeletonFrame>;

/// The gesture vocabulary: every shape of kinect::GestureShapes, in
/// catalog order. A "shape index" below indexes this list.
const std::vector<kinect::GestureShape>& Vocabulary();

/// One scripted stretch of a session.
struct Segment {
  enum class Kind { kIdle, kPerform };
  Kind kind = Kind::kIdle;
  /// Shape index performed (kPerform only).
  int shape = -1;
  /// First and last frame timestamp of the stretch. For kIdle this is the
  /// settled part: the 0.35 s return-to-neutral move that starts every
  /// SessionBuilder::Idle is excluded.
  TimePoint begin = 0;
  TimePoint end = 0;
};

struct SessionScript {
  kinect::UserProfile user;
  /// Raw camera-space frames; timestamps carry the session's phase.
  Frames frames;
  std::vector<Segment> segments;
};

/// A user drawn from the panel the paper's invariance claim covers:
/// height, torso position and yaw vary.
kinect::UserProfile RandomUser(Rng* rng);

/// Idle(lead_s), then for every shape of `order`: Perform(shape, dwell)
/// followed by Idle(gap_s). Timestamps are shifted by `phase` so that no
/// two sessions share a frame timestamp.
SessionScript BuildScript(const kinect::UserProfile& user, uint64_t seed,
                          const std::vector<int>& order, double lead_s,
                          double gap_s, TimePoint phase);

/// Arrival order of every frame with a timestamp before `end`, as
/// (session index, frame index) sorted by timestamp.
std::vector<std::pair<int, int>> ArrivalOrder(
    const std::vector<SessionScript>& scripts, TimePoint end);

/// `count` raw recordings of one performance of `shape` by `user`.
std::vector<Frames> Recordings(const kinect::UserProfile& user, int shape,
                               int count, uint64_t seed);

/// A learner for `shape`'s involved joints.
core::GestureLearner MakeLearner(const std::string& name, int shape);

/// Feeds one raw recording to `learner`: every frame goes through
/// transform::TransformFrame (the learning workflow's user-space view),
/// then core::GestureLearner::AddSample.
Status AddRecording(core::GestureLearner* learner, const Frames& recording,
                    const transform::TransformConfig& transform);

/// Seeded permutation of [0, n).
std::vector<int> Permutation(int n, Rng* rng);

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_INPUTS_H_
