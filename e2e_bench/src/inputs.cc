#include "inputs.h"

#include <algorithm>
#include <utility>

#include "kinect/sensor.h"
#include "kinect/synthesizer.h"

namespace epl::e2e {

namespace {

/// Frames of the return-to-neutral move at the start of every
/// SessionBuilder::Idle (FrameSynthesizer::MoveTo's 0.35 s default at
/// 30 Hz, rounded up).
constexpr size_t kIdleTransitionFrames = 11;

}  // namespace

const std::vector<kinect::GestureShape>& Vocabulary() {
  static const std::vector<kinect::GestureShape>* shapes = [] {
    auto* out = new std::vector<kinect::GestureShape>();
    for (const std::string& name : kinect::GestureShapes::Names()) {
      Result<kinect::GestureShape> shape = kinect::GestureShapes::ByName(name);
      if (shape.ok()) {
        out->push_back(std::move(shape).value());
      }
    }
    return out;
  }();
  return *shapes;
}

kinect::UserProfile RandomUser(Rng* rng) {
  kinect::UserProfile user;
  user.height_mm = rng->Uniform(1300.0, 2000.0);
  user.arm_scale = rng->Uniform(0.95, 1.05);
  user.torso_position = Vec3(rng->Uniform(-500.0, 500.0),
                             rng->Uniform(-80.0, 260.0),
                             rng->Uniform(1700.0, 3000.0));
  user.yaw_rad = rng->Uniform(-0.45, 0.45);
  return user;
}

SessionScript BuildScript(const kinect::UserProfile& user, uint64_t seed,
                          const std::vector<int>& order, double lead_s,
                          double gap_s, TimePoint phase) {
  SessionScript script;
  script.user = user;
  kinect::SessionBuilder builder(user, seed);
  // Segment bounds are frame indices while the script grows, converted to
  // timestamps once the frames are final.
  struct Span {
    Segment::Kind kind;
    int shape;
    size_t first;
    size_t last;
  };
  std::vector<Span> spans;
  auto idle = [&](double seconds) {
    const size_t before = builder.frames().size();
    builder.Idle(seconds);
    const size_t after = builder.frames().size();
    if (after > before + kIdleTransitionFrames) {
      spans.push_back(Span{Segment::Kind::kIdle, -1,
                           before + kIdleTransitionFrames, after - 1});
    }
  };
  idle(lead_s);
  for (int shape : order) {
    const size_t before = builder.frames().size();
    builder.Perform(Vocabulary()[static_cast<size_t>(shape)], 0.3);
    spans.push_back(Span{Segment::Kind::kPerform, shape, before,
                         builder.frames().size() - 1});
    idle(gap_s);
  }
  script.frames = builder.TakeFrames();
  for (kinect::SkeletonFrame& frame : script.frames) {
    frame.timestamp += phase;
  }
  for (const Span& span : spans) {
    script.segments.push_back(Segment{span.kind, span.shape,
                                      script.frames[span.first].timestamp,
                                      script.frames[span.last].timestamp});
  }
  return script;
}

std::vector<std::pair<int, int>> ArrivalOrder(
    const std::vector<SessionScript>& scripts, TimePoint end) {
  std::vector<std::pair<int, int>> feed;
  for (size_t s = 0; s < scripts.size(); ++s) {
    const Frames& frames = scripts[s].frames;
    for (size_t k = 0; k < frames.size() && frames[k].timestamp < end; ++k) {
      feed.emplace_back(static_cast<int>(s), static_cast<int>(k));
    }
  }
  auto ts = [&scripts](const std::pair<int, int>& item) {
    return scripts[static_cast<size_t>(item.first)]
        .frames[static_cast<size_t>(item.second)]
        .timestamp;
  };
  std::stable_sort(feed.begin(), feed.end(),
                   [&ts](const auto& a, const auto& b) {
                     return ts(a) < ts(b);
                   });
  return feed;
}

std::vector<Frames> Recordings(const kinect::UserProfile& user, int shape,
                               int count, uint64_t seed) {
  std::vector<Frames> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(kinect::SynthesizeSample(
        user, Vocabulary()[static_cast<size_t>(shape)],
        seed + static_cast<uint64_t>(i) * 7919));
  }
  return out;
}

core::GestureLearner MakeLearner(const std::string& name, int shape) {
  return core::GestureLearner(
      name, Vocabulary()[static_cast<size_t>(shape)].InvolvedJoints());
}

Status AddRecording(core::GestureLearner* learner, const Frames& recording,
                    const transform::TransformConfig& transform) {
  Frames transformed;
  transformed.reserve(recording.size());
  for (const kinect::SkeletonFrame& frame : recording) {
    transformed.push_back(transform::TransformFrame(frame, transform));
  }
  return learner->AddSample(transformed);
}

std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(rng->UniformInt(0, i));
    std::swap(out[static_cast<size_t>(i)], out[j]);
  }
  return out;
}

}  // namespace epl::e2e
