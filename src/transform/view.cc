#include "transform/view.h"

#include "common/logging.h"
#include "kinect/skeleton.h"

namespace epl::transform {

using kinect::FrameFromEvent;
using kinect::FrameToEvent;
using kinect::KinectSchema;
using kinect::SkeletonFrame;

const stream::Schema& KinectTSchema() {
  static const stream::Schema* schema = [] {
    auto* built = new stream::Schema(KinectSchema());
    built->AddField("rForearm_roll");
    built->AddField("rForearm_pitch");
    built->AddField("rForearm_yaw");
    built->AddField("lForearm_roll");
    built->AddField("lForearm_pitch");
    built->AddField("lForearm_yaw");
    EPL_CHECK(built->Validate().ok());
    return built;
  }();
  return *schema;
}

TransformOperator::TransformOperator(TransformConfig config)
    : config_(config) {}

Status TransformOperator::Process(const stream::Event& event) {
  EPL_ASSIGN_OR_RETURN(SkeletonFrame frame, FrameFromEvent(event));

  double yaw = EstimateYaw(frame);
  double forearm = MeasureForearmLength(frame);
  double alpha = config_.estimate_smoothing;
  if (!state_.has_estimates || alpha >= 1.0) {
    state_.smoothed_yaw = yaw;
    state_.smoothed_forearm = forearm;
    state_.has_estimates = true;
  } else {
    // Shortest-path blend for the angle to behave across the +-pi seam.
    double delta = yaw - state_.smoothed_yaw;
    while (delta > M_PI) {
      delta -= 2.0 * M_PI;
    }
    while (delta < -M_PI) {
      delta += 2.0 * M_PI;
    }
    state_.smoothed_yaw += alpha * delta;
    state_.smoothed_forearm += alpha * (forearm - state_.smoothed_forearm);
  }
  SkeletonFrame transformed = TransformFrameExplicit(
      frame, config_, state_.smoothed_yaw, state_.smoothed_forearm);

  stream::Event out = FrameToEvent(transformed);
  RollPitchYaw right = ForearmAngles(transformed, /*right_side=*/true);
  RollPitchYaw left = ForearmAngles(transformed, /*right_side=*/false);
  out.values.push_back(right.roll);
  out.values.push_back(right.pitch);
  out.values.push_back(right.yaw);
  out.values.push_back(left.roll);
  out.values.push_back(left.pitch);
  out.values.push_back(left.yaw);
  return Forward(out);
}

Status RegisterKinectTView(stream::StreamEngine* engine,
                           TransformConfig config) {
  return engine->RegisterView(kKinectTViewName, "kinect",
                              std::make_unique<TransformOperator>(config),
                              KinectTSchema());
}

}  // namespace epl::transform
