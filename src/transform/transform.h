// Data transformation into a user-independent coordinate space
// (paper Sec. 3.2, Fig. 3).
//
// Three normalizations, each individually switchable (the invariance
// ablation experiment E2 turns them off):
//
//  * Position invariance: every joint is shifted by the torso position;
//    the torso becomes the origin.
//  * Orientation invariance: the skeleton is rotated about the vertical
//    axis by the user's estimated yaw (from the shoulder line) so that a
//    camera-facing orientation is canonical. Axis convention follows the
//    paper's Fig. 1/2 windows: X lateral, Y up, Z behind the user (poses
//    in front of the user have negative Z).
//  * Scale invariance: coordinates are divided by the right forearm length
//    (distance right hand to right elbow) and re-expressed in "reference
//    millimeters" (multiplied by the 280 mm reference forearm), so that
//    queries keep the familiar millimeter magnitudes of Fig. 1/2 while
//    being user-size independent.

#ifndef EPL_TRANSFORM_TRANSFORM_H_
#define EPL_TRANSFORM_TRANSFORM_H_

#include "common/vec3.h"
#include "kinect/body_model.h"
#include "kinect/skeleton.h"

namespace epl::transform {

struct TransformConfig {
  bool translate = true;  // torso-origin shift
  bool rotate = true;     // yaw normalization from the shoulder line
  bool scale = true;      // forearm-length normalization
  /// Reference forearm length used to keep scaled coordinates in
  /// millimeter-like magnitudes.
  double reference_forearm_mm = kinect::kReferenceForearmMm;
  /// Guard against degenerate skeletons: forearm lengths below this are
  /// treated as 1 (no scaling) to avoid dividing by ~0.
  double min_forearm_mm = 20.0;
  /// Exponential smoothing factor applied by the streaming kinect_t view
  /// to the per-frame forearm-length and yaw estimates (both are physical
  /// constants within a session; smoothing suppresses sensor noise that
  /// scaling would otherwise amplify at distant joints). 1 = no smoothing.
  /// Only the stateful TransformOperator uses this; the pure
  /// TransformFrame() helper always uses per-frame estimates.
  double estimate_smoothing = 0.15;
};

/// The running smoothed estimates of the streaming kinect_t view
/// (TransformOperator). Checkpoints carry it, so a recovered view goes on
/// transforming bit-identically to the live one. The default is the state
/// before the first frame: the first frame seeds both estimates.
struct TransformState {
  bool has_estimates = false;
  double smoothed_yaw = 0.0;
  double smoothed_forearm = 0.0;
};

/// Estimated yaw (radians) of the user from the shoulder line; 0 when the
/// user squarely faces the camera.
double EstimateYaw(const kinect::SkeletonFrame& frame);

/// Scale factor from this frame: right forearm length.
double MeasureForearmLength(const kinect::SkeletonFrame& frame);

/// Applies the configured normalizations to every joint. The transformed
/// frame's torso is at the origin (when translate is on).
kinect::SkeletonFrame TransformFrame(const kinect::SkeletonFrame& frame,
                                     const TransformConfig& config);

/// Like TransformFrame but with externally supplied (e.g. smoothed) yaw
/// and forearm-length estimates.
kinect::SkeletonFrame TransformFrameExplicit(
    const kinect::SkeletonFrame& frame, const TransformConfig& config,
    double yaw, double forearm_length);

/// Transforms a single point given reference data from `frame`.
Vec3 TransformPoint(const Vec3& point, const kinect::SkeletonFrame& frame,
                    const TransformConfig& config);

}  // namespace epl::transform

#endif  // EPL_TRANSFORM_TRANSFORM_H_
