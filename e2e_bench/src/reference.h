// Output checks of the end-to-end benchmark, computed apart from the
// runtime's fused, sharded and routed code: a standalone
// transform::TransformOperator rebuilds each session's kinect_t view, and
// cep::NfaMatcher -- the reference semantics every backend is fuzzed
// against -- replays each deployed query on it. The remaining checks are
// properties of the generator's script (idle stretches, scripted
// performances) and of the method (session isolation, composite windows).

#ifndef EPL_E2E_BENCH_REFERENCE_H_
#define EPL_E2E_BENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cep/detection.h"
#include "common/result.h"
#include "core/gesture_definition.h"
#include "core/query_gen.h"
#include "inputs.h"
#include "stream/event.h"
#include "transform/transform.h"
#include "util.h"

namespace epl::e2e {

/// One detection as the benchmark records it: `gesture` indexes the
/// session's gesture list, the rest is the cep::Detection payload.
struct Det {
  int gesture = -1;
  TimePoint time = 0;
  std::vector<TimePoint> pose_times;
  std::vector<double> measures;

  static Det From(int gesture, const cep::Detection& detection) {
    return Det{gesture, detection.time, detection.pose_times,
               detection.measures};
  }
  bool operator==(const Det& other) const {
    return gesture == other.gesture && time == other.time &&
           pose_times == other.pose_times && measures == other.measures;
  }
};

/// The session's kinect_t view events, from a fresh TransformOperator fed
/// the raw frames in order (the smoothing state is part of the view).
Result<std::vector<stream::Event>> ReferenceView(
    const Frames& raw, const transform::TransformConfig& config);

/// Detections of `definition` (recorded as gesture index `gesture`) when
/// cep::NfaMatcher alone runs its generated query over events
/// [begin, end) of `view`.
Result<std::vector<Det>> ReferenceDetections(
    const core::GestureDefinition& definition, int gesture,
    const std::vector<stream::Event>& view, size_t begin, size_t end,
    const core::QueryGenConfig& query);

/// Orders one session's detections by (time, gesture), the order the
/// per-session reference replays are merged in.
void SortByTime(std::vector<Det>* dets);

/// One definition of a session's gesture and the view index it is live
/// from (its deploy or hot-swap). It stays live until the next entry for
/// the same gesture; entries are in deploy order.
struct Deployed {
  int gesture = -1;
  size_t from = 0;
  const core::GestureDefinition* definition = nullptr;
};

/// The cep::NfaMatcher reference for one session: every entry of
/// `history` replayed over the view events it was live for, each with a
/// fresh matcher (a hot-swap starts the new query without partial runs),
/// merged by SortByTime.
Result<std::vector<Det>> ReferenceSession(
    const std::vector<Deployed>& history,
    const std::vector<stream::Event>& view,
    const core::QueryGenConfig& query);

/// Where a recovery that restarts the session's kinect_t view at view
/// index `cut` rejoins the live run. `live` is the view of the whole live
/// run; `recovered` is the view a fresh TransformOperator builds from the
/// frames from `cut` on (recovered[i] stands for live[cut + i]). Returns,
/// per gesture index in [0, gestures), the first view index >= cut from
/// which both views agree bit-for-bit and the gesture's NfaMatcher holds
/// the same partial runs on both: from there on a correct recovery
/// delivers exactly the live detections. SIZE_MAX if that never happens.
Result<std::vector<size_t>> RejoinIndices(
    const std::vector<Deployed>& history, int gestures,
    const std::vector<stream::Event>& live,
    const std::vector<stream::Event>& recovered, size_t cut,
    const core::QueryGenConfig& query);

/// Session isolation, as the detection callbacks see it: a detection must
/// complete on a frame of its own session (frame timestamps are unique
/// across sessions) and carry its own gesture's name.
struct Isolation {
  uint64_t foreign = 0;
  uint64_t misnamed = 0;

  /// Index of the frame of `own` (sorted timestamps) the detection at `t`
  /// completed on, or -1 (counted as foreign).
  int64_t Admit(const std::vector<TimePoint>& own, TimePoint t,
                const std::string& name, const std::string& expected);
  void Check(Checks* checks) const;
};

/// No detection of `dets` lies inside a settled kIdle segment of `script`.
/// `offset` is subtracted from detection times first (later passes of a
/// replay are time-shifted copies of the script).
void CheckNoIdleDetections(const SessionScript& script,
                           const std::vector<Det>& dets, TimePoint offset,
                           const std::string& label, Checks* checks);

/// Recall bookkeeping: a scripted performance of shape X counts as
/// detected by the session's gesture g (whose shape is X) if g fires
/// between the performance's first frame and 0.4 s after its last. Counts
/// are kept per recall key: `gesture_key[g]` (the fleet-wide gesture in
/// the replays, the shape in the per-user interactive fleet).
struct Recall {
  std::vector<uint64_t> performed;  // per key
  std::vector<uint64_t> detected;   // per key

  explicit Recall(size_t keys) : performed(keys, 0), detected(keys, 0) {}
  void Add(const SessionScript& script, const std::vector<int>& gesture_shape,
           const std::vector<int>& gesture_key, const std::vector<Det>& dets);
};

/// The paper's E4 claim ("usually, 3-5 samples are sufficient to achieve
/// acceptable results"), read as: most gestures -- the median gesture --
/// detect at least 90% of their own scripted performances. "Usually"
/// leaves room for a gesture whose single trainer generalizes badly to the
/// session users; every gesture's rate is printed on stderr.
void CheckRecall(const Recall& recall, const std::vector<std::string>& names,
                 Checks* checks);

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_REFERENCE_H_
