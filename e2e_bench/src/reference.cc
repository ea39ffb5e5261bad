#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <tuple>

#include "cep/matcher.h"
#include "query/compiler.h"
#include "stream/operator.h"
#include "transform/view.h"

namespace epl::e2e {

namespace {

/// Collects whatever its upstream forwards.
class Collector : public stream::Operator {
 public:
  explicit Collector(std::vector<stream::Event>* out) : out_(out) {}
  Status Process(const stream::Event& event) override {
    out_->push_back(event);
    return OkStatus();
  }

 private:
  std::vector<stream::Event>* out_;
};

constexpr Duration kRecallSlack = 400 * kMillisecond;

}  // namespace

Result<std::vector<stream::Event>> ReferenceView(
    const Frames& raw, const transform::TransformConfig& config) {
  std::vector<stream::Event> view;
  view.reserve(raw.size());
  transform::TransformOperator transform(config);
  Collector collector(&view);
  transform.AddDownstream(&collector);
  for (const kinect::SkeletonFrame& frame : raw) {
    EPL_RETURN_IF_ERROR(transform.Process(kinect::FrameToEvent(frame)));
  }
  return view;
}

Result<std::vector<Det>> ReferenceDetections(
    const core::GestureDefinition& definition, int gesture,
    const std::vector<stream::Event>& view, size_t begin, size_t end,
    const core::QueryGenConfig& query) {
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       core::GenerateQuery(definition, query));
  EPL_ASSIGN_OR_RETURN(
      query::CompiledQuery compiled,
      query::CompileQuery(parsed, transform::KinectTSchema()));
  cep::NfaMatcher matcher(&compiled.pattern);
  std::vector<Det> out;
  std::vector<cep::PatternMatch> matches;
  for (size_t i = begin; i < end && i < view.size(); ++i) {
    matches.clear();
    matcher.Process(view[i], &matches);
    for (const cep::PatternMatch& match : matches) {
      Det det;
      det.gesture = gesture;
      det.time = match.end_time();
      det.pose_times = match.state_times;
      for (const cep::ExprProgram& program : compiled.measures) {
        det.measures.push_back(program.Eval(view[i]));
      }
      out.push_back(std::move(det));
    }
  }
  return out;
}

void SortByTime(std::vector<Det>* dets) {
  std::stable_sort(dets->begin(), dets->end(),
                   [](const Det& a, const Det& b) {
                     return std::tie(a.time, a.gesture) <
                            std::tie(b.time, b.gesture);
                   });
}

Result<std::vector<Det>> ReferenceSession(
    const std::vector<Deployed>& history,
    const std::vector<stream::Event>& view,
    const core::QueryGenConfig& query) {
  std::vector<Det> expected;
  for (size_t e = 0; e < history.size(); ++e) {
    size_t end = view.size();
    for (size_t next = e + 1; next < history.size(); ++next) {
      if (history[next].gesture == history[e].gesture) {
        end = history[next].from;
        break;
      }
    }
    EPL_ASSIGN_OR_RETURN(
        std::vector<Det> dets,
        ReferenceDetections(*history[e].definition, history[e].gesture, view,
                            history[e].from, end, query));
    expected.insert(expected.end(), dets.begin(), dets.end());
  }
  SortByTime(&expected);
  return expected;
}

Result<std::vector<size_t>> RejoinIndices(
    const std::vector<Deployed>& history, int gestures,
    const std::vector<stream::Event>& live,
    const std::vector<stream::Event>& recovered, size_t cut,
    const core::QueryGenConfig& query) {
  if (cut > live.size() || live.size() - cut != recovered.size()) {
    return InvalidArgumentError("recovered view does not cover the cut");
  }
  // From `settled` on, the two views are bit-identical.
  size_t settled = live.size();
  while (settled > cut &&
         live[settled - 1].timestamp ==
             recovered[settled - 1 - cut].timestamp &&
         live[settled - 1].values == recovered[settled - 1 - cut].values) {
    --settled;
  }
  auto same_runs = [](const cep::NfaMatcher& a, const cep::NfaMatcher& b) {
    const cep::NfaRunState x = a.ExportRunState();
    const cep::NfaRunState y = b.ExportRunState();
    if (x.runs.size() != y.runs.size()) {
      return false;
    }
    for (size_t r = 0; r < x.runs.size(); ++r) {
      if (x.runs[r].state != y.runs[r].state ||
          x.runs[r].times != y.runs[r].times) {
        return false;
      }
    }
    return true;
  };
  std::vector<size_t> rejoin(static_cast<size_t>(gestures), SIZE_MAX);
  for (int g = 0; g < gestures; ++g) {
    // The gesture's definitions, in deploy order.
    std::vector<const Deployed*> own;
    for (const Deployed& entry : history) {
      if (entry.gesture == g) {
        own.push_back(&entry);
      }
    }
    if (own.empty()) {
      continue;
    }
    std::vector<std::unique_ptr<query::CompiledQuery>> compiled;
    auto compile = [&](const Deployed& entry) -> Status {
      EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                           core::GenerateQuery(*entry.definition, query));
      EPL_ASSIGN_OR_RETURN(
          query::CompiledQuery done,
          query::CompileQuery(parsed, transform::KinectTSchema()));
      compiled.push_back(
          std::make_unique<query::CompiledQuery>(std::move(done)));
      return OkStatus();
    };
    // The live matcher up to the cut, on the definition live at the cut.
    size_t next = 0;
    while (next + 1 < own.size() && own[next + 1]->from <= cut) {
      ++next;
    }
    EPL_RETURN_IF_ERROR(compile(*own[next]));
    auto a = std::make_unique<cep::NfaMatcher>(&compiled.back()->pattern);
    std::vector<cep::PatternMatch> discard;
    for (size_t i = own[next]->from; i < cut; ++i) {
      a->Process(live[i], &discard);
      discard.clear();
    }
    // The recovered matcher resumes from the live runs at the cut.
    auto b = std::make_unique<cep::NfaMatcher>(&compiled.back()->pattern);
    EPL_RETURN_IF_ERROR(b->ImportRunState(a->ExportRunState()));
    ++next;
    for (size_t i = cut; i <= live.size(); ++i) {
      if (next < own.size() && own[next]->from == i) {
        // A hot-swap starts both sides on the new query without runs.
        EPL_RETURN_IF_ERROR(compile(*own[next++]));
        a = std::make_unique<cep::NfaMatcher>(&compiled.back()->pattern);
        b = std::make_unique<cep::NfaMatcher>(&compiled.back()->pattern);
      }
      if (i >= settled && same_runs(*a, *b)) {
        rejoin[static_cast<size_t>(g)] = i;
        break;
      }
      if (i == live.size()) {
        break;
      }
      a->Process(live[i], &discard);
      b->Process(recovered[i - cut], &discard);
      discard.clear();
    }
  }
  return rejoin;
}

int64_t Isolation::Admit(const std::vector<TimePoint>& own, TimePoint t,
                         const std::string& name,
                         const std::string& expected) {
  auto it = std::lower_bound(own.begin(), own.end(), t);
  if (it == own.end() || *it != t) {
    ++foreign;
    return -1;
  }
  if (name != expected) {
    ++misnamed;
  }
  return it - own.begin();
}

void Isolation::Check(Checks* checks) const {
  checks->Expect(foreign == 0,
                 std::to_string(foreign) +
                     " detections completed on another session's frame");
  checks->Expect(misnamed == 0,
                 std::to_string(misnamed) +
                     " detections carried another gesture's name");
}

void CheckNoIdleDetections(const SessionScript& script,
                           const std::vector<Det>& dets, TimePoint offset,
                           const std::string& label, Checks* checks) {
  for (const Det& det : dets) {
    const TimePoint t = det.time - offset;
    for (const Segment& segment : script.segments) {
      if (segment.kind == Segment::Kind::kIdle && t >= segment.begin &&
          t <= segment.end) {
        checks->Expect(false, label + ": detection of gesture " +
                                  std::to_string(det.gesture) +
                                  " inside a scripted idle stretch at t=" +
                                  std::to_string(t));
      }
    }
  }
}

void Recall::Add(const SessionScript& script,
                 const std::vector<int>& gesture_shape,
                 const std::vector<int>& gesture_key,
                 const std::vector<Det>& dets) {
  for (const Segment& segment : script.segments) {
    if (segment.kind != Segment::Kind::kPerform) {
      continue;
    }
    for (size_t g = 0; g < gesture_shape.size(); ++g) {
      if (gesture_shape[g] != segment.shape) {
        continue;
      }
      const auto key = static_cast<size_t>(gesture_key[g]);
      ++performed[key];
      for (const Det& det : dets) {
        if (det.gesture == static_cast<int>(g) && det.time >= segment.begin &&
            det.time <= segment.end + kRecallSlack) {
          ++detected[key];
          break;
        }
      }
    }
  }
}

void CheckRecall(const Recall& recall, const std::vector<std::string>& names,
                 Checks* checks) {
  std::vector<double> rates;
  std::string summary;
  for (size_t g = 0; g < recall.performed.size(); ++g) {
    if (recall.performed[g] == 0) {
      continue;
    }
    const double rate = static_cast<double>(recall.detected[g]) /
                        static_cast<double>(recall.performed[g]);
    rates.push_back(rate);
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), " %s=%.2f", names[g].c_str(), rate);
    summary += buffer;
  }
  std::fprintf(stderr, "e2e_bench: recall%s\n", summary.c_str());
  checks->Expect(!rates.empty(), "no scripted performance was checked");
  const double median = Median(rates);
  checks->Expect(median >= 0.9, "median gesture recall " +
                                    std::to_string(median) +
                                    " is below the E4 bound 0.9");
}

}  // namespace epl::e2e
