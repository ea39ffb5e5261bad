#include "cep/composite.h"

#include <utility>

#include "common/logging.h"

namespace epl::cep {

const stream::Schema& DetectionSchema() {
  static const stream::Schema* schema = [] {
    auto* s = new stream::Schema(std::vector<std::string>{
        kDetectionGestureField, kDetectionSessionField,
        kDetectionDurationField});
    return s;
  }();
  return *schema;
}

double GestureTag(std::string_view name) {
  uint32_t hash = 2166136261u;
  for (unsigned char c : name) {
    hash ^= c;
    hash *= 16777619u;
  }
  // A 32-bit integer is exactly representable as a double, so the tag
  // survives event-value round-trips and range-predicate comparisons.
  return static_cast<double>(hash);
}

stream::Event MakeDerivedEvent(double tag, double session_tag,
                               const Detection& detection) {
  stream::Event event;
  event.timestamp = detection.time;
  event.values = {tag, session_tag,
                  static_cast<double>(detection.duration())};
  return event;
}

CompositeRunner::CompositeRunner(MatcherOptions options)
    : options_(options) {}

CompositeRunner::Level& CompositeRunner::LevelFor(int level) {
  EPL_CHECK(level >= 1) << "composite level must be >= 1, got " << level;
  const size_t index = static_cast<size_t>(level - 1);
  while (levels_.size() <= index) {
    levels_.push_back(std::make_unique<Level>(options_));
  }
  return *levels_[index];
}

bool CompositeRunner::Find(int id, size_t* level_index,
                           size_t* query_index) const {
  for (size_t k = 0; k < levels_.size(); ++k) {
    const Level& level = *levels_[k];
    for (size_t q = 0; q < level.queries.size(); ++q) {
      if (level.queries[q].id == id) {
        *level_index = k;
        *query_index = q;
        return true;
      }
    }
  }
  return false;
}

bool CompositeRunner::Has(int id) const {
  size_t k, q;
  return Find(id, &k, &q);
}

void CompositeRunner::Add(CompositeQuery query) {
  EPL_CHECK(query.pattern != nullptr);
  EPL_CHECK(!Has(query.id)) << "duplicate composite query id " << query.id;
  Level& level = LevelFor(query.level);
  level.matcher.AddPattern(query.pattern.get());
  level.queries.push_back(std::move(query));
  ++num_queries_;
}

Status CompositeRunner::Remove(int id) {
  size_t k, q;
  if (!Find(id, &k, &q)) {
    return NotFoundError("unknown composite query id " + std::to_string(id));
  }
  Level& level = *levels_[k];
  level.matcher.RemovePattern(static_cast<int>(q));
  level.queries.erase(level.queries.begin() + static_cast<long>(q));
  --num_queries_;
  return OkStatus();
}

Result<NfaRunState> CompositeRunner::ExportRunState(int id) {
  size_t k, q;
  if (!Find(id, &k, &q)) {
    return NotFoundError("unknown composite query id " + std::to_string(id));
  }
  return levels_[k]->matcher.matcher(static_cast<int>(q)).ExportRunState();
}

Status CompositeRunner::Restore(CompositeQuery query,
                                const NfaRunState& runs) {
  EPL_CHECK(query.pattern != nullptr);
  EPL_CHECK(!Has(query.id)) << "duplicate composite query id " << query.id;
  auto matcher = std::make_unique<NfaMatcher>(query.pattern.get(), options_);
  EPL_RETURN_IF_ERROR(matcher->ImportRunState(runs));
  Level& level = LevelFor(query.level);
  level.matcher.AdoptPattern(std::move(matcher));
  level.queries.push_back(std::move(query));
  ++num_queries_;
  return OkStatus();
}

Result<MatcherStats> CompositeRunner::QueryStats(int id) const {
  size_t k, q;
  if (!Find(id, &k, &q)) {
    return NotFoundError("unknown composite query id " + std::to_string(id));
  }
  return levels_[k]->matcher.matcher(static_cast<int>(q)).stats();
}

void CompositeRunner::Reset() {
  for (auto& level : levels_) {
    level->matcher.Reset();
  }
}

void CompositeRunner::BeginEpoch() { epoch_.clear(); }

void CompositeRunner::CollectBase(double tag, double session_tag,
                                  const Detection& detection) {
  if (!active()) {
    return;
  }
  epoch_.push_back(MakeDerivedEvent(tag, session_tag, detection));
}

void CompositeRunner::RunEpoch() {
  // An epoch with no base detections is a pure no-op for every composite
  // pattern (no eager run expiry in the matcher runtime), so skipping it
  // is exact -- this is what keeps flat-path overhead near zero.
  if (epoch_.empty() || num_queries_ == 0) {
    return;
  }
  for (size_t k = 0; k < levels_.size(); ++k) {
    Level& level = *levels_[k];
    // Derived events appended by THIS level become visible to the next
    // level only; the cutoff freezes this level's input set.
    const size_t visible = epoch_.size();
    spill_.clear();
    if (!level.queries.empty()) {
      const bool feeds_higher = k + 1 < levels_.size();
      scratch_.clear();
      level.matcher.ProcessBatch(epoch_.data(), visible, &scratch_);
      // Matches arrive in (batch_index, pattern_index) order, i.e. in
      // collection order and then registration order: the documented
      // (event-seq, level, query-id) total order.
      for (const MultiPatternMatcher::MultiMatch& mm : scratch_) {
        const CompositeQuery& query =
            level.queries[static_cast<size_t>(mm.pattern_index)];
        const stream::Event& source =
            epoch_[static_cast<size_t>(mm.batch_index)];
        Detection detection;
        detection.name = query.output_name;
        detection.time = mm.match.end_time();
        detection.pose_times = mm.match.state_times;
        detection.measures.reserve(query.measures.size());
        for (const ExprProgram& program : query.measures) {
          detection.measures.push_back(program.Eval(source));
        }
        if (query.callback) {
          query.callback(detection);
        }
        if (feeds_higher) {
          spill_.push_back(
              MakeDerivedEvent(query.tag, query.session_tag, detection));
        }
      }
    }
    for (stream::Event& event : spill_) {
      epoch_.push_back(std::move(event));
    }
  }
}

}  // namespace epl::cep
