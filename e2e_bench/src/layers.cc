#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "cep/composite.h"
#include "cep/expr.h"
#include "cep/multi_match_operator.h"
#include "cep/pattern.h"
#include "cep/predicate_bank.h"
#include "cep/sharded_engine.h"
#include "durability/codec.h"
#include "durability/event_log.h"
#include "durability/snapshot.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "transform/view.h"
#include "trace.h"
#include "util.h"
#include "workflow/gesture_runtime.h"

namespace epl::e2e {

namespace {

constexpr int kRepetitions = 3;

class Sink : public stream::Operator {
 public:
  Status Process(const stream::Event&) override { return OkStatus(); }
};

/// Collects a view's output, stamped with the session id the way the
/// runtime's merge tap stamps it.
class Stamp : public stream::Operator {
 public:
  Stamp(int session, std::vector<stream::Event>* out)
      : session_(session), out_(out) {}
  Status Process(const stream::Event& event) override {
    out_->push_back(event);
    out_->back().values.push_back(static_cast<double>(session_));
    return OkStatus();
  }

 private:
  int session_;
  std::vector<stream::Event>* out_;
};

/// Median over repetitions of `run()`'s nanoseconds, per event.
template <typename Fn>
double NsPerEvent(size_t events, Fn&& run) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) {
    const int64_t start = NowNs();
    run();
    samples.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(std::max<size_t>(1, events)));
  }
  return Median(samples);
}

struct Compiled {
  int session = 0;
  std::string name;
  query::ParsedQuery parsed;  // rescoped onto the session stream
  query::CompiledQuery query;
};

}  // namespace

Result<LayerNumbers> MeasureLayers(const LayerInputs& inputs) {
  LayerNumbers numbers;
  const size_t events = inputs.feed.size();
  const char* const session_stream = workflow::kSessionStreamName;

  // The session stream schema: the kinect_t view's fields plus `session`.
  stream::Schema schema = transform::KinectTSchema();
  schema.AddField(workflow::kSessionFieldName);
  stream::StreamEngine engine;
  EPL_RETURN_IF_ERROR(engine.RegisterStream(session_stream, schema));
  EPL_ASSIGN_OR_RETURN(const int session_field,
                       schema.FieldIndex(workflow::kSessionFieldName));

  // transform: each session's kinect_t view operator over its raw frames
  // (this also yields the merged events every later layer consumes).
  std::vector<stream::Event> raw;
  raw.reserve(events);
  for (const auto& [session, frame] : inputs.feed) {
    raw.push_back(kinect::FrameToEvent(*frame));
  }
  std::vector<stream::Event> merged;
  merged.reserve(events);
  std::vector<stream::Event> discard;
  std::vector<double> transform_samples;
  for (int r = 0; r < kRepetitions; ++r) {
    std::map<int, std::unique_ptr<transform::TransformOperator>> views;
    std::map<int, std::unique_ptr<Stamp>> stamps;
    std::vector<stream::Event>* out = r == 0 ? &merged : &discard;
    discard.clear();
    for (const auto& [session, frame] : inputs.feed) {
      if (views.count(session) == 0) {
        views[session] =
            std::make_unique<transform::TransformOperator>(inputs.transform);
        stamps[session] = std::make_unique<Stamp>(session, out);
        views[session]->AddDownstream(stamps[session].get());
      }
    }
    std::vector<transform::TransformOperator*> order;
    for (const auto& [session, frame] : inputs.feed) {
      order.push_back(views[session].get());
    }
    const int64_t start = NowNs();
    for (size_t i = 0; i < events; ++i) {
      EPL_RETURN_IF_ERROR(order[i]->Process(raw[i]));
    }
    transform_samples.push_back(
        static_cast<double>(NowNs() - start) /
        static_cast<double>(std::max<size_t>(1, events)));
  }
  numbers.transform_ns = Median(transform_samples);

  // stream: StreamEngine::Push of the merged events to one subscriber.
  {
    auto sink = std::make_unique<Sink>();
    EPL_RETURN_IF_ERROR(
        engine.Deploy(session_stream, std::move(sink)).status());
    bool ok = true;
    numbers.publish_ns = NsPerEvent(events, [&] {
      for (const stream::Event& event : merged) {
        ok = engine.Push(session_stream, event).ok() && ok;
      }
    });
    if (!ok) {
      return InternalError("StreamEngine::Push failed in the layer replay");
    }
  }

  // query: generate + compile every deployed query, rescoped like the
  // runtime rescopes session queries.
  std::vector<std::unique_ptr<Compiled>> compiled;
  std::vector<double> compile_us;
  for (const auto& [session, definition] : inputs.queries) {
    auto entry = std::make_unique<Compiled>();
    entry->session = session;
    entry->name = definition->name;
    const int64_t start = NowNs();
    EPL_ASSIGN_OR_RETURN(entry->parsed,
                         core::GenerateQuery(*definition, inputs.query));
    entry->parsed.pattern =
        entry->parsed.pattern->Rescope(session_stream, nullptr);
    EPL_ASSIGN_OR_RETURN(entry->query,
                         query::CompileQuery(entry->parsed, schema));
    compile_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    compiled.push_back(std::move(entry));
  }
  numbers.compile_us = Median(compile_us);

  // cep bank: every deployed pattern registered, identical predicates
  // deduplicated as in the runtime; EvaluateBatch in the workload's
  // batch size.
  {
    cep::PredicateBank bank;
    for (const auto& entry : compiled) {
      bank.RegisterPattern(entry->query.pattern);
    }
    bank.Build();
    const size_t batch = std::max<size_t>(1, inputs.batch_size);
    numbers.bank_eval_ns = NsPerEvent(events, [&] {
      for (size_t i = 0; i < events; i += batch) {
        bank.EvaluateBatch(&merged[i], std::min(batch, events - i));
      }
    });
    const cep::PredicateBankStats& stats = bank.stats();
    numbers.memo_hit_ratio =
        stats.region_searches + stats.region_memo_hits == 0
            ? 0.0
            : static_cast<double>(stats.region_memo_hits) /
                  static_cast<double>(stats.region_searches +
                                      stats.region_memo_hits);
  }

  // Query specs with the runtime's per-session group gates.
  std::map<int, std::shared_ptr<const cep::CompiledPattern>> gates;
  uint64_t detections = 0;
  using Specs = std::vector<cep::MultiMatchOperator::QuerySpec>;
  auto make_specs = [&]() -> Result<Specs> {
    Specs specs;
    for (const auto& entry : compiled) {
      std::shared_ptr<const cep::CompiledPattern>& gate =
          gates[entry->session];
      if (gate == nullptr) {
        cep::PatternExprPtr pose = cep::PatternExpr::Pose(
            session_stream,
            cep::Expr::RangePredicate(workflow::kSessionFieldName,
                                      static_cast<double>(entry->session),
                                      0.5));
        EPL_ASSIGN_OR_RETURN(cep::CompiledPattern compiled_gate,
                             cep::CompiledPattern::Compile(*pose, schema));
        gate = std::make_shared<const cep::CompiledPattern>(
            std::move(compiled_gate));
      }
      EPL_ASSIGN_OR_RETURN(
          cep::MultiMatchOperator::QuerySpec spec,
          query::CompileQuerySpec(
              &engine, entry->parsed,
              [&detections](const cep::Detection&) { ++detections; }, gate));
      spec.tag = cep::GestureTag(entry->name);
      spec.session_tag = static_cast<double>(entry->session);
      spec.session_scoped = true;
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  // cep fused operator: bank + arena sweep over the merged events.
  {
    cep::MultiMatchOperator op(cep::MatcherOptions(), inputs.batch_size);
    EPL_ASSIGN_OR_RETURN(auto specs, make_specs());
    for (auto& spec : specs) {
      op.AddQuery(std::move(spec));
    }
    bool ok = true;
    const double fused_ns = NsPerEvent(events, [&] {
      for (const stream::Event& event : merged) {
        ok = op.Process(event).ok() && ok;
      }
      op.FlushBatchedEvents();
      op.ResetMatchers();
    });
    if (!ok) {
      return InternalError("fused operator failed in the layer replay");
    }
    numbers.sweep_ns = std::max(0.0, fused_ns - numbers.bank_eval_ns);
  }
  if (inputs.shard_workers > 0) {
    // cep sharded engine: producer-side fan-out and hand-off, and the
    // watermark merge + delivery, timed from the producer thread.
    cep::ShardedEngineOptions options;
    options.num_shards = inputs.shard_workers;
    options.batch_size = inputs.batch_size;
    options.routing_field = session_field;
    options.placement = cep::ShardPlacement::kSessionAffinity;
    cep::ShardedEngine sharded(options);
    EPL_RETURN_IF_ERROR(sharded.Start());
    int64_t first_callback = -1;
    EPL_ASSIGN_OR_RETURN(auto specs, make_specs());
    for (auto& spec : specs) {
      spec.callback = [&first_callback, &detections](const cep::Detection&) {
        if (first_callback < 0) {
          first_callback = NowNs();
        }
        ++detections;
      };
      sharded.AddQuery(std::move(spec));
    }
    std::vector<uint64_t> busy_before = sharded.shard_busy_ns();
    int64_t producer_ns = 0;
    int64_t deliver_ns = 0;
    const int64_t start = NowNs();
    bool pushed = true;
    for (int r = 0; r < kRepetitions; ++r) {
      for (const stream::Event& event : merged) {
        first_callback = -1;
        const int64_t t0 = NowNs();
        pushed = sharded.Push(event) && pushed;
        const int64_t t1 = NowNs();
        producer_ns += (first_callback < 0 ? t1 : first_callback) - t0;
        deliver_ns += first_callback < 0 ? 0 : t1 - first_callback;
      }
      first_callback = -1;
      EPL_RETURN_IF_ERROR(sharded.Flush());
      if (first_callback >= 0) {
        deliver_ns += NowNs() - first_callback;
      }
      sharded.ResetMatchers();  // the next repetition restarts the clock
    }
    const int64_t wall = NowNs() - start;
    std::vector<uint64_t> busy_after = sharded.shard_busy_ns();
    EPL_RETURN_IF_ERROR(sharded.Stop());
    if (!pushed) {
      return InternalError("sharded engine refused an event");
    }
    uint64_t busy = 0;
    for (size_t i = 0; i < busy_after.size(); ++i) {
      busy += busy_after[i] - (i < busy_before.size() ? busy_before[i] : 0);
    }
    const double total = static_cast<double>(events) * kRepetitions;
    numbers.shard_producer_ns = static_cast<double>(producer_ns) / total;
    numbers.merge_deliver_ns = static_cast<double>(deliver_ns) / total;
    numbers.shard_busy_share =
        static_cast<double>(busy) /
        (static_cast<double>(wall) * static_cast<double>(busy_after.size()));
  }
  if (detections == 0) {
    return InternalError("layer replay produced no detections");
  }

  // durability: EventLog::Append of each raw frame's WAL record, with the
  // workload's group-commit settings (none) and write batching.
  if (inputs.wal) {
    std::vector<double> samples;
    for (int r = 0; r < kRepetitions; ++r) {
      const std::string dir =
          inputs.scratch_dir + "/wal" + std::to_string(r);
      EPL_RETURN_IF_ERROR(MakeDirs(dir));
      durability::EventLogOptions options;
      options.segment_bytes = 1ull << 30;
      options.sync_every_records = 0;
      options.sync_interval_ms = 0;
      options.buffer_bytes = workflow::DurabilityOptions().buffer_bytes;
      EPL_ASSIGN_OR_RETURN(std::unique_ptr<durability::EventLog> log,
                           durability::EventLog::Open(dir, options));
      durability::WalRecord record;
      durability::ByteWriter writer;
      const int64_t start = NowNs();
      for (size_t i = 0; i < events; ++i) {
        record.session = inputs.feed[i].first;
        record.event.timestamp = raw[i].timestamp;
        record.event.values.assign(raw[i].values.begin(),
                                   raw[i].values.end());
        writer.Clear();
        durability::EncodeWalRecord(record, &writer);
        EPL_RETURN_IF_ERROR(log->Append(writer.str()).status());
      }
      EPL_RETURN_IF_ERROR(log->FlushBuffered());
      samples.push_back(static_cast<double>(NowNs() - start) /
                        static_cast<double>(std::max<size_t>(1, events)));
    }
    numbers.wal_append_ns = Median(samples);
  }
  return numbers;
}

}  // namespace epl::e2e
