#include "workflow/gesture_runtime.h"

#include "cep/composite.h"
#include "gesturedb/serialization.h"
#include "kinect/sensor.h"
#include "query/unparser.h"
#include "stream/operators.h"
#include "workflow/control_gestures.h"

namespace epl::workflow {

using core::GestureDefinition;
using kinect::SkeletonFrame;

namespace {

/// Stamps a session's view events with the session id and pushes them
/// into the shared session stream. A push failure propagates as a Status
/// (straight to PushFrame for raw session streams; through the view
/// dispatch chain for transformed sessions) instead of aborting.
class SessionMergeTap : public stream::Operator {
 public:
  SessionMergeTap(stream::StreamEngine* engine, SessionId session)
      : engine_(engine), session_(session) {}

  Status Process(const stream::Event& event) override {
    scratch_ = event;
    scratch_.values.push_back(static_cast<double>(session_));
    return engine_->Push(kSessionStreamName, scratch_);
  }

  std::string name() const override {
    return "session_merge[" + std::to_string(session_) + "]";
  }

 private:
  stream::StreamEngine* engine_;
  SessionId session_;
  stream::Event scratch_;  // capacity reused across frames
};

}  // namespace

GestureRuntime::GestureRuntime(stream::StreamEngine* engine,
                               GestureRuntimeOptions options)
    : engine_(engine), options_(std::move(options)) {
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
  options_.num_shards = std::max(1, options_.num_shards);
}

Status GestureRuntime::EnsureWal() {
  if (!durable() || wal_ != nullptr) {
    return OkStatus();
  }
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    return FailedPreconditionError(
        "durability requires the fused or sharded backend");
  }
  fs_ = options_.durability.fs != nullptr ? options_.durability.fs
                                          : durability::DefaultFileSystem();
  EPL_RETURN_IF_ERROR(fs_->CreateDir(options_.durability.dir));
  durability::EventLogOptions log_options;
  log_options.segment_bytes = options_.durability.segment_bytes;
  log_options.sync_every_records = options_.durability.sync_every_records;
  log_options.sync_interval_ms = options_.durability.sync_interval_ms;
  log_options.buffer_bytes = options_.durability.buffer_bytes;
  EPL_ASSIGN_OR_RETURN(
      wal_, durability::EventLog::Open(options_.durability.dir, log_options,
                                       fs_));
  return OkStatus();
}

Status GestureRuntime::LogRecord(const durability::WalRecord& record) {
  if (!durable() || replaying_ || suppress_wal_) {
    return OkStatus();
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  wal_encode_scratch_.Clear();
  durability::EncodeWalRecord(record, &wal_encode_scratch_);
  return wal_->Append(wal_encode_scratch_.str()).status();
}

uint64_t GestureRuntime::ingested_events(SessionId session) const {
  auto it = ingested_.find(session);
  return it == ingested_.end() ? 0 : it->second;
}

cep::DetectionCallback GestureRuntime::Guard(cep::DetectionCallback callback) {
  if (callback == nullptr) {
    return nullptr;
  }
  return [this, callback = std::move(callback)](const cep::Detection& d) {
    ++dispatch_depth_;
    callback(d);
    --dispatch_depth_;
  };
}

Status GestureRuntime::Pump() {
  if (pending_.empty()) {
    return OkStatus();
  }
  std::vector<std::function<Status()>> ops;
  ops.swap(pending_);
  for (size_t i = 0; i < ops.size(); ++i) {
    Status status = ops[i]();
    if (!status.ok()) {
      // Keep the unexecuted remainder queued (in request order, ahead of
      // anything ops[i] itself queued), so one failing deferred mutation
      // cannot silently drop the ones behind it.
      pending_.insert(pending_.begin(),
                      std::make_move_iterator(ops.begin() +
                                              static_cast<ptrdiff_t>(i) + 1),
                      std::make_move_iterator(ops.end()));
      return status;
    }
  }
  return OkStatus();
}

Result<GestureRuntime::Session*> GestureRuntime::FindSession(
    SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  return &it->second;
}

Result<const GestureRuntime::Session*> GestureRuntime::FindSession(
    SessionId session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  return &it->second;
}

Status GestureRuntime::EnsureSessionStream() {
  if (engine_->HasStream(kSessionStreamName)) {
    return OkStatus();
  }
  stream::Schema schema = options_.transform_sessions
                              ? transform::KinectTSchema()
                              : kinect::KinectSchema();
  schema.AddField(kSessionFieldName);
  return engine_->RegisterStream(kSessionStreamName, std::move(schema));
}

Result<SessionId> GestureRuntime::OpenSession(const std::string& user) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "OpenSession from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  EPL_RETURN_IF_ERROR(Pump());
  EPL_ASSIGN_OR_RETURN(const SessionId id, DoOpenSession(user, -1));
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kOpenSession;
  record.session = id;
  record.name = user;
  EPL_RETURN_IF_ERROR(LogRecord(record));
  return id;
}

Result<SessionId> GestureRuntime::DoOpenSession(const std::string& user,
                                                SessionId forced_id) {
  if (user.empty()) {
    return InvalidArgumentError("session needs a user name");
  }
  for (const auto& [id, session] : sessions_) {
    (void)id;
    if (session.open && session.name == user) {
      return AlreadyExistsError("session already open for user: " + user);
    }
  }
  // Recovery pins session ids to their original values: the gates and WAL
  // records of a restored session encode the id, so it must not drift.
  const SessionId id = forced_id >= 0 ? forced_id : next_session_id_++;
  next_session_id_ = std::max(next_session_id_, id + 1);
  Session session;
  session.name = user;
  session.raw_stream = user + "/kinect";
  if (!engine_->HasStream(session.raw_stream)) {
    EPL_RETURN_IF_ERROR(
        kinect::RegisterKinectStream(engine_, session.raw_stream));
  }
  if (options_.transform_sessions) {
    session.view_stream = user + "/kinect_t";
    if (!engine_->HasStream(session.view_stream)) {
      auto view =
          std::make_unique<transform::TransformOperator>(options_.transform);
      transform::TransformOperator* view_op = view.get();
      EPL_RETURN_IF_ERROR(engine_->RegisterView(
          session.view_stream, session.raw_stream, std::move(view),
          transform::KinectTSchema()));
      views_[session.view_stream] = view_op;
    }
  } else {
    session.view_stream = session.raw_stream;
  }

  if (options_.backend != RuntimeBackend::kLegacyPerQuery) {
    // Tap the session's view into the shared stream, stamped with the
    // session id. (Legacy sessions run their per-query operators on their
    // own view and never touch the shared stream.)
    EPL_RETURN_IF_ERROR(EnsureSessionStream());
    EPL_ASSIGN_OR_RETURN(
        session.tap,
        engine_->Deploy(session.view_stream,
                        std::make_unique<SessionMergeTap>(engine_, id)));
    // The session's identity predicate, compiled once as the group gate
    // all of the session's query specs share. The matcher enforces it on
    // every state (isolation) and skips the whole session group when an
    // event belongs to someone else (sub-linear in idle sessions).
    cep::ExprPtr gate_expr = cep::Expr::RangePredicate(
        kSessionFieldName, static_cast<double>(id), 0.5);
    EPL_ASSIGN_OR_RETURN(stream::Schema schema,
                         engine_->GetSchema(kSessionStreamName));
    cep::PatternExprPtr pose =
        cep::PatternExpr::Pose(kSessionStreamName, std::move(gate_expr));
    EPL_ASSIGN_OR_RETURN(cep::CompiledPattern gate,
                         cep::CompiledPattern::Compile(*pose, schema));
    session.gate = std::make_shared<const cep::CompiledPattern>(
        std::move(gate));
  }
  sessions_.emplace(id, std::move(session));
  return id;
}

Status GestureRuntime::CloseSession(SessionId session) {
  if (!in_dispatch()) {
    EPL_RETURN_IF_ERROR(Pump());
  }
  EPL_ASSIGN_OR_RETURN(Session * found, FindSession(session));
  // Close the session SYNCHRONOUSLY -- from this call on, deploys against
  // it fail with NotFound even when the teardown below is deferred, so a
  // callback's close-then-deploy sequence cannot invert.
  found->open = false;
  const stream::DeploymentId tap = found->tap;
  found->tap = 0;
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kCloseSession;
  record.session = session;
  EPL_RETURN_IF_ERROR(LogRecord(record));
  auto teardown = [this, session, tap]() -> Status {
    {
      // The teardown's undeploys are implied by the kCloseSession record;
      // logging them individually would double-apply them on replay.
      suppress_wal_ = true;
      Status undeploys = OkStatus();
      for (const std::string& name : DeployedGestures(session)) {
        undeploys = DoUndeploy(session, name);
        if (!undeploys.ok()) {
          break;
        }
      }
      suppress_wal_ = false;
      EPL_RETURN_IF_ERROR(undeploys);
    }
    if (tap != 0) {
      EPL_RETURN_IF_ERROR(engine_->Undeploy(tap));
    }
    // Garbage-collect the session's namespaced streams so close -> reopen
    // leaves nothing behind in the engine. A stream that still has foreign
    // subscribers (e.g. a controller's recorder tap the caller owns) is
    // left registered -- the caller keeps responsibility for it.
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return OkStatus();
    }
    const std::string raw = it->second.raw_stream;
    const std::string view = it->second.view_stream;
    sessions_.erase(it);
    ingested_.erase(session);
    bool view_removed = true;
    if (view != raw && engine_->HasStream(view)) {
      Status removed = engine_->UnregisterStream(view);
      if (removed.code() == StatusCode::kFailedPrecondition) {
        view_removed = false;
      } else {
        EPL_RETURN_IF_ERROR(removed);
        views_.erase(view);
      }
    }
    if (view_removed && engine_->HasStream(raw)) {
      Status removed = engine_->UnregisterStream(raw);
      if (removed.code() != StatusCode::kFailedPrecondition) {
        EPL_RETURN_IF_ERROR(removed);
      }
    }
    return OkStatus();
  };
  if (in_dispatch()) {
    // Engine undeploys (and sharded control operations) cannot run
    // mid-dispatch; the session's queries retire at the next boundary --
    // the same boundary a mid-callback RemoveQuery would take effect at.
    pending_.push_back(std::move(teardown));
    return OkStatus();
  }
  return teardown();
}

Result<std::string> GestureRuntime::SessionViewStream(SessionId session) const {
  if (session == kLocalSession) {
    return std::string(transform::kKinectTViewName);
  }
  EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(session));
  return found->view_stream;
}

cep::ShardedEngine::EngineStats GestureRuntime::ShardedStats() const {
  cep::ShardedEngine::EngineStats total;
  for (const auto& [stream, channel] : channels_) {
    if (channel.sharded.engine == nullptr) {
      continue;
    }
    const cep::ShardedEngine::EngineStats stats =
        channel.sharded.engine->engine_stats();
    total.fanout_batches += stats.fanout_batches;
    total.fanout_subbatches += stats.fanout_subbatches;
    total.events_routed += stats.events_routed;
    total.events_skipped_by_filter += stats.events_skipped_by_filter;
    total.advance_tokens += stats.advance_tokens;
    total.affinity_moves += stats.affinity_moves;
    total.worker_wakeups += stats.worker_wakeups;
  }
  return total;
}

Result<GestureRuntime::Channel*> GestureRuntime::EnsureChannel(
    const std::string& stream) {
  auto it = channels_.find(stream);
  if (it != channels_.end()) {
    return &it->second;
  }
  Channel channel;
  if (options_.backend == RuntimeBackend::kFused) {
    EPL_ASSIGN_OR_RETURN(
        channel.fused,
        query::DeployFusedOperator(engine_, stream, options_.matcher,
                                   options_.batch_size));
  } else {
    cep::ShardedEngineOptions sharded;
    sharded.num_shards = options_.num_shards;
    sharded.batch_size = options_.batch_size;
    sharded.matcher = options_.matcher;
    sharded.sync_delivery = options_.sync_detections;
    sharded.work_stealing = options_.work_stealing;
    sharded.pin_workers = options_.pin_workers;
    sharded.spin_wait_iterations = options_.spin_wait_iterations;
    sharded.adaptive = options_.adaptive_shards;
    sharded.placement = options_.shard_placement;
    if (options_.route_session_events && stream == kSessionStreamName) {
      // The merge tap appends the session id as the stream's last field;
      // routing on it lets the engine skip shards hosting no query for
      // that session (detections stay bit-identical either way).
      EPL_ASSIGN_OR_RETURN(stream::Schema schema, engine_->GetSchema(stream));
      EPL_ASSIGN_OR_RETURN(sharded.routing_field,
                           schema.FieldIndex(kSessionFieldName));
    }
    EPL_ASSIGN_OR_RETURN(
        channel.sharded,
        query::DeployShardedOperator(engine_, stream, sharded));
  }
  return &channels_.emplace(stream, std::move(channel)).first->second;
}

Result<query::ParsedQuery> GestureRuntime::BuildQuery(
    const Session* session, const GestureDefinition& definition) const {
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       core::GenerateQuery(definition, options_.query));
  if (session != nullptr) {
    if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
      parsed.pattern = parsed.pattern->Rescope(session->view_stream, nullptr);
    } else {
      // The session's identity predicate is NOT conjoined into the poses:
      // it rides along as the query's gate, which the matcher enforces on
      // every state. Identical gestures deployed by different sessions
      // therefore share their pose predicates in the bank.
      parsed.pattern = parsed.pattern->Rescope(kSessionStreamName, nullptr);
    }
  }
  return parsed;
}

Status GestureRuntime::Retire(const Gesture& gesture) {
  switch (options_.backend) {
    case RuntimeBackend::kLegacyPerQuery: {
      const stream::DeploymentId id = gesture.legacy_id;
      if (in_dispatch()) {
        // Undeploy must not run inside a dispatch; the retiring operator
        // sees no further events before the next boundary anyway (and its
        // detections for the current event still fire, exactly like a
        // fused RemoveQuery requested mid-callback).
        pending_.push_back([this, id] { return engine_->Undeploy(id); });
        return OkStatus();
      }
      return engine_->Undeploy(id);
    }
    case RuntimeBackend::kFused: {
      auto channel = channels_.find(gesture.stream);
      if (channel == channels_.end()) {
        return InternalError("gesture channel vanished: " + gesture.stream);
      }
      // Mid-callback removals are deferred by the operator itself.
      return channel->second.fused.op->RemoveQuery(gesture.query_id);
    }
    case RuntimeBackend::kSharded: {
      auto channel = channels_.find(gesture.stream);
      if (channel == channels_.end()) {
        return InternalError("gesture channel vanished: " + gesture.stream);
      }
      return channel->second.sharded.engine->RemoveQuery(gesture.query_id);
    }
  }
  return InternalError("unknown backend");
}

Status GestureRuntime::DoDeploy(SessionId session,
                                const GestureDefinition& definition,
                                cep::DetectionCallback callback) {
  if (definition.name.empty()) {
    return InvalidArgumentError("gesture needs a name");
  }
  Session* found = nullptr;
  if (session != kLocalSession) {
    EPL_ASSIGN_OR_RETURN(found, FindSession(session));
  }
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       BuildQuery(found, definition));
  const std::string stream = parsed.pattern->SourceStream();
  const GestureKey key{session, definition.name};
  auto existing = gestures_.find(key);
  // Durable runtimes keep the deployed query's canonical text (what a
  // checkpoint serializes) and log the deploy with its gesturedb-format
  // definition (what replay reapplies).
  std::string query_text;
  durability::WalRecord record;
  const bool log_deploy = durable() && !replaying_ && !suppress_wal_;
  if (durable()) {
    query_text = query::FormatQuery(parsed);
  }
  if (log_deploy) {
    record.type = durability::WalRecord::Type::kDeploy;
    record.session = session;
    record.name = definition.name;
    record.definition = gesturedb::Serialize(definition);
  }

  // Atomic swap semantics: the retiring query is removed before the
  // replacement is added, both at the same event boundary (requested from
  // a callback, the backend applies them in order after the current
  // event), so the old query sees every event up to and including the
  // current one and the new query exactly the events after it.
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    EPL_ASSIGN_OR_RETURN(
        stream::DeploymentId id,
        query::DeployQuery(engine_, parsed, Guard(std::move(callback)),
                           options_.matcher));
    if (existing != gestures_.end()) {
      EPL_RETURN_IF_ERROR(Retire(existing->second));
    }
    gestures_[key] = Gesture{stream, -1, id, std::move(query_text)};
    if (log_deploy) {
      EPL_RETURN_IF_ERROR(LogRecord(record));
    }
    return OkStatus();
  }

  // Compile before touching the channel, so a bad query cannot leave an
  // empty operator (or running shard workers) deployed behind an error.
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec spec,
      query::CompileQuerySpec(engine_, parsed, Guard(std::move(callback)),
                              found != nullptr ? found->gate : nullptr));
  // The derived-event identity: composites deployed later match this
  // gesture's detections by these tags. Stamped on every base deploy
  // (they cost nothing without composites), so a composite can consume
  // any gesture that was live before it.
  spec.tag = cep::GestureTag(definition.name);
  spec.session_tag = static_cast<double>(session);
  // A gated query only matches events whose session field equals
  // session_tag; telling the engine lets it route fan-out and co-locate
  // the session's queries.
  spec.session_scoped = found != nullptr;
  EPL_ASSIGN_OR_RETURN(Channel * channel, EnsureChannel(stream));
  if (existing != gestures_.end()) {
    EPL_RETURN_IF_ERROR(Retire(existing->second));
  }
  const int id = options_.backend == RuntimeBackend::kFused
                     ? channel->fused.op->AddQuery(std::move(spec))
                     : channel->sharded.engine->AddQuery(std::move(spec));
  gestures_[key] = Gesture{stream, id, 0, std::move(query_text)};
  if (log_deploy) {
    EPL_RETURN_IF_ERROR(LogRecord(record));
  }
  return OkStatus();
}

Status GestureRuntime::Deploy(SessionId session,
                              const GestureDefinition& definition,
                              cep::DetectionCallback callback) {
  EPL_RETURN_IF_ERROR(EnsureWal());
  if (in_dispatch()) {
    if (options_.backend == RuntimeBackend::kSharded) {
      // The sharded engine's control operations quiesce the workers and
      // must not run from a delivery callback; apply at the next frame
      // boundary (no events flow in between, so the swap point is the
      // same one the fused backend realizes immediately).
      pending_.push_back([this, session, definition,
                          callback = std::move(callback)]() mutable {
        return DoDeploy(session, definition, std::move(callback));
      });
      return OkStatus();
    }
    return DoDeploy(session, definition, std::move(callback));
  }
  EPL_RETURN_IF_ERROR(Pump());
  return DoDeploy(session, definition, std::move(callback));
}

Status GestureRuntime::EnsureDetectionStream() {
  if (engine_->HasStream(cep::kDetectionStreamName)) {
    return OkStatus();
  }
  stream::Schema schema = cep::DetectionSchema();
  return engine_->RegisterStream(cep::kDetectionStreamName,
                                 std::move(schema));
}

Status GestureRuntime::CheckNotConsumed(SessionId session,
                                        const std::string& name) const {
  for (const auto& [key, gesture] : gestures_) {
    if (gesture.level == 0 || (key.first == session && key.second == name)) {
      continue;
    }
    for (const CompositeStep& step : gesture.composite.steps) {
      if (step.gesture == name &&
          (step.session == kAnySession || step.session == session)) {
        return FailedPreconditionError(
            "gesture '" + name + "' is consumed by composite '" + key.second +
            "'");
      }
    }
  }
  return OkStatus();
}

Status GestureRuntime::DoDeployComposite(SessionId session,
                                         const CompositeDefinition& definition,
                                         cep::DetectionCallback callback) {
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    return FailedPreconditionError(
        "composite gestures require the fused or sharded backend");
  }
  EPL_RETURN_IF_ERROR(ValidateComposite(definition));
  if (session != kLocalSession) {
    EPL_RETURN_IF_ERROR(FindSession(session).status());
  }
  // A live composite consuming this name would gain an edge to a STRICTLY
  // NEWER query -- the one shape the old-to-new deploy order cannot level
  // -- so it is the one shape rejected. (Re-deploying a consumed BASE
  // gesture stays legal: its tag is a pure function of the name, so the
  // consumer keeps matching across the hot-swap.)
  EPL_RETURN_IF_ERROR(CheckNotConsumed(session, definition.name));

  // Resolve the inputs: every step needs at least one live match, and all
  // inputs must feed one channel (their epochs are per-channel).
  int max_level = 0;
  std::string stream;
  for (const CompositeStep& step : definition.steps) {
    int found = 0;
    for (const auto& [key, gesture] : gestures_) {
      if (key.second != step.gesture ||
          (step.session != kAnySession && key.first != step.session)) {
        continue;
      }
      ++found;
      max_level = std::max(max_level, gesture.level);
      if (stream.empty()) {
        stream = gesture.stream;
      } else if (stream != gesture.stream) {
        return InvalidArgumentError(
            "composite '" + definition.name + "' inputs span source streams " +
            stream + " and " + gesture.stream);
      }
    }
    if (found == 0) {
      return NotFoundError("composite input not deployed: " + step.gesture);
    }
  }
  const int level = max_level + 1;

  EPL_RETURN_IF_ERROR(EnsureDetectionStream());
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       BuildCompositeQuery(definition));
  durability::WalRecord record;
  const bool log_deploy = durable() && !replaying_ && !suppress_wal_;
  if (log_deploy) {
    record.type = durability::WalRecord::Type::kDeployComposite;
    record.session = session;
    record.name = definition.name;
    record.definition = SerializeComposite(definition);
  }
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec spec,
      query::CompileQuerySpec(engine_, parsed, Guard(std::move(callback)),
                              nullptr));
  spec.level = level;
  spec.tag = cep::GestureTag(definition.name);
  spec.session_tag = static_cast<double>(session);
  EPL_ASSIGN_OR_RETURN(Channel * channel, EnsureChannel(stream));
  const GestureKey key{session, definition.name};
  auto existing = gestures_.find(key);
  if (existing != gestures_.end()) {
    EPL_RETURN_IF_ERROR(Retire(existing->second));
  }
  const int id = options_.backend == RuntimeBackend::kFused
                     ? channel->fused.op->AddQuery(std::move(spec))
                     : channel->sharded.engine->AddQuery(std::move(spec));
  Gesture gesture;
  gesture.stream = stream;
  gesture.query_id = id;
  gesture.level = level;
  gesture.composite = definition;
  gestures_[key] = std::move(gesture);
  if (log_deploy) {
    EPL_RETURN_IF_ERROR(LogRecord(record));
  }
  return OkStatus();
}

Status GestureRuntime::DeployComposite(SessionId session,
                                       const CompositeDefinition& definition,
                                       cep::DetectionCallback callback) {
  EPL_RETURN_IF_ERROR(EnsureWal());
  if (in_dispatch()) {
    if (options_.backend == RuntimeBackend::kSharded) {
      // Same deferral as Deploy: sharded control operations quiesce the
      // workers and cannot run from a delivery callback.
      pending_.push_back([this, session, definition,
                          callback = std::move(callback)]() mutable {
        return DoDeployComposite(session, definition, std::move(callback));
      });
      return OkStatus();
    }
    return DoDeployComposite(session, definition, std::move(callback));
  }
  EPL_RETURN_IF_ERROR(Pump());
  return DoDeployComposite(session, definition, std::move(callback));
}

Status GestureRuntime::DoUndeploy(SessionId session, const std::string& name) {
  auto it = gestures_.find(GestureKey{session, name});
  if (it == gestures_.end()) {
    return NotFoundError("gesture not deployed: " + name);
  }
  // CloseSession teardown (suppress_wal_) dismantles the whole session at
  // once; its composites and their intra-session inputs go down together,
  // so the consumed-input guard only applies to direct undeploys.
  if (!suppress_wal_) {
    EPL_RETURN_IF_ERROR(CheckNotConsumed(session, name));
  }
  Gesture gesture = it->second;
  gestures_.erase(it);
  EPL_RETURN_IF_ERROR(Retire(gesture));
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kUndeploy;
  record.session = session;
  record.name = name;
  return LogRecord(record);
}

Status GestureRuntime::Undeploy(SessionId session, const std::string& name) {
  if (in_dispatch()) {
    if (options_.backend == RuntimeBackend::kSharded) {
      pending_.push_back(
          [this, session, name] { return DoUndeploy(session, name); });
      return OkStatus();
    }
    return DoUndeploy(session, name);
  }
  EPL_RETURN_IF_ERROR(Pump());
  return DoUndeploy(session, name);
}

bool GestureRuntime::IsDeployed(SessionId session,
                                const std::string& name) const {
  return gestures_.count(GestureKey{session, name}) > 0;
}

std::vector<std::string> GestureRuntime::DeployedGestures(
    SessionId session) const {
  std::vector<std::string> names;
  for (const auto& [key, gesture] : gestures_) {
    (void)gesture;
    if (key.first == session) {
      names.push_back(key.second);
    }
  }
  return names;  // map order: already sorted by name within the session
}

Result<int> GestureRuntime::LoadStore(SessionId session,
                                      const gesturedb::GestureStore& store,
                                      cep::DetectionCallback callback) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "LoadStore from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  EPL_RETURN_IF_ERROR(Pump());
  EPL_ASSIGN_OR_RETURN(std::vector<std::string> names, store.List());
  int loaded = 0;
  Status first_error = OkStatus();
  for (const std::string& name : names) {
    if (IsReservedGestureName(name)) {
      // A stored "__control_wave" must not hot-swap a live control query.
      continue;
    }
    Result<GestureDefinition> definition = store.Get(name);
    if (!definition.ok()) {
      // One corrupt record must not take down the whole boot load: the
      // parseable gestures still deploy, and the first bad record's error
      // (which names the offending file) is reported after the sweep.
      if (first_error.ok()) {
        first_error = definition.status();
      }
      continue;
    }
    EPL_RETURN_IF_ERROR(DoDeploy(session, *definition, callback));
    ++loaded;
  }
  EPL_RETURN_IF_ERROR(first_error);
  return loaded;
}

Status GestureRuntime::PushFrame(SessionId session,
                                 const SkeletonFrame& frame) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "PushFrame from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(Pump());
  const std::string* stream = nullptr;
  static const std::string kLocalStream = "kinect";
  if (session == kLocalSession) {
    stream = &kLocalStream;
  } else {
    EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(session));
    stream = &found->raw_stream;
  }
  if (!durable()) {
    return engine_->Push(*stream, kinect::FrameToEvent(frame));
  }
  // Write-ahead: the raw frame event is durable before the engine sees it,
  // so anything logged WILL be reflected after recovery, and a frame whose
  // PushFrame never returned OK is the producer's to retry.
  durability::WalRecord record;
  record.session = session;
  record.event = kinect::FrameToEvent(frame);
  EPL_RETURN_IF_ERROR(EnsureWal());
  EPL_RETURN_IF_ERROR(LogRecord(record));
  ++ingested_[session];
  return engine_->Push(*stream, record.event);
}

Status GestureRuntime::PushFrames(SessionId session,
                                  const std::vector<SkeletonFrame>& frames) {
  for (const SkeletonFrame& frame : frames) {
    EPL_RETURN_IF_ERROR(PushFrame(session, frame));
  }
  return OkStatus();
}

Status GestureRuntime::Flush() {
  if (in_dispatch()) {
    return FailedPreconditionError("Flush from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(Pump());
  for (auto& [stream, channel] : channels_) {
    (void)stream;
    if (options_.backend == RuntimeBackend::kFused) {
      channel.fused.op->FlushBatchedEvents();
    } else if (options_.backend == RuntimeBackend::kSharded &&
               channel.sharded.engine->running()) {
      EPL_RETURN_IF_ERROR(channel.sharded.engine->Flush());
    }
  }
  // Flushed detections may have requested further mutations.
  EPL_RETURN_IF_ERROR(Pump());
  // Everything ingested so far must survive a process crash once Flush
  // returns: drain the WAL batch buffer into the page cache.
  if (wal_ != nullptr) {
    EPL_RETURN_IF_ERROR(wal_->FlushBuffered());
  }
  return OkStatus();
}

Status GestureRuntime::ResizeShards(int num_shards) {
  if (options_.backend != RuntimeBackend::kSharded) {
    return FailedPreconditionError("ResizeShards requires the sharded backend");
  }
  if (in_dispatch()) {
    return FailedPreconditionError(
        "ResizeShards from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(Pump());
  for (auto& [stream, channel] : channels_) {
    (void)stream;
    EPL_RETURN_IF_ERROR(channel.sharded.engine->Resize(num_shards));
  }
  // Channels created from here on start at the new size too.
  options_.num_shards = std::max(1, num_shards);
  return OkStatus();
}

Status GestureRuntime::Checkpoint() {
  if (!durable()) {
    return FailedPreconditionError(
        "Checkpoint on a runtime without a durability dir");
  }
  if (in_dispatch()) {
    return FailedPreconditionError(
        "Checkpoint from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  // Quiesce to a consistent cut: deferred mutations applied, batched
  // windows swept, sharded workers drained. Every event with seq <
  // next_seq() is now fully reflected in the matchers' run state.
  EPL_RETURN_IF_ERROR(Flush());

  durability::Snapshot snapshot;
  snapshot.wal_seq = wal_->next_seq();
  snapshot.next_session_id = next_session_id_;
  if (ingested_.count(kLocalSession) > 0) {
    durability::SessionState local;
    local.id = kLocalSession;
    local.ingested_events = ingested_.at(kLocalSession);
    snapshot.sessions.push_back(std::move(local));
  }
  for (const auto& [id, session] : sessions_) {
    if (!session.open) {
      continue;
    }
    durability::SessionState state;
    state.id = id;
    state.user = session.name;
    state.ingested_events = ingested_events(id);
    if (auto view = views_.find(session.view_stream); view != views_.end()) {
      state.view = view->second->state();
    }
    snapshot.sessions.push_back(std::move(state));
  }

  // Per channel, queries serialize in stable-id order: restoration assigns
  // fresh ids in that order, preserving the relative order the sharded
  // merge sorts detections by ((event_seq, query_id)).
  std::map<std::string, std::map<int, durability::QueryState>> per_channel;
  for (const auto& [key, gesture] : gestures_) {
    durability::QueryState state;
    state.session = key.first;
    state.name = key.second;
    state.query_text = gesture.query_text;
    state.level = gesture.level;
    if (gesture.level > 0) {
      // Composites serialize their definition (tags round-trip exactly)
      // plus the channel stream, which restore cannot re-derive: the
      // inputs' own restore order must not matter.
      state.stream = gesture.stream;
      state.definition = SerializeComposite(gesture.composite);
    }
    per_channel[gesture.stream].emplace(gesture.query_id, std::move(state));
  }
  for (auto& [stream, queries] : per_channel) {
    auto channel = channels_.find(stream);
    if (channel == channels_.end()) {
      return InternalError("gesture channel vanished: " + stream);
    }
    if (options_.backend == RuntimeBackend::kFused) {
      for (auto& [id, state] : queries) {
        EPL_ASSIGN_OR_RETURN(
            state.runs, channel->second.fused.op->ExportQueryRunState(id));
      }
    } else {
      EPL_ASSIGN_OR_RETURN(auto states,
                           channel->second.sharded.engine->ExportRunStates());
      std::map<int, cep::NfaRunState*> by_id;
      for (auto& [id, runs] : states) {
        by_id[id] = &runs;
      }
      for (auto& [id, state] : queries) {
        auto it = by_id.find(id);
        if (it == by_id.end()) {
          return InternalError("query " + std::to_string(id) +
                               " missing from sharded export");
        }
        state.runs = std::move(*it->second);
      }
    }
    for (auto& [id, state] : queries) {
      (void)id;
      snapshot.queries.push_back(std::move(state));
    }
  }

  // Rotate first so every segment is wholly before or after the cut, then
  // make the snapshot durable, then prune what it covers. A crash between
  // any two steps leaves a recoverable directory: worst case some stale
  // segments/snapshots survive until the next checkpoint.
  EPL_RETURN_IF_ERROR(wal_->RotateSegment());
  EPL_RETURN_IF_ERROR(
      durability::WriteSnapshot(fs_, options_.durability.dir, snapshot));
  EPL_RETURN_IF_ERROR(durability::RemoveStaleSnapshots(
      fs_, options_.durability.dir, snapshot.wal_seq));
  return wal_->DropSegmentsBelow(snapshot.wal_seq);
}

Status GestureRuntime::RestoreQuery(const durability::QueryState& state,
                                    const DetectionCallbackFactory& factory) {
  if (state.level > 0) {
    // A composite restores from its serialized definition and recorded
    // channel; its inputs' liveness was proven at original deploy time
    // and their run state restores from the same snapshot.
    EPL_ASSIGN_OR_RETURN(CompositeDefinition definition,
                         ParseComposite(state.definition));
    EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                         BuildCompositeQuery(definition));
    EPL_RETURN_IF_ERROR(EnsureDetectionStream());
    cep::DetectionCallback callback =
        factory ? factory(state.session, state.name) : nullptr;
    EPL_ASSIGN_OR_RETURN(
        cep::MultiMatchOperator::QuerySpec spec,
        query::CompileQuerySpec(engine_, parsed, Guard(std::move(callback)),
                                nullptr));
    spec.level = state.level;
    spec.tag = cep::GestureTag(state.name);
    spec.session_tag = static_cast<double>(state.session);
    EPL_ASSIGN_OR_RETURN(Channel * channel, EnsureChannel(state.stream));
    Result<int> id =
        options_.backend == RuntimeBackend::kFused
            ? channel->fused.op->RestoreQuery(std::move(spec), state.runs)
            : channel->sharded.engine->RestoreQuery(std::move(spec),
                                                    state.runs);
    EPL_RETURN_IF_ERROR(id.status());
    Gesture gesture;
    gesture.stream = state.stream;
    gesture.query_id = *id;
    gesture.level = state.level;
    gesture.composite = std::move(definition);
    gestures_[GestureKey{state.session, state.name}] = std::move(gesture);
    return OkStatus();
  }
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       query::ParseQuery(state.query_text));
  std::shared_ptr<const cep::CompiledPattern> gate;
  if (state.session != kLocalSession) {
    EPL_ASSIGN_OR_RETURN(Session * found, FindSession(state.session));
    gate = found->gate;
  }
  cep::DetectionCallback callback =
      factory ? factory(state.session, state.name) : nullptr;
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec spec,
      query::CompileQuerySpec(engine_, parsed, Guard(std::move(callback)),
                              gate));
  // Restore the derived-event identity too: composites recovered from the
  // same snapshot (and WAL replay) keep re-deriving from this query.
  spec.tag = cep::GestureTag(state.name);
  spec.session_tag = static_cast<double>(state.session);
  spec.session_scoped = gate != nullptr;
  const std::string stream = parsed.pattern->SourceStream();
  EPL_ASSIGN_OR_RETURN(Channel * channel, EnsureChannel(stream));
  Result<int> id =
      options_.backend == RuntimeBackend::kFused
          ? channel->fused.op->RestoreQuery(std::move(spec), state.runs)
          : channel->sharded.engine->RestoreQuery(std::move(spec),
                                                  state.runs);
  EPL_RETURN_IF_ERROR(id.status());
  Gesture gesture;
  gesture.stream = stream;
  gesture.query_id = *id;
  gesture.query_text = state.query_text;
  gestures_[GestureKey{state.session, state.name}] = std::move(gesture);
  return OkStatus();
}

Status GestureRuntime::ApplyWalRecord(const durability::WalRecord& record,
                                      const DetectionCallbackFactory& factory) {
  using Type = durability::WalRecord::Type;
  switch (record.type) {
    case Type::kEvent: {
      // Mirrors PushFrame: deferred mutations from earlier replayed
      // detections apply at this event boundary, exactly as live.
      EPL_RETURN_IF_ERROR(Pump());
      ++ingested_[record.session];
      if (record.session == kLocalSession) {
        return engine_->Push("kinect", record.event);
      }
      EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(record.session));
      return engine_->Push(found->raw_stream, record.event);
    }
    case Type::kOpenSession: {
      EPL_ASSIGN_OR_RETURN(SessionId id,
                           DoOpenSession(record.name, record.session));
      (void)id;
      return OkStatus();
    }
    case Type::kCloseSession:
      return CloseSession(record.session);
    case Type::kDeploy: {
      EPL_ASSIGN_OR_RETURN(core::GestureDefinition definition,
                           gesturedb::Deserialize(record.definition));
      return DoDeploy(record.session, definition,
                      factory ? factory(record.session, definition.name)
                              : nullptr);
    }
    case Type::kUndeploy:
      return DoUndeploy(record.session, record.name);
    case Type::kDeployComposite: {
      EPL_ASSIGN_OR_RETURN(CompositeDefinition definition,
                           ParseComposite(record.definition));
      return DoDeployComposite(record.session, definition,
                               factory
                                   ? factory(record.session, definition.name)
                                   : nullptr);
    }
  }
  return InternalError("unknown WAL record type");
}

Result<std::unique_ptr<GestureRuntime>> GestureRuntime::Recover(
    stream::StreamEngine* engine, GestureRuntimeOptions options,
    const DetectionCallbackFactory& factory, RecoverStats* stats) {
  if (options.durability.dir.empty()) {
    return InvalidArgumentError("Recover needs options.durability.dir");
  }
  auto runtime =
      std::make_unique<GestureRuntime>(engine, std::move(options));
  // Opens the WAL (creating the dir, truncating a torn tail) before the
  // snapshot is read, so both views of the directory are post-crash.
  EPL_RETURN_IF_ERROR(runtime->EnsureWal());

  durability::Snapshot snapshot;
  Result<durability::Snapshot> loaded = durability::ReadLatestSnapshot(
      runtime->fs_, runtime->options_.durability.dir);
  if (loaded.ok()) {
    snapshot = std::move(loaded).value();
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }

  runtime->replaying_ = true;
  runtime->next_session_id_ = snapshot.next_session_id;
  for (const durability::SessionState& session : snapshot.sessions) {
    runtime->ingested_[session.id] = session.ingested_events;
    if (session.id == kLocalSession) {
      continue;
    }
    EPL_ASSIGN_OR_RETURN(SessionId id,
                         runtime->DoOpenSession(session.user, session.id));
    // The view resumes from its smoothing state at the cut, so the WAL
    // suffix replays through it into bit-identical events.
    auto view = runtime->views_.find(runtime->sessions_.at(id).view_stream);
    if (view != runtime->views_.end()) {
      view->second->set_state(session.view);
    }
  }
  for (const durability::QueryState& query : snapshot.queries) {
    EPL_RETURN_IF_ERROR(
        runtime->RestoreQuery(query, factory)
            .WithContext("restoring query " + query.name));
  }

  uint64_t replayed = 0;
  EPL_RETURN_IF_ERROR(runtime->wal_->Replay(
      snapshot.wal_seq,
      [&](uint64_t seq, std::string_view payload) -> Status {
        EPL_ASSIGN_OR_RETURN(durability::WalRecord record,
                             durability::DecodeWalRecord(payload));
        ++replayed;
        return runtime->ApplyWalRecord(record, factory)
            .WithContext("replaying WAL record " + std::to_string(seq));
      }));
  runtime->replaying_ = false;

  if (stats != nullptr) {
    stats->snapshot_seq = snapshot.wal_seq;
    stats->replayed_records = replayed;
    stats->ingested = runtime->ingested_;
  }
  return runtime;
}

}  // namespace epl::workflow
