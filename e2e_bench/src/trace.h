// Tracing for the benchmark's traced run (--trace 1): spans recorded from
// the benchmark's own files around the calls into each layer, a counting
// durability::FileSystem, and a stream operator that marks the hand-off
// from the stream layer to cep on the shared session stream. Untraced
// runs pass a null Tracer and never construct any of this.

#ifndef EPL_E2E_BENCH_TRACE_H_
#define EPL_E2E_BENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "durability/file.h"
#include "stream/operator.h"
#include "util.h"

namespace epl::e2e {

/// In-memory span recorder. Every span has a name, a start, an end and a
/// parent (the span open when it began; -1 at top level). Spans beyond
/// `capacity` are still timed, so the overhead stays the same, but not
/// kept. A layer's self time is its spans' durations minus the part
/// their child spans cover; compute it from the file.
/// Single-threaded: every span the benchmark records is on the producer
/// thread (detection callbacks included -- they run inside the
/// PushFrame/Flush that delivers them).
class Tracer {
 public:
  struct Span {
    int64_t id;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
  };
  explicit Tracer(size_t capacity);

  void Begin(const char* name);
  void End();

  uint64_t recorded() const { return spans_.size(); }

  /// Writes every kept span as CSV: id,parent,name,start_ns,end_ns.
  Status Write(const std::string& path) const;

 private:
  struct Open {
    int64_t id;
    const char* name;
    int64_t start_ns;
  };
  size_t capacity_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Deployed on the shared session stream next to the runtime's own
/// operator: each merged session event it sees is the stream layer
/// handing an event to cep, recorded as a "stream.handoff" span.
class HandoffMarker : public stream::Operator {
 public:
  explicit HandoffMarker(Tracer* tracer) : tracer_(tracer) {}
  Status Process(const stream::Event& event) override;
  /// Null stops recording spans (untraced stretches of a traced run).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  std::string name() const override { return "e2e_handoff_marker"; }

 private:
  Tracer* tracer_;
};

/// Wraps a FileSystem and counts what the WAL and snapshots write: bytes
/// per file kind, and fsyncs (files and directories).
class CountingFileSystem : public durability::FileSystem {
 public:
  struct Counters {
    uint64_t wal_bytes = 0;
    uint64_t snapshot_bytes = 0;
    uint64_t fsyncs = 0;
  };

  explicit CountingFileSystem(durability::FileSystem* base) : base_(base) {}

  const Counters& counters() const { return counters_; }

  Result<std::unique_ptr<durability::File>> OpenAppend(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Status SyncDir(const std::string& dir) override;

 private:
  durability::FileSystem* base_;
  Counters counters_;
};

/// Removes `dir` and everything below it (benchmark scratch only).
void RemoveTree(const std::string& dir);

/// Creates `dir` and its missing parents.
Status MakeDirs(const std::string& dir);

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_TRACE_H_
