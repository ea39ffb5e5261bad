#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

namespace epl::e2e {

Tracer::Tracer(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void Tracer::Begin(const char* name) {
  stack_.push_back(Open{next_id_++, name, NowNs()});
}

void Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{open.id, open.name, open.start_ns, end,
                          stack_.empty() ? -1 : stack_.back().id});
  }
}

Status Tracer::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return InternalError("cannot write " + path);
  }
  std::fprintf(out, "id,parent,name,start_ns,end_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%lld,%lld,%s,%lld,%lld\n",
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? OkStatus() : InternalError("cannot write " + path);
}

Status HandoffMarker::Process(const stream::Event& event) {
  ScopedSpan span(tracer_, "stream.handoff");
  return Forward(event);
}

namespace {

class CountingFile : public durability::File {
 public:
  CountingFile(std::unique_ptr<durability::File> base, bool snapshot,
               CountingFileSystem::Counters* counters)
      : base_(std::move(base)), snapshot_(snapshot), counters_(counters) {}

  Status Append(std::string_view data) override {
    (snapshot_ ? counters_->snapshot_bytes : counters_->wal_bytes) +=
        data.size();
    return base_->Append(data);
  }
  Status Sync() override {
    ++counters_->fsyncs;
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<durability::File> base_;
  bool snapshot_;
  CountingFileSystem::Counters* counters_;
};

}  // namespace

Result<std::unique_ptr<durability::File>> CountingFileSystem::OpenAppend(
    const std::string& path) {
  EPL_ASSIGN_OR_RETURN(std::unique_ptr<durability::File> file,
                       base_->OpenAppend(path));
  const bool snapshot = path.find(".snap") != std::string::npos;
  return std::unique_ptr<durability::File>(
      new CountingFile(std::move(file), snapshot, &counters_));
}

Status CountingFileSystem::SyncDir(const std::string& dir) {
  ++counters_.fsyncs;
  return base_->SyncDir(dir);
}

void RemoveTree(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

Status MakeDirs(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  return error ? InternalError("mkdir " + dir + ": " + error.message())
               : OkStatus();
}

}  // namespace epl::e2e
