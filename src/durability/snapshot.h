// Snapshot: versioned binary run-state checkpoints, plus the typed WAL
// records the GestureRuntime logs between them.
//
// A checkpoint is a consistent cut of the whole runtime at a quiesced
// event boundary: the open sessions, every deployed query (its canonical
// query text from the unparser, its gesture name, its session whose gate
// it carries), and every query's live NFA runs and statistics
// (cep::NfaRunState, the ExtractPattern-shaped materialization). Recovery
// rebuilds the runtime from the newest valid snapshot and replays the WAL
// suffix with seq >= Snapshot::wal_seq.
//
// On-disk layout:
//
//   <dir>/snapshot-<wal_seq, 20 digits>.snap
//
//   file := "EPLSNAP1" | u32 version | u32 body_len | u32 crc32(body)
//           | body
//
// written to a ".tmp" sibling, fsynced, atomically renamed, and sealed
// with a directory fsync -- so a visible snapshot file is complete by
// construction and a bit-flipped one is rejected by CRC (recovery then
// falls back to the next-newest). WAL record payloads reuse the same
// codec; gesture definitions travel as gesturedb/serialization text and
// query text as the canonical unparser rendering, so the durable formats
// share one schema with the gesture database.

#ifndef EPL_DURABILITY_SNAPSHOT_H_
#define EPL_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cep/matcher.h"
#include "durability/codec.h"
#include "durability/file.h"
#include "stream/event.h"
#include "transform/transform.h"

namespace epl::durability {

/// One typed record of the runtime WAL. Events carry the already
/// transformed stream::Event exactly as it was pushed; mutations carry
/// the session plus the names/serialized definition needed to reapply
/// them.
struct WalRecord {
  enum class Type : uint8_t {
    kEvent = 1,         // session, event
    kOpenSession = 2,   // session (the assigned id), name (the user)
    kCloseSession = 3,  // session
    kDeploy = 4,        // session, name, definition (gesturedb text)
    kUndeploy = 5,      // session, name
    /// session, name, definition (workflow::SerializeComposite text).
    /// Replay re-resolves the composite's inputs against the queries live
    /// at that point of the log -- derived detection events themselves are
    /// NEVER logged; recovery re-derives them from replayed base events.
    kDeployComposite = 6,
  };

  Type type = Type::kEvent;
  int session = -1;  // workflow::kLocalSession for the classic pipeline
  stream::Event event;
  std::string name;
  std::string definition;
};

std::string EncodeWalRecord(const WalRecord& record);
/// Appends the encoding to `out` -- the ingest hot path reuses one writer
/// across records to stay allocation-free.
void EncodeWalRecord(const WalRecord& record, ByteWriter* out);
Result<WalRecord> DecodeWalRecord(std::string_view payload);

/// Run-state codec shared by snapshots and the Extract/Adopt round-trip
/// (tests serialize a detached matcher through exactly this).
void EncodeRunState(const cep::NfaRunState& state, ByteWriter* out);
Result<cep::NfaRunState> DecodeRunState(ByteReader* in);

/// One open session at the cut. Sessions with id < 0 carry only the
/// event counter of the classic local pipeline.
struct SessionState {
  int id = 0;
  std::string user;
  /// Frames durably ingested for this session up to the cut -- the index
  /// a crashed producer resumes pushing from.
  uint64_t ingested_events = 0;
  /// The session's kinect_t view smoothing state at the cut; the default
  /// (unsmoothed) when the runtime does not transform sessions.
  transform::TransformState view;
};

/// One deployed query at the cut, in restoration order.
struct QueryState {
  int session = -1;
  std::string name;        // gesture name (deploy key)
  std::string query_text;  // canonical unparser rendering, rescoped
  /// Composite level (0 = base query; see cep/composite.h). Level >= 1
  /// queries restore from `definition` (workflow::SerializeComposite
  /// text, which round-trips gesture tags exactly) and `stream` (the
  /// channel the composite's inputs feed), not from query_text.
  int level = 0;
  std::string stream;
  std::string definition;
  cep::NfaRunState runs;
};

struct Snapshot {
  /// WAL records with seq < wal_seq are reflected in this snapshot;
  /// recovery replays from here.
  uint64_t wal_seq = 0;
  int next_session_id = 0;
  std::vector<SessionState> sessions;
  std::vector<QueryState> queries;
};

/// Atomically writes `snapshot` as <dir>/snapshot-<wal_seq>.snap.
Status WriteSnapshot(FileSystem* fs, const std::string& dir,
                     const Snapshot& snapshot);

/// Reads the newest valid snapshot in `dir`. A corrupt newer file is
/// skipped (with the older fallback used); NotFound when none exists.
Result<Snapshot> ReadLatestSnapshot(FileSystem* fs, const std::string& dir);

/// Deletes snapshot files older than the one covering `keep_seq`, plus
/// any leftover ".tmp" from an interrupted write.
Status RemoveStaleSnapshots(FileSystem* fs, const std::string& dir,
                            uint64_t keep_seq);

}  // namespace epl::durability

#endif  // EPL_DURABILITY_SNAPSHOT_H_
