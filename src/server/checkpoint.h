#ifndef HYPO_SERVER_CHECKPOINT_H_
#define HYPO_SERVER_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/symbol_table.h"
#include "base/status.h"
#include "db/database.h"
#include "server/journal.h"

namespace hypo {

/// Durable snapshots of the server's committed state, and the recovery
/// scan that stitches the latest snapshot together with its journal tail.
///
/// A checkpoint file `checkpoint-<epoch>.ckpt` (epoch zero-padded so
/// lexical order is numeric order) holds one CRC-framed payload:
///
///   "HYPOCKP1"  u32 version  u32 payload_len  u32 crc32c(payload)
///   payload = u64 epoch
///             length-prefixed program text (rules + directives re-parse)
///             symbol table dump (names + arities, in id order)
///             length-prefixed Database::SerializeRelations bytes
///
/// Publication is atomic: write to `<name>.tmp`, fsync the file, rename
/// into place, fsync the directory. A crash at any point leaves either
/// the old state (tmp files are garbage, removed by GC) or the complete
/// new one — never a half-visible checkpoint. The symbol dump restores
/// the exact dense-id assignment, so the relation snapshot's raw ids —
/// and every downstream iteration order — are bit-identical after reload.

/// Path helpers, shared with the tests and the smoke script.
std::string CheckpointPath(const std::string& dir, uint64_t epoch);
std::string JournalPath(const std::string& dir, uint64_t epoch);

/// Serializes and atomically publishes a checkpoint of `base` at `epoch`.
/// On success `*out_path` names the published file.
Status WriteCheckpoint(const std::string& dir, uint64_t epoch,
                       std::string_view program, const SymbolTable& symbols,
                       const Database& base, std::string* out_path);

/// What RecoverDataDir reassembled from disk. When `have_checkpoint` is
/// false the directory held no committed state (fresh start): `symbols`
/// and `base` are null and the caller seeds epoch 1 from its own program.
struct RecoveredState {
  bool have_checkpoint = false;
  uint64_t checkpoint_epoch = 0;
  /// checkpoint_epoch + records.size(): the epoch the server resumes at.
  uint64_t epoch = 0;
  std::string program;
  std::shared_ptr<SymbolTable> symbols;
  std::unique_ptr<Database> base;
  /// Journal records after the checkpoint, already validated, in commit
  /// order. The caller re-interns the names and applies them.
  std::vector<JournalRecord> records;
  int64_t torn_records_dropped = 0;
  /// Valid journal prefix length for Journal::OpenAt, or 0 when the
  /// journal must be recreated (missing or torn before the first record —
  /// a crash between checkpoint rename and journal rotation).
  int64_t journal_valid_bytes = 0;
  bool journal_reusable = false;
};

/// Scans `dir` for the highest-epoch checkpoint, validates it, loads it,
/// and replays its journal tail. DataLoss when the newest checkpoint or
/// any non-final journal record is damaged; a torn final journal record
/// is dropped (and counted), not an error. The unused second parameter
/// exists only because serverbench/driver.cc passes one.
StatusOr<RecoveredState> RecoverDataDir(
    const std::string& dir, StorageBackend = StorageBackend::kColumnar);

/// Removes superseded durable files: checkpoints below `keep_epoch`,
/// journals other than `keep_epoch`'s, and stray `.tmp` files. Best
/// effort — a failure here never loses committed state, so errors are
/// swallowed after the first (reported) one.
Status GarbageCollectDataDir(const std::string& dir, uint64_t keep_epoch);

}  // namespace hypo

#endif  // HYPO_SERVER_CHECKPOINT_H_
