#include "server/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/checksum.h"
#include "base/failpoint.h"
#include "base/io_util.h"

namespace hypo {

namespace {

constexpr char kMagic[8] = {'H', 'Y', 'P', 'O', 'C', 'K', 'P', '1'};
constexpr uint32_t kVersion = 1;

std::string EpochTag(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

/// Parses the epoch out of "checkpoint-<epoch>.ckpt"; 0 when `name` is
/// not a checkpoint file (epoch 0 never has a checkpoint — the first
/// possible one is at epoch 1).
uint64_t CheckpointEpochOf(const std::string& name) {
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return 0;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return 0;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return 0;
  }
  uint64_t epoch = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return epoch;
}

bool IsJournalName(const std::string& name) {
  return name.rfind("journal-", 0) == 0 &&
         name.size() > 4 + 8 &&
         name.compare(name.size() - 4, 4, ".log") == 0;
}

StatusOr<RecoveredState> LoadCheckpoint(const std::string& path) {
  auto bytes_or = ReadFileToString(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = *bytes_or;
  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 + 4;
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("checkpoint " + path +
                            " has bad magic or truncated header");
  }
  ByteReader header(std::string_view(bytes).substr(sizeof(kMagic)));
  const uint32_t version = *header.ReadU32();
  if (version != kVersion) {
    return Status::DataLoss("checkpoint " + path +
                            " has unsupported version " +
                            std::to_string(version));
  }
  const uint32_t len = *header.ReadU32();
  const uint32_t crc = *header.ReadU32();
  if (bytes.size() - kHeaderBytes != len) {
    return Status::DataLoss("checkpoint " + path + " payload length " +
                            std::to_string(bytes.size() - kHeaderBytes) +
                            " != framed " + std::to_string(len));
  }
  const std::string_view payload(bytes.data() + kHeaderBytes, len);
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::DataLoss("checkpoint " + path + " checksum mismatch");
  }

  ByteReader r(payload);
  RecoveredState state;
  state.have_checkpoint = true;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return Status::DataLoss("checkpoint " + path + " short");
  state.checkpoint_epoch = *epoch;
  auto program = r.ReadLengthPrefixed();
  if (!program.ok()) {
    return Status::DataLoss("checkpoint " + path + " short (program)");
  }
  state.program = std::string(*program);

  state.symbols = std::make_shared<SymbolTable>();
  auto npreds = r.ReadU32();
  if (!npreds.ok()) {
    return Status::DataLoss("checkpoint " + path + " short (predicates)");
  }
  for (uint32_t i = 0; i < *npreds; ++i) {
    auto name = r.ReadLengthPrefixed();
    if (!name.ok()) {
      return Status::DataLoss("checkpoint " + path + " short (predicate " +
                              std::to_string(i) + ")");
    }
    auto arity = r.ReadU32();
    if (!arity.ok()) {
      return Status::DataLoss("checkpoint " + path + " short (predicate " +
                              std::to_string(i) + ")");
    }
    auto id = state.symbols->InternPredicate(*name,
                                             static_cast<int>(*arity));
    if (!id.ok() || *id != static_cast<PredicateId>(i)) {
      return Status::DataLoss("checkpoint " + path +
                              " symbol dump is not in id order");
    }
  }
  auto nconsts = r.ReadU32();
  if (!nconsts.ok()) {
    return Status::DataLoss("checkpoint " + path + " short (constants)");
  }
  for (uint32_t i = 0; i < *nconsts; ++i) {
    auto name = r.ReadLengthPrefixed();
    if (!name.ok()) {
      return Status::DataLoss("checkpoint " + path + " short (constant " +
                              std::to_string(i) + ")");
    }
    if (state.symbols->InternConst(*name) != static_cast<ConstId>(i)) {
      return Status::DataLoss("checkpoint " + path +
                              " symbol dump is not in id order");
    }
  }

  auto relations = r.ReadLengthPrefixed();
  if (!relations.ok()) {
    return Status::DataLoss("checkpoint " + path + " short (relations)");
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("checkpoint " + path + " has trailing bytes");
  }
  state.base = std::make_unique<Database>(state.symbols);
  Status s = state.base->DeserializeRelations(*relations);
  if (!s.ok()) {
    return Status::DataLoss("checkpoint " + path +
                            " relation snapshot invalid: " + s.message());
  }
  return state;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t epoch) {
  return dir + "/checkpoint-" + EpochTag(epoch) + ".ckpt";
}

std::string JournalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/journal-" + EpochTag(epoch) + ".log";
}

Status WriteCheckpoint(const std::string& dir, uint64_t epoch,
                       std::string_view program, const SymbolTable& symbols,
                       const Database& base, std::string* out_path) {
  std::string payload;
  AppendU64(&payload, epoch);
  AppendLengthPrefixed(&payload, program);
  AppendU32(&payload, static_cast<uint32_t>(symbols.num_predicates()));
  for (PredicateId p = 0; p < symbols.num_predicates(); ++p) {
    AppendLengthPrefixed(&payload, symbols.PredicateName(p));
    AppendU32(&payload, static_cast<uint32_t>(symbols.PredicateArity(p)));
  }
  AppendU32(&payload, static_cast<uint32_t>(symbols.num_consts()));
  for (ConstId c = 0; c < symbols.num_consts(); ++c) {
    AppendLengthPrefixed(&payload, symbols.ConstName(c));
  }
  std::string relations;
  base.SerializeRelations(&relations);
  AppendLengthPrefixed(&payload, relations);

  std::string file(kMagic, sizeof(kMagic));
  AppendU32(&file, kVersion);
  AppendU32(&file, static_cast<uint32_t>(payload.size()));
  AppendU32(&file, Crc32c(payload.data(), payload.size()));
  file.append(payload);

  const std::string final_path = CheckpointPath(dir, epoch);
  const std::string tmp_path = final_path + ".tmp";
  {
    HYPO_FAILPOINT("checkpoint.write");
    auto fd = OpenForWrite(tmp_path, /*truncate=*/true);
    if (!fd.ok()) return fd.status();
    Status s = WriteFully(fd->get(), file, tmp_path);
    if (!s.ok()) return s;
    HYPO_FAILPOINT("checkpoint.fsync");
    s = FsyncFd(fd->get(), tmp_path);
    if (!s.ok()) return s;
  }
  // Publication must be all-or-nothing: if the rename lands but the
  // directory fsync fails, the new checkpoint is visible while the caller
  // will keep appending to the OLD journal — recovery would then prefer
  // the new checkpoint and silently drop those later records. Un-publish
  // (remove the renamed file) before reporting failure so the previous
  // checkpoint + journal stay the single authoritative lineage.
  bool renamed = false;
  Status s = [&]() -> Status {
    HYPO_FAILPOINT("checkpoint.rename");
    Status r = RenameFile(tmp_path, final_path);
    if (!r.ok()) return r;
    renamed = true;
    HYPO_FAILPOINT("checkpoint.dirsync");
    return FsyncPath(dir);
  }();
  if (!s.ok()) {
    if (renamed) {
      (void)RemoveFile(final_path);
      (void)FsyncPath(dir);
    }
    return s;
  }
  if (out_path != nullptr) *out_path = final_path;
  return Status::OK();
}

// The unnamed parameter exists only because serverbench/driver.cc passes
// Database::DefaultBackend(); there is one storage layout.
StatusOr<RecoveredState> RecoverDataDir(const std::string& dir,
                                        StorageBackend) {
  Status s = EnsureDir(dir);
  if (!s.ok()) return s;
  auto names = ListDir(dir);
  if (!names.ok()) return names.status();

  uint64_t best = 0;
  for (const std::string& name : *names) {
    best = std::max(best, CheckpointEpochOf(name));
  }
  RecoveredState state;
  if (best == 0) {
    // The server seeds an initial checkpoint before its first journal, so
    // a journal with no checkpoint at all can only mean the checkpoint
    // was lost — refusing is the difference between "fresh start" and
    // silently discarding committed state.
    for (const std::string& name : *names) {
      if (IsJournalName(name)) {
        return Status::DataLoss("data dir " + dir + " holds journal " +
                                name + " but no checkpoint");
      }
    }
    return state;  // Fresh directory: no committed state.
  }

  auto loaded = LoadCheckpoint(CheckpointPath(dir, best));
  if (!loaded.ok()) return loaded.status();
  state = std::move(*loaded);
  if (state.checkpoint_epoch != best) {
    return Status::DataLoss("checkpoint " + CheckpointPath(dir, best) +
                            " is stamped epoch " +
                            std::to_string(state.checkpoint_epoch));
  }
  state.epoch = state.checkpoint_epoch;

  const std::string journal = JournalPath(dir, state.checkpoint_epoch);
  if (!FileExists(journal)) {
    // Crash between checkpoint rename and journal rotation: the journal
    // legitimately does not exist yet. Nothing to replay.
    return state;
  }
  auto replay = ReplayJournal(journal, state.checkpoint_epoch);
  if (!replay.ok()) return replay.status();
  state.torn_records_dropped = replay->torn_records_dropped;
  state.journal_valid_bytes = replay->valid_bytes;
  state.journal_reusable = replay->valid_bytes > 0;
  state.epoch = state.checkpoint_epoch + replay->records.size();
  state.records = std::move(replay->records);
  return state;
}

Status GarbageCollectDataDir(const std::string& dir, uint64_t keep_epoch) {
  auto names = ListDir(dir);
  if (!names.ok()) return names.status();
  Status first = Status::OK();
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    bool drop = false;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      drop = true;
    } else if (uint64_t e = CheckpointEpochOf(name); e != 0) {
      drop = e < keep_epoch;
    } else if (IsJournalName(name)) {
      drop = path != JournalPath(dir, keep_epoch);
    }
    if (!drop) continue;
    Status s = RemoveFile(path);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace hypo
