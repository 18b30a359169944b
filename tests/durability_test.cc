// Durability layer tests: journal framing and replay, checkpoint
// round-trips, torn-tail vs corruption taxonomy, crash-anywhere failpoint
// sweeps with a shadow in-memory oracle, read-only degradation, and a
// randomized recovery-vs-oracle differential across engines (DESIGN.md
// "Durability & recovery").

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/io_util.h"
#include "db/database.h"
#include "server/checkpoint.h"
#include "server/journal.h"
#include "server/protocol.h"
#include "server/query_server.h"

namespace hypo {
namespace {

constexpr char kReachProgram[] = R"(
reach(X, Y) <- edge(X, Y).
reach(X, Z) <- edge(X, Y), reach(Y, Z).
edge(a, b).
edge(b, c).
)";

/// Fresh per-test scratch directory (removed up front so a rerun never
/// sees a previous run's files). The process id keeps concurrent test
/// processes apart: parameterized cases share a tag, and the counter
/// restarts at 0 in every process.
std::string FreshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "hypo_durability_" + tag + "_" +
                    std::to_string(getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

ServerOptions DurableOptions(
    const std::string& engine, const std::string& dir,
    Journal::FsyncPolicy policy = Journal::FsyncPolicy::kAlways,
    int64_t checkpoint_every = 0) {
  ServerOptions options;
  options.engine_name = engine;
  options.pool_size = 2;
  options.durability.data_dir = dir;
  options.durability.fsync_policy = policy;
  options.durability.checkpoint_every = checkpoint_every;
  options.durability.retry_backoff_ms = 0;  // Keep failpoint sweeps fast.
  return options;
}

std::unique_ptr<QueryServer> MustCreate(const ServerOptions& options,
                                        const char* program = kReachProgram) {
  auto server = QueryServer::Create(program, options);
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(*server) : nullptr;
}

/// Flips one byte of `path` in place.
void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(offset);
  f.write(&byte, 1);
}

void TruncateFile(const std::string& path, int64_t size) {
  std::filesystem::resize_file(path, static_cast<uintmax_t>(size));
}

std::string OnlyCheckpoint(const std::string& dir) {
  std::string found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("checkpoint-") == 0 && name.find(".tmp") == std::string::npos) {
      EXPECT_TRUE(found.empty()) << "multiple checkpoints in " << dir;
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no checkpoint in " << dir;
  return found;
}

std::string OnlyJournal(const std::string& dir) {
  std::string found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("journal-") == 0) {
      EXPECT_TRUE(found.empty()) << "multiple journals in " << dir;
      found = entry.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no journal in " << dir;
  return found;
}

using NamedFacts =
    std::vector<std::pair<std::string, std::vector<std::string>>>;

// ---------------------------------------------------------------------------
// Journal unit tests.

TEST(JournalTest, AppendAndReplayRoundTrip) {
  const std::string dir = FreshDir("jrt");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = JournalPath(dir, 1);
  auto journal =
      Journal::Create(path, 1, Journal::FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    NamedFacts inserts = {{"edge", {"x" + std::to_string(epoch), "y"}}};
    NamedFacts retracts;
    if (epoch == 3) retracts.push_back({"edge", {"x2", "y"}});
    Status s = (*journal)->Append(
        epoch, EncodeJournalPayload(epoch, inserts, retracts));
    ASSERT_TRUE(s.ok()) << s;
  }
  EXPECT_EQ((*journal)->appends(), 3);
  EXPECT_EQ((*journal)->fsyncs(), 3);

  auto replay = ReplayJournal(path, 1);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->torn_records_dropped, 0);
  EXPECT_EQ(replay->records[0].epoch, 2u);
  EXPECT_EQ(replay->records[2].epoch, 4u);
  ASSERT_EQ(replay->records[1].retracts.size(), 1u);
  EXPECT_EQ(replay->records[1].retracts[0].first, "edge");
  EXPECT_EQ(replay->records[1].inserts[0].second,
            (std::vector<std::string>{"x3", "y"}));
}

TEST(JournalTest, WrongBaseEpochIsDataLoss) {
  const std::string dir = FreshDir("jbe");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = JournalPath(dir, 7);
  auto journal =
      Journal::Create(path, 7, Journal::FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto replay = ReplayJournal(path, 3);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, TornTailDropsOnlyTheFinalRecord) {
  const std::string dir = FreshDir("torn");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = JournalPath(dir, 1);
  auto journal =
      Journal::Create(path, 1, Journal::FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(journal.ok()) << journal.status();
  // Record the valid prefix length after each append so the sweep can
  // tell which record a cut lands inside.
  std::vector<int64_t> boundaries;
  boundaries.push_back(*FileSize(path));
  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    NamedFacts inserts = {{"edge", {"a", "b" + std::to_string(epoch)}}};
    ASSERT_TRUE(
        (*journal)->Append(epoch, EncodeJournalPayload(epoch, inserts, {}))
            .ok());
    boundaries.push_back(*FileSize(path));
  }
  const std::string pristine = *ReadFileToString(path);

  // Cut the file at EVERY byte length from just-after-header to full.
  // Replay must recover the longest whole-record prefix, report a torn
  // tail iff the cut is mid-record, and never report corruption.
  for (int64_t cut = boundaries.front();
       cut <= static_cast<int64_t>(pristine.size()); ++cut) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(pristine.data(), cut);
    }
    auto replay = ReplayJournal(path, 1);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": " << replay.status();
    size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(replay->records.size(), whole) << "cut=" << cut;
    EXPECT_EQ(replay->valid_bytes, boundaries[whole]) << "cut=" << cut;
    EXPECT_EQ(replay->torn_records_dropped,
              cut == boundaries[whole] ? 0 : 1)
        << "cut=" << cut;
  }
}

TEST(JournalTest, MidJournalCorruptionIsDataLossNamingTheRecord) {
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = JournalPath(dir, 1);
  auto journal =
      Journal::Create(path, 1, Journal::FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<int64_t> boundaries = {*FileSize(path)};
  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    NamedFacts inserts = {{"edge", {"a", "b" + std::to_string(epoch)}}};
    ASSERT_TRUE(
        (*journal)->Append(epoch, EncodeJournalPayload(epoch, inserts, {}))
            .ok());
    boundaries.push_back(*FileSize(path));
  }
  // Flip one payload byte inside record 1 (the second record): past its
  // 8-byte frame, before record 2.
  FlipByte(path, boundaries[1] + 12);
  auto replay = ReplayJournal(path, 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(replay.status().message().find("record 1"), std::string::npos)
      << replay.status();

  // Header damage is corruption too, not a torn tail.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write("HYPOJRNX", 8);
    std::string rest(20, '\0');
    f.write(rest.data(), rest.size());
  }
  auto bad_magic = ReplayJournal(path, 1);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Database snapshot round-trip.

TEST(DatabaseSnapshotTest, SerializeDeserializePreservesRowOrder) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db(symbols);
  ASSERT_TRUE(db.Insert("edge", {"c", "d"}).ok());
  ASSERT_TRUE(db.Insert("edge", {"a", "b"}).ok());
  ASSERT_TRUE(db.Insert("label", {"a"}).ok());
  std::string bytes;
  db.SerializeRelations(&bytes);

  Database copy(symbols);
  ASSERT_TRUE(copy.DeserializeRelations(bytes).ok());
  EXPECT_EQ(copy.size(), db.size());
  const PredicateId edge = symbols->FindPredicate("edge");
  auto rows = copy.TuplesFor(edge);
  ASSERT_EQ(rows.size(), 2u);
  // Insertion order survives the round-trip: (c, d) first.
  EXPECT_EQ(rows.At(0, 0), symbols->FindConst("c"));
  EXPECT_EQ(rows.At(1, 0), symbols->FindConst("a"));

  // Identical logical contents serialize to identical bytes.
  std::string again;
  copy.SerializeRelations(&again);
  EXPECT_EQ(bytes, again);

  Database full(symbols);
  ASSERT_TRUE(full.Insert("edge", {"x", "y"}).ok());
  EXPECT_FALSE(full.DeserializeRelations(bytes).ok());
}

// ---------------------------------------------------------------------------
// Server-level recovery.

class DurableServerTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllEngines, DurableServerTest,
                         ::testing::Values("tabled", "stratified",
                                           "bottomup"));

TEST_P(DurableServerTest, RestartRecoversCommittedState) {
  const std::string dir = FreshDir("restart");
  std::string before;
  {
    auto server = MustCreate(DurableOptions(GetParam(), dir));
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->Insert("edge(c, d)").ok());
    ASSERT_TRUE(server->Retract("edge(a, b)").ok());
    ASSERT_TRUE(server->Insert("edge(d, e)").ok());
    EXPECT_EQ(server->epoch(), 4);
    before = server->CanonicalState();
    ASSERT_TRUE(server->Shutdown().ok());
  }
  auto server = MustCreate(DurableOptions(GetParam(), dir));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->epoch(), 4);
  EXPECT_EQ(server->CanonicalState(), before);
  EXPECT_EQ(server->counters().recoveries, 1);

  auto q = server->Query("reach(b, X)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->answers.size(), 3u);  // c, d, e.
  // Mutations continue past the recovered epoch.
  auto ins = server->Insert("edge(e, f)");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->epoch, 5);
}

TEST_P(DurableServerTest, RestartWithoutShutdownReplaysTheJournal) {
  const std::string dir = FreshDir("noshutdown");
  std::string before;
  {
    auto server = MustCreate(DurableOptions(GetParam(), dir));
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->Insert("edge(c, d)").ok());
    ASSERT_TRUE(server->Insert("edge(d, e)").ok());
    before = server->CanonicalState();
    // No Shutdown: the process "crashes" here. fsync=always means every
    // acknowledged batch is already in the journal.
  }
  auto server = MustCreate(DurableOptions(GetParam(), dir));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->epoch(), 3);
  EXPECT_EQ(server->CanonicalState(), before);
}

TEST_P(DurableServerTest, GroupAndOffPoliciesFlushAtShutdown) {
  for (auto policy :
       {Journal::FsyncPolicy::kGroup, Journal::FsyncPolicy::kOff}) {
    const std::string dir =
        FreshDir(std::string("policy_") + Journal::PolicyName(policy));
    std::string before;
    {
      auto server = MustCreate(DurableOptions(GetParam(), dir, policy));
      ASSERT_NE(server, nullptr);
      ASSERT_TRUE(server->Insert("edge(c, d)").ok());
      ASSERT_TRUE(server->Insert("edge(d, e)").ok());
      before = server->CanonicalState();
      ASSERT_TRUE(server->Shutdown().ok());
    }
    auto server = MustCreate(DurableOptions(GetParam(), dir, policy));
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->CanonicalState(), before);
  }
}

TEST_P(DurableServerTest, PeriodicCheckpointsBoundTheJournal) {
  const std::string dir = FreshDir("periodic");
  auto server = MustCreate(DurableOptions(
      GetParam(), dir, Journal::FsyncPolicy::kAlways, /*checkpoint_every=*/2));
  ASSERT_NE(server, nullptr);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        server->Insert("edge(n" + std::to_string(i) + ", m)").ok());
  }
  // 6 turns, checkpoint every 2: epoch 7, checkpoints at 3, 5, 7 (plus
  // the initial seed checkpoint) — and GC keeps only the newest pair.
  EXPECT_EQ(server->epoch(), 7);
  EXPECT_EQ(server->counters().checkpoints, 4);
  EXPECT_NE(OnlyCheckpoint(dir).find("7.ckpt"), std::string::npos);
  OnlyJournal(dir);
  const std::string before = server->CanonicalState();
  server.reset();  // Crash (no Shutdown): journal past checkpoint-7 is empty.

  auto recovered = MustCreate(DurableOptions(GetParam(), dir));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 7);
  EXPECT_EQ(recovered->CanonicalState(), before);
}

TEST(DurabilityTest, CorruptCheckpointIsDataLoss) {
  const std::string dir = FreshDir("ckptflip");
  {
    auto server = MustCreate(DurableOptions("tabled", dir));
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->Insert("edge(c, d)").ok());
    ASSERT_TRUE(server->Shutdown().ok());
  }
  const std::string ckpt = OnlyCheckpoint(dir);
  FlipByte(ckpt, *FileSize(ckpt) - 3);  // Somewhere in the relations.
  auto server =
      QueryServer::Create(kReachProgram, DurableOptions("tabled", dir));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kDataLoss) << server.status();
}

TEST(DurabilityTest, CorruptJournalRecordFailsRecoveryWithItsIndex) {
  const std::string dir = FreshDir("jrnflip");
  std::vector<int64_t> boundaries;
  {
    auto server = MustCreate(DurableOptions("tabled", dir));
    ASSERT_NE(server, nullptr);
    boundaries.push_back(*FileSize(OnlyJournal(dir)));
    ASSERT_TRUE(server->Insert("edge(c, d)").ok());
    boundaries.push_back(*FileSize(OnlyJournal(dir)));
    ASSERT_TRUE(server->Insert("edge(d, e)").ok());
    // Crash without Shutdown so the journal carries both records.
  }
  FlipByte(OnlyJournal(dir), boundaries[0] + 10);  // Inside record 0.
  auto server =
      QueryServer::Create(kReachProgram, DurableOptions("tabled", dir));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kDataLoss) << server.status();
  EXPECT_NE(server.status().message().find("record 0"), std::string::npos)
      << server.status();
}

TEST(DurabilityTest, TornFinalRecordIsTruncatedNotFatal) {
  const std::string dir = FreshDir("jrntorn");
  std::string state_after_first;
  int64_t second_record_start = 0;
  {
    auto server = MustCreate(DurableOptions("tabled", dir));
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->Insert("edge(c, d)").ok());
    state_after_first = server->CanonicalState();
    second_record_start = *FileSize(OnlyJournal(dir));
    ASSERT_TRUE(server->Insert("edge(d, e)").ok());
  }
  // Shear the second record mid-payload, as a crash mid-write would.
  TruncateFile(OnlyJournal(dir), second_record_start + 5);
  auto server = MustCreate(DurableOptions("tabled", dir));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->epoch(), 2);  // Only the first record survived.
  EXPECT_EQ(server->CanonicalState(), state_after_first);
  EXPECT_EQ(server->counters().torn_records_dropped, 1);
  // The torn bytes were truncated away: appending resumes cleanly.
  auto ins = server->Insert("edge(z, w)");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->epoch, 3);
}

// ---------------------------------------------------------------------------
// Randomized recovery differential: a durable server restarted mid-run
// must stay canonically equal to a never-restarted in-memory oracle, for
// every engine.

class RecoveryDifferentialTest : public ::testing::TestWithParam<const char*> {
};

INSTANTIATE_TEST_SUITE_P(
    Engines, RecoveryDifferentialTest,
    ::testing::Values("tabled", "stratified", "bottomup"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

/// One mutation as surface text — the currency both servers understand
/// regardless of how their symbol tables diverged.
struct TextMutation {
  bool insert;
  std::string fact;
};

/// Parses and applies `batch` to `server`; returns the outcome status.
StatusOr<MutationOutcome> ApplyText(QueryServer* server,
                                    const std::vector<TextMutation>& batch) {
  std::vector<QueryServer::Mutation> parsed;
  parsed.reserve(batch.size());
  for (const TextMutation& m : batch) {
    auto p = server->ParseMutation(m.fact, m.insert);
    if (!p.ok()) return p.status();
    parsed.push_back(std::move(*p));
  }
  return server->ApplyBatch(parsed);
}

TEST_P(RecoveryDifferentialTest, RandomizedBatchesSurviveRestarts) {
  const std::string dir = FreshDir(std::string("diff_") + GetParam());
  ServerOptions durable_opts =
      DurableOptions(GetParam(), dir, Journal::FsyncPolicy::kAlways,
                     /*checkpoint_every=*/3);
  ServerOptions oracle_opts = durable_opts;
  oracle_opts.durability = DurabilityOptions();  // In-memory shadow.

  auto durable = MustCreate(durable_opts);
  auto oracle = MustCreate(oracle_opts);
  ASSERT_NE(durable, nullptr);
  ASSERT_NE(oracle, nullptr);

  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const char* consts[] = {"a", "b", "c", "d", "e", "f"};
  auto random_batch = [&]() {
    std::vector<TextMutation> batch;
    const int n = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < n; ++i) {
      const bool insert = next() % 3 != 0;  // Insert-leaning.
      batch.push_back({insert, std::string("edge(") + consts[next() % 6] +
                                   ", " + consts[next() % 6] + ")"});
    }
    return batch;
  };

  for (int round = 0; round < 30; ++round) {
    // Restart the durable server (simulated crash: no Shutdown) twice
    // along the way; the oracle never restarts.
    if (round == 10 || round == 20) {
      durable.reset();
      durable = MustCreate(durable_opts);
      ASSERT_NE(durable, nullptr);
      EXPECT_EQ(durable->counters().recoveries, 1);
      ASSERT_EQ(durable->CanonicalState(), oracle->CanonicalState())
          << "after restart at round " << round;
    }
    const auto batch = random_batch();
    auto d = ApplyText(durable.get(), batch);
    auto o = ApplyText(oracle.get(), batch);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_TRUE(o.ok()) << o.status();
    EXPECT_EQ(d->changed, o->changed) << "round " << round;
    EXPECT_EQ(d->epoch, o->epoch) << "round " << round;
    ASSERT_EQ(durable->CanonicalState(), oracle->CanonicalState())
        << "round " << round;

    // Query answers agree too — the recovered base drives the engines to
    // the same model, not just the same fact set. Compared as sets: answer
    // ORDER can track symbol-table intern order, which legitimately
    // diverges once the durable server has been recovered.
    auto dq = durable->Query("reach(a, X)");
    auto oq = oracle->Query("reach(a, X)");
    ASSERT_TRUE(dq.ok()) << dq.status();
    ASSERT_TRUE(oq.ok()) << oq.status();
    auto da = dq->answers;
    auto oa = oq->answers;
    std::sort(da.begin(), da.end());
    std::sort(oa.begin(), oa.end());
    EXPECT_EQ(da, oa) << "round " << round;
  }

  // Final restart after a clean shutdown for good measure.
  ASSERT_TRUE(durable->Shutdown().ok());
  durable.reset();
  durable = MustCreate(durable_opts);
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(durable->CanonicalState(), oracle->CanonicalState());
}

// ---------------------------------------------------------------------------
// Line-protocol surface: the `checkpoint` verb, the journal counters in
// `stats`, and the signal-drain stop flag.

TEST(DurabilityProtocolTest, CheckpointVerbAndStatsCounters) {
  const std::string dir = FreshDir("protocol");
  auto server = MustCreate(DurableOptions("tabled", dir));
  ASSERT_NE(server, nullptr);
  std::istringstream in(
      "insert edge(c, d)\n"
      "checkpoint\n"
      "stats\n"
      "shutdown\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(server.get(), in, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok checkpoint epoch=2\n"), std::string::npos) << text;
  EXPECT_NE(text.find(" journal_appends="), std::string::npos) << text;
  EXPECT_NE(text.find(" fsyncs="), std::string::npos) << text;
  EXPECT_NE(text.find(" checkpoints=2"), std::string::npos) << text;
  EXPECT_NE(text.find(" recoveries=0"), std::string::npos) << text;
  EXPECT_NE(text.find(" torn_records_dropped=0"), std::string::npos) << text;
  EXPECT_NE(text.find(" read_only=0"), std::string::npos) << text;
}

TEST(DurabilityProtocolTest, CheckpointVerbErrsWhenDurabilityIsOff) {
  ServerOptions options;
  options.engine_name = "tabled";
  auto server = MustCreate(options);
  ASSERT_NE(server, nullptr);
  std::istringstream in("checkpoint\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(server.get(), in, out), 0);
  EXPECT_NE(out.str().find("err FailedPrecondition"), std::string::npos)
      << out.str();
}

TEST(DurabilityProtocolTest, StopFlagEndsTheSessionBetweenCommands) {
  ServerOptions options;
  options.engine_name = "tabled";
  auto server = MustCreate(options);
  ASSERT_NE(server, nullptr);
  // The flag is already set when the session starts: no command on the
  // stream may execute (hypo_serve then drains via Shutdown and exits 3).
  std::atomic<bool> stop{true};
  std::istringstream in("insert edge(c, d)\nquery reach(a, X)\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(server.get(), in, out, &stop), 0);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(server->epoch(), 1);
}

// ---------------------------------------------------------------------------
// Failpoint-driven crash-anywhere sweep and read-only degradation. Only
// meaningful when the failpoint framework is compiled in (the registry
// class itself does not exist otherwise).

#if HYPO_FAILPOINTS

/// Durable write-path sites, in the order a commit crosses them.
const char* kDurabilitySites[] = {
    "journal.append",     "journal.append.unacked",
    "journal.fsync",      "journal.create",
    "checkpoint.write",   "checkpoint.fsync",
    "checkpoint.rename",  "checkpoint.dirsync",
};

TEST(DurabilityFailpointTest, ReadOnlyDegradationAndRecovery) {
  const std::string dir = FreshDir("readonly");
  auto server = MustCreate(DurableOptions("tabled", dir));
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->Insert("edge(c, d)").ok());
  const std::string committed = server->CanonicalState();

  // A persistently failing device: every append attempt (including the
  // bounded retries) fails from now on.
  FailpointRegistry::Global().ArmSticky(
      "journal.append", 1,
      Status::FailedPrecondition("injected device failure"));
  auto failed = server->Insert("edge(d, e)");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
      << failed.status();
  EXPECT_TRUE(server->read_only());
  EXPECT_TRUE(server->counters().read_only);

  // Queries keep serving the last committed epoch; further mutations are
  // rejected immediately (no more device traffic).
  auto q = server->Query("reach(a, X)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->answers.size(), 3u);  // b, c, d.
  auto still = server->Insert("edge(e, f)");
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server->CanonicalState(), committed);
  // Checkpoints are refused too — the journal holds the durable truth.
  EXPECT_EQ(server->Checkpoint().code(), StatusCode::kUnavailable);

  FailpointRegistry::Global().DisarmAll();
  server.reset();

  // Restart: the "device" recovered; read-write service resumes with
  // exactly the acknowledged state.
  server = MustCreate(DurableOptions("tabled", dir));
  ASSERT_NE(server, nullptr);
  EXPECT_FALSE(server->read_only());
  EXPECT_EQ(server->CanonicalState(), committed);
  auto ins = server->Insert("edge(d, e)");
  ASSERT_TRUE(ins.ok()) << ins.status();
}

TEST(DurabilityFailpointTest, CrashAnywhereRecoversToTheAckedState) {
  for (const char* site : kDurabilitySites) {
    for (int64_t nth : {1, 2, 4}) {
      SCOPED_TRACE(std::string(site) + " nth=" + std::to_string(nth));
      const std::string dir = FreshDir("sweep");
      FailpointRegistry::Global().DisarmAll();

      // checkpoint_every=2 drives the checkpoint/rotation sites from
      // inside ordinary epoch turns.
      ServerOptions opts = DurableOptions(
          "tabled", dir, Journal::FsyncPolicy::kAlways,
          /*checkpoint_every=*/2);
      // The shadow oracle tracks exactly the ACKED batches.
      ServerOptions oracle_opts = opts;
      oracle_opts.durability = DurabilityOptions();
      auto oracle = MustCreate(oracle_opts);
      ASSERT_NE(oracle, nullptr);

      FailpointRegistry::Global().ArmSticky(
          site, nth, Status::FailedPrecondition("injected crash"));
      auto durable = QueryServer::Create(kReachProgram, opts);
      if (durable.ok()) {
        const char* consts[] = {"c", "d", "e", "f", "g", "h"};
        for (int i = 0; i < 6; ++i) {
          const std::vector<TextMutation> batch = {
              {true, std::string("edge(") + consts[i] + ", x)"}};
          auto out = ApplyText(durable->get(), batch);
          if (out.ok()) {
            auto oo = ApplyText(oracle.get(), batch);
            ASSERT_TRUE(oo.ok()) << oo.status();
          }
        }
      }
      // else: the injected failure hit server startup (e.g. the seed
      // checkpoint); the acked state is just the program's facts.

      FailpointRegistry::Global().DisarmAll();
      durable = QueryServer::Create(kReachProgram, opts);
      ASSERT_TRUE(durable.ok()) << durable.status();
      EXPECT_EQ((*durable)->CanonicalState(), oracle->CanonicalState());
      // The recovered server is fully serviceable read-write.
      auto ins = (*durable)->Insert("edge(z, z)");
      ASSERT_TRUE(ins.ok()) << ins.status();
    }
  }
}

#endif  // HYPO_FAILPOINTS

}  // namespace
}  // namespace hypo
