// Span-tracing tests: deterministic sampling, the lock-free span rings
// under concurrent writers, end-to-end pipeline traces through a real
// database (including the cross-thread hop through the group-commit
// queue), the exporters (spans.json round trip, Chrome/Perfetto JSON,
// latency attribution), and the stall watchdog (fires on a stalled probe,
// files a dossier, stays quiet on healthy progress).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/json.h"
#include "core/database.h"
#include "obs/forensics.h"
#include "obs/postmortem.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

TracerOptions AllOptions() {
  TracerOptions topts;
  topts.sample_rate = 1.0;
  topts.ring_capacity = 1024;
  return topts;
}

// -- Sampler ---------------------------------------------------------------

TEST(TracerTest, DisabledTracerSamplesNothingAndRecordsNothing) {
  Tracer tracer;  // Never Configured: the rate-0 fast path.
  EXPECT_FALSE(tracer.enabled());
  uint64_t root = 0;
  SpanContext ctx = tracer.MaybeStartTrace(&root);
  EXPECT_FALSE(ctx.sampled());
  SpanContext forced = tracer.StartForcedTrace(&root);
  EXPECT_FALSE(forced.sampled());
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, SamplingIsDeterministicForAFixedSeed) {
  TracerOptions topts;
  topts.sample_rate = 0.5;
  topts.seed = 12345;
  Tracer a, b;
  a.Configure(topts);
  b.Configure(topts);
  std::vector<bool> da, db;
  uint64_t root = 0;
  for (int i = 0; i < 256; ++i) {
    da.push_back(a.MaybeStartTrace(&root).sampled());
    db.push_back(b.MaybeStartTrace(&root).sampled());
  }
  EXPECT_EQ(da, db);
  // The rate is honored roughly (splitmix64 is uniform; 256 draws at 0.5
  // stray from 128 by more than 64 with probability ~2^-60).
  size_t hits = std::count(da.begin(), da.end(), true);
  EXPECT_GT(hits, 64u);
  EXPECT_LT(hits, 192u);

  // A different seed picks a different subset.
  topts.seed = 54321;
  Tracer c;
  c.Configure(topts);
  std::vector<bool> dc;
  for (int i = 0; i < 256; ++i) {
    dc.push_back(c.MaybeStartTrace(&root).sampled());
  }
  EXPECT_NE(da, dc);
}

TEST(TracerTest, RateOneSamplesEverythingRateNearZeroAlmostNothing) {
  Tracer all;
  all.Configure(AllOptions());
  uint64_t root = 0;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(all.MaybeStartTrace(&root).sampled());
    EXPECT_NE(root, 0u);
  }
}

// -- Rings under concurrency ----------------------------------------------

TEST(TracerTest, ConcurrentWritersProduceOnlyConsistentSpans) {
  Tracer tracer;
  TracerOptions topts = AllOptions();
  topts.ring_capacity = 256;  // Force wrap under load.
  tracer.Configure(topts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      uint64_t root = 0;
      for (int i = 0; i < kPerThread; ++i) {
        SpanContext ctx = tracer.MaybeStartTrace(&root);
        ASSERT_TRUE(ctx.sampled());
        tracer.Record(ctx, SpanKind::kWalStage, 100, 200,
                      static_cast<uint64_t>(t), static_cast<uint64_t>(i));
        tracer.RecordWithId(ctx.Under(0), root, SpanKind::kTxn, 100, 300,
                            static_cast<uint64_t>(t));
      }
    });
  }
  // Concurrent reader: every snapshot must be internally consistent even
  // while writers lap the rings.
  for (int i = 0; i < 50; ++i) {
    for (const SpanRecord& s : tracer.Snapshot()) {
      EXPECT_NE(s.span_id, 0u);
      EXPECT_NE(s.trace_id, 0u);
      EXPECT_TRUE(s.kind == SpanKind::kWalStage || s.kind == SpanKind::kTxn);
      EXPECT_TRUE(s.dur_ns == 100 || s.dur_ns == 200) << s.dur_ns;
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread * 2);
  std::vector<SpanRecord> snap = tracer.Snapshot();
  EXPECT_FALSE(snap.empty());
  // No duplicated span ids within one snapshot.
  std::set<uint64_t> ids;
  for (const SpanRecord& s : snap) {
    EXPECT_TRUE(ids.insert(s.span_id).second) << s.span_id;
  }
}

// -- End-to-end pipeline traces -------------------------------------------

DatabaseOptions TracedOptions(const std::string& path) {
  DatabaseOptions opts = SmallDbOptions(path, ProtectionScheme::kDataCodeword);
  opts.trace_sample_rate = 1.0;
  return opts;
}

/// Spans of the snapshot grouped by trace id.
std::map<uint64_t, std::vector<SpanRecord>> ByTrace(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<SpanRecord>> out;
  for (const SpanRecord& s : spans) out[s.trace_id].push_back(s);
  return out;
}

const SpanRecord* FindKind(const std::vector<SpanRecord>& spans,
                           SpanKind kind) {
  for (const SpanRecord& s : spans) {
    if (s.kind == kind) return &s;
  }
  return nullptr;
}

TEST(SpanPipelineTest, CommitTraceCrossesTheGroupCommitQueue) {
  TempDir dir;
  auto db = Database::Open(TracedOptions(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  auto table = (*db)->CreateTable(*txn, "t", 64, 128);
  ASSERT_TRUE(table.ok());
  std::string rec(64, 'x');
  ASSERT_TRUE((*db)->Insert(*txn, *table, rec).ok());
  const TxnId id = (*txn)->id();
  ASSERT_OK((*db)->Commit(*txn));

  std::vector<SpanRecord> spans = (*db)->metrics()->tracer()->Snapshot();
  // Locate this transaction's trace via its root span (a = txn id).
  uint64_t trace_id = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kTxn && s.parent_id == 0 && s.a == id) {
      trace_id = s.trace_id;
    }
  }
  ASSERT_NE(trace_id, 0u);
  std::vector<SpanRecord> mine = ByTrace(spans)[trace_id];

  const SpanRecord* root = FindKind(mine, SpanKind::kTxn);
  const SpanRecord* begin = FindKind(mine, SpanKind::kTxnBegin);
  const SpanRecord* fold = FindKind(mine, SpanKind::kCodewordFold);
  const SpanRecord* stage = FindKind(mine, SpanKind::kWalStage);
  const SpanRecord* flush = FindKind(mine, SpanKind::kFlushWait);
  const SpanRecord* queue = FindKind(mine, SpanKind::kQueueWait);
  const SpanRecord* fsync = FindKind(mine, SpanKind::kFsync);
  const SpanRecord* ack = FindKind(mine, SpanKind::kCommitAck);
  ASSERT_NE(root, nullptr);
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(fold, nullptr);
  ASSERT_NE(stage, nullptr);
  ASSERT_NE(flush, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(fsync, nullptr);
  ASSERT_NE(ack, nullptr);

  // Client-side pipeline spans are children of the root.
  EXPECT_EQ(begin->parent_id, root->span_id);
  EXPECT_EQ(stage->parent_id, root->span_id);
  EXPECT_EQ(flush->parent_id, root->span_id);
  EXPECT_EQ(ack->parent_id, root->span_id);
  // Drainer-side spans parent to the flush-wait span: the context rode the
  // queue entry across the thread hop, same trace id throughout.
  EXPECT_EQ(queue->parent_id, flush->span_id);
  EXPECT_EQ(fsync->parent_id, flush->span_id);
  // The two halves really ran on different threads.
  EXPECT_NE(fsync->tid, root->tid);
  // And the span tree is temporally sane.
  EXPECT_LE(root->start_ns, begin->start_ns);
  EXPECT_LE(stage->start_ns, flush->start_ns);

  ASSERT_OK((*db)->Close());
  // Close() persisted the dump for post-mortem tooling.
  EXPECT_TRUE(FileExists(dir.path() + "/spans.json"));
}

TEST(SpanPipelineTest, AbortedTransactionRootIsMarked) {
  TempDir dir;
  auto db = Database::Open(TracedOptions(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  const TxnId id = (*txn)->id();
  ASSERT_OK((*db)->Abort(*txn));
  bool found = false;
  for (const SpanRecord& s : (*db)->metrics()->tracer()->Snapshot()) {
    if (s.kind == SpanKind::kTxn && s.a == id) {
      found = true;
      EXPECT_EQ(s.b, 1u) << "aborted root must carry b=1";
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpanPipelineTest, CheckpointAndRecoveryAreForceTraced) {
  TempDir dir;
  auto db = Database::Open(TracedOptions(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_OK((*db)->Checkpoint());
  std::vector<SpanRecord> spans = (*db)->metrics()->tracer()->Snapshot();
  const SpanRecord* ckpt = FindKind(spans, SpanKind::kCheckpoint);
  ASSERT_NE(ckpt, nullptr);
  EXPECT_EQ(ckpt->parent_id, 0u);
  std::vector<SpanRecord> mine = ByTrace(spans)[ckpt->trace_id];
  EXPECT_NE(FindKind(mine, SpanKind::kCheckpointCopy), nullptr);
  EXPECT_NE(FindKind(mine, SpanKind::kCheckpointWrite), nullptr);
  EXPECT_NE(FindKind(mine, SpanKind::kCheckpointFsync), nullptr);

  ASSERT_OK((*db)->CrashAndRecover());
  spans = (*db)->metrics()->tracer()->Snapshot();
  const SpanRecord* rec = FindKind(spans, SpanKind::kRecovery);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->parent_id, 0u);
  EXPECT_NE(FindKind(ByTrace(spans)[rec->trace_id], SpanKind::kRecoveryPhase),
            nullptr);
}

// -- Exporters -------------------------------------------------------------

TEST(SpanExportTest, EmptyDumpsAreValidDocuments) {
  SpanDump empty;
  Result<JsonValue> chrome = ParseJson(SpansToChromeJson(empty));
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  const JsonValue* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->array().empty());
  Result<SpanDump> round = ParseSpansJson(SpansToJson(empty));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->spans.empty());
}

TEST(SpanExportTest, SpansJsonRoundTripsAndChromeJsonParses) {
  TempDir dir;
  auto db = Database::Open(TracedOptions(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 4; ++i) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_OK((*db)->Commit(*txn));
  }
  std::vector<SpanRecord> live = (*db)->metrics()->tracer()->Snapshot();
  ASSERT_OK((*db)->Close());

  std::string json;
  ASSERT_OK(ReadFileToString(dir.path() + "/spans.json", &json));
  Result<SpanDump> dump = ParseSpansJson(json);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_GE(dump->spans.size(), live.size());
  EXPECT_GT(dump->captured_wall_ns, 0u);

  // Chrome export: a valid JSON document whose event count matches.
  std::string chrome = SpansToChromeJson(*dump);
  Result<JsonValue> doc = ParseJson(chrome);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array().size(), dump->spans.size());
  for (const JsonValue& ev : events->array()) {
    EXPECT_EQ(ev.Str("ph"), "X");
    EXPECT_FALSE(ev.Str("name").empty());
  }
}

TEST(SpanExportTest, AttributionSharesCoverTheCommitTime) {
  TempDir dir;
  auto db = Database::Open(TracedOptions(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto setup = (*db)->Begin();
  ASSERT_TRUE(setup.ok());
  auto table = (*db)->CreateTable(*setup, "t", 64, 512);
  ASSERT_TRUE(table.ok());
  ASSERT_OK((*db)->Commit(*setup));
  std::string rec(64, 'y');
  for (int i = 0; i < 50; ++i) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->Insert(*txn, *table, rec).ok());
    ASSERT_OK((*db)->Commit(*txn));
  }
  AttributionTable table_out =
      ComputeAttribution((*db)->metrics()->tracer()->Snapshot());
  ASSERT_GE(table_out.traces, 50u);
  ASSERT_FALSE(table_out.rows.empty());
  double p50_sum = 0.0, p99_sum = 0.0;
  for (const StageShare& row : table_out.rows) {
    p50_sum += row.p50_share;
    p99_sum += row.p99_share;
  }
  // Self times partition each trace's end-to-end time by construction.
  EXPECT_NEAR(p50_sum, 1.0, 0.01);
  EXPECT_NEAR(p99_sum, 1.0, 0.01);
  // And the machine-readable form carries the same shares.
  std::string json = AttributionToJson(table_out);
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->U64("traces"), table_out.traces);
  EXPECT_NE(doc->Find("stages"), nullptr);
}

// -- Watchdog --------------------------------------------------------------

TEST(WatchdogTest, FiresOnStallFilesDossierAndRearms) {
  TempDir dir;
  MetricsRegistry metrics;
  ForensicsRecorder forensics(dir.path(), nullptr, &metrics);
  Watchdog wd(&metrics, &forensics, [] { return 42u; });

  uint64_t progress = 7;
  bool active = true;
  WatchdogProbe probe;
  probe.name = "synthetic";
  probe.active = [&active] { return active; };
  probe.progress = [&progress] { return progress; };
  probe.stall_ns = 1;  // Any two polls apart count as a stall.
  wd.AddProbe(std::move(probe));

  wd.PollOnce();  // Baseline observation.
  EXPECT_EQ(wd.stalls(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  wd.PollOnce();  // Same progress, past the threshold: stall.
  EXPECT_EQ(wd.stalls(), 1u);
  std::string reason = wd.DegradedReason();
  EXPECT_NE(reason.find("synthetic"), std::string::npos) << reason;

  // One dossier, not one per poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  wd.PollOnce();
  EXPECT_EQ(wd.stalls(), 1u);

  size_t skipped = 0;
  auto incidents = LoadIncidentFile(dir.path() + "/incidents.jsonl", &skipped);
  ASSERT_TRUE(incidents.ok());
  ASSERT_EQ(incidents->size(), 1u);
  const JsonValue& inc = (*incidents)[0];
  EXPECT_EQ(inc.Str("source"),
            IncidentSourceName(IncidentSource::kStallWatchdog));
  EXPECT_EQ(inc.U64("lsn"), 42u);
  EXPECT_NE(inc.Str("detail").find("synthetic"), std::string::npos);

  // Progress re-arms: a later genuine stall files a second dossier.
  progress = 8;
  wd.PollOnce();
  EXPECT_TRUE(wd.DegradedReason().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  wd.PollOnce();
  EXPECT_EQ(wd.stalls(), 2u);

  // Inactivity also re-arms and clears degradation.
  active = false;
  wd.PollOnce();
  EXPECT_TRUE(wd.DegradedReason().empty());
}

TEST(WatchdogTest, QuietWhileProgressAdvances) {
  MetricsRegistry metrics;
  Watchdog wd(&metrics, nullptr);
  uint64_t ticks = 0;
  WatchdogProbe probe;
  probe.name = "healthy";
  probe.active = [] { return true; };
  probe.progress = [&ticks] { return ++ticks; };  // Always advancing.
  probe.stall_ns = 1;
  wd.AddProbe(std::move(probe));
  for (int i = 0; i < 20; ++i) {
    wd.PollOnce();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(wd.stalls(), 0u);
  EXPECT_TRUE(wd.DegradedReason().empty());
}

TEST(WatchdogTest, DatabaseWiredWatchdogSeesAStuckTransaction) {
  TempDir dir;
  DatabaseOptions opts = TracedOptions(dir.path());
  opts.watchdog.enabled = true;
  opts.watchdog.poll_interval_ms = 5;
  opts.watchdog.txn_age_limit_ms = 20;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->watchdog(), nullptr);

  auto txn = (*db)->Begin();  // Left open: the oldest-txn probe stalls.
  ASSERT_TRUE(txn.ok());
  for (int i = 0; i < 400 && (*db)->watchdog()->stalls() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE((*db)->watchdog()->stalls(), 1u);
  // DegradedReason takes the watchdog mutex, so the poll that fired has
  // also written the box's watchdog slot by the time it returns.
  EXPECT_NE((*db)->watchdog()->DegradedReason().find("txn.oldest"),
            std::string::npos);
  const std::string box_path = dir.path() + "/blackbox.bin";
  Result<BlackBoxReport> box = ReadBlackBox(box_path);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_NE(box->watchdog_status.find("txn.oldest"), std::string::npos)
      << "box watchdog slot: '" << box->watchdog_status << "'";

  // Retiring the transaction restores health, in the box too.
  ASSERT_OK((*db)->Commit(*txn));
  for (int i = 0; i < 400 && !(*db)->watchdog()->DegradedReason().empty();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE((*db)->watchdog()->DegradedReason().empty());
  box = ReadBlackBox(box_path);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_EQ(box->watchdog_status, "");
  // The stall left a dossier behind.
  size_t skipped = 0;
  auto incidents = LoadIncidentFile(dir.path() + "/incidents.jsonl", &skipped);
  ASSERT_TRUE(incidents.ok());
  bool found = false;
  for (const JsonValue& inc : *incidents) {
    if (inc.Str("source") ==
        IncidentSourceName(IncidentSource::kStallWatchdog)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace cwdb
