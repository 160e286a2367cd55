// Observability-layer tests: the periodic metrics flush racing explicit
// dumps, and the integrity coverage map (scrub ages, auditor publishing,
// the `cwdb_ctl scrub-map` rendering).

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/auditor.h"
#include "obs/history.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

TEST(MetricsFlush, PeriodicFlushAndDumpMetricsNeverCollide) {
  // Both flush paths stage every file in <file>.tmp: an explicit
  // DumpMetrics racing the ticker's flush must not truncate the other's
  // temp file or lose its rename.
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.metrics.flush_interval_ms = 1;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Counter* flushes = (*db)->metrics()->counter("obs.metrics_flushes");
  Counter* failures = (*db)->metrics()->counter("obs.metrics_flush_failures");
  for (int i = 0; i < 300; ++i) {
    auto json = (*db)->DumpMetrics();
    ASSERT_TRUE(json.ok()) << "call " << i << ": " << json.status().ToString();
  }
  const uint64_t before = flushes->Value();
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  while (flushes->Value() == before && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(flushes->Value(), before) << "the periodic flush never ran";
  EXPECT_EQ(failures->Value(), 0u);
  ASSERT_OK((*db)->Close());
}

TEST(ScrubMapTest, AgesGaugesAndFullAudit) {
  MetricsRegistry reg;
  ScrubMap map(&reg, {1000, 2000});
  ASSERT_EQ(map.shard_count(), 2u);

  // Before any pass, age runs from construction and only grows.
  uint64_t now = NowNs();
  uint64_t age0 = map.AgeNs(0, now + 1'000'000);
  EXPECT_GT(age0, 0u);
  EXPECT_GT(map.MaxAgeNs(now + 2'000'000), age0);

  map.NoteSlice(0, 500, 7);
  EXPECT_EQ(reg.gauge("scrub.shard0.cursor_pct")->Value(), 50);
  map.NotePassComplete(0, 7);
  EXPECT_EQ(reg.gauge("scrub.shard0.last_audit_lsn")->Value(), 7);
  EXPECT_GT(reg.gauge("scrub.shard0.last_pass_wall_ms")->Value(), 0);

  now = NowNs();
  // Shard 0 was just certified; shard 1 never — its age dominates.
  EXPECT_LT(map.AgeNs(0, now), map.AgeNs(1, now));
  EXPECT_EQ(map.MaxAgeNs(now), map.AgeNs(1, now));

  map.NoteFullAudit(9);
  EXPECT_EQ(reg.gauge("scrub.shard0.last_audit_lsn")->Value(), 9);
  EXPECT_EQ(reg.gauge("scrub.shard1.last_audit_lsn")->Value(), 9);
  now = NowNs();
  EXPECT_LT(map.MaxAgeNs(now), 1'000'000'000ull);  // Both fresh now.

  map.UpdateGauges(now);
  EXPECT_GE(reg.gauge("scrub.max_age_ms")->Value(), 0);

  auto snap = map.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].last_audit_lsn, 9u);
  EXPECT_EQ(snap[0].shard_len, 1000u);
  EXPECT_EQ(snap[1].shard_len, 2000u);
}

TEST(ScrubMapTest, AuditorPublishesCoverageAndSweepTelemetry) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.shards = 2;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  auto t = (*db)->CreateTable(*txn, "t", 32, 64);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(32, 'x')).ok());
  ASSERT_OK((*db)->Commit(*txn));

  BackgroundAuditor::Options aopts;
  aopts.interval = std::chrono::milliseconds(1);
  aopts.slice_bytes = 256 << 10;
  BackgroundAuditor auditor(db->get(), aopts, nullptr);
  auditor.Start();
  auditor.WaitForFullSweep();
  auditor.Stop();
  ASSERT_FALSE(auditor.corruption_seen());

  // The sweep published per-shard coverage into the scrub map.
  ScrubMap* scrub = (*db)->scrub();
  ASSERT_NE(scrub, nullptr);
  auto snap = scrub->Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  for (const auto& s : snap) {
    EXPECT_GT(s.last_pass_mono_ns, 0u);
    EXPECT_GT(s.last_audit_lsn, 0u);
    EXPECT_GT(s.slices, 0u);
  }
  EXPECT_LT(scrub->MaxAgeNs(NowNs()), 60ull * 1'000'000'000);

  // Sweep telemetry: per-round and per-sweep counters plus the duration
  // histogram.
  MetricsRegistry* m = (*db)->metrics();
  EXPECT_GT(m->counter("auditor.slices")->Value(), 0u);
  EXPECT_GE(m->counter("auditor.sweeps_completed")->Value(), 2u);
  EXPECT_EQ(m->counter("auditor.sweeps_completed")->Value(),
            m->counter("audit.background_sweeps")->Value());
  EXPECT_GE(m->histogram("auditor.sweep_duration_ns")->Count(), 2u);
  EXPECT_GT(m->counter("audit.shard0.slices")->Value(), 0u);
  EXPECT_GT(m->counter("audit.shard1.slices")->Value(), 0u);

  // A foreground full audit certifies every shard at its audit LSN.
  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->clean);
  snap = scrub->Snapshot();
  for (const auto& s : snap) {
    EXPECT_EQ(s.last_audit_lsn, report->audit_lsn);
  }
}

TEST(ScrubMapTest, RenderShowsNeverAuditedShards) {
  MetricsRegistry reg;
  ScrubMap map(&reg, {1000, 2000});
  map.NotePassComplete(0, 7);  // Shard 1 is never swept.
  map.UpdateGauges(NowNs());
  std::string out = RenderScrubMap(reg.Capture().gauges, WallNowNs());
  EXPECT_NE(out.find("shard"), std::string::npos) << out;
  const size_t never = out.find("never");
  ASSERT_NE(never, std::string::npos) << out;
  EXPECT_EQ(out.find("never", never + 1), std::string::npos)
      << "only shard 1 is unaudited:\n" << out;
}

}  // namespace
}  // namespace cwdb
