// Observability-layer tests: the metrics time-series ring (retention,
// rates, windowed quantiles, delta-encoded persistence and its torn-file
// tolerance), the integrity coverage map (scrub ages, auditor publishing),
// and the SLO engine end to end — burn -> kSloBurn dossier -> /healthz
// 503 -> recovery.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/crashpoint.h"
#include "common/file_util.h"
#include "core/auditor.h"
#include "faultinject/fault_injector.h"
#include "obs/history.h"
#include "obs/slo.h"
#include "tests/test_util.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port (full response).
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t done = 0;
  while (done < req.size()) {
    ssize_t n = ::write(fd, req.data() + done, req.size() - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

constexpr uint64_t kHourNs = 3600ull * 1'000'000'000;

HistoryOptions ManualSampling(size_t retention = 512) {
  HistoryOptions o;
  o.interval_ms = 0;  // Tests drive SampleNow() themselves.
  o.retention = retention;
  return o;
}

TEST(MetricsHistoryRing, RetentionEvictsOldest) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  MetricsHistory hist(&reg, ManualSampling(4));
  for (int i = 0; i < 7; ++i) {
    c->Add();
    hist.SampleNow();
  }
  EXPECT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist.samples_taken(), 7u);
  auto pts = hist.Series("c", kHourNs, hist.LatestMono());
  ASSERT_EQ(pts.size(), 4u);
  // Samples 1..3 were evicted; the survivors hold the counter at 4..7.
  EXPECT_EQ(pts.front().value, 4.0);
  EXPECT_EQ(pts.back().value, 7.0);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].mono_ns, pts[i - 1].mono_ns);
  }
}

TEST(MetricsHistoryRing, RatesWindowedQuantilesAndLateMetrics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  Histogram* h = reg.histogram("h");
  MetricsHistory hist(&reg, ManualSampling());
  hist.SampleNow();
  c->Add(100);
  h->Record(1000);
  h->Record(3000);
  hist.SampleNow();
  c->Add(50);
  h->Record(800000);
  hist.SampleNow();

  uint64_t now = hist.LatestMono();
  EXPECT_EQ(hist.TypeOf("c"), MetricsHistory::MetricType::kCounter);
  EXPECT_EQ(hist.TypeOf("h"), MetricsHistory::MetricType::kHistogram);
  EXPECT_EQ(hist.TypeOf("nope"), MetricsHistory::MetricType::kNone);

  auto pts = hist.Series("c", kHourNs, now);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].value, 0.0);
  EXPECT_EQ(pts[1].value, 100.0);
  EXPECT_EQ(pts[2].value, 150.0);
  EXPECT_GT(hist.Rate("c", kHourNs, now), 0.0);

  MetricsHistory::WindowedHist wh;
  ASSERT_TRUE(hist.Windowed("h", kHourNs, now, &wh));
  EXPECT_EQ(wh.count, 3u);
  EXPECT_EQ(wh.sum, 804000u);
  // Log2 buckets: 1000 -> 1024, 3000 -> 4096, 800000 -> 2^20.
  EXPECT_EQ(wh.Quantile(0.50), 4096u);
  EXPECT_EQ(wh.Quantile(0.99), uint64_t{1} << 20);
  EXPECT_EQ(wh.CountAbove(4096), 1u);
  // 512 shares 1000's log2 bucket [512, 1024), so "strictly above" only
  // counts the two larger samples — exact to the bucket resolution.
  EXPECT_EQ(wh.CountAbove(512), 2u);
  EXPECT_EQ(wh.CountAbove(511), 3u);
  EXPECT_EQ(wh.CountAbove(uint64_t{1} << 20), 0u);

  double latest = 0;
  ASSERT_TRUE(hist.Latest("c", &latest));
  EXPECT_EQ(latest, 150.0);

  // A metric registered after sampling began backfills as zero.
  reg.counter("late")->Add(5);
  hist.SampleNow();
  pts = hist.Series("late", kHourNs, hist.LatestMono());
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().value, 0.0);
  EXPECT_EQ(pts.back().value, 5.0);
}

TEST(MetricsHistoryRing, QueryJsonShapesAndErrors) {
  MetricsRegistry reg;
  Counter* c = reg.counter("txn.commits");
  Histogram* h = reg.histogram("txn.commit_latency_ns");
  reg.gauge("txn.active")->Set(-3);
  MetricsHistory hist(&reg, ManualSampling());
  hist.SampleNow();
  c->Add(10);
  h->Record(50000);
  hist.SampleNow();

  auto r = hist.QueryJson("metric=txn.commits&window=60s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(r->find("\"rate_per_s\""), std::string::npos);
  EXPECT_NE(r->find("\"points\""), std::string::npos);

  r = hist.QueryJson("metric=txn.commit_latency_ns&window=5m");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(r->find("\"windowed\""), std::string::npos);
  EXPECT_NE(r->find("\"p99\""), std::string::npos);

  r = hist.QueryJson("metric=txn.active");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(r->find("\"value\": -3"), std::string::npos);

  EXPECT_FALSE(hist.QueryJson("").ok());
  EXPECT_FALSE(hist.QueryJson("window=60s").ok());
  EXPECT_FALSE(hist.QueryJson("metric=txn.commits&window=bogus").ok());
  EXPECT_FALSE(hist.QueryJson("metric=no.such.metric").ok());
  // Windows whose nanoseconds do not fit in 64 bits are refused, not
  // wrapped into a short window.
  EXPECT_TRUE(hist.QueryJson("metric=txn.commits&window=18446744073s").ok());
  EXPECT_FALSE(
      hist.QueryJson("metric=txn.commits&window=18446744074s").ok());
  EXPECT_FALSE(
      hist.QueryJson("metric=txn.commits&window=99999999999999999999ms")
          .ok());
}

TEST(MetricsHistoryPersist, SaveLoadRoundTrip) {
  TempDir dir;
  const std::string path = dir.path() + "/metrics_history.bin";
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  Histogram* h = reg.histogram("h");
  MetricsHistory hist(&reg, ManualSampling());
  for (int i = 1; i <= 5; ++i) {
    c->Add(static_cast<uint64_t>(i) * 7);
    g->Set(100 - 40 * i);  // Goes negative: signed deltas round-trip.
    h->Record(static_cast<uint64_t>(i) * 1000);
    hist.SampleNow();
  }
  ASSERT_OK(hist.SaveTo(path));

  MetricsHistory loaded(nullptr, ManualSampling());
  ASSERT_OK(loaded.LoadFrom(path));
  ASSERT_EQ(loaded.size(), 5u);
  EXPECT_EQ(loaded.LatestMono(), hist.LatestMono());

  uint64_t now = hist.LatestMono();
  for (const char* metric : {"c", "g"}) {
    auto a = hist.Series(metric, kHourNs, now);
    auto b = loaded.Series(metric, kHourNs, now);
    ASSERT_EQ(a.size(), b.size()) << metric;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].value, b[i].value) << metric << "[" << i << "]";
      EXPECT_EQ(a[i].mono_ns, b[i].mono_ns) << metric << "[" << i << "]";
      EXPECT_EQ(a[i].wall_ns, b[i].wall_ns) << metric << "[" << i << "]";
    }
  }
  MetricsHistory::WindowedHist wa, wb;
  ASSERT_TRUE(hist.Windowed("h", kHourNs, now, &wa));
  ASSERT_TRUE(loaded.Windowed("h", kHourNs, now, &wb));
  EXPECT_EQ(wa.count, wb.count);
  EXPECT_EQ(wa.sum, wb.sum);
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(wa.buckets[i], wb.buckets[i]) << "bucket " << i;
  }
}

TEST(MetricsHistoryPersist, ToleratesTruncationAndBitFlips) {
  TempDir dir;
  const std::string path = dir.path() + "/metrics_history.bin";
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  MetricsHistory hist(&reg, ManualSampling());
  for (int i = 0; i < 8; ++i) {
    c->Add(3);
    hist.SampleNow();
  }
  ASSERT_OK(hist.SaveTo(path));
  std::string full;
  ASSERT_OK(ReadFileToString(path, &full));
  ASSERT_GT(full.size(), 32u);

  // Every truncation length loads: the valid prefix wins, never an error.
  for (size_t len : {size_t{0}, size_t{4}, size_t{8}, size_t{12},
                     full.size() / 4, full.size() / 2, full.size() - 1}) {
    ASSERT_OK(WriteFileAtomic(path, full.substr(0, len)));
    MetricsHistory loaded(nullptr, ManualSampling());
    Status s = loaded.LoadFrom(path);
    ASSERT_TRUE(s.ok()) << "truncated to " << len << ": " << s.ToString();
    EXPECT_LE(loaded.size(), hist.size()) << "truncated to " << len;
  }

  // A flipped bit anywhere is caught by the record CRC (or the magic
  // check) and again yields the longest valid prefix.
  for (size_t off : {size_t{2}, size_t{9}, size_t{17}, full.size() / 2,
                     full.size() - 2}) {
    std::string bad = full;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    ASSERT_OK(WriteFileAtomic(path, bad));
    MetricsHistory loaded(nullptr, ManualSampling());
    Status s = loaded.LoadFrom(path);
    ASSERT_TRUE(s.ok()) << "bit flip at " << off << ": " << s.ToString();
    EXPECT_LE(loaded.size(), hist.size()) << "bit flip at " << off;
  }

  // Garbage header: loads as empty, still not an error.
  ASSERT_OK(WriteFileAtomic(path, "this is not a history file"));
  MetricsHistory loaded(nullptr, ManualSampling());
  ASSERT_OK(loaded.LoadFrom(path));
  EXPECT_EQ(loaded.size(), 0u);

  // Missing file: also fine (a fresh database directory).
  ASSERT_OK(loaded.LoadFrom(dir.path() + "/does_not_exist.bin"));
}

TEST(MetricsHistoryPersist, SurvivesDatabaseReopen) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  uint64_t latest_before = 0;
  {
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    auto t = (*db)->CreateTable(*txn, "t", 32, 64);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(32, 'x')).ok());
    ASSERT_OK((*db)->Commit(*txn));
    for (int i = 0; i < 3; ++i) (*db)->Tick();
    latest_before = (*db)->history()->LatestMono();
    ASSERT_OK((*db)->Close());  // Persists metrics_history.bin.
  }
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GE((*db)->history()->size(), 3u);
  EXPECT_GE((*db)->history()->LatestMono(), latest_before);
  // The reloaded ring answers queries, and new samples append to it.
  auto r = (*db)->history()->QueryJson("metric=txn.commits&window=1h");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("\"points\""), std::string::npos);
  size_t before = (*db)->history()->size();
  (*db)->Tick();
  EXPECT_EQ((*db)->history()->size(), before + 1);
}

TEST(MetricsHistoryPersist, TornDumpCrashLeavesLoadablePrefix) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: build a history, then die mid-way through writing its tmp
    // file (a torn write at the obs.history.tmp_write crash point).
    auto db = Database::Open(opts);
    if (!db.ok()) ::_exit(10);
    auto txn = (*db)->Begin();
    if (!txn.ok()) ::_exit(11);
    auto t = (*db)->CreateTable(*txn, "t", 32, 64);
    if (!t.ok() || !(*db)->Insert(*txn, *t, std::string(32, 'x')).ok() ||
        !(*db)->Commit(*txn).ok()) {
      ::_exit(12);
    }
    for (int i = 0; i < 3; ++i) (*db)->Tick();
    crashpoint::Spec spec;
    spec.mode = crashpoint::Mode::kTornWrite;
    spec.countdown = 1;
    spec.param = 150;  // Keep 150 bytes: magic + a partial record.
    crashpoint::Arm("obs.history.tmp_write", spec);
    (void)(*db)->DumpMetrics();
    ::_exit(13);  // The crash point should have killed us.
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), crashpoint::kCrashExitCode);

  // The atomic-write protocol itself never publishes the torn file — the
  // rename never happened. Simulate the power-loss case the loader must
  // also survive (data blocks lost under an already-visible name) by
  // promoting the torn tmp file to the real name.
  DbFiles files(dir.path());
  const std::string tmp = files.MetricsHistoryFile() + ".tmp";
  ASSERT_TRUE(FileExists(tmp));
  std::string torn;
  ASSERT_OK(ReadFileToString(tmp, &torn));
  EXPECT_EQ(torn.size(), 150u);
  ASSERT_EQ(::rename(tmp.c_str(), files.MetricsHistoryFile().c_str()), 0);

  // Reopen: the torn history must not fail the open, and whatever valid
  // prefix exists is served.
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_LE((*db)->history()->size(), 3u);
}

TEST(MetricsHistoryPersist, PeriodicFlushAndDumpMetricsNeverCollide) {
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

/// Short two-window SLO config so burn and recovery both happen inside a
/// test-sized wall-clock budget.
SloOptions FastSlo() {
  SloOptions slo;
  slo.enabled = true;
  slo.commit_p99_ns = 0;
  slo.detection_p99_ns = 0;
  slo.max_scrub_age_ms = 0;
  slo.stall_budget = 0;
  slo.windows = {{200, 1.0}, {400, 1.0}};
  return slo;
}

TEST(SloEngineTest, BurnFilesDossierDegradesHealthzAndRecovers) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.slo = FastSlo();
  opts.slo.commit_p99_ns = 1;  // Every commit is a bad event: instant burn.
  opts.serve_stats = true;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->slo(), nullptr);
  ASSERT_NE((*db)->stats_port(), 0);

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  auto t = (*db)->CreateTable(*txn, "t", 32, 64);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(32, 'x')).ok());
  ASSERT_OK((*db)->Commit(*txn));
  for (int i = 0; i < 9; ++i) {
    txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(32, 'y')).ok());
    ASSERT_OK((*db)->Commit(*txn));
  }
  // Each Tick evaluates the SLO engine; two samples arm the windows.
  (*db)->Tick();
  (*db)->Tick();

  ASSERT_TRUE((*db)->slo()->AnyBurning());
  std::string reason = (*db)->slo()->BurnReason();
  EXPECT_EQ(reason.compare(0, 16, "slo: commit_p99 "), 0) << reason;

  // /healthz degrades to 503 with the burn reason.
  std::string resp = HttpGet((*db)->stats_port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 503"), std::string::npos) << resp;
  EXPECT_NE(resp.find("slo: commit_p99"), std::string::npos) << resp;

  // One kSloBurn dossier was filed, and exactly one per episode.
  std::string incidents = HttpGet((*db)->stats_port(), "/incidents");
  EXPECT_NE(incidents.find("\"source\":\"slo_burn\""), std::string::npos)
      << incidents;
  auto states = (*db)->slo()->Snapshot();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].burn_episodes, 1u);
  EXPECT_GE(states[0].last_incident_id, 1u);

  // Still burning on the next tick: no second dossier (hysteresis).
  (*db)->Tick();
  states = (*db)->slo()->Snapshot();
  EXPECT_EQ(states[0].burn_episodes, 1u);

  // Recovery: the bad events age out of both windows.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  (*db)->Tick();
  EXPECT_FALSE((*db)->slo()->AnyBurning());
  resp = HttpGet((*db)->stats_port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("ok\n"), std::string::npos);

  // The SLO report reflects the episode after recovery.
  std::string report = (*db)->slo()->ReportJson();
  EXPECT_NE(report.find("\"name\": \"commit_p99\""), std::string::npos);
  EXPECT_NE(report.find("\"burn_episodes\": 1"), std::string::npos);
  EXPECT_NE(report.find("\"burning\": false"), std::string::npos);
}

TEST(SloEngineTest, CorruptionStormBurnsDetectionSloThenRecovers) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.slo = FastSlo();
  opts.slo.detection_p99_ns = 1;  // Any detected fault burns the budget.
  opts.serve_stats = true;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  auto t = (*db)->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(64, 'a')).ok());
  }
  ASSERT_OK((*db)->Commit(*txn));

  // A storm of wild writes across the table's records, then the audit
  // that detects them (stamping protect.detection_latency_ns). Each write
  // hits a distinct codeword region with a distinct payload: identical
  // deltas within one region would cancel in the XOR fold.
  FaultInjector inject(db->get(), 7);
  for (int i = 0; i < 4; ++i) {
    auto off = (*db)->image()->RecordOff(*t, static_cast<uint32_t>(i * 8));
    inject.WildWriteAt(off, std::string(2, static_cast<char>('A' + i)));
  }
  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean);
  ASSERT_GT(
      (*db)->metrics()->histogram("protect.detection_latency_ns")->Count(),
      0u);

  (*db)->Tick();
  (*db)->Tick();
  ASSERT_TRUE((*db)->slo()->AnyBurning());
  EXPECT_NE((*db)->slo()->BurnReason().find("detection_p99"),
            std::string::npos);

  // Degraded: the corruption note outranks the SLO burn on /healthz, but
  // it is 503 either way, and the burn dossier is on the incident log
  // next to the audit's.
  std::string resp = HttpGet((*db)->stats_port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 503"), std::string::npos) << resp;
  std::string incidents = HttpGet((*db)->stats_port(), "/incidents");
  EXPECT_NE(incidents.find("\"source\":\"slo_burn\""), std::string::npos);
  EXPECT_NE(incidents.find("detection_p99"), std::string::npos);

  // Recover the corruption, let the detection samples age out of the
  // windows: health and SLO both return to green.
  ASSERT_OK((*db)->RecoverFromCorruption(report->ranges));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  (*db)->Tick();
  EXPECT_FALSE((*db)->slo()->AnyBurning());
  resp = HttpGet((*db)->stats_port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos) << resp;
}

TEST(TopViewTest, TpcbHistoryRendersTopQueryAndScrubMap) {
  TempDir dir;
  TpcbConfig cfg;
  cfg.accounts = 200;
  cfg.tellers = 20;
  cfg.branches = 4;
  cfg.ops_per_txn = 1;
  cfg.history_capacity = 2000;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TpcbWorkload workload(db->get(), cfg);
  ASSERT_OK(workload.Setup());

  (*db)->Tick();
  ASSERT_TRUE(workload.RunConcurrent(2, 300).ok());
  (*db)->Tick();

  // The acceptance triad: a non-empty top view, a non-empty /query
  // answer, and a scrub map that shows staleness.
  std::string top = (*db)->history()->RenderTop((*db)->history()->LatestMono());
  EXPECT_NE(top.find("commit"), std::string::npos) << top;
  EXPECT_NE(top.find("samples"), std::string::npos) << top;

  auto q = (*db)->history()->QueryJson("metric=txn.commits&window=1h");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->find("\"rate_per_s\""), std::string::npos);
  EXPECT_NE(q->find("\"wall_ms\""), std::string::npos);

  (*db)->scrub()->UpdateGauges(NowNs());
  std::string map =
      RenderScrubMap((*db)->metrics()->Capture().gauges, WallNowNs());
  EXPECT_NE(map.find("shard"), std::string::npos) << map;
  EXPECT_NE(map.find("never"), std::string::npos) << map;  // No sweep ran.

  // And the same triad works from the persisted file, the way cwdb_ctl
  // top reads it on a cold directory.
  ASSERT_TRUE((*db)->DumpMetrics().ok());
  DbFiles files(dir.path());
  MetricsHistory cold(nullptr, HistoryOptions{});
  ASSERT_OK(cold.LoadFrom(files.MetricsHistoryFile()));
  ASSERT_GT(cold.size(), 0u);
  EXPECT_FALSE(cold.RenderTop(cold.LatestMono()).empty());
}

}  // namespace
}  // namespace cwdb
