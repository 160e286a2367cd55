// Unit tests for the observability layer (src/obs): sharded counters,
// log-bucketed histograms, the SeqRing slot protocol and the event trace
// on it, the registry's snapshot/JSON exporters and the detection-latency
// fault matcher.

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/seq_ring.h"
#include "obs/trace.h"

namespace cwdb {
namespace {

TEST(CounterTest, SingleThreadAddAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ShardedAddsFromManyThreadsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 12);
  g.Set(-4);
  EXPECT_EQ(g.Value(), -4);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i holds values with bit_width == i: [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 63u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 8u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), UINT64_MAX);
}

TEST(HistogramTest, SnapshotStats) {
  Histogram h;
  h.Record(1);
  h.Record(100);
  h.Record(1000);
  h.Record(10000);
  Histogram::Snapshot s = h.Capture();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 11101u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10000u);
  // p50 falls in the bucket of 100 -> upper bound 128.
  EXPECT_EQ(s.p50, 128u);
  // p99/p95 land in the last bucket, clamped by the observed max.
  EXPECT_EQ(s.p99, 10000u);
  EXPECT_GE(s.p95, 1000u);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram h;
  Histogram::Snapshot s = h.Capture();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.Quantile(0.99), 0u);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactCount) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
}

TEST(EventTraceTest, RecordsInOrder) {
  EventTrace trace;
  trace.Record(TraceEventType::kAuditPassBegin, 7, 1, 2);
  trace.Record(TraceEventType::kAuditPassEnd, 9, 3, 4);
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kAuditPassBegin);
  EXPECT_EQ(events[0].lsn, 7u);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[1].type, TraceEventType::kAuditPassEnd);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
}

TEST(EventTraceTest, WraparoundKeepsNewestCapacityEvents) {
  constexpr size_t kCap = EventTrace::kSlots;
  EventTrace trace;
  for (uint64_t i = 0; i < 3 * kCap; ++i) {
    trace.Record(TraceEventType::kGroupCommitFlush, i, i, 0);
  }
  EXPECT_EQ(trace.recorded(), 3 * kCap);
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), kCap);
  // The survivors are exactly the newest kCap events, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].lsn, 2 * kCap + i);
  }
}

TEST(EventTraceTest, ConcurrentWritersProduceUniqueSeqs) {
  EventTrace trace;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace.Record(TraceEventType::kFaultInjected, i, i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trace.recorded(), kThreads * kPerThread);
  std::vector<TraceEvent> events = trace.Snapshot();
  EXPECT_LE(events.size(), EventTrace::kSlots);
  std::set<uint64_t> seqs;
  for (const TraceEvent& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size()) << "duplicate seq in snapshot";
}

TEST(EventTraceTest, MovedRingKeepsResidentEvents) {
  EventTrace trace;
  trace.Record(TraceEventType::kCheckpoint, 5, 6, 7);
  std::vector<uint64_t> storage(EventTrace::kSlots *
                                SeqRing<TraceSlot>::kSlotBytes / 8);
  trace.MoveTo(storage.data());
  trace.Record(TraceEventType::kRepair, 8, 9, 10);
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].lsn, 5u);
  EXPECT_EQ(events[1].lsn, 8u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_NE(storage[0], 0u);  // Slot 0's ticket now lives in `storage`.
}

/// Four payload words that are all functions of (writer, n): any record
/// that mixes two writes breaks at least one of the relations.
struct StressRecord {
  uint64_t writer;
  uint64_t n;
  uint64_t mix;
  uint64_t check;
};

StressRecord MakeStressRecord(uint64_t writer, uint64_t n) {
  uint64_t mix = (writer << 32 | n) * 0x9e3779b97f4a7c15ull;
  return StressRecord{writer, n, mix, ~mix ^ writer};
}

TEST(SeqRingTest, ReaderNeverReturnsAMixedRecord) {
  SeqRing<StressRecord> ring(4);
  constexpr uint64_t kWriters = 8;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<uint64_t> writers_done{0};
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &writers_done, w] {
      for (uint64_t n = 0; n < kPerWriter; ++n) {
        ring.Push(MakeStressRecord(w, n));
      }
      writers_done.fetch_add(1);
    });
  }
  uint64_t checked = 0, mixed = 0;
  do {
    ring.ForEach([&](uint64_t, const StressRecord& r) {
      ++checked;
      StressRecord want = MakeStressRecord(r.writer, r.n);
      if (r.writer >= kWriters || r.mix != want.mix ||
          r.check != want.check) {
        ++mixed;
      }
    });
  } while (writers_done.load() < kWriters);
  for (auto& th : writers) th.join();
  EXPECT_EQ(mixed, 0u) << "of " << checked << " records read";
  EXPECT_EQ(ring.pushed(), kWriters * kPerWriter);
}

TEST(MetricsRegistryTest, InstrumentsAreInternedByName) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x.count");
  Counter* b = reg.counter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y.count"), a);
  EXPECT_EQ(reg.histogram("x.lat"), reg.histogram("x.lat"));
  EXPECT_EQ(reg.gauge("x.g"), reg.gauge("x.g"));
}

TEST(MetricsRegistryTest, SnapshotAndJsonAreStable) {
  MetricsRegistry reg;
  reg.counter("b.count")->Add(2);
  reg.counter("a.count")->Add(1);
  reg.gauge("g.depth")->Set(-3);
  reg.histogram("h.lat")->Record(5);
  reg.trace().Record(TraceEventType::kCheckpoint, 11, 22, 33);

  MetricsSnapshot snap = reg.Capture();
  EXPECT_EQ(snap.CounterValue("a.count"), 1u);
  EXPECT_EQ(snap.CounterValue("b.count"), 2u);
  EXPECT_EQ(snap.GaugeValue("g.depth"), -3);
  ASSERT_NE(snap.FindHistogram("h.lat"), nullptr);
  EXPECT_EQ(snap.FindHistogram("h.lat")->h.count, 1u);

  std::string json = snap.ToJson();
  // Sorted keys, fixed field order: identical state -> identical bytes,
  // once the capture-time stamps (the only fields expected to move between
  // two captures of the same state) are equalized.
  MetricsSnapshot again = reg.Capture();
  EXPECT_GE(again.captured_mono_ns, snap.captured_mono_ns);
  EXPECT_EQ(again.boot_mono_ns, snap.boot_mono_ns);
  EXPECT_EQ(again.boot_wall_ns, snap.boot_wall_ns);
  again.captured_mono_ns = snap.captured_mono_ns;
  again.captured_wall_ns = snap.captured_wall_ns;
  EXPECT_EQ(json, again.ToJson());
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"boot_wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g.depth\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));

  std::string text = snap.ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetByPrefix) {
  MetricsRegistry reg;
  reg.counter("txn.commits")->Add(5);
  reg.counter("wal.flushes")->Add(7);
  reg.histogram("txn.lat")->Record(1);
  reg.Reset("txn.");
  EXPECT_EQ(reg.counter("txn.commits")->Value(), 0u);
  EXPECT_EQ(reg.histogram("txn.lat")->Count(), 0u);
  EXPECT_EQ(reg.counter("wal.flushes")->Value(), 7u);
  reg.Reset();
  EXPECT_EQ(reg.counter("wal.flushes")->Value(), 0u);
}

TEST(MetricsRegistryTest, DetectionLatencyMatchesOverlappingFault) {
  MetricsRegistry reg;
  reg.NoteInjectedFault(1000, 16);
  // Non-overlapping detection matches nothing.
  EXPECT_EQ(reg.NoteDetection(2000, 16), 0u);
  // Overlapping detection matches, records a positive latency, and retires
  // the pending fault.
  EXPECT_EQ(reg.NoteDetection(992, 64), 1u);
  EXPECT_EQ(reg.NoteDetection(992, 64), 0u);
  Histogram::Snapshot lat =
      reg.histogram("protect.detection_latency_ns")->Capture();
  EXPECT_EQ(lat.count, 1u);
  EXPECT_GE(lat.min, 1u);
}

}  // namespace
}  // namespace cwdb
