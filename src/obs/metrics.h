#ifndef CWDB_OBS_METRICS_H_
#define CWDB_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "obs/tracer.h"

namespace cwdb {

/// Nanoseconds on the process-wide monotonic clock. All latency metrics
/// and trace timestamps use this time base.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds since the Unix epoch on the wall clock. Never used for
/// latency math (it can step); only for stamping output an operator reads.
inline uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// "2026-08-06T12:34:56.789Z" (UTC, milliseconds) from nanoseconds since
/// the Unix epoch; "unknown" for 0.
std::string FormatWallNs(uint64_t wall_ns);

/// Monotonic 64-bit counter sharded across cache-line-padded atomic slots.
/// Each thread is assigned one slot round-robin at first use, so concurrent
/// transactions on different threads never contend on (or false-share) a
/// cache line; Value() folds the slots. Add is a single relaxed fetch_add —
/// cheap enough for the update hot path, and race-free where the old plain
/// `uint64_t` stats fields were not.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n = 1) {
    slots_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes every shard. Not atomic with respect to concurrent Add: a reset
  /// racing an increment may keep or drop that single increment, which is
  /// the same contract ResetStats() always had — reset between workloads.
  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };

  static size_t ThreadShard();

  Slot slots_[kShards];
};

/// Point-in-time signed value (queue depths, active transactions).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-bucketed latency/size histogram: one bucket per power of two (bucket
/// i holds values with bit_width == i, i.e. [2^(i-1), 2^i)). Recording is a
/// relaxed fetch_add plus a CAS-loop max update; percentiles are resolved
/// to the upper bound of the bucket holding the rank, which is exact to a
/// factor of two — plenty for p50/p95/p99 of latencies spanning decades.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t buckets[kBuckets] = {};

    /// Value at quantile q in [0,1]: BucketQuantile clamped by the
    /// observed max, so a one-sample histogram reports the sample's
    /// magnitude, not up to 2x it.
    uint64_t Quantile(double q) const {
      return std::min(BucketQuantile(buckets, count, q), max);
    }
  };

  /// Upper bound of the bucket holding rank ceil(q * count) in `buckets`
  /// (at least rank 1); 0 when count is 0.
  static uint64_t BucketQuantile(const uint64_t (&buckets)[kBuckets],
                                 uint64_t count, double q);

  Snapshot Capture() const;
  uint64_t Count() const;
  void Reset();

  /// Upper bound (exclusive) of bucket `i`: 2^i, saturating at UINT64_MAX.
  static uint64_t BucketUpperBound(size_t i) {
    return i >= 63 ? UINT64_MAX : (uint64_t{1} << i);
  }
  /// Bucket index a value lands in.
  static size_t BucketOf(uint64_t value);

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
};

/// One named-histogram snapshot inside a MetricsSnapshot.
struct HistogramSnapshot {
  std::string name;
  Histogram::Snapshot h;
};

/// Point-in-time copy of every instrument in a registry, with stable JSON
/// and human-text exporters. Instrument vectors are sorted by name so two
/// snapshots of the same state serialize identically.
struct MetricsSnapshot {
  /// Version of the JSON schema ToJson emits. Bumped to 2 when the
  /// timestamp block and per-event wall_ns were added; to 3 when events
  /// gained the optional per-shard attribution word.
  static constexpr uint32_t kSchemaVersion = 3;

  /// When this snapshot was taken, in both time bases, plus the registry's
  /// boot anchor pair that converts any monotonic stamp in `events` to wall
  /// time: wall = boot_wall_ns + (mono - boot_mono_ns).
  uint64_t captured_mono_ns = 0;
  uint64_t captured_wall_ns = 0;
  uint64_t boot_mono_ns = 0;
  uint64_t boot_wall_ns = 0;

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<TraceEvent> events;

  /// Projects a monotonic stamp through the boot anchor; 0 stays 0.
  uint64_t WallFromMono(uint64_t mono_ns) const {
    if (mono_ns == 0 || boot_wall_ns == 0) return 0;
    return boot_wall_ns + (mono_ns - boot_mono_ns);
  }

  /// Stable machine-readable form: keys sorted, fixed field order, one
  /// entry per line. This is the schema `cwdb_ctl stats` re-emits.
  std::string ToJson() const;
  /// Human-readable table.
  std::string ToText() const;

  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// Registry of named, typed instruments plus the engine event trace. One
/// registry per Database (a process may hold several databases — benches
/// compare schemes side by side — so a process-global registry would
/// conflate them); components constructed standalone in tests fall back to
/// a private registry via FallbackRegistry below.
///
/// Instrument lookup takes a mutex and is meant for construction time:
/// components resolve their instruments once and keep the pointers, which
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() : boot_mono_ns_(NowNs()), boot_wall_ns_(WallNowNs()) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);
  EventTrace& trace() { return trace_; }

  /// The database's span tracer. Disabled (and allocation-free) until the
  /// owner calls tracer()->Configure with a nonzero sample rate; components
  /// cache the pointer like any instrument.
  Tracer* tracer() { return &tracer_; }

  MetricsSnapshot Capture() const;

  /// Boot-time anchor pair sampled once at construction: the same instant
  /// on both clocks, letting operators convert steady-clock stamps
  /// (NowNs(), trace events) into wall-clock time.
  uint64_t boot_mono_ns() const { return boot_mono_ns_; }
  uint64_t boot_wall_ns() const { return boot_wall_ns_; }
  uint64_t WallFromMono(uint64_t mono_ns) const {
    return mono_ns == 0 ? 0 : boot_wall_ns_ + (mono_ns - boot_mono_ns_);
  }

  /// Resets every counter and histogram whose name starts with `prefix`
  /// (all of them for an empty prefix). Gauges and the trace are left
  /// alone: they describe current state, not accumulated history.
  void Reset(std::string_view prefix = {});

  // -- Fault-injection detection-latency support (paper §3.2/§5) --
  //
  // The FaultInjector stamps every corrupting write here; whichever layer
  // later implicates an overlapping byte range (audit, read precheck,
  // hardware trap) calls NoteDetection, and the elapsed time lands in the
  // `protect.detection_latency_ns` histogram. The pending set is bounded:
  // past kMaxPendingFaults the oldest entry is dropped.

  void NoteInjectedFault(uint64_t off, uint64_t len);
  /// Matches [off, off+len) against pending injected faults; records one
  /// detection-latency sample per match (>= 1 ns) and retires the fault.
  /// Returns the number of faults matched.
  size_t NoteDetection(uint64_t off, uint64_t len);

  static constexpr size_t kMaxPendingFaults = 4096;

 private:
  struct PendingFault {
    uint64_t off;
    uint64_t len;
    uint64_t t_ns;
  };

  const uint64_t boot_mono_ns_;
  const uint64_t boot_wall_ns_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  std::mutex faults_mu_;
  std::vector<PendingFault> pending_faults_;

  EventTrace trace_;
  Tracer tracer_;
};

/// Returns `reg` when the caller was given one (the Database's registry);
/// otherwise lazily creates a private registry in *owned so standalone
/// component construction (unit tests, micro-benches) needs no ceremony.
inline MetricsRegistry* FallbackRegistry(
    MetricsRegistry* reg, std::unique_ptr<MetricsRegistry>* owned) {
  if (reg != nullptr) return reg;
  if (*owned == nullptr) *owned = std::make_unique<MetricsRegistry>();
  return owned->get();
}

}  // namespace cwdb

#endif  // CWDB_OBS_METRICS_H_
