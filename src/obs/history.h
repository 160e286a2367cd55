#ifndef CWDB_OBS_HISTORY_H_
#define CWDB_OBS_HISTORY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace cwdb {

/// Integrity coverage map (the "scrub map"): per engine shard, when the
/// background auditor (or a foreground full audit) last certified the
/// shard's bytes, at what LSN, and how far the current sweep cursor has
/// advanced. The paper's operational promise is *bounded detection latency*
/// (§3.2, §5: auditing is "an asynchronous check of consistency"); this map
/// is the live answer to "how stale is the least-recently-audited region
/// right now?".
///
/// Scrub age of a shard = now - the end of the last *complete* pass over
/// that shard (a pass certifies the shard's data as of its beginning, so
/// this is the upper bound on how long corruption in the shard could have
/// gone undetected). Before the first complete pass the age is measured
/// from the map's construction (database open). The max over shards is the
/// database's detection-latency exposure.
///
/// Publishes gauges into the registry so the map survives in metrics.json
/// (rendered by `cwdb_ctl scrub-map`) and is scraped over /metrics:
///   scrub.shard<N>.last_pass_wall_ms   wall clock of the last complete pass
///   scrub.shard<N>.last_audit_lsn      log position that pass certified
///   scrub.shard<N>.cursor_pct          current sweep cursor, percent
///   scrub.max_age_ms                   max staleness (refreshed by
///                                      UpdateGauges — the Database's
///                                      ticker calls it every tick)
class ScrubMap {
 public:
  struct ShardState {
    uint64_t last_pass_mono_ns = 0;  ///< 0 = no complete pass yet.
    uint64_t last_pass_wall_ns = 0;
    uint64_t last_audit_lsn = 0;
    uint64_t cursor_off = 0;     ///< Next in-shard offset the sweep audits.
    uint64_t shard_len = 0;
    uint64_t slices = 0;         ///< Cursor advances observed.
  };

  ScrubMap(MetricsRegistry* metrics, const std::vector<uint64_t>& shard_lens);

  /// The sweep audited [cursor_off - bytes, cursor_off) of `shard` while
  /// the log stood at `lsn`.
  void NoteSlice(size_t shard, uint64_t cursor_off, uint64_t lsn);
  /// A full pass over `shard` completed; its data as of `lsn` is certified.
  void NotePassComplete(size_t shard, uint64_t lsn);
  /// A foreground full audit certified every shard at `lsn`.
  void NoteFullAudit(uint64_t lsn);

  std::vector<ShardState> Snapshot() const;
  /// Staleness of shard `s` at `now_mono` (ns).
  uint64_t AgeNs(size_t shard, uint64_t now_mono) const;
  /// Max staleness across shards at `now_mono` (ns); 0 for an empty map.
  uint64_t MaxAgeNs(uint64_t now_mono) const;

  /// Refreshes the age-derived gauges (scrub.max_age_ms). The per-shard
  /// gauges are updated inline by the Note* calls.
  void UpdateGauges(uint64_t now_mono);

  size_t shard_count() const { return shards_.size(); }

 private:
  uint64_t AgeNsLocked(size_t shard, uint64_t now_mono) const;

  MetricsRegistry* metrics_;
  const uint64_t birth_mono_ns_;
  Gauge* max_age_ms_;
  mutable std::mutex mu_;
  std::vector<ShardState> shards_;
  /// Per-shard gauge triples, resolved once at construction.
  struct ShardGauges {
    Gauge* last_pass_wall_ms;
    Gauge* last_audit_lsn;
    Gauge* cursor_pct;
  };
  std::vector<ShardGauges> gauges_;
};

/// Metrics time-series history: each SampleNow() scrapes the registry into
/// a fixed-size in-process ring of samples, giving every counter, gauge and
/// histogram a queryable recent past — rates, windowed quantiles,
/// sparklines — where the registry alone only answers "what is the total
/// right now".
///
/// The ring is persisted (delta-encoded, CRC-framed records) to
/// metrics_history.bin on Database::DumpMetrics()/Close() and reloaded on
/// reopen, so `cwdb_ctl top` works on a cold directory and history spans
/// process restarts. Torn or truncated files load to their last valid
/// record; a corrupt header loads as empty. Neither fails the open.
struct HistoryOptions {
  /// Cadence of the Database's ticker (Database::Tick). 0 = no periodic
  /// sampling; SampleNow() and Tick() still work, which is what
  /// deterministic tests use.
  uint64_t interval_ms = 0;
  /// Samples retained in the ring (oldest evicted first). At the default
  /// 1 s cadence, 512 samples ≈ 8.5 minutes of history.
  size_t retention = 512;
};

class MetricsHistory {
 public:
  /// One metric's value at one sample instant.
  struct Point {
    uint64_t mono_ns = 0;
    uint64_t wall_ns = 0;
    double value = 0;
  };

  enum class MetricType { kNone, kCounter, kGauge, kHistogram };

  /// Histogram activity over a query window: the difference between the
  /// cumulative log2 buckets at the window's edges.
  struct WindowedHist {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t buckets[Histogram::kBuckets] = {};
    /// Upper bound of the bucket holding rank ceil(q*count); 0 when empty.
    uint64_t Quantile(double q) const {
      return Histogram::BucketQuantile(buckets, count, q);
    }
    /// Samples recorded in buckets strictly above the one holding
    /// `threshold` — i.e. values guaranteed > threshold (the SLO engine's
    /// "bad event" count; exact to the log2 bucket resolution).
    uint64_t CountAbove(uint64_t threshold) const;
  };

  MetricsHistory(MetricsRegistry* registry, HistoryOptions options);
  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// Takes one sample now (Database::Tick calls this; tests and benchmarks
  /// call either directly for deterministic histories).
  void SampleNow();

  size_t size() const;
  /// Monotonic stamp of the newest sample (0 when empty) — the "now" to
  /// query a cold-loaded history at.
  uint64_t LatestMono() const;
  uint64_t samples_taken() const { return samples_taken_; }
  const HistoryOptions& options() const { return options_; }

  // -- Queries (all thread-safe) --

  MetricType TypeOf(std::string_view metric) const;
  /// Every sample of `metric` within [now - window, now] (monotonic).
  /// Counters and gauges yield their sampled value; histograms yield their
  /// cumulative count. Empty when the metric is unknown.
  std::vector<Point> Series(std::string_view metric, uint64_t window_ns,
                            uint64_t now_mono) const;
  /// Average increase of counter `metric` per second over the window
  /// (last - first sample in window over their time distance). 0 when
  /// fewer than two samples cover the window.
  double Rate(std::string_view metric, uint64_t window_ns,
              uint64_t now_mono) const;
  /// Histogram activity between the window's edge samples. False when the
  /// histogram is unknown or fewer than two samples cover the window.
  bool Windowed(std::string_view metric, uint64_t window_ns,
                uint64_t now_mono, WindowedHist* out) const;
  /// Latest sampled value of a counter/gauge (0 / false when unknown or
  /// the ring is empty).
  bool Latest(std::string_view metric, double* value) const;

  /// Answers a `GET /query` string ("metric=txn.commits&window=60s"):
  /// time-series JSON with the points, and for counters a rate, for
  /// histograms windowed p50/p95/p99. InvalidArgument on a malformed
  /// query or unknown metric.
  Result<std::string> QueryJson(std::string_view query) const;

  // -- Persistence --

  Status SaveTo(const std::string& path) const;
  /// Loads a saved ring, replacing the current contents. Tolerates torn,
  /// truncated and bit-flipped files (valid prefix wins; a bad header
  /// loads as empty). Only a filesystem error (not corruption) fails.
  Status LoadFrom(const std::string& path);

  /// LoadFrom's parsing core on in-memory bytes, factored out so the ring
  /// codec can be fuzzed without touching the filesystem. Never fails:
  /// arbitrary input loads to its longest valid prefix (possibly empty).
  void LoadFromBuffer(const std::string& data);

  /// Renders the operator "top" view: uptime, commit rate, commit p99,
  /// scrub age, SLO budget remaining, sparklines over the ring. `now_mono`
  /// = the render instant; use the latest sample's stamp for a cold
  /// directory (see cwdb_ctl top).
  std::string RenderTop(uint64_t now_mono) const;

 private:
  struct HistPoint {
    uint64_t count = 0;
    uint64_t sum = 0;
    /// Only the populated log2 buckets (typically < 16 of 64).
    std::vector<std::pair<uint8_t, uint64_t>> buckets;
  };
  /// One scrape. Value vectors align with the name tables below; a sample
  /// taken before a name was registered is shorter — missing = 0.
  struct Sample {
    uint64_t mono_ns = 0;
    uint64_t wall_ns = 0;
    std::vector<uint64_t> counters;
    std::vector<int64_t> gauges;
    std::vector<HistPoint> hists;
  };

  void AppendSampleLocked(Sample sample);
  /// Index of the oldest sample with mono_ns >= cutoff; size() if none.
  size_t LowerBoundLocked(uint64_t cutoff_mono) const;
  int FindName(const std::vector<std::string>& names,
               std::string_view name) const;
  static void FillBuckets(const HistPoint& h,
                          uint64_t (&out)[Histogram::kBuckets]);

  MetricsRegistry* registry_;
  const HistoryOptions options_;

  mutable std::mutex mu_;
  /// Append-only name tables; sample value vectors index into these.
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::deque<Sample> ring_;
  uint64_t samples_taken_ = 0;
};

/// Renders the per-shard scrub-map heatmap from a persisted metrics
/// snapshot's gauges (`cwdb_ctl scrub-map`). `gauges` is the snapshot's
/// gauge list; `captured_wall_ns` its capture stamp, against which ages
/// are computed.
std::string RenderScrubMap(
    const std::vector<std::pair<std::string, int64_t>>& gauges,
    uint64_t captured_wall_ns);

}  // namespace cwdb

#endif  // CWDB_OBS_HISTORY_H_
