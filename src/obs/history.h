#ifndef CWDB_OBS_HISTORY_H_
#define CWDB_OBS_HISTORY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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
///                                      UpdateGauges)
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

/// Renders the per-shard scrub-map heatmap from a persisted metrics
/// snapshot's gauges (`cwdb_ctl scrub-map`). `gauges` is the snapshot's
/// gauge list; `captured_wall_ns` its capture stamp, against which ages
/// are computed.
std::string RenderScrubMap(
    const std::vector<std::pair<std::string, int64_t>>& gauges,
    uint64_t captured_wall_ns);

}  // namespace cwdb

#endif  // CWDB_OBS_HISTORY_H_
