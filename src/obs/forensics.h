#ifndef CWDB_OBS_FORENSICS_H_
#define CWDB_OBS_FORENSICS_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/codeword.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/attribution.h"
#include "storage/db_image.h"
#include "storage/layout.h"

namespace cwdb {

/// Which detection path filed an incident (paper §3/§4.3: audits, read
/// prechecks, hardware traps; plus the recovery-time CRC checks the
/// implementation layers on top).
enum class IncidentSource : uint8_t {
  kAudit = 0,           ///< Full/range audit implicated regions.
  kCertification = 1,   ///< Pre-checkpoint certification audit.
  kReadPrecheck = 2,    ///< Read Prechecking mismatch on the read path.
  kMprotectTrap = 3,    ///< Hardware scheme trapped an unprescribed write.
  kWalCrc = 4,          ///< A complete WAL frame failed its CRC at open.
  kCheckpointMeta = 5,  ///< Checkpoint meta/image unusable at recovery.
  kOperator = 6,        ///< Filed manually (cwdb_ctl / API).
  kStallWatchdog = 7,   ///< Watchdog: a pipeline stage stopped progressing.
  kRepair = 9,          ///< Parity tier reconstructed region(s) in place.
  kCkptLoad = 10,       ///< Checkpoint-load sidecar verification mismatch.
  kCrash = 11,          ///< Prior incarnation died uncleanly (black box).
};

const char* IncidentSourceName(IncidentSource s);

/// One implicated byte range of a dossier, carried with everything needed
/// to diagnose it offline: the attribution through the table directory, the
/// codeword evidence (stored vs recomputed — their XOR is the corruption
/// delta), and a bounded hexdump of the bytes as found.
struct IncidentRegion {
  CorruptRange range;
  std::vector<RangeAttribution> attribution;

  bool have_codewords = false;
  codeword_t codeword_stored = 0;
  codeword_t codeword_computed = 0;
  codeword_t codeword_delta() const {
    return codeword_stored ^ codeword_computed;
  }

  DbPtr hexdump_off = 0;     ///< Image offset of the first dumped byte.
  std::string hexdump;       ///< Lowercase hex, 2 chars/byte, no spacing.

  /// kRepair dossiers: XOR of the region codeword before and after the
  /// reconstruction — the codeword-space image of the bytes the repair
  /// removed.
  bool have_repair_delta = false;
  codeword_t repair_delta = 0;
};

/// A structured corruption-incident dossier: the durable record of one
/// detection, written to incidents.jsonl before the deliberate crash so the
/// post-restart operator (and recovery itself) can see what was known at
/// detection time.
struct CorruptionIncident {
  uint64_t id = 0;          ///< 1-based ordinal within incidents.jsonl.
  uint64_t mono_ns = 0;     ///< NowNs() at detection.
  uint64_t wall_ns = 0;     ///< WallNowNs() at detection.
  uint64_t boot_mono_ns = 0;  ///< Registry anchor pair, for converting the
  uint64_t boot_wall_ns = 0;  ///< monotonic stamps in recent_events.
  IncidentSource source = IncidentSource::kOperator;
  std::string scheme;       ///< ProtectionSchemeName of the active scheme.
  uint64_t lsn = 0;         ///< Stable log end at detection (0 = unknown).
  uint64_t last_clean_audit_lsn = 0;  ///< Audit_SN of the last clean audit.
  std::vector<IncidentRegion> regions;
  std::vector<TxnId> active_txns;      ///< ATT at detection time.
  std::vector<TraceEvent> recent_events;  ///< Tail of the trace ring.
  std::string detail;       ///< Free-form context from the detection site.
  /// Id of the incident this one continues (a kRepair dossier links back to
  /// the detection dossier that triggered it). 0 = standalone.
  uint64_t linked_incident_id = 0;

  /// Single-line JSON (the incidents.jsonl record format).
  std::string ToJson() const;
};

/// Files incident dossiers. One recorder per Database; detection sites call
/// RecordIncident, which assembles the dossier (attribution, codeword
/// probe, hexdump, ATT snapshot, trace tail) and appends it durably —
/// open(O_APPEND) + write + fsync — to <dir>/incidents.jsonl. Thread-safe;
/// the append lock also serializes id assignment. Failure to persist never
/// fails the caller: detection paths must keep working with a full disk.
struct ForensicsOptions {
  size_t trace_events = 32;    ///< Trace-ring tail length per dossier.
  size_t hexdump_bytes = 64;   ///< Hexdump window cap per region.
  size_t max_regions = 64;     ///< Regions detailed per dossier.
  size_t max_active_txns = 256;
};

class ForensicsRecorder {
 public:
  using Options = ForensicsOptions;

  /// Probes installed by the owning Database. Each may be empty.
  using CodewordProbeFn =
      std::function<bool(DbPtr off, codeword_t* stored, codeword_t* computed)>;
  using ActiveTxnsFn = std::function<std::vector<TxnId>()>;

  ForensicsRecorder(std::string dir, const DbImage* image,
                    MetricsRegistry* metrics, Options options = Options());

  void set_scheme_name(std::string name) { scheme_name_ = std::move(name); }
  void set_codeword_probe(CodewordProbeFn fn) {
    codeword_probe_ = std::move(fn);
  }
  void set_active_txns_fn(ActiveTxnsFn fn) { active_txns_fn_ = std::move(fn); }

  /// Optional extras a detection site can attach to a dossier.
  struct IncidentExtras {
    /// Links this dossier to an earlier one (repair -> detection).
    uint64_t linked_incident_id = 0;
    /// Per-range repair XOR deltas, parallel to `ranges` (kRepair only).
    std::vector<codeword_t> repair_deltas;
    /// Replaces the live trace-ring tail with events recovered from a
    /// prior incarnation (kCrash dossiers: the black box's mirrored tail).
    bool override_recent_events = false;
    std::vector<TraceEvent> recent_events;
  };

  /// Assembles and durably appends a dossier. Returns the assigned id
  /// (also on persistence failure — the id is still burned and the failure
  /// is counted in obs.incident_append_failures).
  uint64_t RecordIncident(IncidentSource source, uint64_t lsn,
                          uint64_t last_clean_audit_lsn,
                          const std::vector<CorruptRange>& ranges,
                          std::string_view detail);

  /// Same, with extras (linked incident, repair deltas).
  uint64_t RecordIncident(IncidentSource source, uint64_t lsn,
                          uint64_t last_clean_audit_lsn,
                          const std::vector<CorruptRange>& ranges,
                          std::string_view detail,
                          const IncidentExtras& extras);

  /// Id the next incident will get (1-based; seeded from the existing
  /// incidents.jsonl line count at construction).
  uint64_t next_id() const;

  const std::string& path() const { return path_; }

 private:
  Status AppendLine(const std::string& line);

  const std::string path_;
  const DbImage* image_;       ///< May be null (no attribution / hexdump).
  MetricsRegistry* metrics_;
  const Options options_;
  std::string scheme_name_ = "none";
  CodewordProbeFn codeword_probe_;
  ActiveTxnsFn active_txns_fn_;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
};

/// Parses every line of an incidents.jsonl file (e.g. for `cwdb_ctl
/// incidents`). Unparseable lines are skipped with a count in
/// *skipped (may be null). Missing file -> empty vector.
Result<std::vector<JsonValue>> LoadIncidentFile(const std::string& path,
                                                size_t* skipped = nullptr);

/// Renders one parsed dossier as an operator-readable block.
std::string RenderIncident(const JsonValue& incident);

}  // namespace cwdb

#endif  // CWDB_OBS_FORENSICS_H_
