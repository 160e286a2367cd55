#ifndef CWDB_OBS_WATCHDOG_H_
#define CWDB_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/forensics.h"
#include "obs/metrics.h"

namespace cwdb {

class FlightRecorder;

/// Stall-watchdog configuration (DatabaseOptions::watchdog). Thresholds are
/// generous by default: the watchdog exists to catch a *wedged* pipeline —
/// a drainer that stopped advancing the stable LSN, an auditor whose cursor
/// is stuck, a checkpoint past its SLO, a transaction left open — not to
/// page on ordinary latency.
struct WatchdogOptions {
  bool enabled = false;
  uint64_t poll_interval_ms = 100;
  /// Stable LSN not advancing while staged/queued bytes are outstanding.
  uint64_t drainer_stall_ms = 2000;
  /// Background-audit slice counter not advancing while the auditor runs.
  uint64_t auditor_stall_ms = 10000;
  /// A single checkpoint exceeding this wall time.
  uint64_t checkpoint_slo_ms = 30000;
  /// Oldest active transaction unchanged for this long. 0 = probe off
  /// (legitimate long-running transactions exist; opt in per deployment).
  uint64_t txn_age_limit_ms = 0;
};

/// One progress probe. The watchdog polls it: while `active` returns true
/// and `progress` has not changed for `stall_ns`, the probe is stalled.
/// Both callbacks are invoked with the watchdog mutex held and must not
/// call back into the watchdog; they should be cheap atomic reads.
struct WatchdogProbe {
  std::string name;
  std::function<bool()> active;
  std::function<uint64_t()> progress;
  uint64_t stall_ns = 0;
};

/// Polls a set of progress probes from a background thread. The first poll
/// that finds a probe stalled files a CorruptionIncident-style stall
/// dossier (IncidentSource::kStallWatchdog; the dossier carries the
/// trace-ring tail like every other incident) and bumps watchdog.stalls;
/// the probe then stays quiet until it makes progress again (or goes
/// inactive), which re-arms it. DegradedReason() lists the currently
/// stalled probes — the stats server's /healthz surfaces it, and every
/// poll writes it into the black box's watchdog slot.
class Watchdog {
 public:
  /// `forensics` may be null (no dossiers, detection still works);
  /// `stable_lsn` (may be empty) stamps dossiers with the log position;
  /// `box` (may be null) receives DegradedReason() after every poll. The
  /// watchdog is that slot's only writer, and must die before the box.
  Watchdog(MetricsRegistry* metrics, ForensicsRecorder* forensics,
           std::function<uint64_t()> stable_lsn = {},
           FlightRecorder* box = nullptr);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a probe; returns an id for RemoveProbe. Safe while running.
  uint64_t AddProbe(WatchdogProbe probe);
  /// Unregisters (component shutting down before the watchdog does).
  void RemoveProbe(uint64_t id);

  void Start(uint64_t poll_interval_ms);
  void Stop();

  /// One synchronous poll pass (the background loop calls this; tests call
  /// it directly for deterministic stall checks).
  void PollOnce();

  /// Empty when healthy; otherwise "name stalled Nms" per stalled probe,
  /// comma-joined.
  std::string DegradedReason() const;

  uint64_t stalls() const { return stalls_->Value(); }

 private:
  struct ProbeState {
    uint64_t id = 0;
    WatchdogProbe probe;
    uint64_t last_progress = 0;
    uint64_t last_change_ns = 0;  ///< 0 = not currently observed active.
    bool fired = false;
  };

  void Loop();
  std::string DegradedReasonLocked(uint64_t now) const;

  MetricsRegistry* metrics_;
  ForensicsRecorder* forensics_;
  std::function<uint64_t()> stable_lsn_;
  FlightRecorder* box_;
  Counter* stalls_;
  Gauge* degraded_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ProbeState> probes_;
  uint64_t next_probe_id_ = 1;
  bool running_ = false;
  bool stop_ = false;
  uint64_t poll_interval_ms_ = 100;
  std::thread thread_;
};

}  // namespace cwdb

#endif  // CWDB_OBS_WATCHDOG_H_
