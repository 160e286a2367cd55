#ifndef CWDB_OBS_STATS_SERVER_H_
#define CWDB_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace cwdb {

/// Renders a MetricsSnapshot in Prometheus text exposition format 0.0.4:
/// counters as `cwdb_<name>_total`, gauges as gauges, histograms as native
/// histogram series (cumulative `_bucket{le="2^i"}` from the log2 buckets,
/// plus `_sum`/`_count`). Metric-name dots become underscores; every
/// series gets HELP/TYPE lines exactly once.
std::string RenderPrometheus(const MetricsSnapshot& snap);

struct StatsServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port (read
  /// it back from StatsServer::port()). Binds 127.0.0.1 only — the
  /// endpoint is unauthenticated and strictly read-only, so it must never
  /// face a network.
  uint16_t port = 0;
};

/// Minimal blocking HTTP/1.0 stats endpoint on a background thread.
///
///   GET /metrics    Prometheus text from a fresh registry capture
///   GET /incidents  raw incidents.jsonl (application/jsonl)
///   GET /spans      Chrome/Perfetto trace-event JSON of the live span
///                   rings ({"traceEvents":[]} when tracing is off)
///   GET /healthz    200 "ok" / 503 "corrupt" or "stalled: ..." per the
///                   health/degraded hooks
///
/// Query strings are ignored: GET /metrics?x=y is still /metrics.
///
/// One connection is served at a time (close-after-response); this is an
/// operator/scraper endpoint, not a data path. Stop() is prompt: the accept
/// loop polls a self-pipe alongside the listen socket.
class StatsServer {
 public:
  struct Hooks {
    std::function<MetricsSnapshot()> snapshot;       ///< Required.
    std::function<std::string()> incidents_jsonl;    ///< May be empty.
    std::function<bool()> healthy;                   ///< Empty = always ok.
    /// Chrome trace JSON of the live spans. Empty hook = tracing not wired;
    /// /spans still answers with a valid empty document.
    std::function<std::string()> spans_json;
    /// Stall description ("" = not degraded). Empty hook = no watchdog.
    std::function<std::string()> degraded;
  };

  StatsServer() = default;
  ~StatsServer() { Stop(); }
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  Status Start(const StatsServerOptions& options, Hooks hooks);
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolved when options.port was 0). 0 until started.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

 private:
  void Serve();
  void HandleConnection(int fd);

  Hooks hooks_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace cwdb

#endif  // CWDB_OBS_STATS_SERVER_H_
