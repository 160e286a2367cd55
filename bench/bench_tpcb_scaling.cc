// TPC-B thread-scaling curve over the sharded engine: per-shard protection
// latches + codeword tables, per-shard lock-table segments, per-shard WAL
// append staging drained by one group-commit thread. Each transaction is a
// single TPC-B operation (ops_per_txn = 1), so every transaction ends in a
// log force — the configuration where the pre-sharding engine serializes
// completely. Throughput then scales with threads because concurrent
// committers piggyback on one fdatasync per group-commit round (the
// dominant cost on a disk-backed directory) while the sharded staging and
// lock tables keep the CPU side contention-free.
//
// Usage: bench_tpcb_scaling [--smoke] [--json] [--dir <path>] [--shards N]
//   --smoke   ~10x fewer transactions per point (CI budget).
//   --json    one {"name", "threads", "shards", "txns_per_sec",
//             "p99_commit_latency_ns"} object per line (the BENCH_*.json
//             trajectory schema).
//   --dir     parent directory for the per-point databases. Default
//             /var/tmp — a disk-backed filesystem; on tmpfs the fsync cost
//             this bench studies mostly vanishes.
//   --shards  engine shard count (default 4).
//   --trace   after the measured passes, run one extra traced pass at the
//             highest thread count (sample rate 1.0, fixed seed) and write
//             tpcb_spans.json (Chrome/Perfetto trace-event JSON — load at
//             https://ui.perfetto.dev) plus tpcb_attribution.json (the
//             per-stage p50/p99 latency shares CI diffs for drift) into
//             the --trace-out directory.
//   --trace-out <path>  output directory for the --trace artifacts
//             (default ".").

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/file_util.h"
#include "core/database.h"
#include "obs/trace_export.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

struct Point {
  int threads = 0;
  size_t shards = 0;
  double txns_per_sec = 0;
  uint64_t p99_commit_ns = 0;
};

/// Span artifacts of a traced pass (--trace).
struct TraceArtifacts {
  std::string chrome_json;       ///< Perfetto-loadable trace-event JSON.
  std::string attribution_json;  ///< Per-stage p50/p99 shares.
  size_t spans = 0;
};

Point RunPoint(const std::string& dir, int threads, size_t shards,
               uint64_t txns, TraceArtifacts* trace_out = nullptr) {
  TpcbConfig cfg;
  cfg.accounts = 5000;
  cfg.tellers = 500;
  cfg.branches = 50;
  // One operation per transaction: every transaction pays a commit-time
  // log force, the worst case for an unsharded engine and the case the
  // group-commit drainer is built for.
  cfg.ops_per_txn = 1;
  cfg.history_capacity = 2 * txns + 1000;

  DatabaseOptions opts;
  opts.path = dir;
  opts.page_size = 8192;
  opts.arena_size = (cfg.MinArenaSize(opts.page_size) + (4u << 20) + 8191) &
                    ~uint64_t{8191};
  opts.protection.scheme = ProtectionScheme::kDataCodeword;
  opts.protection.region_size = 512;
  opts.shards = shards;
  if (trace_out != nullptr) {
    // Trace every transaction of the traced pass under the default fixed
    // seed, so two runs of the same binary sample identically and the
    // attribution artifact is comparable across CI runs.
    opts.trace_sample_rate = 1.0;
    opts.trace_ring_capacity = 1 << 16;
  }
  auto db = Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  TpcbWorkload workload(db->get(), cfg);
  if (!workload.Setup().ok()) std::exit(1);

  // Warm-up outside the measurement, then drop its latency samples so the
  // p99 covers only the measured transactions.
  if (!workload.RunConcurrent(threads, 50 * threads).ok()) std::exit(1);
  (*db)->metrics()->histogram("txn.commit_latency_ns")->Reset();

  auto rate = workload.RunConcurrent(threads, txns);
  if (!rate.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 rate.status().ToString().c_str());
    std::exit(1);
  }

  Point p;
  p.threads = threads;
  p.shards = (*db)->shard_map().shard_count();
  p.txns_per_sec = *rate;  // ops/s == txn/s at one op per transaction.
  p.p99_commit_ns =
      (*db)->metrics()->histogram("txn.commit_latency_ns")->Capture().p99;
  if (trace_out != nullptr) {
    MetricsRegistry* metrics = (*db)->metrics();
    SpanDump dump;
    dump.captured_mono_ns = NowNs();
    dump.captured_wall_ns = WallNowNs();
    dump.boot_mono_ns = metrics->boot_mono_ns();
    dump.boot_wall_ns = metrics->boot_wall_ns();
    dump.spans = metrics->tracer()->Snapshot();
    trace_out->spans = dump.spans.size();
    trace_out->chrome_json = SpansToChromeJson(dump);
    trace_out->attribution_json =
        AttributionToJson(ComputeAttribution(dump.spans));
  }
  DumpDbMetricsIfRequested(db->get());
  // Remove this point's database before the next one runs. The checkpoint
  // images are megabytes of dirty page cache per point; left on disk, their
  // background writeback competes with the next points' fdatasyncs and
  // skews the tail of every pass.
  db->reset();
  std::string cleanup = std::string("rm -rf '") + dir + "'";
  (void)std::system(cleanup.c_str());
  return p;
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) {
  using namespace cwdb;
  const bool json = JsonMode(argc, argv);
  bool smoke = false;
  bool trace = false;
  size_t shards = 4;
  int trials_override = 0;
  std::string parent = "/var/tmp";
  std::string trace_out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_dir = argv[++i];
    }
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      parent = argv[++i];
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials_override = std::atoi(argv[++i]);
    }
  }
  const uint64_t txns_per_thread = smoke ? 300 : 3000;
  const int trials = trials_override > 0 ? trials_override : (smoke ? 1 : 5);

  std::vector<int> thread_counts = {1, 2, 4};
  unsigned hw = std::thread::hardware_concurrency();
  int max_threads = static_cast<int>(hw > 8 ? hw : 8);
  if (max_threads > thread_counts.back()) {
    thread_counts.push_back(max_threads);
  }

  std::string tmpl = parent + "/cwdb_bench_scaling_XXXXXX";
  char* base = ::mkdtemp(tmpl.data());
  if (base == nullptr) {
    std::fprintf(stderr, "mkdtemp under %s failed\n", parent.c_str());
    return 1;
  }

  if (!json) {
    std::printf("TPC-B scaling, one op per transaction (commit-bound), "
                "%zu shards, %" PRIu64 " txns/thread\n",
                shards, txns_per_thread);
    std::printf("%8s %8s %12s %18s\n", "threads", "shards", "txn/s",
                "p99 commit (us)");
  }
  // The quantity this bench exists for is the speedup curve, and on a
  // virtual disk the absolute rates drift ±25% on a timescale of seconds
  // as host cache state changes. Points inside one pass run back to back,
  // so the drift is common mode there and cancels in the ratio; mixing
  // points from different passes does not. Hence: run whole passes, rank
  // them by their own 4-vs-1 speedup, and report the median pass as one
  // coherent snapshot.
  auto pass_speedup = [](const std::vector<Point>& pass) {
    double base = 0, at4 = 0;
    for (const Point& p : pass) {
      if (p.threads == 1) base = p.txns_per_sec;
      if (p.threads == 4) at4 = p.txns_per_sec;
    }
    return base > 0 ? at4 / base : 0.0;
  };
  std::vector<std::vector<Point>> passes(trials);
  for (int r = 0; r < trials; ++r) {
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      int t = thread_counts[i];
      std::string dir = std::string(base) + "/t" + std::to_string(t) + "_r" +
                        std::to_string(r);
      passes[r].push_back(RunPoint(dir, t, shards, txns_per_thread * t));
    }
    std::fprintf(stderr, "pass %d:", r);
    for (const Point& p : passes[r]) {
      std::fprintf(stderr, " %dT=%.0f", p.threads, p.txns_per_sec);
    }
    std::fprintf(stderr, "  (4T speedup %.2fx)\n", pass_speedup(passes[r]));
  }
  std::sort(passes.begin(), passes.end(),
            [&](const std::vector<Point>& a, const std::vector<Point>& b) {
              return pass_speedup(a) < pass_speedup(b);
            });
  const std::vector<Point>& chosen = passes[passes.size() / 2];

  double base_rate = 0;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    int t = thread_counts[i];
    const Point& p = chosen[i];
    if (t == 1) base_rate = p.txns_per_sec;
    if (json) {
      std::printf("{\"name\": \"tpcb_scaling\", \"threads\": %d, "
                  "\"shards\": %zu, \"txns_per_sec\": %.1f, "
                  "\"p99_commit_latency_ns\": %" PRIu64 "}\n",
                  p.threads, p.shards, p.txns_per_sec, p.p99_commit_ns);
    } else {
      std::printf("%8d %8zu %12.1f %18.1f", p.threads, p.shards,
                  p.txns_per_sec, p.p99_commit_ns / 1000.0);
      if (t != 1 && base_rate > 0) {
        std::printf("   (%.2fx vs 1 thread)", p.txns_per_sec / base_rate);
      }
      std::printf("\n");
    }
    std::fflush(stdout);
  }
  if (trace) {
    // One extra pass, fully traced, outside the measured trials (the span
    // rings cost a little memory traffic; the timing points above stay
    // untouched). The attribution artifact is what CI diffs for drift.
    const int t = thread_counts.back();
    TraceArtifacts artifacts;
    std::string dir = std::string(base) + "/traced";
    (void)RunPoint(dir, t, shards, txns_per_thread * t, &artifacts);
    Status s1 = WriteFileAtomic(trace_out_dir + "/tpcb_spans.json",
                                artifacts.chrome_json);
    Status s2 = WriteFileAtomic(trace_out_dir + "/tpcb_attribution.json",
                                artifacts.attribution_json);
    if (!s1.ok() || !s2.ok()) {
      std::fprintf(stderr, "trace artifacts: %s / %s\n",
                   s1.ToString().c_str(), s2.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "traced pass: %zu spans -> %s/tpcb_spans.json, "
                 "attribution -> %s/tpcb_attribution.json\n",
                 artifacts.spans, trace_out_dir.c_str(),
                 trace_out_dir.c_str());
  }
  std::string cleanup = std::string("rm -rf '") + base + "'";
  (void)std::system(cleanup.c_str());
  return 0;
}
