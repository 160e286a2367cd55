// Regenerates the checked-in seed corpora under fuzz/corpus/. Each seed is
// a *valid* artifact produced by the real encoder, so the fuzzers start
// from deep inside the accepting grammar instead of spending their budget
// rediscovering the magic bytes.
//
//   make_corpus <repo-root>
//
// writes fuzz/corpus/parity_sidecar/seed-valid and
// fuzz/corpus/blackbox_decode/seed-valid under <repo-root>.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "protect/parity_repair.h"

namespace cwdb {
namespace {

int Run(const std::string& root) {
  // Parity sidecar: a small self-consistent geometry (4 KiB arena, 256 B
  // regions grouped 4-wide, one shard) over an all-zero image. The
  // codewords and parity columns of a zero arena are all zero, so the seed
  // both decodes and verifies clean.
  ParitySidecar sc;
  sc.ck_end = 4096;
  sc.arena_size = 4096;
  sc.region_size = 256;
  sc.group_regions = 4;
  sc.shards.emplace_back(0, 4096);
  sc.codewords.assign(sc.arena_size / sc.region_size, 0);
  sc.columns.assign(
      (sc.codewords.size() + sc.group_regions - 1) / sc.group_regions *
          sc.region_size,
      '\0');
  std::string blob = EncodeParitySidecar(sc);
  Status s = WriteFileAtomic(root + "/fuzz/corpus/parity_sidecar/seed-valid",
                             blob);
  if (!s.ok()) {
    std::fprintf(stderr, "parity seed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Black box: written in place through a real recorder's mapping, as a
  // live database writes it — trace events in the ring that lives in the
  // box, a status text, and a metrics sample with every metric kind. Left
  // without the clean-shutdown mark, like the box of a process that died.
  FlightRecorderInfo info;
  info.arena_size = 1 << 20;
  info.page_size = 8192;
  info.shard_count = 2;
  info.scheme = "Data CW";
  info.boot_mono_ns = NowNs();
  info.boot_wall_ns = WallNowNs();
  const std::string box_dir = root + "/fuzz/corpus/blackbox_decode";
  (void)MakeDirs(box_dir);  // A failure surfaces as Create's open error.
  Result<std::unique_ptr<FlightRecorder>> box =
      FlightRecorder::Create(box_dir + "/seed-valid", info);
  if (!box.ok()) {
    std::fprintf(stderr, "blackbox seed: %s\n",
                 box.status().ToString().c_str());
    return 1;
  }
  {
    // Scoped so the registry, whose event ring lives in the box, dies
    // before the box is unmapped.
    MetricsRegistry metrics;
    metrics.trace().MoveTo((*box)->trace_section());
    metrics.trace().Record(TraceEventType::kAuditPassBegin, 100);
    metrics.trace().Record(TraceEventType::kGroupCommitFlush, 4096, 512, 0, 1);
    metrics.trace().Record(TraceEventType::kCorruptionDetected, 4100, 8192, 64);
    metrics.counter("txn.commits")->Add(42);
    metrics.gauge("txn.active")->Set(3);
    metrics.histogram("txn.commit_latency_ns")->Record(250000);
    (*box)->NoteStatusText(blackbox::StatusSlot::kWatchdog,
                           "wal.drainer stalled 2500ms");
    (*box)->NoteDurableLsn(4096, 4160);
    (*box)->WriteMetricsSample(metrics.Capture());
  }
  std::printf("corpora written under %s/fuzz/corpus\n", root.c_str());
  return 0;
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <repo-root>\n");
    return 2;
  }
  return cwdb::Run(argv[1]);
}
