#ifndef CWDB_WAL_SYSTEM_LOG_H_
#define CWDB_WAL_SYSTEM_LOG_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "wal/log_record.h"
#include "wal/mpmc_queue.h"

namespace cwdb {

class FlightRecorder;

/// Trace tag riding a published batch through the group-commit queue (the
/// cross-thread hop of a sampled commit's trace): the commit's span
/// context — already re-parented at the client-side flush-wait span — the
/// publish timestamp, and the LSN one past the tagged frames, so the
/// drainer can attach queue-wait / write / fsync spans to the originating
/// trace and fire them when the durable frontier passes `end_lsn`.
struct WalTraceTag {
  SpanContext ctx;
  uint64_t publish_ns = 0;
  Lsn end_lsn = 0;
};

/// What SystemLog::Open found past the valid frame prefix. A clean shutdown
/// or an ordinary crash leaves `valid_bytes == file_bytes` or a *torn* tail
/// (an incomplete final frame with nothing after it). `damaged` means the
/// invalid bytes are not explainable as a torn append: either a complete
/// frame failed its CRC, or valid frames exist beyond the bad region —
/// i.e. stable log contents were corrupted in place (media/wild write),
/// which costs committed transactions and deserves an incident dossier.
struct WalTailScan {
  uint64_t valid_bytes = 0;  ///< End of the valid frame prefix.
  uint64_t file_bytes = 0;   ///< File size before truncation.
  bool damaged = false;
  uint64_t damage_off = 0;   ///< First bad frame offset when damaged.
  /// Not damaged, and the invalid suffix reads back as zeros (the drainer's
  /// preallocation: a clean end of log) rather than a torn append.
  bool zero_tail = false;
};

/// LogReader's pread window: the most file bytes it holds at once, unless a
/// single frame is larger (the window then grows to hold that frame).
constexpr size_t kLogReadWindowBytes = 1 << 20;

/// A frame's header: [u32 payload_len][u32 crc32c], little-endian.
constexpr size_t kFrameHeaderBytes = 8;

/// Fills in the header of the frame that starts at `start` in `buf` and
/// whose payload runs to the end of `buf`.
void SealFrame(std::string* buf, size_t start);

/// Appends one record to `buf` as its on-disk frame, built in place:
/// `encode(buf, args...)` (an Encode* function of log_record.h) appends the
/// payload behind a reserved header, which SealFrame then fills in. A
/// buffer of such frames is what SystemLog::AppendFrames stages.
template <typename Encode, typename... Args>
void AppendFrame(std::string* buf, Encode&& encode, Args&&... args) {
  const size_t start = buf->size();
  buf->append(kFrameHeaderBytes, '\0');
  encode(buf, std::forward<Args>(args)...);
  SealFrame(buf, start);
}

/// The system log (paper §2.1): in-memory append staging plus a stable log
/// file on disk. Redo records are appended when operations commit; the
/// staged frames are made durable at transaction commit and at checkpoints.
///
/// Sharded append path: LSNs are assigned by a single fetch-and-add on the
/// logical end of the log, but the encoded frames are staged in per-shard
/// buffers (the calling thread picks a shard once and sticks to it), so
/// concurrent appenders on different shards never touch the same mutex.
/// This is sound because the transaction layer moves an operation's redo to
/// the system log *before* releasing the operation's locks (§2.1): any two
/// conflicting operations are already serialized when they append, so their
/// LSN order equals their conflict order no matter which shard staged them.
///
/// Group commit: staged batches flow through a lock-free MPMC queue to one
/// drainer thread, which reorders them by LSN, writes only the contiguous
/// prefix of the log (so the on-disk file is always a valid prefix plus at
/// most one torn frame) and issues a single fdatasync per round. Flush()
/// registers a durability target and waits; every Flush caller that arrives
/// while a round is in flight piggybacks on its fsync.
///
/// Framing on disk and in staging: [u32 payload_len][u32 crc32c][payload].
/// The LSN of a record is the byte offset of its frame; a torn final frame
/// after a crash is detected by the CRC and treated as the end of log. A
/// frame is built once, where its record is encoded (AppendFrame), and its
/// bytes travel unchanged as part of a run from there to the file.
class SystemLog {
 public:
  /// Opens (creating if needed) the stable log at `path`. Scans existing
  /// contents to find the end of the valid prefix (ScanFile); a torn tail is
  /// truncated physically (appends continue from the valid prefix). A read
  /// error fails the open and never truncates. Flush latency, batch sizes
  /// and append volume are reported into `metrics` (nullptr = a private
  /// registry, for standalone construction in tests). `shards` is
  /// the number of append staging buffers (1 = a single buffer, the
  /// pre-sharding behavior). `recorder`, when given, mirrors the staged and
  /// durable LSN frontiers into the crash-surviving black box on the
  /// existing hot-path stores (two relaxed writes per event, no new locks).
  static Result<std::unique_ptr<SystemLog>> Open(
      const std::string& path, MetricsRegistry* metrics = nullptr,
      size_t shards = 1, FlightRecorder* recorder = nullptr);

  /// The scan Open runs, without changing the file: one streaming pass
  /// over the frames to the end of the valid prefix, then the torn-vs-
  /// damaged classification of what follows on a bounded read there. A
  /// missing file scans as empty; a read error is an IoError.
  static Result<WalTailScan> ScanFile(const std::string& path);

  ~SystemLog();
  SystemLog(const SystemLog&) = delete;
  SystemLog& operator=(const SystemLog&) = delete;

  /// Appends one encoded record payload to this thread's staging shard.
  /// Returns the record's LSN. Thread-safe.
  Lsn Append(Slice payload);

  /// Appends a run of complete frames (built by AppendFrame) as one
  /// staging operation: one LSN reservation and one copy for the lot, and
  /// the frames occupy contiguous LSNs. Returns the LSN of the first frame
  /// (CurrentLsn() when `frames` is empty). Used by operation commit, which
  /// moves the whole local redo buffer at once. When `trace` is a sampled
  /// span context, a WalTraceTag rides the staged frames through the
  /// group-commit queue so the drainer-side spans attach to the trace.
  Lsn AppendFrames(Slice frames, const SpanContext* trace = nullptr);

  /// Makes every record appended before this call durable. Group commit:
  /// the drainer thread writes the whole pending prefix and fsyncs once
  /// per round while appenders keep running; concurrent flushers piggyback
  /// on the in-flight round instead of issuing their own fsync. (The paper
  /// commits every 500 operations precisely to keep commit cost off the
  /// critical path — §5.2 fn. 3 avoids group commit in the *benchmark*;
  /// the engine supports it.)
  Status Flush();

  /// LSN one past the last appended record (staged frames included).
  Lsn CurrentLsn() const {
    return logical_end_.load(std::memory_order_acquire);
  }

  /// LSN up to which the log is durable.
  Lsn end_of_stable_log() const {
    return durable_.load(std::memory_order_acquire);
  }

  /// True while a requested flush has not yet reached durability. This is
  /// the watchdog's drainer-probe gate: staged bytes with no flush request
  /// are not "pending" (nothing is waiting on them), so only a stuck
  /// requested round reads as a stall.
  bool flush_pending() const {
    std::lock_guard<std::mutex> guard(drain_mu_);
    return flush_target_ > durable_.load(std::memory_order_relaxed);
  }

  /// Crash simulation: discards everything not yet durable — staged
  /// frames, queued batches, and written-but-unsynced bytes — exactly what
  /// a process failure would lose. Requires external quiescence (no
  /// concurrent Append/Flush).
  void DiscardTail();

  /// Classification of what Open() found at the end of the stable file
  /// (before truncating it back to the valid prefix).
  const WalTailScan& tail_scan() const { return tail_scan_; }

  /// Total bytes appended since open (read-log volume studies).
  uint64_t bytes_appended() const { return ins_.bytes_appended->Value(); }
  uint64_t flush_count() const { return ins_.flushes->Value(); }
  /// Flush rounds that failed with an I/O error; the frames stay staged at
  /// their LSNs and the next Flush() covers them exactly once.
  uint64_t flush_failures() const { return ins_.flush_failures->Value(); }

 private:
  /// A contiguous LSN range of staged frames: one append call's frames,
  /// or several calls' that happened to get adjacent LSNs.
  struct Run {
    Lsn lsn;
    size_t len;
  };

  /// Frames laid out back to back, run after run, in LSN order.
  struct Staged {
    std::string bytes;
    std::vector<Run> runs;
  };

  /// One publication unit: a shard's staged frames plus the trace tags of
  /// any sampled commits among them.
  struct Batch {
    Staged staged;
    std::vector<WalTraceTag> tags;
  };

  /// Per-shard append staging. Appenders on different shards share nothing
  /// but the LSN counter (one fetch_add) and the lock-free queue. The
  /// staging buffer keeps its capacity across publishes.
  struct alignas(64) AppendShard {
    std::mutex mu;
    Staged staged;
    std::vector<WalTraceTag> tags;
    size_t index = 0;  ///< Position in shards_, for black-box attribution.
    Counter* appends = nullptr;
  };

  SystemLog(std::string path, int fd, uint64_t stable_size,
            MetricsRegistry* metrics, size_t shards);

  /// The calling thread's staging shard (round-robin assignment at first
  /// use, sticky thereafter).
  size_t ShardIndex() const;

  /// Accounts for the `len` bytes of `frames` frames just appended to
  /// sh.staged.bytes at `lsn`, then publishes past the threshold (sh.mu
  /// held).
  void NoteStagedLocked(AppendShard& sh, Lsn lsn, size_t len, size_t frames);

  /// Copies sh's staged frames into a batch on the MPMC queue (sh.mu held).
  void PublishLocked(AppendShard& sh);

  /// Drainer thread: merges queued batches, writes the contiguous prefix,
  /// fsyncs on demand.
  void DrainerLoop();

  /// Zero-extends the stable file to `new_end` (drainer only). Writing real
  /// zero blocks ahead of the frontier keeps block allocation and i_size
  /// changes out of the per-round fdatasync, which then syncs pure data.
  Status Preallocate(uint64_t new_end);

  struct Instruments {
    Counter* appends;
    Counter* bytes_appended;
    Counter* flushes;
    Counter* flush_failures;
    Counter* flush_piggybacks;
    Gauge* tail_bytes;
    Histogram* flush_latency_ns;
    Histogram* flush_batch_bytes;
  };

  std::string path_;
  int fd_;
  WalTailScan tail_scan_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_ = nullptr;  ///< May be null (no black box).
  Instruments ins_;

  /// Next LSN to assign; advanced by fetch_add under the owning shard's mu
  /// (the mu makes "LSN order == buffer order" hold within a shard).
  std::atomic<uint64_t> logical_end_;
  /// End of the durable prefix. Written by the drainer under drain_mu_,
  /// read lock-free by CurrentLsn()/end_of_stable_log()/Append.
  std::atomic<uint64_t> durable_;

  std::vector<std::unique_ptr<AppendShard>> shards_;
  MpmcQueue<Batch*> queue_;

  /// Drainer state, guarded by drain_mu_.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;  ///< Wakes the drainer.
  std::condition_variable flush_cv_;  ///< Wakes Flush waiters.
  /// Reorder buffer: one entry per popped run, keyed by its first LSN.
  std::map<Lsn, std::string> pending_;
  /// Tags popped from the queue, waiting for the durable frontier to pass
  /// their end_lsn (at which point the drainer emits their write/fsync
  /// spans and retires them). Guarded by drain_mu_.
  std::vector<WalTraceTag> traced_;
  uint64_t write_pos_;     ///< Bytes written (not necessarily synced).
  uint64_t alloc_end_;     ///< Zero-preallocated file extent (drainer only).
  uint64_t flush_target_ = 0;
  uint64_t request_seq_ = 0;  ///< Bumped by every Flush() registration.
  uint64_t last_latch_seq_ = 0;     ///< request_seq_ at the last round latch.
  uint64_t last_round_reqs_ = 0;    ///< Registrations the last round absorbed.
  uint64_t round_piggybacks_ = 0;   ///< Registrations during the open round.
  uint64_t piggybacks_last_round_ = 0;  ///< ...and the previous round's count.
  uint64_t error_seq_ = 0;    ///< request_seq_ when the last round failed.
  uint64_t failed_req_ = 0;   ///< Retry only once a newer request arrives.
  Status last_error_;
  bool in_round_ = false;     ///< Drainer I/O in flight (latch released).
  bool drain_backlog_ = false;  ///< A publisher found the queue full.
  bool stop_ = false;
  std::thread drainer_;
};

/// Sequential reader over the stable system log. Stops cleanly at the first
/// torn or corrupt frame (end of log after a crash). Streams the file
/// through a pread window (kLogReadWindowBytes, or one larger frame) whose
/// end is the file size at Open, so memory is one window plus one frame
/// however long the log has grown.
class LogReader {
 public:
  /// Opens the stable log file at `path` for reading from LSN `start`. If
  /// `limit` is not kInvalidLsn, records at or beyond it are not returned.
  /// A missing file reads as an empty log.
  static Result<std::unique_ptr<LogReader>> Open(const std::string& path,
                                                 Lsn start, Lsn limit);

  ~LogReader();
  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// Returns the next record; false at end of log or on a read error
  /// (status() tells which). `lsn` receives the record's LSN.
  bool Next(LogRecord* record, Lsn* lsn);

  /// OK, or the IoError of a failed read. Callers check it after their
  /// Next loop: a read error is not an end of log.
  const Status& status() const { return status_; }

  /// LSN one past the last valid frame read so far (after exhausting the
  /// reader: the end of the valid prefix).
  Lsn position() const { return pos_; }

 private:
  friend class SystemLog;  // ScanFile walks frames and reads the tail.

  LogReader(std::string path, int fd, uint64_t file_size, Lsn start,
            Lsn limit)
      : path_(std::move(path)),
        fd_(fd),
        file_size_(file_size),
        pos_(start),
        limit_(limit) {}

  /// Next CRC-verified frame payload, not decoded; it stays valid until
  /// the next call.
  bool NextFrame(Slice* payload, Lsn* lsn);

  /// Makes file bytes [pos_, pos_ + n) resident in the window (pos_ + n
  /// must not pass file_size_). False, with status_ set, on a read error.
  bool Fill(size_t n);

  /// Window bytes at file offset `off` (resident per the last Fill).
  const char* At(uint64_t off) const {
    return window_.data() + (off - window_off_);
  }

  std::string path_;
  int fd_;              ///< -1 for a missing file.
  uint64_t file_size_;  ///< Fixed at Open: later appends are not read.
  std::string window_;  ///< Holds file bytes [window_off_, +window_len_).
  uint64_t window_off_ = 0;
  size_t window_len_ = 0;
  Lsn pos_;
  Lsn limit_;
  Status status_;
};

}  // namespace cwdb

#endif  // CWDB_WAL_SYSTEM_LOG_H_
