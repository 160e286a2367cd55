// cwdb_perfbench: the repository benchmark (see perfbench/README.md).
//
// One run drives three phases through the public Database API and prints
// every metric by name with its unit, then one JSON summary line:
//
//   table2     the paper's Table 2: one TPC-B client pinned to CPU 0, the
//              eight protection schemes open at once, one transaction per
//              scheme per round; ops/s per scheme.
//   commit     one-operation TPC-B transactions from one client thread per
//              CPU, each commit forcing the log, run in short bursts
//              between Table 2 rounds; txn/s and exact latency quantiles
//              from Begin to Commit return.
//   lifecycle  Data CW w/ReadLog over a long TPC-B history: checkpoint,
//              audit and in-place parity repairs, then clean reopens,
//              crash restarts and delete-transaction recoveries spread
//              over the measured time.
//
// The workload (--workload) sets the share of balance inquiries in every
// phase. The benchmark draws each TPC-B operation itself, exactly as
// TpcbWorkload::DoOperation does, so a traced run (--trace 1) can wrap each
// engine call in a span. Spans stay in memory and are written to --spans
// at exit; the per-layer metrics are computed from them.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "faultinject/fault_injector.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) throw BenchError(what + ": " + s.ToString());
}

template <typename T>
T Require(Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Metrics, correctness gates and operation counts.

class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// End-to-end metric: printed by the untraced run only.
  void EndToEnd(const std::string& name, double value, const char* unit,
                const std::string& note = "") {
    if (!traced_) Add(name, value, unit, note);
  }
  /// Per-layer metric: printed by the traced run only.
  void Layer(const std::string& name, double value, const char* unit,
             const std::string& note = "") {
    if (traced_) Add(name, value, unit, note);
  }

  void Gate(bool ok, const std::string& what) {
    std::fprintf(stderr, "gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) correct_ = false;
  }

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  bool correct() const { return correct_ && failed.load() == 0; }

  void PrintJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct() ? "true" : "false",
                std::max<uint64_t>(attempted.load(), 1), failed.load());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };

  void Add(const std::string& name, double value, const char* unit,
           const std::string& note) {
    if (!std::isfinite(value)) {
      Gate(false, "metric " + name + " is not a finite number");
      value = 0;
    }
    std::printf("%-36s %16.6f %-8s %s\n", name.c_str(), value, unit,
                note.c_str());
    metrics_.push_back({name, value, unit});
  }

  bool traced_;
  bool correct_ = true;
  std::vector<Entry> metrics_;
};

/// Exact nearest-rank quantile (q in (0, 1]) of `v`, which it sorts.
template <typename T>
double Quantile(std::vector<T>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Spans.

enum SpanName : uint8_t {
  kTxnSpan,
  kOpSpan,
  kBeginSpan,
  kReadFieldSpan,
  kUpdateSpan,
  kInsertSpan,
  kCommitSpan,
  kCheckpointSpan,
  kAuditSpan,
  kReopenSpan,
  kRestartSpan,
  kRepairSpan,
  kDeleteTxnSpan,
  kSpanNameCount
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "workload.txn",    "workload.op",      "txn.begin",
    "txn.read_field",  "txn.update",       "txn.insert",
    "txn.commit",      "ckpt.checkpoint",  "protect.audit",
    "core.reopen",     "recovery.restart", "protect.repair",
    "recovery.delete_txn"};

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t txn;  ///< Spans of one transaction share this id.
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  ///< Index into the same SpanLog, or kNoParent.
  uint8_t name;
  uint8_t tag;  ///< Which database the span ran against (see TagName).
};

/// One thread's spans, in memory until the run ends.
class SpanLog {
 public:
  uint32_t Begin(SpanName name, uint64_t txn, uint32_t parent, uint8_t tag) {
    spans_.push_back(Span{txn, NowNs(), 0, parent, name, tag});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) { spans_[id].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Where a traced call's span goes: log, transaction id, parent span, tag.
struct TraceCtx {
  SpanLog* log = nullptr;
  uint64_t txn = 0;
  uint32_t parent = kNoParent;
  uint8_t tag = 0;
};

/// Runs `f`, recording it as span `name` under `ctx` when kTraced.
template <bool kTraced, typename F>
auto Traced(const TraceCtx& ctx, SpanName name, F&& f) {
  if constexpr (kTraced) {
    uint32_t id = ctx.log->Begin(name, ctx.txn, ctx.parent, ctx.tag);
    auto r = f();
    ctx.log->End(id);
    return r;
  } else {
    return f();
  }
}

// ---------------------------------------------------------------------------
// Table 2 rows and the databases behind every phase.

struct SchemeRow {
  const char* key;
  ProtectionScheme scheme;
  uint32_t region_size;
};

constexpr SchemeRow kSchemes[] = {
    {"none", ProtectionScheme::kNone, 512},
    {"data_cw", ProtectionScheme::kDataCodeword, 512},
    {"precheck_64", ProtectionScheme::kReadPrecheck, 64},
    {"precheck_512", ProtectionScheme::kReadPrecheck, 512},
    {"precheck_8k", ProtectionScheme::kReadPrecheck, 8192},
    {"readlog", ProtectionScheme::kReadLog, 512},
    {"cw_readlog", ProtectionScheme::kCodewordReadLog, 512},
    {"mprotect", ProtectionScheme::kHardware, 512},
};
constexpr size_t kSchemeCount = std::size(kSchemes);
constexpr uint8_t kCommitTag = kSchemeCount;
constexpr uint8_t kLifecycleTag = kSchemeCount + 1;

std::string TagName(uint8_t tag) {
  if (tag < kSchemeCount) return kSchemes[tag].key;
  return tag == kCommitTag ? "commit" : "lifecycle";
}

/// Run shape: table sizes and the phase budgets derived from --seconds.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool tiny = false;
  std::string dir;
  std::string spans_path;

  double read_fraction = 0;
  TpcbConfig tpcb;            ///< Table sizes shared by every phase.
  uint64_t history_ops = 300000;  ///< Lifecycle history built at set-up.
  uint64_t lifecycle_ops = 5000;  ///< Lifecycle ops before the crash.
  uint64_t repairs = 32;          ///< Lifecycle lone-region repairs.
  uint64_t carrier_ops = 2000;    ///< Lifecycle ops after the wild writes.
};

/// A TPC-B client bound to one database: its tables, generator and counts.
struct Client {
  Database* db = nullptr;
  TpcbConfig cfg;
  TableId accounts = 0, tellers = 0, branches = 0, history = 0;
  Random rng{1};
  uint64_t ops = 0;      ///< Operations committed.
  uint64_t updates = 0;  ///< Committed operations that were not inquiries.
  uint64_t txn_seq = 0;  ///< Span transaction ids.
  uint64_t commit_ns = 0;  ///< Time spent in Commit (log forces).

  void Bind(Database* d, const TpcbWorkload& w) {
    db = d;
    accounts = w.accounts();
    tellers = w.tellers();
    branches = w.branches();
    history = w.history();
  }
};

/// One TPC-B operation, drawn exactly as TpcbWorkload::DoOperation draws it.
struct TpcbOp {
  int64_t delta;
  uint64_t account, teller, branch;
  bool inquiry;
};

TpcbOp DrawOp(const TpcbConfig& cfg, Random* rng) {
  TpcbOp op;
  op.delta = static_cast<int64_t>(rng->Uniform(1999999)) - 999999;
  op.account = rng->Uniform(cfg.accounts);
  op.teller = rng->Uniform(cfg.tellers);
  op.branch = op.teller % cfg.branches;
  op.inquiry = cfg.read_fraction > 0.0 &&
               rng->Uniform(1000000) <
                   static_cast<uint64_t>(cfg.read_fraction * 1000000);
  return op;
}

template <bool kTraced>
Status UpdateBalance(Client& c, Transaction* txn, TableId table,
                     uint64_t slot, int64_t delta, const TraceCtx& ctx) {
  int64_t balance = 0;
  const uint32_t s = static_cast<uint32_t>(slot);
  CWDB_RETURN_IF_ERROR(Traced<kTraced>(ctx, kReadFieldSpan, [&] {
    return c.db->ReadField(txn, table, s, TpcbLayout::kBalanceOff, 8,
                           &balance);
  }));
  balance += delta;
  return Traced<kTraced>(ctx, kUpdateSpan, [&] {
    return c.db->Update(txn, table, s, TpcbLayout::kBalanceOff,
                        Slice(reinterpret_cast<const char*>(&balance), 8));
  });
}

/// Draws and executes one operation inside `txn` (an "op" span when
/// traced; its self time is the generator's cost).
template <bool kTraced>
Status RunOp(Client& c, Transaction* txn, const TraceCtx& ctx,
             bool* inquiry) {
  TraceCtx child = ctx;
  if constexpr (kTraced) child.parent = ctx.log->Begin(kOpSpan, ctx.txn,
                                                       ctx.parent, ctx.tag);
  const TpcbOp op = DrawOp(c.cfg, &c.rng);
  *inquiry = op.inquiry;
  Status s;
  if (op.inquiry) {
    int64_t balance = 0;
    s = Traced<kTraced>(child, kReadFieldSpan, [&] {
      return c.db->ReadField(txn, c.accounts,
                             static_cast<uint32_t>(op.account),
                             TpcbLayout::kBalanceOff, 8, &balance);
    });
  } else {
    s = UpdateBalance<kTraced>(c, txn, c.accounts, op.account, op.delta,
                               child);
    if (s.ok()) {
      s = UpdateBalance<kTraced>(c, txn, c.tellers, op.teller, op.delta,
                                 child);
    }
    if (s.ok()) {
      s = UpdateBalance<kTraced>(c, txn, c.branches, op.branch, op.delta,
                                 child);
    }
    if (s.ok()) {
      std::string hist(c.cfg.record_size, '\0');
      std::memcpy(hist.data() + TpcbLayout::kHistAccountOff, &op.account, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistTellerOff, &op.teller, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistBranchOff, &op.branch, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistDeltaOff, &op.delta, 8);
      s = Traced<kTraced>(child, kInsertSpan, [&] {
        return c.db->Insert(txn, c.history, hist).status();
      });
    }
  }
  if constexpr (kTraced) ctx.log->End(child.parent);
  return s;
}

/// Runs `txns` transactions of cfg.ops_per_txn operations each, single
/// threaded (Table 2 and the lifecycle). Any failure is fatal: these
/// workloads have no contention, so no operation may fail.
template <bool kTraced>
void RunTxns(Client& c, uint64_t txns, Report* report, SpanLog* log,
             uint8_t tag) {
  for (uint64_t t = 0; t < txns; ++t) {
    TraceCtx ctx{log, ++c.txn_seq, kNoParent, tag};
    if constexpr (kTraced) ctx.parent = log->Begin(kTxnSpan, ctx.txn,
                                                   kNoParent, tag);
    Transaction* txn = Require(
        Traced<kTraced>(ctx, kBeginSpan, [&] { return c.db->Begin(); }),
        "begin");
    uint64_t updates = 0;
    for (uint32_t i = 0; i < c.cfg.ops_per_txn; ++i) {
      bool inquiry = false;
      report->attempted.fetch_add(1, std::memory_order_relaxed);
      Status s = RunOp<kTraced>(c, txn, ctx, &inquiry);
      if (!s.ok()) {
        report->failed.fetch_add(1);
        throw BenchError("TPC-B operation: " + s.ToString());
      }
      if (!inquiry) ++updates;
    }
    const uint64_t commit_t0 = NowNs();
    Require(Traced<kTraced>(ctx, kCommitSpan,
                            [&] { return c.db->Commit(txn); }),
            "commit");
    c.commit_ns += NowNs() - commit_t0;
    if constexpr (kTraced) log->End(ctx.parent);
    c.ops += c.cfg.ops_per_txn;
    c.updates += updates;
  }
}

/// Removes a database directory tree on every exit path.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
    if (ec) throw BenchError("mkdir " + path_ + ": " + ec.message());
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DatabaseOptions BaseOptions(const std::string& path, const TpcbConfig& cfg) {
  DatabaseOptions opts;
  opts.path = path;
  opts.page_size = 8192;
  opts.arena_size =
      (cfg.MinArenaSize(opts.page_size) + (8u << 20) + 8191) & ~uint64_t{8191};
  return opts;
}

/// Opens a fresh database and loads the TPC-B tables into it.
std::unique_ptr<Database> OpenAndLoad(const DatabaseOptions& opts,
                                      Client* client) {
  auto db = Require(Database::Open(opts), "open " + opts.path);
  TpcbWorkload loader(db.get(), client->cfg);
  Require(loader.Setup(), "load " + opts.path);
  client->Bind(db.get(), loader);
  return db;
}

void GateConsistent(Report* report, Database* db, const TpcbConfig& cfg,
                    const std::string& what) {
  TpcbWorkload check(db, cfg);
  Status s = check.Attach();
  if (s.ok()) s = check.CheckConsistency();
  report->Gate(s.ok(), "TPC-B consistency: " + what +
                           (s.ok() ? "" : " (" + s.ToString() + ")"));
}

class CpuPin {
 public:
  CpuPin() { sched_getaffinity(0, sizeof(saved_), &saved_); }
  void PinTo(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::fprintf(stderr, "note: could not pin to cpu %d\n", cpu);
    }
  }
  void Restore() { sched_setaffinity(0, sizeof(saved_), &saved_); }

 private:
  cpu_set_t saved_{};
};

/// Everything the phases share: configuration, report, spans, timings.
struct Run {
  Config cfg;
  Report report;
  std::vector<std::unique_ptr<SpanLog>> logs;
  uint64_t setup_ns = 0;

  explicit Run(const Config& c) : cfg(c), report(c.traced) {}

  SpanLog* NewLog() {
    logs.push_back(std::make_unique<SpanLog>());
    return logs.back().get();
  }
};

// ---------------------------------------------------------------------------
// Table 2 and durable commits, interleaved.
//
// The cores of the host this benchmark was built on are shared: its speed
// drifts by up to 2x over spells of one to several seconds. So the Table 2
// rounds and the commit bursts alternate over the whole measured time, and
// every figure is a robust statistic of many short samples; a slow spell
// then moves few of them.

struct SchemeDb {
  const SchemeRow* row = nullptr;
  std::unique_ptr<ScopedDir> dir;
  std::unique_ptr<Database> db;
  Client client;
  std::vector<double> txn_rates;  ///< Untraced transactions, ops/s.
  DatabaseStats before;
  uint64_t ops_before = 0;
  // Traced run: the traced and untraced transactions of the tracing rounds.
  uint64_t traced_ops = 0, traced_ns = 0, plain_ops = 0, plain_ns = 0;
};

/// Runs one Table 2 transaction and returns its operation time. The log
/// force of its Commit is left out: that waits on the disk, not on the
/// scheme.
template <bool kTraced>
uint64_t Table2Txn(SchemeDb& s, Report* report, SpanLog* log, uint8_t tag) {
  const uint64_t t0 = NowNs();
  const uint64_t commit0 = s.client.commit_ns;
  RunTxns<kTraced>(s.client, 1, report, log, tag);
  return NowNs() - t0 - (s.client.commit_ns - commit0);
}

struct CommitWorker {
  Client client;
  SpanLog* log = nullptr;
  std::vector<uint64_t> burst_latency_ns;  ///< This burst's transactions.
  uint64_t txns = 0;                       ///< Committed over all bursts.
  uint64_t retries = 0;
  uint64_t end_ns = 0;  ///< When this burst's last transaction returned.
  std::string error;
};

/// One transaction (Begin, one operation, Commit), retried whole after a
/// deadlock with the same operation. Returns its latency from the first
/// Begin to the Commit return.
template <bool kTraced>
uint64_t OneTxn(CommitWorker& w, Report* report) {
  Client& c = w.client;
  const Random saved = c.rng;
  const uint64_t t0 = NowNs();
  while (true) {
    TraceCtx ctx{w.log, ++c.txn_seq, kNoParent, kCommitTag};
    if constexpr (kTraced) ctx.parent = w.log->Begin(kTxnSpan, ctx.txn,
                                                     kNoParent, kCommitTag);
    Transaction* txn = Require(
        Traced<kTraced>(ctx, kBeginSpan, [&] { return c.db->Begin(); }),
        "begin");
    bool inquiry = false;
    report->attempted.fetch_add(1, std::memory_order_relaxed);
    Status s = RunOp<kTraced>(c, txn, ctx, &inquiry);
    if (s.ok()) {
      s = Traced<kTraced>(ctx, kCommitSpan, [&] { return c.db->Commit(txn); });
    } else {
      (void)c.db->Abort(txn);
    }
    if constexpr (kTraced) w.log->End(ctx.parent);
    if (s.ok()) {
      ++c.ops;
      if (!inquiry) ++c.updates;
      return NowNs() - t0;
    }
    if (!s.IsDeadlock()) {
      report->failed.fetch_add(1);
      throw BenchError("one-op transaction: " + s.ToString());
    }
    report->attempted.fetch_sub(1, std::memory_order_relaxed);
    ++w.retries;
    c.rng = saved;
  }
}

/// One client thread per CPU running durable one-operation transactions
/// in bursts, against Data CW (512 B regions) with every other option at
/// the engine default (one shard per CPU, flight recorder on), on a
/// disk-backed directory: every Commit forces the log with fdatasync.
class CommitBursts {
 public:
  CommitBursts(Run* run, double total_seconds)
      : run_(run), dir_(run->cfg.dir + "/commit") {
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    const uint64_t warm_txns = run->cfg.tiny ? 20 : 200;
    cfg_ = run->cfg.tpcb;
    cfg_.ops_per_txn = 1;
    // 200k durable commits/s is far beyond one fdatasync per group-commit
    // round; the clients also stop before the History table fills.
    cap_ = static_cast<uint64_t>(total_seconds * 200000.0) + 1000;
    cfg_.history_capacity = warm_txns * threads + cap_ + 1000;
    DatabaseOptions opts = BaseOptions(dir_.path(), cfg_);
    opts.protection.scheme = ProtectionScheme::kDataCodeword;
    opts.protection.region_size = 512;
    Client loader;
    loader.cfg = cfg_;
    db_ = OpenAndLoad(opts, &loader);
    workers_.resize(threads);
    for (unsigned i = 0; i < threads; ++i) {
      workers_[i].client = loader;
      workers_[i].client.rng = Random(run->cfg.seed * 7919 + i + 1);
      if (run->cfg.traced) workers_[i].log = run->NewLog();
      for (uint64_t t = 0; t < warm_txns; ++t) {
        OneTxn<false>(workers_[i], &run->report);
      }
    }
    before_ = db_->GetStats();
    for (CommitWorker& w : workers_) {
      threads_.emplace_back([this, &w] { Loop(&w); });
    }
  }

  ~CommitBursts() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  CommitBursts(const CommitBursts&) = delete;
  CommitBursts& operator=(const CommitBursts&) = delete;

  /// Runs every client for `seconds` and records the burst's rate and exact
  /// latency quantiles.
  void Burst(double seconds) {
    const uint64_t start = NowNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      deadline_ = start + static_cast<uint64_t>(seconds * 1e9);
      running_ = static_cast<unsigned>(workers_.size());
      ++burst_;
    }
    cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return running_ == 0; });
    }
    uint64_t end = start;
    std::vector<uint64_t> latency;
    for (CommitWorker& w : workers_) {
      if (!w.error.empty()) throw BenchError(w.error);
      end = std::max(end, w.end_ns);
      latency.insert(latency.end(), w.burst_latency_ns.begin(),
                     w.burst_latency_ns.end());
      w.burst_latency_ns.clear();
    }
    if (latency.empty()) return;  // The History table is full.
    rates_.push_back(static_cast<double>(latency.size()) /
                     Seconds(end - start));
    p50_us_.push_back(Quantile(&latency, 0.50) / 1e3);
    p99_us_.push_back(Quantile(&latency, 0.99) / 1e3);
    samples_ += latency.size();
  }

  void ReportMetrics() {
    Report& r = run_->report;
    char note[128];
    std::snprintf(note, sizeof(note),
                  "median of %zu bursts; %u clients, %" PRIu64 " samples",
                  rates_.size(), static_cast<unsigned>(workers_.size()),
                  samples_);
    r.EndToEnd("txn_s", Median(rates_), "txn/s", note);
    r.EndToEnd("txn_p50_us", Median(p50_us_), "us", note);
    // The tail of a durable commit is the disk's fdatasync tail, which on a
    // shared host moves by up to 2x from run to run: reported, not gated.
    r.Layer("txn_p99_us", Median(p99_us_), "us", note);
    uint64_t retries = 0;
    for (const CommitWorker& w : workers_) retries += w.retries;
    r.Layer("txn.deadlock_retries", static_cast<double>(retries), "count");
    const DatabaseStats after = db_->GetStats();
    const uint64_t flushes = after.log_flushes - before_.log_flushes;
    r.Layer("wal.commits_per_flush",
            static_cast<double>(after.commits - before_.commits) /
                static_cast<double>(std::max<uint64_t>(flushes, 1)),
            "count", "base = " + std::to_string(flushes) + " flushes");
    GateConsistent(&r, db_.get(), cfg_, "commit");
  }

 private:
  void Loop(CommitWorker* w) {
    uint64_t seen = 0;
    while (true) {
      uint64_t deadline = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || burst_ != seen; });
        if (stop_) return;
        seen = burst_;
        deadline = deadline_;
      }
      try {
        while (NowNs() < deadline &&
               claimed_.fetch_add(1, std::memory_order_relaxed) < cap_) {
          // The traced run traces every 32nd transaction.
          const uint64_t ns = w->log != nullptr && w->txns % 32 == 0
                                  ? OneTxn<true>(*w, &run_->report)
                                  : OneTxn<false>(*w, &run_->report);
          w->burst_latency_ns.push_back(ns);
          ++w->txns;
        }
      } catch (const std::exception& e) {
        w->error = e.what();
      }
      w->end_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --running_;
      }
      cv_.notify_all();
    }
  }

  Run* run_;
  ScopedDir dir_;
  TpcbConfig cfg_;
  uint64_t cap_ = 0;
  std::unique_ptr<Database> db_;
  std::vector<CommitWorker> workers_;
  DatabaseStats before_;
  std::atomic<uint64_t> claimed_{0};
  std::vector<double> rates_, p50_us_, p99_us_;
  uint64_t samples_ = 0;

  std::mutex mu_;  // Guards the four fields below.
  std::condition_variable cv_;
  uint64_t burst_ = 0;
  uint64_t deadline_ = 0;
  unsigned running_ = 0;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// The restart and recovery lifecycle.

/// XORs 8 bytes at `off` with a random nonzero mask, bypassing the update
/// interface. Distinct masks matter: the XOR codeword cannot see two equal
/// deltas that land in one region.
void WildWrite(Database* db, DbPtr off, Random* rng) {
  uint64_t v = 0;
  std::memcpy(&v, db->image()->At(off), 8);
  v ^= rng->Next() | 1;
  FaultInjector inject(db, 0);
  inject.WildWriteAt(off, Slice(reinterpret_cast<const char*>(&v), 8));
}

/// Data CW w/ReadLog (512 B regions, parity groups of 64) over a long
/// TPC-B history, driven by one client. Set-up builds the history; then a
/// certified checkpoint, a full audit and a series of lone-region repairs
/// run once, untimed end to end. The timed steps (a clean reopen, a crash
/// restart and a delete-transaction recovery) run kRepeats times each,
/// spread over the measured time, and the fastest of each counts: a slow
/// spell of the host only ever lengthens a step.
class Lifecycle {
 public:
  static constexpr int kRepeats = 3;
  static constexpr int kSteps = 3 * kRepeats;

  explicit Lifecycle(Run* run)
      : run_(run),
        report_(run->report),
        log_(run->cfg.traced ? run->NewLog() : nullptr),
        dir_(run->cfg.dir + "/lifecycle"),
        pick_(run->cfg.seed * 104729 + 3) {
    const Config& cfg = run->cfg;
    cfg_ = cfg.tpcb;
    cfg_.ops_per_txn = 500;
    cfg_.history_capacity = cfg.history_ops +
                            kRepeats * (cfg.lifecycle_ops + cfg.carrier_ops) +
                            10 * cfg_.ops_per_txn;
    opts_ = BaseOptions(dir_.path(), cfg_);
    opts_.protection.scheme = ProtectionScheme::kReadLog;
    opts_.protection.region_size = kRegion;
    opts_.protection.parity_group_regions = 64;

    c_.cfg = cfg_;
    c_.rng = Random(cfg.seed * 31337 + 17);
    db_ = OpenAndLoad(opts_, &c_);
    RunTxns<false>(c_, TxnsFor(cfg.history_ops), &report_, nullptr, 0);
  }

  /// Untimed end to end: gates and the per-layer numbers of the
  /// checkpoint, the audit and the repairs.
  void Prepare() {
    GateConsistent(&report_, db_.get(), cfg_, "lifecycle history");
    std::error_code ec;
    const double log_bytes = static_cast<double>(
        std::filesystem::file_size(DbFiles(dir_.path()).SystemLog(), ec));
    report_.Layer("wal.log_file_mib", ec ? 0.0 : log_bytes / (1 << 20), "MiB",
                  "after the history build");
    report_.Layer("protect.space_overhead_mib",
                  static_cast<double>(
                      db_->GetStats().protection_space_overhead_bytes) /
                      (1 << 20),
                  "MiB", "readlog, 512 B regions, parity groups of 64");

    const uint64_t pages0 = PagesWritten();
    const uint64_t ckpt_ns = Timed(kCheckpointSpan, [&] {
      Require(db_->Checkpoint(), "checkpoint");
    });
    report_.Layer("ckpt.checkpoint_ms", ckpt_ns / 1e6, "ms", "certified");
    report_.Layer("ckpt.pages_written",
                  static_cast<double>(PagesWritten() - pages0), "count");
    bool clean = false;
    const uint64_t audit_ns = Timed(kAuditSpan, [&] {
      clean = Require(db_->Audit(), "audit").clean;
    });
    report_.Gate(clean, "lifecycle audit after checkpoint is clean");
    report_.Layer("protect.audit_ms", audit_ns / 1e6, "ms", "full audit");
    Repairs();
  }

  /// Runs the next timed step of the rotation reopen, restart, recovery.
  void Step() {
    switch (steps_++ % 3) {
      case 0:
        Reopen();
        break;
      case 1:
        Restart();
        break;
      default:
        CorruptRecover();
        break;
    }
  }
  int steps() const { return steps_; }

  void ReportMetrics() {
    report_.EndToEnd("reopen_s", Fastest(reopen_ns_), "s", Note(reopen_ns_));
    report_.EndToEnd("recover_s", Fastest(recover_ns_), "s",
                     Note(recover_ns_));
    report_.EndToEnd("corrupt_recover_s", Fastest(corrupt_ns_), "s",
                     Note(corrupt_ns_));
    const RecoveryReport& rr = db_->last_recovery_report();
    report_.Layer("recovery.redo_records_applied",
                  static_cast<double>(rr.redo_records_applied), "count",
                  "last delete-transaction recovery");
    report_.Layer("recovery.redo_records_skipped",
                  static_cast<double>(rr.redo_records_skipped), "count",
                  "last delete-transaction recovery");
    report_.Layer("recovery.deleted_txns",
                  static_cast<double>(rr.deleted_txns.size()), "count",
                  "last delete-transaction recovery");
  }

 private:
  static constexpr uint64_t kRegion = 512;

  uint64_t TxnsFor(uint64_t ops) const {
    return (ops + cfg_.ops_per_txn - 1) / cfg_.ops_per_txn;
  }

  uint64_t PagesWritten() {
    return db_->metrics()->Capture().CounterValue("ckpt.pages_written");
  }

  /// Times `f` in ns, recording it as a span on a traced run.
  template <typename F>
  uint64_t Timed(SpanName name, F&& f) {
    const uint64_t t0 = NowNs();
    const uint32_t id =
        log_ != nullptr ? log_->Begin(name, 0, kNoParent, kLifecycleTag) : 0;
    f();
    if (log_ != nullptr) log_->End(id);
    report_.attempted.fetch_add(1, std::memory_order_relaxed);
    return NowNs() - t0;
  }

  static double Fastest(const std::vector<uint64_t>& ns) {
    return ns.empty() ? 0 : Seconds(*std::min_element(ns.begin(), ns.end()));
  }

  static std::string Note(const std::vector<uint64_t>& ns) {
    std::string note = "fastest of";
    for (uint64_t v : ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.3f", Seconds(v));
      note += buf;
    }
    return note;
  }

  /// Lone-region wild writes into the account table, each repaired in
  /// place from the parity tier and followed by a full audit.
  void Repairs() {
    const uint64_t n = run_->cfg.repairs;
    std::vector<uint64_t> repair_ns;
    uint64_t repaired = 0;
    bool audits_clean = true;
    for (uint64_t i = 0; i < n; ++i) {
      // A balance that straddles two regions would corrupt two members of
      // one parity group, which is past the repair budget; draw another.
      DbPtr off = 0;
      do {
        const uint32_t slot =
            static_cast<uint32_t>(pick_.Uniform(cfg_.accounts));
        off = db_->image()->RecordOff(c_.accounts, slot) +
              TpcbLayout::kBalanceOff;
      } while ((off & (kRegion - 1)) + 8 > kRegion);
      WildWrite(db_.get(), off, &pick_);
      const std::vector<CorruptRange> ranges = {
          CorruptRange{off & ~(kRegion - 1), kRegion}};
      bool ok = false;
      repair_ns.push_back(Timed(kRepairSpan, [&] {
        ok = db_->TryRepairRanges(ranges, IncidentSource::kAudit);
      }));
      if (ok) ++repaired;
      std::vector<CorruptRange> corrupt;
      Status s = db_->protection()->AuditAll(&corrupt);
      if (!s.ok() || !corrupt.empty()) audits_clean = false;
    }
    report_.Gate(repaired == n && audits_clean,
                 "lifecycle: " + std::to_string(repaired) + "/" +
                     std::to_string(n) +
                     " lone-region repairs, audit clean after each");
    const std::string samples = std::to_string(n) + " samples";
    report_.Layer("protect.repair_us.p50", Quantile(&repair_ns, 0.50) / 1e3,
                  "us", samples);
    report_.Layer("protect.repair_us.p90", Quantile(&repair_ns, 0.90) / 1e3,
                  "us", samples);
    report_.Layer("protect.repaired_frac",
                  static_cast<double>(repaired) /
                      static_cast<double>(std::max<uint64_t>(n, 1)),
                  "ratio", "base = " + std::to_string(n) + " regions attempted");
  }

  /// A clean Close, then a timed Open.
  void Reopen() {
    Require(db_->Close(), "close");
    db_.reset();
    reopen_ns_.push_back(Timed(kReopenSpan, [&] {
      db_ = Require(Database::Open(opts_), "reopen");
    }));
    c_.db = db_.get();
    GateConsistent(&report_, db_.get(), cfg_, "lifecycle after reopen");
  }

  /// More history, then a timed crash restart: every committed operation's
  /// History row must survive.
  void Restart() {
    RunTxns<false>(c_, TxnsFor(run_->cfg.lifecycle_ops), &report_, nullptr,
                   0);
    recover_ns_.push_back(Timed(kRestartSpan, [&] {
      Require(db_->CrashAndRecover(), "crash restart");
    }));
    const uint64_t rows = db_->CountRecords(c_.history);
    report_.Gate(rows == c_.updates,
                 "lifecycle durability: " + std::to_string(rows) +
                     " History rows after restart, " +
                     std::to_string(c_.updates) + " committed updates");
    GateConsistent(&report_, db_.get(), cfg_, "lifecycle after restart");
  }

  /// Wild writes to branch balances that the next operations will update
  /// (found by replaying the generator), so carrier transactions exist;
  /// an audit notes the corruption and a timed delete-transaction
  /// recovery removes the carriers.
  void CorruptRecover() {
    std::vector<uint64_t> targets;
    Random ahead = c_.rng;
    for (uint64_t k = 0;
         k < run_->cfg.carrier_ops && targets.size() < 4; ++k) {
      const TpcbOp op = DrawOp(cfg_, &ahead);
      if (!op.inquiry && std::find(targets.begin(), targets.end(),
                                   op.branch) == targets.end()) {
        targets.push_back(op.branch);
      }
    }
    for (uint64_t b : targets) {
      WildWrite(db_.get(),
                db_->image()->RecordOff(c_.branches,
                                        static_cast<uint32_t>(b)) +
                    TpcbLayout::kBalanceOff,
                &pick_);
    }
    RunTxns<false>(c_, TxnsFor(run_->cfg.carrier_ops), &report_, nullptr, 0);
    const AuditReport audit =
        Require(db_->Audit(), "audit after wild writes");
    report_.Gate(!targets.empty() && !audit.clean,
                 "lifecycle audit detects the branch wild writes");
    corrupt_ns_.push_back(Timed(kDeleteTxnSpan, [&] {
      Require(db_->CrashAndRecover(), "delete-transaction recovery");
    }));
    const size_t deleted = db_->last_recovery_report().deleted_txns.size();
    report_.Gate(deleted > 0, "delete-transaction recovery deleted " +
                                  std::to_string(deleted) +
                                  " carrier transactions");
    GateConsistent(&report_, db_.get(), cfg_,
                   "lifecycle after delete-transaction recovery");
    // The deleted transactions' History rows are gone; later durability
    // checks count from here.
    c_.updates = db_->CountRecords(c_.history);
  }

  Run* run_;
  Report& report_;
  SpanLog* log_;
  ScopedDir dir_;
  TpcbConfig cfg_;
  DatabaseOptions opts_;
  Client c_;
  Random pick_;
  std::unique_ptr<Database> db_;
  int steps_ = 0;
  std::vector<uint64_t> reopen_ns_, recover_ns_, corrupt_ns_;
};

// ---------------------------------------------------------------------------
// The whole run.

/// Sets up all three phases, then alternates Table 2 rounds, commit bursts
/// and lifecycle steps over the measured time.
void RunBenchmark(Run* run) {
  const Config& cfg = run->cfg;
  // Two thirds of the measured time go to Table 2, one third to commits;
  // the lifecycle steps come on top.
  constexpr double kTable2Stretch = 0.5, kBurst = 0.25;
  const double table2_seconds = cfg.seconds * 2 / 3;

  const uint64_t setup_t0 = NowNs();
  // Set up before the pin below, so the commit and lifecycle databases'
  // threads and the commit clients may use every CPU.
  CommitBursts commit(run, cfg.seconds / 3);
  Lifecycle lifecycle(run);
  const uint64_t setup_unpinned_ns = NowNs() - setup_t0;
  lifecycle.Prepare();

  // One Table 2 client on one CPU, as in the paper. The Table 2 databases'
  // own threads are created after the pin and inherit it.
  CpuPin pin;
  pin.PinTo(0);
  const uint64_t table2_t0 = NowNs();
  // History must hold the warm-up plus every timed insert. 400k inserts/s
  // is several times any rate this engine reaches; reaching the cap ends
  // the phase early (reported below) rather than failing inserts.
  TpcbConfig tcfg = cfg.tpcb;
  tcfg.ops_per_txn = 500;
  tcfg.history_capacity =
      static_cast<uint64_t>(table2_seconds / kSchemeCount * 400000.0) +
      20 * tcfg.ops_per_txn;
  std::vector<SchemeDb> dbs(kSchemeCount);
  for (size_t i = 0; i < kSchemeCount; ++i) {
    SchemeDb& s = dbs[i];
    s.row = &kSchemes[i];
    s.dir = std::make_unique<ScopedDir>(cfg.dir + "/table2_" + s.row->key);
    DatabaseOptions opts = BaseOptions(s.dir->path(), tcfg);
    // The paper's bare engine: one shard, no flight recorder (tracing,
    // history, SLOs and the watchdog are off by default).
    opts.shards = 1;
    opts.flight_recorder.enabled = false;
    opts.protection.scheme = s.row->scheme;
    opts.protection.region_size = s.row->region_size;
    s.client.cfg = tcfg;
    s.client.rng = Random(cfg.seed * 1000003 + i + 1);
    s.db = OpenAndLoad(opts, &s.client);
    RunTxns<false>(s.client, 2, &run->report, nullptr, 0);  // Warm-up.
    s.before = s.db->GetStats();
    s.ops_before = s.client.ops;
  }
  run->setup_ns = setup_unpinned_ns + (NowNs() - table2_t0);

  // Rounds of one transaction per scheme, so every scheme sees the same
  // machine. The traced run adds kTracedRounds rounds, evenly spaced, that
  // also run one traced transaction per scheme, ahead of or behind the
  // untraced one in turn. Few enough to keep the span file small; enough
  // for the per-scheme p99s.
  constexpr uint64_t kTracedRounds = 10;
  SpanLog* log = cfg.traced ? run->NewLog() : nullptr;
  const uint64_t start = NowNs();
  uint64_t table2_ns = 0, stretch_ns = 0, round = 0, traced_rounds = 0;
  bool history_full = false;
  while (Seconds(table2_ns) < table2_seconds || round < 3) {
    for (const SchemeDb& s : dbs) {
      if (s.client.updates + 2 * tcfg.ops_per_txn > tcfg.history_capacity) {
        history_full = true;
      }
    }
    if (history_full) break;
    const uint64_t round_t0 = NowNs();
    const bool trace_round =
        log != nullptr && traced_rounds < kTracedRounds &&
        Seconds(table2_ns) / table2_seconds >=
            (static_cast<double>(traced_rounds) + 0.5) / kTracedRounds;
    const bool traced_first = traced_rounds % 2 == 0;
    if (trace_round) ++traced_rounds;
    for (size_t i = 0; i < kSchemeCount; ++i) {
      SchemeDb& s = dbs[i];
      const uint8_t tag = static_cast<uint8_t>(i);
      auto traced = [&] {
        s.traced_ns += Table2Txn<true>(s, &run->report, log, tag);
        s.traced_ops += tcfg.ops_per_txn;
      };
      if (trace_round && traced_first) traced();
      const uint64_t ns = Table2Txn<false>(s, &run->report, nullptr, 0);
      s.txn_rates.push_back(tcfg.ops_per_txn / Seconds(ns));
      if (trace_round) {
        s.plain_ns += ns;
        s.plain_ops += tcfg.ops_per_txn;
        if (!traced_first) traced();
      }
    }
    ++round;
    const uint64_t round_ns = NowNs() - round_t0;
    table2_ns += round_ns;
    stretch_ns += round_ns;
    if (Seconds(stretch_ns) >= kTable2Stretch) {
      commit.Burst(kBurst);
      stretch_ns = 0;
      // Lifecycle steps at even spacing; a step opens databases, whose
      // threads must not inherit the pin.
      if (lifecycle.steps() < Lifecycle::kSteps &&
          Seconds(table2_ns) / table2_seconds >=
              (lifecycle.steps() + 0.5) / Lifecycle::kSteps) {
        pin.Restore();
        lifecycle.Step();
        pin.PinTo(0);
      }
    }
  }
  commit.Burst(kBurst);
  pin.Restore();
  while (lifecycle.steps() < Lifecycle::kSteps) lifecycle.Step();
  if (history_full) {
    std::fprintf(stderr,
                 "note: table2 history capacity reached after %" PRIu64
                 " rounds\n",
                 round);
  }
  std::fprintf(stderr, "measured: %" PRIu64 " rounds in %.2f s\n", round,
               Seconds(NowNs() - start));

  uint64_t traced_ops = 0, traced_ns = 0, plain_ops = 0, plain_ns = 0;
  for (SchemeDb& s : dbs) {
    const std::string key = s.row->key;
    const DatabaseStats after = s.db->GetStats();
    const double ops = static_cast<double>(s.client.ops - s.ops_before);
    // The rate a scheme sustains in its fastest twentieth of transactions:
    // a slow spell of the host slows transactions, it never speeds them up.
    run->report.EndToEnd(
        "ops_s." + key, Quantile(&s.txn_rates, 0.95), "ops/s",
        "95th percentile of " + std::to_string(s.txn_rates.size()) +
            " transactions, median " +
            std::to_string(static_cast<int64_t>(Median(s.txn_rates))));
    const ProtectionStats& p0 = s.before.protection;
    const ProtectionStats& p1 = after.protection;
    const ProtectionScheme scheme = s.row->scheme;
    if (scheme != ProtectionScheme::kNone &&
        scheme != ProtectionScheme::kHardware) {
      run->report.Layer("protect.folds_per_op." + key,
                        (p1.codeword_folds - p0.codeword_folds) / ops,
                        "count/op");
    }
    if (scheme == ProtectionScheme::kReadPrecheck) {
      run->report.Layer("protect.prechecks_per_op." + key,
                        (p1.prechecks - p0.prechecks) / ops, "count/op");
    }
    if (scheme == ProtectionScheme::kHardware) {
      run->report.Layer("protect.mprotect_calls_per_op." + key,
                        (p1.mprotect_calls - p0.mprotect_calls) / ops,
                        "count/op");
    }
    run->report.Layer(
        "wal.log_bytes_per_op." + key,
        (after.log_bytes_appended - s.before.log_bytes_appended) / ops,
        "B/op");
    GateConsistent(&run->report, s.db.get(), tcfg, "table2 " + key);
    traced_ops += s.traced_ops;
    traced_ns += s.traced_ns;
    plain_ops += s.plain_ops;
    plain_ns += s.plain_ns;
  }
  if (log != nullptr) {
    const double traced_rate = traced_ops / Seconds(traced_ns);
    const double plain_rate = plain_ops / Seconds(plain_ns);
    run->report.Layer("tracing.overhead_pct",
                      100.0 * (plain_rate - traced_rate) / plain_rate, "%",
                      "table2, traced vs untraced transactions");
  }
  commit.ReportMetrics();
  lifecycle.ReportMetrics();
}

// ---------------------------------------------------------------------------
// Per-layer numbers from the spans, and the span file.

void ReportSpans(Run* run) {
  // Durations by (span name, tag).
  std::vector<std::vector<uint64_t>> by_key(kSpanNameCount *
                                            (kLifecycleTag + 1));
  double op_self_ns = 0;
  uint64_t op_count = 0;
  for (const auto& log : run->logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      by_key[s.name * (kLifecycleTag + 1) + s.tag].push_back(dur);
      if (s.name == kOpSpan) {
        op_self_ns += static_cast<double>(dur - child_ns[i]);
        ++op_count;
      }
    }
  }
  auto samples = [&](SpanName name, uint8_t tag) {
    return &by_key[name * (kLifecycleTag + 1) + tag];
  };
  Report& r = run->report;
  for (uint8_t i = 0; i < kSchemeCount; ++i) {
    for (SpanName name : {kReadFieldSpan, kUpdateSpan}) {
      std::vector<uint64_t>* v = samples(name, i);
      const std::string base = std::string(kSpanNames[name]) + "_ns.";
      const std::string note = std::to_string(v->size()) + " samples";
      r.Layer(base + "p50." + kSchemes[i].key, Quantile(v, 0.50), "ns", note);
      r.Layer(base + "p99." + kSchemes[i].key, Quantile(v, 0.99), "ns", note);
    }
  }
  for (SpanName name : {kBeginSpan, kInsertSpan, kCommitSpan}) {
    std::vector<uint64_t>* v = samples(name, kCommitTag);
    const std::string base = std::string(kSpanNames[name]) + "_ns.";
    const std::string note = std::to_string(v->size()) + " samples, commit";
    r.Layer(base + "p50", Quantile(v, 0.50), "ns", note);
    r.Layer(base + "p99", Quantile(v, 0.99), "ns", note);
  }
  r.Layer("workload.self_ns_per_op",
          op_count > 0 ? op_self_ns / static_cast<double>(op_count) : 0, "ns",
          std::to_string(op_count) + " traced operations");
}

void WriteSpans(const Run& run) {
  std::FILE* f = std::fopen(run.cfg.spans_path.c_str(), "w");
  if (f == nullptr) throw BenchError("cannot write " + run.cfg.spans_path);
  std::fprintf(f, "id\tparent\ttxn\tname\ttag\tstart_ns\tend_ns\n");
  uint64_t base = 0;
  for (size_t l = 0; l < run.logs.size(); ++l) {
    const std::vector<Span>& spans = run.logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%" PRIu64 "\t", base + i);
      if (s.parent == kNoParent) {
        std::fprintf(f, "-\t");
      } else {
        std::fprintf(f, "%" PRIu64 "\t", base + s.parent);
      }
      std::fprintf(f, "%zu.%" PRIu64 "\t%s\t%s\t%" PRIu64 "\t%" PRIu64 "\n",
                   l, s.txn, kSpanNames[s.name], TagName(s.tag).c_str(),
                   s.start_ns, s.end_ns);
    }
    base += spans.size();
  }
  if (std::fclose(f) != 0) throw BenchError("write " + run.cfg.spans_path);
  std::fprintf(stderr, "spans: %" PRIu64 " written to %s\n", base,
               run.cfg.spans_path.c_str());
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw BenchError("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      cfg->workload = value();
    } else if (a == "--seed") {
      cfg->seed = std::stoull(value());
    } else if (a == "--seconds") {
      cfg->seconds = std::stod(value());
    } else if (a == "--trace") {
      cfg->traced = value() == "1";
    } else if (a == "--dir") {
      cfg->dir = value();
    } else if (a == "--spans") {
      cfg->spans_path = value();
    } else if (a == "--tiny") {
      cfg->tiny = true;
    } else {
      return false;
    }
  }
  return !cfg->dir.empty() && cfg->seconds > 0 &&
         (!cfg->traced || !cfg->spans_path.empty());
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: cwdb_perfbench --workload paper_update|paper_read90 "
                 "--seed N --seconds S --trace 0|1 --dir DIR [--spans FILE] "
                 "[--tiny]\n");
    return 2;
  }
  if (cfg.workload == "paper_update") {
    cfg.read_fraction = 0.0;
  } else if (cfg.workload == "paper_read90") {
    cfg.read_fraction = 0.9;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  // Paper §5.2 table sizes: 100k accounts, 10k tellers, 1k branches.
  cfg.tpcb.accounts = cfg.tiny ? 2000 : 100000;
  cfg.tpcb.tellers = cfg.tiny ? 200 : 10000;
  cfg.tpcb.branches = cfg.tiny ? 20 : 1000;
  cfg.tpcb.record_size = 100;
  cfg.tpcb.read_fraction = cfg.read_fraction;
  if (cfg.tiny) {
    cfg.history_ops = 5000;
    cfg.lifecycle_ops = 1000;
    cfg.repairs = 8;
    cfg.carrier_ops = 1000;
  }
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.traced ? 1 : 0);

  Run run(cfg);
  int rc = 0;
  try {
    RunBenchmark(&run);
    run.report.EndToEnd("setup_s", Seconds(run.setup_ns), "s",
                        "open and load every database, lifecycle history");
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    run.report.EndToEnd("peak_rss_mib", ru.ru_maxrss / 1024.0, "MiB");
    if (cfg.traced) {
      ReportSpans(&run);
      WriteSpans(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    run.report.Gate(false, "run completed");
    rc = 1;
  }
  if (!run.report.correct()) rc = 1;
  run.report.PrintJson();
  return rc;
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) { return cwdb::Main(argc, argv); }
