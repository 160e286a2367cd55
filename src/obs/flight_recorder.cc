#include "obs/flight_recorder.h"

#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/crc32.h"

namespace cwdb {

using namespace blackbox;

namespace {

/// Process-global fatal-signal registration. Leaked (like the crash-point
/// registry) so the state survives into _exit and handler paths that run
/// during static destruction.
struct FatalState {
  static constexpr int kSignalCount = 5;
  static constexpr int kSignals[kSignalCount] = {SIGSEGV, SIGBUS, SIGABRT,
                                                 SIGILL, SIGFPE};
  std::atomic<FlightRecorder*> recorder{nullptr};
  struct sigaction old_actions[kSignalCount] = {};
  bool installed = false;
  std::atomic<int> entered{0};
  void* altstack = nullptr;
  std::mutex mu;  ///< Guards install/uninstall (never taken in the handler).
};

FatalState& Fatal() {
  static FatalState* s = new FatalState;
  return *s;
}

uint64_t RawMonoNs() {
  struct timespec ts;
  if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t RawWallNs() {
  struct timespec ts;
  if (::clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

/// The installed sigaction handler. Restores the prior dispositions first
/// (so a fault inside the handler, or the re-raise below, reaches them),
/// writes the crash record once, then lets the signal re-raise: fault
/// signals (SEGV/BUS/ILL/FPE) re-execute the faulting instruction on
/// return and are re-delivered under the restored disposition; SIGABRT is
/// re-raised by hand. Everything called here is async-signal-safe —
/// sigaction, raise, clock_gettime, lseek, write (via
/// backtrace_symbols_fd), and plain/atomic stores into the mapping.
void FlightRecorderSignalTrampoline(int sig, void* info, void* /*ucontext*/) {
  FatalState& st = Fatal();
  for (int i = 0; i < FatalState::kSignalCount; ++i) {
    ::sigaction(FatalState::kSignals[i], &st.old_actions[i], nullptr);
  }
  if (st.entered.fetch_add(1, std::memory_order_acq_rel) == 0) {
    FlightRecorder* fr = st.recorder.load(std::memory_order_acquire);
    if (fr != nullptr) {
      siginfo_t* si = static_cast<siginfo_t*>(info);
      fr->WriteCrashRecord(sig, si != nullptr ? si->si_code : 0,
                           si != nullptr ? si->si_addr : nullptr);
    }
  }
  if (sig == SIGABRT) ::raise(SIGABRT);
}

namespace {

extern "C" void CwdbFatalSigaction(int sig, siginfo_t* si, void* uc) {
  FlightRecorderSignalTrampoline(sig, si, uc);
}

}  // namespace

FlightRecorder::FlightRecorder(std::string path, int fd, uint8_t* map)
    : path_(std::move(path)), fd_(fd), map_(map) {}

FlightRecorder::~FlightRecorder() {
  UninstallFatalHandler();
  if (map_ != nullptr) ::munmap(map_, kTotalBytes);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FlightRecorder>> FlightRecorder::Create(
    const std::string& path, const FlightRecorderInfo& info) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(kTotalBytes)) != 0) {
    Status s =
        Status::IoError("ftruncate " + path + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  void* map = ::mmap(nullptr, kTotalBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Status s = Status::IoError("mmap " + path + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  std::memset(map, 0, kTotalBytes);
  uint8_t* base = static_cast<uint8_t*>(map);

  char header[blackbox::kHeaderBytes] = {};
  std::memcpy(header + kHdrMagic, kMagic, sizeof(kMagic));
  uint32_t version = kVersion;
  std::memcpy(header + kHdrVersion, &version, 4);
  uint64_t total = kTotalBytes;
  std::memcpy(header + kHdrTotalBytes, &total, 8);
  std::memcpy(header + kHdrBootMono, &info.boot_mono_ns, 8);
  std::memcpy(header + kHdrBootWall, &info.boot_wall_ns, 8);
  uint64_t pid = static_cast<uint64_t>(::getpid());
  std::memcpy(header + kHdrPid, &pid, 8);
  std::memcpy(header + kHdrArenaSize, &info.arena_size, 8);
  std::memcpy(header + kHdrPageSize, &info.page_size, 4);
  std::memcpy(header + kHdrShardCount, &info.shard_count, 4);
  std::strncpy(header + kHdrScheme, info.scheme.c_str(), kHdrSchemeBytes - 1);
  uint32_t crc = Crc32c(header, kHeaderCrcBytes);
  std::memcpy(header + kHdrCrc, &crc, 4);
  uint64_t open_wall = RawWallNs();
  std::memcpy(header + kHdrOpenWall, &open_wall, 8);
  std::memcpy(base, header, blackbox::kHeaderBytes);

  return std::unique_ptr<FlightRecorder>(
      new FlightRecorder(path, fd, base));
}

void FlightRecorder::NoteStagedLsn(size_t shard, uint64_t lsn_end) noexcept {
  if (shard >= kMaxShards) return;
  Word64(kShardLsnOff + shard * 16)
      ->store(lsn_end, std::memory_order_relaxed);
}

void FlightRecorder::NoteDurableLsn(uint64_t durable,
                                    uint64_t logical_end) noexcept {
  Word64(kGlobalLsnOff + 0)->store(durable, std::memory_order_relaxed);
  Word64(kGlobalLsnOff + 8)->store(logical_end, std::memory_order_relaxed);
}

void FlightRecorder::NoteStatusText(blackbox::StatusSlot slot,
                                    std::string_view text) noexcept {
  const uint64_t base =
      kStatusOff + static_cast<uint32_t>(slot) * kStatusSlotBytes;
  if (text.size() > kStatusTextBytes) text = text.substr(0, kStatusTextBytes);
  std::atomic<uint32_t>* seq = Word32(base + 0);
  const uint32_t s = seq->load(std::memory_order_relaxed);
  seq->store(s + 1, std::memory_order_release);  // Odd: write in progress.
  Word32(base + 4)->store(static_cast<uint32_t>(text.size()),
                          std::memory_order_relaxed);
  std::memcpy(map_ + base + 8, text.data(), text.size());
  if (text.size() < kStatusTextBytes) {
    std::memset(map_ + base + 8 + text.size(), 0,
                kStatusTextBytes - text.size());
  }
  seq->store(s + 2, std::memory_order_release);  // Even: published.
}

void FlightRecorder::WriteMetricsSample(const MetricsSnapshot& snap) noexcept {
  std::lock_guard<std::mutex> guard(sample_mu_);
  std::atomic<uint32_t>* seq = Word32(kSampleOff + 0);
  const uint32_t s = seq->load(std::memory_order_relaxed);
  seq->store(s + 1, std::memory_order_release);
  uint32_t count = 0;
  uint8_t* entries = map_ + kSampleOff + kSampleHeaderBytes;
  auto put = [&](const std::string& name, char kind, uint64_t bits) {
    if (count >= kMaxSampleEntries) return;
    uint8_t* e = entries + count * kSampleEntryBytes;
    std::memset(e, 0, kSampleNameBytes);
    std::memcpy(e, name.data(),
                std::min<size_t>(name.size(), kSampleNameBytes - 1));
    uint32_t k = static_cast<uint32_t>(kind);
    std::memcpy(e + kSampleNameBytes, &k, 4);
    std::memcpy(e + kSampleNameBytes + 4, &bits, 8);
    ++count;
  };
  for (const auto& [name, v] : snap.counters) put(name, 'c', v);
  for (const auto& [name, v] : snap.gauges) {
    put(name, 'g', static_cast<uint64_t>(v));
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    put(h.name + ".p99", 'h', h.h.p99);
  }
  Word32(kSampleOff + 4)->store(count, std::memory_order_relaxed);
  Word64(kSampleOff + 8)->store(snap.captured_mono_ns,
                                std::memory_order_relaxed);
  Word64(kSampleOff + 16)->store(snap.captured_wall_ns,
                                 std::memory_order_relaxed);
  seq->store(s + 2, std::memory_order_release);
}

void FlightRecorder::MarkCleanShutdown() noexcept {
  Word32(kHdrCleanShutdown)->store(1, std::memory_order_release);
  // Process-crash durability needs nothing (the dirty pages are in the
  // page cache); the async msync only helps a subsequent machine crash.
  ::msync(map_, kTotalBytes, MS_ASYNC);
}

void FlightRecorder::WriteCrashRecord(int sig, int code,
                                      const void* addr) noexcept {
  std::atomic<uint32_t>* state = Word32(kCrashOff + kCrState);
  state->store(kCrashWriting, std::memory_order_release);
  Word32(kCrashOff + kCrSignal)
      ->store(static_cast<uint32_t>(sig), std::memory_order_relaxed);
  Word32(kCrashOff + kCrCode)
      ->store(static_cast<uint32_t>(code), std::memory_order_relaxed);
  Word64(kCrashOff + kCrFaultAddr)
      ->store(reinterpret_cast<uint64_t>(addr), std::memory_order_relaxed);
  uint64_t fault_off = kNoFaultOff;
  uint64_t fault_shard = kNoFaultOff;
  const uint8_t* a = static_cast<const uint8_t*>(addr);
  if (arena_base_ != nullptr && a >= arena_base_ &&
      a < arena_base_ + arena_size_) {
    fault_off = static_cast<uint64_t>(a - arena_base_);
    if (shard_map_ != nullptr) fault_shard = shard_map_->ShardOf(fault_off);
  }
  Word64(kCrashOff + kCrFaultOff)
      ->store(fault_off, std::memory_order_relaxed);
  Word64(kCrashOff + kCrFaultShard)
      ->store(fault_shard, std::memory_order_relaxed);
  Word64(kCrashOff + kCrMonoNs)->store(RawMonoNs(), std::memory_order_relaxed);
  Word64(kCrashOff + kCrWallNs)->store(RawWallNs(), std::memory_order_relaxed);
  uint32_t backtrace_len = 0;
  if (fd_ >= 0) {
    // backtrace() was preloaded at install time (its first call may
    // malloc inside the dynamic linker); from here on it is signal-safe,
    // and backtrace_symbols_fd is documented as such.
    void* frames[48];
    int n = ::backtrace(frames, 48);
    off_t start = ::lseek(fd_, static_cast<off_t>(kBacktraceOff), SEEK_SET);
    if (start == static_cast<off_t>(kBacktraceOff) && n > 0) {
      ::backtrace_symbols_fd(frames, n, fd_);
      off_t end = ::lseek(fd_, 0, SEEK_CUR);
      if (end > start) {
        backtrace_len = static_cast<uint32_t>(end - start);
      }
    }
  }
  Word32(kCrashOff + kCrBacktraceLen)
      ->store(backtrace_len, std::memory_order_relaxed);
  state->store(kCrashValid, std::memory_order_release);
}

Status FlightRecorder::InstallFatalHandler() {
  FatalState& st = Fatal();
  std::lock_guard<std::mutex> guard(st.mu);
  // Preload backtrace's lazy initialization while malloc is still legal.
  void* frames[4];
  (void)::backtrace(frames, 4);
  if (st.altstack == nullptr) {
    const size_t stack_bytes = 64 * 1024;
    st.altstack = std::malloc(stack_bytes);
    if (st.altstack == nullptr) {
      return Status::IoError("flight recorder: sigaltstack allocation failed");
    }
    stack_t ss = {};
    ss.ss_sp = st.altstack;
    ss.ss_size = stack_bytes;
    if (::sigaltstack(&ss, nullptr) != 0) {
      return Status::IoError(std::string("sigaltstack: ") +
                             std::strerror(errno));
    }
  }
  if (!st.installed) {
    struct sigaction sa = {};
    sa.sa_sigaction = &CwdbFatalSigaction;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    for (int i = 0; i < FatalState::kSignalCount; ++i) {
      if (::sigaction(FatalState::kSignals[i], &sa, &st.old_actions[i]) != 0) {
        return Status::IoError(std::string("sigaction: ") +
                               std::strerror(errno));
      }
    }
    st.installed = true;
  }
  st.recorder.store(this, std::memory_order_release);
  return Status::OK();
}

void FlightRecorder::UninstallFatalHandler() {
  FatalState& st = Fatal();
  std::lock_guard<std::mutex> guard(st.mu);
  if (st.recorder.load(std::memory_order_acquire) != this) return;
  st.recorder.store(nullptr, std::memory_order_release);
  if (st.installed) {
    for (int i = 0; i < FatalState::kSignalCount; ++i) {
      ::sigaction(FatalState::kSignals[i], &st.old_actions[i], nullptr);
    }
    st.installed = false;
  }
}

bool FlightRecorder::FatalHandlerInstalled() {
  FatalState& st = Fatal();
  return st.recorder.load(std::memory_order_acquire) != nullptr;
}

}  // namespace cwdb
