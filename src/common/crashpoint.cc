#include "common/crashpoint.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/file_util.h"

namespace cwdb {
namespace crashpoint {

namespace {

/// The registered points, in the order the torture matrix sweeps them.
/// Write points (torn-write / bit-flip capable) are flagged.
struct PointDef {
  const char* name;
  bool is_write;
};

constexpr PointDef kPoints[] = {
    {"wal.flush.pwrite", true},
    {"wal.flush.fdatasync", false},
    {"ckpt.image.setsize", false},
    {"ckpt.page.pwrite", true},
    {"ckpt.image.fsync", false},
    {"ckpt.meta.tmp_write", true},
    {"ckpt.meta.tmp_fsync", false},
    {"ckpt.meta.rename", false},
    {"ckpt.meta.dir_fsync", false},
    {"ckpt.anchor.tmp_write", true},
    {"ckpt.anchor.tmp_fsync", false},
    {"ckpt.anchor.rename", false},
    {"ckpt.anchor.dir_fsync", false},
    {"archive.file.tmp_write", true},
    {"archive.file.tmp_fsync", false},
    {"archive.file.rename", false},
    {"archive.file.dir_fsync", false},
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Spec> armed;
  std::unordered_map<std::string, uint64_t> hits;
  std::atomic<uint64_t> fired{0};
  /// Fast path: number of armed points; when zero, a hit only bumps its
  /// counter. These boundaries sit next to syscalls, so the lock is noise.
  std::atomic<int> armed_count{0};
  std::function<void(const std::string&)> observer;
};

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kAbort: return "abort";
    case Mode::kEio: return "eio";
    case Mode::kTornWrite: return "torn";
    case Mode::kBitFlip: return "bitflip";
  }
  return "?";
}

/// Renders the armed set and hands it to the observer. Caller holds reg.mu.
void NotifyObserverLocked(Registry& reg) {
  if (!reg.observer) return;
  std::string out;
  for (const PointDef& p : kPoints) {  // Stable order for the rendering.
    auto it = reg.armed.find(p.name);
    if (it == reg.armed.end()) continue;
    if (!out.empty()) out.push_back(',');
    out += p.name;
    out.push_back('=');
    out += ModeName(it->second.mode);
    out.push_back(':');
    out += std::to_string(it->second.countdown);
  }
  reg.observer(out);
}

Registry& Reg() {
  static Registry* r = new Registry;  // Leaked: alive through _exit paths.
  return *r;
}

void ArmFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("CWDB_CRASHPOINT");
    if (env != nullptr && *env != '\0') {
      // A malformed spec in the environment is a harness bug; surface it
      // loudly rather than silently running without injection.
      Status s = ArmFromString(env);
      if (!s.ok()) {
        std::fprintf(stderr, "CWDB_CRASHPOINT: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
  });
}

/// Decides what the hit of `name` should do. Returns the firing spec with
/// mode kOff when the point does not fire.
Spec OnHit(const char* name) {
  ArmFromEnvOnce();
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  ++reg.hits[name];
  if (reg.armed_count.load(std::memory_order_relaxed) == 0) return Spec{};
  auto it = reg.armed.find(name);
  if (it == reg.armed.end()) return Spec{};
  if (--it->second.countdown > 0) return Spec{};
  Spec spec = it->second;
  // One-shot: the point disarms itself so a retry of the failed operation
  // runs clean.
  reg.armed.erase(it);
  reg.armed_count.fetch_sub(1, std::memory_order_relaxed);
  reg.fired.fetch_add(1, std::memory_order_relaxed);
  // Tell the observer only when the process survives the firing (kEio,
  // kBitFlip). The dying modes _exit on the next line of the caller: the
  // black box must keep the pre-fire armed set so the postmortem shows
  // which point killed the process, not a freshly-cleared mirror.
  if (spec.mode == Mode::kEio || spec.mode == Mode::kBitFlip) {
    NotifyObserverLocked(reg);
  }
  return spec;
}

Status InjectedEio(const char* name) {
  return Status::IoError(std::string("crashpoint ") + name + ": injected EIO");
}

[[noreturn]] void Die() { ::_exit(kCrashExitCode); }

}  // namespace

void Arm(const std::string& name, const Spec& spec) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto [it, inserted] = reg.armed.insert_or_assign(name, spec);
  (void)it;
  if (inserted) reg.armed_count.fetch_add(1, std::memory_order_relaxed);
  NotifyObserverLocked(reg);
}

void Disarm(const std::string& name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.armed.erase(name) > 0) {
    reg.armed_count.fetch_sub(1, std::memory_order_relaxed);
    NotifyObserverLocked(reg);
  }
}

void DisarmAll() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.armed.clear();
  reg.armed_count.store(0, std::memory_order_relaxed);
  NotifyObserverLocked(reg);
}

void SetArmObserver(std::function<void(const std::string&)> observer) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.observer = std::move(observer);
  // Seed the new observer with the current set (points may have been armed
  // from the environment before the database opened).
  NotifyObserverLocked(reg);
}

Status ArmFromString(const std::string& specs) {
  size_t pos = 0;
  while (pos < specs.size()) {
    size_t end = specs.find(',', pos);
    if (end == std::string::npos) end = specs.size();
    std::string one = specs.substr(pos, end - pos);
    pos = end + 1;
    if (one.empty()) continue;
    size_t eq = one.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("crashpoint spec missing '=': " + one);
    }
    std::string name = one.substr(0, eq);
    bool known = false;
    for (const PointDef& p : kPoints) known = known || name == p.name;
    if (!known) {
      return Status::InvalidArgument("unknown crashpoint: " + name);
    }
    Spec spec;
    std::string rest = one.substr(eq + 1);
    std::string mode = rest.substr(0, rest.find(':'));
    if (mode == "abort") {
      spec.mode = Mode::kAbort;
    } else if (mode == "eio") {
      spec.mode = Mode::kEio;
    } else if (mode == "torn") {
      spec.mode = Mode::kTornWrite;
    } else if (mode == "bitflip") {
      spec.mode = Mode::kBitFlip;
    } else {
      return Status::InvalidArgument("bad crashpoint mode: " + mode);
    }
    size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      char* after = nullptr;
      spec.countdown =
          static_cast<uint32_t>(std::strtoul(rest.c_str() + colon + 1,
                                             &after, 10));
      if (spec.countdown == 0) {
        return Status::InvalidArgument("crashpoint countdown must be >= 1");
      }
      if (after != nullptr && *after == ':') {
        spec.param = std::strtoull(after + 1, nullptr, 10);
      }
    }
    Arm(name, spec);
  }
  return Status::OK();
}

uint64_t Hits(const std::string& name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.hits.find(name);
  return it == reg.hits.end() ? 0 : it->second;
}

uint64_t Fired() { return Reg().fired.load(std::memory_order_relaxed); }

const std::vector<std::string>& AllPoints() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (const PointDef& p : kPoints) v->push_back(p.name);
    return v;
  }();
  return *names;
}

bool IsWritePoint(const std::string& name) {
  for (const PointDef& p : kPoints) {
    if (name == p.name) return p.is_write;
  }
  return false;
}

Status Check(const char* name) {
  Spec spec = OnHit(name);
  switch (spec.mode) {
    case Mode::kOff:
    case Mode::kBitFlip:  // No buffer to corrupt here.
      return Status::OK();
    case Mode::kEio:
      return InjectedEio(name);
    case Mode::kAbort:
    case Mode::kTornWrite:  // No buffer to tear: degrade to abort.
      Die();
  }
  return Status::OK();
}

namespace {

/// The write half of a hit on a write point: `data` written, torn, flipped
/// or refused as `spec` says.
Status ApplyToWrite(const Spec& spec, const char* name, int fd,
                    const void* data, size_t len, uint64_t offset) {
  switch (spec.mode) {
    case Mode::kOff:
      break;
    case Mode::kEio:
      return InjectedEio(name);
    case Mode::kAbort:
      Die();
    case Mode::kTornWrite: {
      size_t keep = spec.param != 0 ? static_cast<size_t>(spec.param)
                                    : len / 2;
      if (keep > len) keep = len;
      (void)PWriteAll(fd, data, keep, offset);
      ::fsync(fd);  // Make the tear itself durable before dying.
      Die();
    }
    case Mode::kBitFlip: {
      if (len > 0) {
        std::string flipped(static_cast<const char*>(data), len);
        uint64_t bit = spec.param % (static_cast<uint64_t>(len) * 8);
        flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        return PWriteAll(fd, flipped.data(), len, offset);
      }
      break;
    }
  }
  return PWriteAll(fd, data, len, offset);
}

}  // namespace

Status InjectedPWrite(const char* name, int fd, const void* data, size_t len,
                      uint64_t offset) {
  return ApplyToWrite(OnHit(name), name, fd, data, len, offset);
}

Status InjectedPWriteV(const char* name, int fd, struct iovec* iov, int iovcnt,
                       uint64_t offset) {
  const Spec spec = OnHit(name);
  if (spec.mode == Mode::kOff) return PWriteVAll(fd, iov, iovcnt, offset);
  // Armed (a crash test): tear or flip the buffers as the one write they
  // stand for.
  std::string flat;
  for (int i = 0; i < iovcnt; ++i) {
    flat.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  return ApplyToWrite(spec, name, fd, flat.data(), flat.size(), offset);
}

}  // namespace crashpoint
}  // namespace cwdb
