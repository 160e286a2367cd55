// Ablation: read/write asymmetry of the schemes. The paper's Table 2
// workload is pure update; this sweep adds balance inquiries and shows
// where each scheme's cost lives — Read Prechecking taxes reads (overhead
// grows with the read fraction), codeword maintenance and read logging tax
// writes (overhead shrinks as reads displace writes), and the crossover
// between Precheck and ReadLog moves with the mix.

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "core/database.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

struct SchemeCol {
  const char* name;
  ProtectionScheme scheme;
  uint32_t region;
};

// Precheck shown at 8 KiB regions: on modern hardware a 512-byte region
// scan (~tens of ns) vanishes under per-operation locking/logging costs,
// so the read-side effect only rises above noise at page-sized regions
// (on the paper's 200 MHz UltraSPARC it was visible at 512 B already).
const SchemeCol kCols[] = {
    {"baseline", ProtectionScheme::kNone, 512},
    {"data-cw", ProtectionScheme::kDataCodeword, 512},
    {"precheck-8K", ProtectionScheme::kReadPrecheck, 8192},
    {"readlog", ProtectionScheme::kReadLog, 512},
};

struct Bench {
  std::unique_ptr<Database> db;
  std::unique_ptr<TpcbWorkload> workload;
  std::array<double, 3> rates{};
};

void SetupOne(const std::string& dir, const SchemeCol& col, TpcbConfig cfg,
              uint64_t ops, Bench* bench) {
  DatabaseOptions opts;
  opts.path = dir;
  opts.page_size = 8192;
  opts.arena_size = (cfg.MinArenaSize(opts.page_size) + (4u << 20) + 8191) &
                    ~uint64_t{8191};
  opts.protection.scheme = col.scheme;
  opts.protection.region_size = col.region;
  auto db = Database::Open(opts);
  if (!db.ok()) std::exit(1);
  bench->db = std::move(db).value();
  bench->workload = std::make_unique<TpcbWorkload>(bench->db.get(), cfg);
  if (!bench->workload->Setup().ok()) std::exit(1);
  if (!bench->workload->RunOps(ops / 5).ok()) std::exit(1);  // Warm-up.
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) {
  cwdb::PinToCpu(0);
  using namespace cwdb;
  const bool json = JsonMode(argc, argv);
  TpcbConfig base_cfg;
  base_cfg.accounts = 20000;
  base_cfg.tellers = 2000;
  base_cfg.branches = 200;
  base_cfg.ops_per_txn = 500;
  const uint64_t ops = 20000;
  base_cfg.history_capacity = 4 * ops + 1000;

  char tmpl[] = "/dev/shm/cwdb_bench_mix_XXXXXX";
  char* base = ::mkdtemp(tmpl);

  if (!json) {
    std::printf(
        "Ablation: scheme overhead vs read fraction (TPC-B + inquiries)\n"
        "(%% slower than the unprotected baseline at the same mix)\n\n");
    std::printf("  %6s |", "reads");
    for (const auto& col : kCols) {
      if (col.scheme == ProtectionScheme::kNone) continue;
      std::printf(" %12s", col.name);
    }
    std::printf("\n  ------ | ------------ ------------ ------------\n");
  }

  int idx = 0;
  constexpr size_t kColCount = std::size(kCols);
  for (double frac : {0.0, 0.5, 0.9}) {
    TpcbConfig cfg = base_cfg;
    cfg.read_fraction = frac;
    // All schemes of a row stay open; measured runs interleave round-robin
    // so machine drift cancels across the row (as in perfbench's Table 2
    // phase).
    Bench benches[kColCount];
    for (size_t i = 0; i < kColCount; ++i) {
      SetupOne(std::string(base) + "/m" + std::to_string(idx++), kCols[i],
               cfg, ops, &benches[i]);
    }
    for (size_t round = 0; round < benches[0].rates.size(); ++round) {
      for (size_t i = 0; i < kColCount; ++i) {
        auto rate = benches[i].workload->RunTimed(ops);
        if (!rate.ok()) return 1;
        benches[i].rates[round] = *rate;
      }
    }
    double baseline = 0;
    if (!json) std::printf("  %5.0f%% |", frac * 100);
    std::string mix = "r";
    mix += std::to_string(static_cast<int>(frac * 100));
    for (size_t i = 0; i < kColCount; ++i) {
      if (!benches[i].workload->CheckConsistency().ok()) return 1;
      std::sort(benches[i].rates.begin(), benches[i].rates.end());
      double rate = benches[i].rates[benches[i].rates.size() / 2];
      if (json) {
        PrintJsonMetricLine(
            std::string("read_mix/") + kCols[i].name + "/" + mix,
            "ops_per_sec", rate, 1);
      }
      if (kCols[i].scheme == ProtectionScheme::kNone) {
        baseline = rate;
        continue;
      }
      if (!json) {
        std::printf(" %11.1f%%", (1.0 - rate / baseline) * 100.0);
      }
      DumpDbMetricsIfRequested(benches[i].db.get());
    }
    if (!json) std::printf("\n");
    std::fflush(stdout);
  }
  std::string cleanup = std::string("rm -rf '") + base + "'";
  [[maybe_unused]] int rc = ::system(cleanup.c_str());

  if (!json) {
    std::printf(
        "\nAs inquiries displace updates, prechecking's relative cost grows\n"
        "(every read scans a region) while codeword maintenance and read\n"
        "logging shrink (fewer folds, shorter log).\n");
  }
  return 0;
}
