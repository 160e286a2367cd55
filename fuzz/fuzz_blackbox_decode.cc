// Fuzzes the blackbox.bin decoder: DecodeBlackBox reads the box a dead
// incarnation left behind (so possibly torn at any byte, bit-flipped by
// page writeback, or not a box at all) and must accept or refuse any input
// without crashing. Whatever it accepts must also render, because that is
// what `cwdb_ctl postmortem` and the crash dossier at reopen do with it.

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/postmortem.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  cwdb::Result<cwdb::BlackBoxReport> report = cwdb::DecodeBlackBox(
      std::string(reinterpret_cast<const char*>(data), size));
  if (report.ok()) (void)cwdb::RenderBlackBox(report.value());
  return 0;
}
