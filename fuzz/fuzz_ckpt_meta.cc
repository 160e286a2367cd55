// Fuzzes the ckpt_{A,B}.meta codec: DecodeCheckpointMeta reads a file a
// crash may have torn or an operator may have damaged, and must accept or
// refuse any input without crashing. Each input is tried twice: as the
// whole file, and as a body sealed with its correct CRC, so mutations also
// reach the parser behind the checksum. Whatever is accepted must
// re-encode to a meta that decodes to the same CK_end and ATT.

#include <cstddef>
#include <cstdint>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/coding.h"
#include "common/crc32.h"

namespace {

// The geometry of the seed that fuzz/make_corpus.cc writes.
constexpr uint64_t kArenaSize = 1 << 20;
constexpr uint32_t kPageSize = 4096;

void DecodeAndRoundTrip(const std::string& bytes) {
  cwdb::Result<cwdb::CheckpointMeta> meta =
      cwdb::DecodeCheckpointMeta(bytes, kArenaSize, kPageSize);
  if (!meta.ok()) return;
  cwdb::Result<cwdb::CheckpointMeta> again = cwdb::DecodeCheckpointMeta(
      cwdb::EncodeCheckpointMeta(meta.value(), kArenaSize, kPageSize),
      kArenaSize, kPageSize);
  if (!again.ok() || again->ck_end != meta->ck_end ||
      again->att_blob != meta->att_blob) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string bytes(reinterpret_cast<const char*>(data), size);
  DecodeAndRoundTrip(bytes);
  cwdb::PutFixed32(&bytes, cwdb::Crc32c(data, size));
  DecodeAndRoundTrip(bytes);
  return 0;
}
