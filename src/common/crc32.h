#ifndef CWDB_COMMON_CRC32_H_
#define CWDB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace cwdb {

/// CRC-32C (Castagnoli). Used to frame records in the stable system log and
/// to validate checkpoint metadata; *not* used as the region codeword (the
/// paper's codeword is the XOR parity in codeword.h — CRC protects the I/O
/// path, codewords protect the in-memory image). Dispatches once, at first
/// use, to the SSE4.2 `crc32` instruction where the CPU has it and to the
/// table otherwise; both compute identical values.
uint32_t Crc32c(const void* data, size_t len);

/// Streaming form: continue a CRC over another chunk.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// The portable byte-at-a-time table implementation: the fallback where the
/// CPU lacks SSE4.2, and the reference the hardware tier is tested against.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len);

/// True when Crc32c/Crc32cExtend run on the hardware tier.
bool Crc32cUsesHardware();

}  // namespace cwdb

#endif  // CWDB_COMMON_CRC32_H_
