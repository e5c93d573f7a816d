#ifndef LAWSDB_COMMON_CRC32C_H_
#define LAWSDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace laws {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected) over `data[0..n)`,
/// extending `crc` (pass 0 to start a fresh checksum). This is the
/// checksum guarding every section of the persistence image format; the
/// Castagnoli polynomial is the one used by RocksDB/LevelDB/iSCSI and has
/// better burst-error detection than the zlib CRC32.
///
/// Runs the SSE4.2 `crc32` instruction when the CPU has it (about 4 GB/s),
/// chosen once at run time, and portable slicing-by-8 tables (about
/// 1 GB/s) otherwise; both give the same value. Save plus load make four
/// passes over an image, which keeps checksumming well under the 5%
/// overhead budget.
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

uint32_t Crc32c(const std::vector<uint8_t>& buf, uint32_t crc = 0);

/// The two paths behind Crc32c, exposed so tests can hold them to each
/// other. Crc32cHardware falls back to the tables when
/// Crc32cHardwareAvailable() is false.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);
uint32_t Crc32cHardware(const void* data, size_t n, uint32_t crc = 0);
bool Crc32cHardwareAvailable();

}  // namespace laws

#endif  // LAWSDB_COMMON_CRC32C_H_
