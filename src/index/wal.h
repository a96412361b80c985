#ifndef GKS_INDEX_WAL_H_
#define GKS_INDEX_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace gks {

/// Write-ahead log for the real-time index (docs/INDEXING.md). One WAL
/// file holds every committed write since the segment set it follows was
/// made durable; replaying it over that segment set reproduces the exact
/// pre-crash state.
///
/// File layout ("GKSWAL01" format):
///
///   [8]  magic "GKSWAL01"
///   repeated records, each:
///     [4]  crc32 of the payload, little-endian (poly 0xEDB88320)
///     [4]  payload length, little-endian
///     [n]  payload: [1] record type, then the type-specific body
///
/// Record bodies (all integers varint, strings length-prefixed):
///   type 1 (insert): doc_id, name, xml
///   type 2 (delete): doc_id, name  (doc_id is authoritative; the name is
///                                   kept for debuggability and audits)
///
/// A torn final record — the classic crash shape: the length header made
/// it to disk but the payload did not, or the payload is half-written —
/// fails its CRC or runs past EOF. Replay stops at the last record whose
/// CRC verifies and reports the byte offset of the valid prefix; the
/// writer truncates the tail before appending again, so a torn write can
/// never corrupt records committed after recovery.

inline constexpr std::string_view kWalMagic = "GKSWAL01";

enum class WalRecordType : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  uint32_t doc_id = 0;
  std::string name;
  std::string xml;  // empty for deletes

  bool operator==(const WalRecord& other) const {
    return type == other.type && doc_id == other.doc_id &&
           name == other.name && xml == other.xml;
  }
};

/// CRC-32 (IEEE, reflected, poly 0xEDB88320) over `bytes`.
uint32_t WalCrc32(std::string_view bytes);

/// Appends one fully framed record (header + payload) to `*dst`.
void EncodeWalRecord(const WalRecord& record, std::string* dst);

/// Decodes one framed record from `*input`, advancing it past the record.
/// Corruption on a CRC mismatch, a truncated frame, or a malformed body.
Status DecodeWalRecord(std::string_view* input, WalRecord* out);

/// Append-side handle. Opens (creating if absent) for append; when the
/// file is new the magic is written first. `fsync` syncs the file after
/// every Append, and a new file's directory entry once — the durability
/// contract of --rt-fsync=always.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// `expected_bytes` >= 0 truncates the file to that length first —
  /// recovery passes the replay's valid prefix so a torn tail is cut
  /// before the first post-recovery append.
  static Result<WalWriter> Open(const std::string& path, bool fsync,
                                int64_t expected_bytes = -1);

  Status Append(const WalRecord& record);
  Status Sync();
  void Close();

  bool open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

 private:
  int fd_ = -1;
  bool fsync_ = true;
  std::string path_;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

/// Replay outcome: the decoded records plus where the valid prefix ends.
struct WalReplay {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;  // length of the verified prefix (incl. magic)
  bool clean = true;         // false: torn/corrupt tail after valid_bytes
};

/// Reads and verifies `path` front to back. Stops at the first record
/// that fails its CRC or frame check (`clean = false`); everything before
/// it is returned. NotFound when the file does not exist; Corruption only
/// when the magic itself is wrong (the file is not a WAL at all).
Result<WalReplay> ReplayWal(const std::string& path);

}  // namespace gks

#endif  // GKS_INDEX_WAL_H_
