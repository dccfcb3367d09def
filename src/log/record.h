// Redo log records and their binary codec.
//
// Each record stores three back-chain pointers (§2.2):
//  * the LSN of the preceding record in the volume (full log chain —
//    fallback path for regenerating volume metadata),
//  * the previous LSN for the protection group's segment log (the
//    "segment chain" used for gap detection, gossip, and SCL),
//  * the previous LSN for the block being modified (the "block chain" used
//    to materialize individual blocks on demand).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"

namespace aurora::log {

/// Refcounted immutable record payload.
///
/// A redo record fans out to many holders on the hot path — six segment
/// boxcars, the driver's retransmission buffer, the wire message, each
/// segment's hot log, gossip replies, replication streams, the archive.
/// All of them share ONE immutable buffer; copying a record bumps a
/// refcount instead of duplicating bytes. Construction from std::string is
/// implicit so producers keep writing `record.payload = EncodePageOp(op)`.
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): payloads ARE strings.
  Payload(std::string bytes)
      : bytes_(bytes.empty() ? nullptr
                             : std::make_shared<const std::string>(
                                   std::move(bytes))) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Payload(const char* bytes) : Payload(std::string(bytes)) {}

  std::string_view view() const {
    return bytes_ ? std::string_view(*bytes_) : std::string_view();
  }
  size_t size() const { return bytes_ ? bytes_->size() : 0; }
  bool empty() const { return size() == 0; }
  const char* data() const { return bytes_ ? bytes_->data() : nullptr; }
  char operator[](size_t i) const { return (*bytes_)[i]; }

  /// Content equality (not pointer identity): decoded copies of the same
  /// record must compare equal to the original.
  bool operator==(const Payload& other) const {
    return bytes_ == other.bytes_ || view() == other.view();
  }

 private:
  std::shared_ptr<const std::string> bytes_;
};

/// What kind of change a record carries.
enum class RecordType : uint8_t {
  /// A change to one data block (payload = encoded PageOp).
  kData = 0,
  /// A transaction commit marker; its LSN is the transaction's SCN (§2.3).
  kCommit = 1,
  /// A control record carrying no block change (epoch bumps, tests).
  kControl = 2,
};

/// Position of a record within its mini-transaction (§3.2). VDL is the
/// highest LSN <= VCL that completes an MTR, i.e. has kSingle or kEnd.
enum class MtrBoundary : uint8_t {
  kSingle = 0,
  kBegin = 1,
  kMiddle = 2,
  kEnd = 3,
};

/// One redo log record. LSNs are allocated by the writer instance only and
/// are unique volume-wide.
struct RedoRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn_volume = kInvalidLsn;
  /// Previous LSN for this protection group's log ("segment chain").
  Lsn prev_lsn_segment = kInvalidLsn;
  /// Previous LSN for the target block ("block chain").
  Lsn prev_lsn_block = kInvalidLsn;
  ProtectionGroupId pg = 0;
  /// RecordBodyCrc() of this record, set once by Seal() at the writer and
  /// carried with the record everywhere it goes; scrub compares against it.
  uint32_t crc = 0;
  BlockId block = kInvalidBlock;
  TxnId txn = kInvalidTxn;
  RecordType type = RecordType::kData;
  MtrBoundary mtr = MtrBoundary::kSingle;
  Payload payload;

  /// True if this record closes its mini-transaction.
  bool IsMtrComplete() const {
    return mtr == MtrBoundary::kSingle || mtr == MtrBoundary::kEnd;
  }

  /// Bytes this record occupies on the wire / on disk (header + payload).
  uint64_t SerializedSize() const;

  /// Sets `crc` from the header and payload. Call once, when both are
  /// final; every later holder verifies against the carried value.
  void Seal();

  bool operator==(const RedoRecord&) const = default;

  std::string ToString() const;
};

// `crc` sits in the padding after `pg`: sealing costs no record bytes.
static_assert(sizeof(RedoRecord) == 80, "RedoRecord grew");

/// Serializes a record with a trailing CRC-32C of its body: the same value
/// Seal() stores in `crc`.
std::string EncodeRecord(const RedoRecord& record);

/// Decodes a record, verifying length framing and CRC. The verified
/// trailer becomes the record's `crc`, so a decoded record equals its
/// sealed original. Returns Status::Corruption on any mismatch.
Result<RedoRecord> DecodeRecord(std::string_view encoded);

/// CRC-32C of the record's serialized body (header + payload, EXCLUDING
/// the trailing checksum field). This is what integrity checks must
/// compare: the checksum of encoding-plus-trailing-CRC is a constant
/// residue for every record and detects nothing.
uint32_t RecordBodyCrc(const RedoRecord& record);

}  // namespace aurora::log
