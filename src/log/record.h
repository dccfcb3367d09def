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
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"

namespace aurora::log {

/// Refcounted immutable record payload: one heap block per payload.
///
/// A redo record fans out to many holders on the hot path — six segment
/// boxcars, the driver's retransmission buffer, the wire message, each
/// segment's hot log, gossip replies, replication streams, the archive —
/// and every page entry the record writes views its key and value bytes
/// (storage/page.h). All of them share ONE immutable buffer; copying a
/// record bumps a refcount instead of duplicating bytes.
///
/// The handle is a single pointer to a block laid out as a `{refs, size}`
/// header followed by the bytes, so a payload costs one allocation and
/// one pointer per holder (no separate control block). The refcount is a
/// plain integer, not an atomic: the simulator and every component it
/// drives run on one thread, and the `thread` sanitizer build
/// (scripts/check.sh) is the tripwire should a change ever share a
/// payload across threads. Construction from bytes is implicit and copies
/// them once; producers that know the final size write straight into a
/// fresh block with Build().
class Payload {
 public:
  Payload() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): payloads ARE byte strings.
  Payload(std::string_view bytes) {
    if (!bytes.empty()) {
      block_ = Allocate(bytes.size());
      std::memcpy(Bytes(block_), bytes.data(), bytes.size());
    }
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  Payload(const std::string& bytes) : Payload(std::string_view(bytes)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Payload(const char* bytes) : Payload(std::string_view(bytes)) {}

  /// A payload of exactly `size` bytes that `fill(char*)` writes before
  /// the handle is returned, i.e. before any other holder can see it.
  template <typename Fill>
  static Payload Build(size_t size, Fill&& fill) {
    Payload out;
    if (size > 0) {
      out.block_ = Allocate(size);
      fill(Bytes(out.block_));
    }
    return out;
  }

  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Payload(Payload&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  Payload& operator=(const Payload& other) noexcept {
    // Take the new reference before dropping the old: safe on
    // self-assignment.
    Block* incoming = other.block_;
    if (incoming != nullptr) ++incoming->refs;
    Release();
    block_ = incoming;
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      Release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~Payload() { Release(); }

  std::string_view view() const {
    return block_ != nullptr ? std::string_view(Bytes(block_), block_->size)
                             : std::string_view();
  }
  size_t size() const { return block_ != nullptr ? block_->size : 0; }
  bool empty() const { return block_ == nullptr; }
  const char* data() const {
    return block_ != nullptr ? Bytes(block_) : nullptr;
  }
  char operator[](size_t i) const { return data()[i]; }
  /// Holders sharing this buffer (0 for an empty payload).
  uint32_t use_count() const { return block_ != nullptr ? block_->refs : 0; }

  /// Content equality (not pointer identity): decoded copies of the same
  /// record must compare equal to the original.
  bool operator==(const Payload& other) const {
    return block_ == other.block_ || view() == other.view();
  }

 private:
  struct Block {
    uint32_t refs;
    uint32_t size;  // the record format's payload length is 32 bits too
  };

  static Block* Allocate(size_t size) {
    auto* block = static_cast<Block*>(::operator new(sizeof(Block) + size));
    block->refs = 1;
    block->size = static_cast<uint32_t>(size);
    return block;
  }
  static char* Bytes(Block* block) {
    return reinterpret_cast<char*>(block + 1);
  }

  void Release() {
    if (block_ != nullptr && --block_->refs == 0) ::operator delete(block_);
    block_ = nullptr;
  }

  Block* block_ = nullptr;
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

// `crc` sits in the padding after `pg`: sealing costs no record bytes, and
// the payload is one pointer.
static_assert(sizeof(RedoRecord) == 72, "RedoRecord grew");

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
