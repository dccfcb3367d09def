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
#include <new>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"

namespace aurora::log {

class SealedRecord;

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
/// header, room for the sealed record header (see SealedRecord), then the
/// bytes, so a payload and the record that carries it cost one allocation
/// and one pointer per holder (no separate control block). The refcount
/// is a plain integer, not an atomic: the simulator and every component
/// it drives run on one thread, and the `thread` sanitizer build
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
  /// No bytes. A sealed record with no payload still has a block (it
  /// holds the header), so this tests the size, not the pointer.
  bool empty() const { return size() == 0; }
  const char* data() const {
    return block_ != nullptr ? Bytes(block_) : nullptr;
  }
  char operator[](size_t i) const { return data()[i]; }
  /// Holders sharing this buffer, sealed-record handles included (0 for
  /// an empty payload).
  uint32_t use_count() const { return block_ != nullptr ? block_->refs : 0; }

  /// Content equality (not pointer identity): decoded copies of the same
  /// record must compare equal to the original.
  bool operator==(const Payload& other) const {
    return block_ == other.block_ || view() == other.view();
  }

 private:
  friend class SealedRecord;

  struct Block {
    uint32_t refs;
    uint32_t size;  // the record format's payload length is 32 bits too
  };
  /// Room between the block header and the bytes for the RedoRecord that
  /// sealing places there (static_assert'ed below, once RedoRecord is
  /// complete). Every payload reserves it: payloads exist to become
  /// records, so sealing writes the header in place instead of
  /// allocating.
  static constexpr size_t kRecordSlot = 72;

  static Block* Allocate(size_t size) {
    auto* block = static_cast<Block*>(
        ::operator new(sizeof(Block) + kRecordSlot + size));
    block->refs = 1;
    block->size = static_cast<uint32_t>(size);
    return block;
  }
  static void* Slot(Block* block) { return block + 1; }
  static char* Bytes(Block* block) {
    return static_cast<char*>(Slot(block)) + kRecordSlot;
  }

  /// The last reference frees the block. A sealed record's header needs
  /// no destructor call: its only non-trivial member is an uncounted
  /// reference to this same block (see SealedRecord).
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

  bool operator==(const RedoRecord&) const = default;

  std::string ToString() const;
};

// `crc` sits in the padding after `pg`: the checksum costs no record
// bytes, and the payload is one pointer.
static_assert(sizeof(RedoRecord) == 72, "RedoRecord grew");

/// An immutable, checksummed redo record: an 8-byte handle to the ONE
/// refcounted block that holds both the record header and its payload
/// bytes (the block Payload allocates; the header lives in its slot).
///
/// The writer seals each record once (DbInstance::AppendMtr), and every
/// long-lived holder keeps this handle instead of a 72-byte RedoRecord
/// copy: the six segment hot logs and their pending-redo queues, the
/// driver's retransmission buffer and boxcars, write requests, gossip and
/// hydration replies, the replication stream and the archive. All of
/// them, and every page entry holding the payload, share the block, so a
/// record fanned out to six segments costs one allocation and a pointer
/// per holder.
///
/// Dereferencing yields the stored `const RedoRecord&`. Its `payload`
/// points back into the same block without holding a count (the handles
/// do), so copying the record out (`RedoRecord copy = *sealed;`) yields
/// an ordinary record that co-owns the block like any payload holder.
class SealedRecord {
 public:
  SealedRecord() = default;
  /// Moves `record` into its payload's block, keeping `record.crc` as it
  /// stands: a decoded record already carries its verified trailer, and a
  /// copy damaged on purpose keeps its original crc so scrub can tell.
  /// Seal() is the writer's path, which sets the crc first. The payload
  /// block is reused when `record` is its only holder, else its bytes are
  /// copied into a fresh block.
  explicit SealedRecord(RedoRecord record);

  const RedoRecord& operator*() const { return *get(); }
  const RedoRecord* operator->() const { return get(); }
  const RedoRecord* get() const {
    return block_.block_ != nullptr
               ? std::launder(static_cast<const RedoRecord*>(
                     Payload::Slot(block_.block_)))
               : nullptr;
  }
  explicit operator bool() const { return block_.block_ != nullptr; }
  /// Handles sharing this record's block (payload holders included).
  uint32_t use_count() const { return block_.use_count(); }

  /// Content equality, like RedoRecord's; the same block is equal to
  /// itself without a look at the bytes.
  bool operator==(const SealedRecord& other) const;

 private:
  static_assert(sizeof(RedoRecord) <= Payload::kRecordSlot &&
                    alignof(RedoRecord) <= sizeof(Payload::Block),
                "a sealed header must fit the payload block's slot");

  /// The counted reference to the block; copying and dropping the handle
  /// is copying and dropping this.
  Payload block_;
};

static_assert(sizeof(SealedRecord) == 8, "a sealed handle is one pointer");

/// The writer's one sealing call: sets `record.crc` to RecordBodyCrc()
/// (the header and payload are final) and moves the record into its
/// block. Every later holder verifies against the carried value.
SealedRecord Seal(RedoRecord record);

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
