#include "src/log/record.h"

#include <cstring>

#include "src/common/crc32.h"

namespace aurora::log {

namespace {

constexpr size_t kHeaderSize = 8 * 4 +  // lsn + 3 chain pointers
                               4 +      // pg
                               8 +      // block
                               8 +      // txn
                               1 +      // type
                               1 +      // mtr
                               4;       // payload length

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

uint64_t RedoRecord::SerializedSize() const {
  return kHeaderSize + payload.size() + 4;  // + CRC
}

SealedRecord::SealedRecord(RedoRecord record) {
  if (record.payload.block_ != nullptr && record.payload.block_->refs == 1) {
    // The record is the block's only holder: its slot is free (a sealed
    // header there would hold a handle's count), so take the reference.
    block_ = std::move(record.payload);
  } else {
    const std::string_view bytes = record.payload.view();
    block_ = Payload::Build(bytes.size(), [&](char* out) {
      std::memcpy(out, bytes.data(), bytes.size());
    });
    if (block_.block_ == nullptr) block_.block_ = Payload::Allocate(0);
    record.payload = Payload();
  }
  auto* header =
      new (Payload::Slot(block_.block_)) RedoRecord(std::move(record));
  // The self-reference is not counted: the handles own the block.
  header->payload.block_ = block_.block_;
}

bool SealedRecord::operator==(const SealedRecord& other) const {
  if (block_.block_ == other.block_.block_) return true;
  if (!*this || !other) return false;
  return **this == *other;
}

SealedRecord Seal(RedoRecord record) {
  record.crc = RecordBodyCrc(record);
  return SealedRecord(std::move(record));
}

std::string RedoRecord::ToString() const {
  std::string out = "RedoRecord{lsn=" + std::to_string(lsn) +
                    " prev_vol=" + std::to_string(prev_lsn_volume) +
                    " prev_seg=" + std::to_string(prev_lsn_segment) +
                    " prev_blk=" + std::to_string(prev_lsn_block) +
                    " pg=" + std::to_string(pg);
  out += " block=" + (block == kInvalidBlock ? std::string("-")
                                             : std::to_string(block));
  out += " txn=" + std::to_string(txn);
  switch (type) {
    case RecordType::kData:
      out += " DATA";
      break;
    case RecordType::kCommit:
      out += " COMMIT";
      break;
    case RecordType::kControl:
      out += " CONTROL";
      break;
  }
  switch (mtr) {
    case MtrBoundary::kSingle:
      out += "/single";
      break;
    case MtrBoundary::kBegin:
      out += "/begin";
      break;
    case MtrBoundary::kMiddle:
      out += "/middle";
      break;
    case MtrBoundary::kEnd:
      out += "/end";
      break;
  }
  out += " payload=" + std::to_string(payload.size()) + "B}";
  return out;
}

namespace {

/// Serializes the fixed header into a caller-provided stack buffer.
void EncodeHeader(const RedoRecord& record, char (&buf)[kHeaderSize]) {
  char* p = buf;
  auto put64 = [&p](uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };
  auto put32 = [&p](uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  put64(record.lsn);
  put64(record.prev_lsn_volume);
  put64(record.prev_lsn_segment);
  put64(record.prev_lsn_block);
  put32(record.pg);
  put64(record.block);
  put64(record.txn);
  *p++ = static_cast<char>(record.type);
  *p++ = static_cast<char>(record.mtr);
  put32(static_cast<uint32_t>(record.payload.size()));
}

}  // namespace

uint32_t RecordBodyCrc(const RedoRecord& record) {
  // Allocation-free: CRC the stack-encoded header, then continue over the
  // shared payload bytes in place. The writer's seal and every scrub pass
  // call this, so it must not materialize a full encoding each time.
  char header[kHeaderSize];
  EncodeHeader(record, header);
  const uint32_t header_crc = Crc32c(header, kHeaderSize);
  return Crc32c(record.payload.data(), record.payload.size(), header_crc);
}

std::string EncodeRecord(const RedoRecord& record) {
  std::string out;
  out.reserve(record.SerializedSize());
  char header[kHeaderSize];
  EncodeHeader(record, header);
  out.append(header, kHeaderSize);
  out.append(record.payload.view());
  PutU32(out, Crc32c(out.data(), out.size()));
  return out;
}

Result<RedoRecord> DecodeRecord(std::string_view encoded) {
  if (encoded.size() < kHeaderSize + 4) {
    return Status::Corruption("record too short");
  }
  const char* p = encoded.data();
  RedoRecord rec;
  rec.lsn = GetU64(p);
  rec.prev_lsn_volume = GetU64(p + 8);
  rec.prev_lsn_segment = GetU64(p + 16);
  rec.prev_lsn_block = GetU64(p + 24);
  rec.pg = GetU32(p + 32);
  rec.block = GetU64(p + 36);
  rec.txn = GetU64(p + 44);
  const uint8_t type = static_cast<uint8_t>(p[52]);
  const uint8_t mtr = static_cast<uint8_t>(p[53]);
  if (type > static_cast<uint8_t>(RecordType::kControl) ||
      mtr > static_cast<uint8_t>(MtrBoundary::kEnd)) {
    return Status::Corruption("bad record enum");
  }
  rec.type = static_cast<RecordType>(type);
  rec.mtr = static_cast<MtrBoundary>(mtr);
  const uint32_t payload_len = GetU32(p + 54);
  if (encoded.size() != kHeaderSize + payload_len + 4) {
    return Status::Corruption("record length mismatch");
  }
  rec.payload = std::string_view(p + kHeaderSize, payload_len);
  const uint32_t stored_crc = GetU32(p + kHeaderSize + payload_len);
  const uint32_t computed_crc = Crc32c(p, kHeaderSize + payload_len);
  if (stored_crc != computed_crc) {
    return Status::Corruption("record CRC mismatch");
  }
  rec.crc = stored_crc;
  return rec;
}

}  // namespace aurora::log
