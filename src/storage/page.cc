#include "src/storage/page.h"

#include <cstring>

namespace aurora::storage {

namespace {

/// Appends fixed-width fields to a buffer sized up front (no bounds
/// checks: EncodePageOp computes the exact size first).
class Writer {
 public:
  explicit Writer(char* out) : out_(out) {}

  void Byte(uint8_t v) { *out_++ = static_cast<char>(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

 private:
  void Raw(const void* p, size_t n) {
    std::memcpy(out_, p, n);
    out_ += n;
  }

  char* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU16(uint16_t* v) { return ReadRaw(v, 2); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }

  bool ReadString(std::string_view* s) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    *s = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t Page::SizeBytes() const {
  uint64_t size = 40;  // header
  for (const auto& [k, v] : entries) size += k.size() + v.size() + 8;
  return size;
}

std::string Page::ToString() const {
  std::string out = "Page{" + std::to_string(id) + " lsn=" +
                    std::to_string(page_lsn) + " type=" +
                    std::to_string(static_cast<int>(type)) + " entries=" +
                    std::to_string(entries.size()) + "}";
  return out;
}

log::Payload EncodePageOp(const PageOp& op) {
  // type, page_type, level, next, prev, then two length-prefixed strings.
  const size_t size = 1 + 1 + 2 + 8 + 8 + 4 + op.key.size() + 4 +
                      op.value.size();
  return log::Payload::Build(size, [&op](char* out) {
    Writer writer(out);
    writer.Byte(static_cast<uint8_t>(op.type));
    writer.Byte(static_cast<uint8_t>(op.page_type));
    writer.U16(op.level);
    writer.U64(op.next);
    writer.U64(op.prev);
    writer.String(op.key);
    writer.String(op.value);
  });
}

Result<PageOpView> DecodePageOp(std::string_view payload) {
  if (payload.size() < 2) return Status::Corruption("page op too short");
  PageOpView op;
  const auto type = static_cast<uint8_t>(payload[0]);
  const auto page_type = static_cast<uint8_t>(payload[1]);
  if (type > static_cast<uint8_t>(PageOpType::kTruncateFrom) ||
      page_type > static_cast<uint8_t>(PageType::kMeta)) {
    return Status::Corruption("bad page op enum");
  }
  op.type = static_cast<PageOpType>(type);
  op.page_type = static_cast<PageType>(page_type);
  Reader reader(payload.substr(2));
  uint64_t next, prev;
  if (!reader.ReadU16(&op.level) || !reader.ReadU64(&next) ||
      !reader.ReadU64(&prev) || !reader.ReadString(&op.key) ||
      !reader.ReadString(&op.value) || !reader.AtEnd()) {
    return Status::Corruption("truncated page op");
  }
  op.next = next;
  op.prev = prev;
  return op;
}

Status ApplyRedoPayload(Page* page, const log::Payload& payload, Lsn lsn) {
  auto decoded = DecodePageOp(payload.view());
  if (!decoded.ok()) return decoded.status();
  const PageOpView& op = *decoded;
  switch (op.type) {
    case PageOpType::kFormat:
      page->type = op.page_type;
      page->level = op.level;
      page->entries.clear();
      page->next = kInvalidBlock;
      page->prev = kInvalidBlock;
      break;
    case PageOpType::kInsert:
      page->entries.Upsert(op.key, op.value, payload);
      break;
    case PageOpType::kErase:
      page->entries.Erase(op.key);
      break;
    case PageOpType::kSetLinks:
      page->next = op.next;
      page->prev = op.prev;
      break;
    case PageOpType::kTruncateFrom:
      page->entries.TruncateFrom(op.key);
      break;
  }
  page->page_lsn = lsn;
  return Status::OK();
}

}  // namespace aurora::storage
