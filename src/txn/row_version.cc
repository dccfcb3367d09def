#include "src/txn/row_version.h"

#include <cstring>

namespace aurora::txn {

namespace {

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void PutString(std::string& out, const std::string& s) {
  PutU64(out, s.size());
  out.append(s);
}

struct Reader {
  std::string_view data;
  size_t pos = 0;

  bool ReadU64(uint64_t* v) {
    if (data.size() - pos < 8) return false;
    std::memcpy(v, data.data() + pos, 8);
    pos += 8;
    return true;
  }
  bool ReadString(std::string* s) {
    uint64_t len;
    if (!ReadU64(&len)) return false;
    if (data.size() - pos < len) return false;
    s->assign(data.data() + pos, len);
    pos += len;
    return true;
  }
  bool ReadBool(bool* b) {
    if (pos >= data.size()) return false;
    *b = data[pos++] != 0;
    return true;
  }
};

/// Encoded bytes of a RowVersion: txn, deleted flag, length-prefixed
/// value, undo block, length-prefixed undo key.
size_t RowVersionSize(const RowVersion& version) {
  return 8 + 1 + 8 + version.value.size() + 8 + 8 + version.undo.key.size();
}

void EncodeRowVersionTo(std::string& out, const RowVersion& version) {
  PutU64(out, version.txn);
  out.push_back(version.deleted ? 1 : 0);
  PutString(out, version.value);
  PutU64(out, version.undo.block);
  PutString(out, version.undo.key);
}

bool DecodeRowVersionFrom(Reader& reader, RowVersion* version) {
  uint64_t txn, block;
  if (!reader.ReadU64(&txn) || !reader.ReadBool(&version->deleted) ||
      !reader.ReadString(&version->value) || !reader.ReadU64(&block) ||
      !reader.ReadString(&version->undo.key)) {
    return false;
  }
  version->txn = txn;
  version->undo.block = block;
  return true;
}

}  // namespace

std::string EncodeRowVersion(const RowVersion& version) {
  std::string out;
  out.reserve(RowVersionSize(version));
  EncodeRowVersionTo(out, version);
  return out;
}

Result<RowVersion> DecodeRowVersion(std::string_view encoded) {
  Reader reader{encoded};
  RowVersion version;
  if (!DecodeRowVersionFrom(reader, &version) ||
      reader.pos != encoded.size()) {
    return Status::Corruption("bad row version encoding");
  }
  return version;
}

std::string EncodeUndoEntry(const UndoEntry& entry) {
  std::string out;
  out.reserve(8 + entry.row_key.size() + 1 + RowVersionSize(entry.prev) + 8 +
              8 + entry.next.key.size());
  PutString(out, entry.row_key);
  out.push_back(entry.prev_exists ? 1 : 0);
  EncodeRowVersionTo(out, entry.prev);
  PutU64(out, entry.next.block);
  PutString(out, entry.next.key);
  return out;
}

Result<UndoEntry> DecodeUndoEntry(std::string_view encoded) {
  Reader reader{encoded};
  UndoEntry entry;
  uint64_t next_block;
  if (!reader.ReadString(&entry.row_key) ||
      !reader.ReadBool(&entry.prev_exists) ||
      !DecodeRowVersionFrom(reader, &entry.prev) ||
      !reader.ReadU64(&next_block) || !reader.ReadString(&entry.next.key) ||
      reader.pos != encoded.size()) {
    return Status::Corruption("bad undo entry encoding");
  }
  entry.next.block = next_block;
  return entry;
}

}  // namespace aurora::txn
