#include "engine/bin.h"

namespace hamr::engine {

namespace {

constexpr size_t kCountSlotBytes = 5;

// Writes `v` as exactly kCountSlotBytes varint bytes at `pos` (continuation
// bits forced on the leading four so short values still fill the slot).
void patch_padded_varint(std::string* out, size_t pos, uint64_t v) {
  for (size_t i = 0; i + 1 < kCountSlotBytes; ++i) {
    (*out)[pos + i] = static_cast<char>(((v >> (7 * i)) & 0x7f) | 0x80);
  }
  (*out)[pos + kCountSlotBytes - 1] =
      static_cast<char>((v >> (7 * (kCountSlotBytes - 1))) & 0x7f);
}

}  // namespace

BinBuilder::BinBuilder(uint64_t job_epoch, EdgeId edge)
    : job_epoch_(job_epoch), edge_(edge), open_(true) {}

void BinBuilder::open(uint64_t job_epoch, EdgeId edge) {
  job_epoch_ = job_epoch;
  edge_ = edge;
  open_ = true;
}

void BinBuilder::ensure_header() {
  if (header_written_) return;
  serde::put_varint(payload_, job_epoch_);
  serde::put_varint(payload_, edge_);
  count_pos_ = payload_.size();
  payload_.append(kCountSlotBytes, '\0');
  header_written_ = true;
}

void BinBuilder::add(std::string_view key, std::string_view value) {
  ensure_header();
  serde::put_varint(payload_, key.size());
  payload_.append(key.data(), key.size());
  serde::put_varint(payload_, value.size());
  payload_.append(value.data(), value.size());
  ++count_;
}

std::string BinBuilder::take() {
  ensure_header();  // a taken-but-empty bin still carries a valid header
  patch_padded_varint(&payload_, count_pos_, count_);
  std::string out = std::move(payload_);
  payload_.clear();
  header_written_ = false;
  count_ = 0;
  return out;
}

BinView::BinView(std::string_view data) : data_(data) {
  serde::Reader r(data_);
  job_epoch_ = r.get_varint();
  const uint64_t edge = r.get_varint();
  // Checked before narrowing, or a wider id would alias a real edge.
  if (edge > UINT32_MAX) throw serde::DecodeError("bin edge id out of range");
  edge_ = static_cast<EdgeId>(edge);
  count_ = r.get_varint();
  records_start_ = r.position();
  pos_ = records_start_;
}

bool BinView::next(KvPair* out) {
  if (seen_ >= count_) return false;
  serde::Reader r(data_.substr(pos_));
  out->key = r.get_bytes();
  out->value = r.get_bytes();
  pos_ += r.position();
  ++seen_;
  return true;
}

void BinView::rewind() {
  pos_ = records_start_;
  seen_ = 0;
}

}  // namespace hamr::engine
