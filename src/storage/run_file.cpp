#include "storage/run_file.h"

#include <cassert>

#include "serde/serde.h"
#include "storage/staged_runs.h"

namespace hamr::storage {

RunWriter::RunWriter(FileStore* store, std::string path, uint64_t size_hint)
    : store_(store), path_(std::move(path)) {
  buf_.reserve(size_hint);
}

RunWriter::~RunWriter() {
  if (!closed_) close();
}

uint64_t RunWriter::record_bytes(size_t key_len, size_t value_len) {
  return serde::varint_size(key_len) + key_len + serde::varint_size(value_len) +
         value_len;
}

void RunWriter::add(std::string_view key, std::string_view value) {
  assert(!closed_);
  assert(records_ == 0 ||
         key >= std::string_view(buf_).substr(last_key_pos_, last_key_len_));
  serde::put_varint(buf_, key.size());
  last_key_pos_ = buf_.size();
  last_key_len_ = key.size();
  buf_.append(key);
  serde::put_varint(buf_, value.size());
  buf_.append(value);
  ++records_;
}

uint64_t RunWriter::close() {
  if (closed_) return bytes_;
  closed_ = true;
  bytes_ = buf_.size();
  store_->write_file(path_, std::move(buf_));
  return bytes_;
}

Result<uint64_t> RunWriter::finish() {
  if (closed_) return bytes_;
  const uint64_t bytes = buf_.size();
  Status status = store_->write_file_checked(path_, std::move(buf_));
  if (!status.ok()) return status;  // buf_ is intact for the retry
  closed_ = true;
  bytes_ = bytes;
  return bytes_;
}

RunReader::RunReader(const FileStore* store, const std::string& path) {
  auto result = store->read_file(path);
  result.status().ExpectOk();
  data_ = std::move(result).value();
}

bool RunReader::next(std::string_view* key, std::string_view* value) {
  if (pos_ >= data_->size()) return false;
  serde::Reader r(std::string_view(*data_).substr(pos_));
  *key = r.get_bytes();
  *value = r.get_bytes();
  pos_ += r.position();
  return true;
}

namespace {

uint64_t merge_runs_once(FileStore* store, const std::vector<std::string>& run_paths,
                         const std::string& out_path) {
  std::vector<RunReader> readers;
  readers.reserve(run_paths.size());
  uint64_t out_bytes = 0;  // the merge re-encodes every record unchanged
  for (const auto& path : run_paths) {
    readers.emplace_back(store, path);
    out_bytes += readers.back().size();
  }
  LoserTree<RunReader> tree(std::move(readers));
  RunWriter out(store, out_path, out_bytes);
  uint64_t written = 0;
  std::string_view key, value;
  while (tree.next(&key, &value)) {
    out.add(key, value);
    ++written;
  }
  out.close();
  return written;
}

}  // namespace

uint64_t merge_runs(FileStore* store, const std::vector<std::string>& run_paths,
                    const std::string& out_path, size_t max_fan_in) {
  if (max_fan_in < 2 || run_paths.size() <= max_fan_in) {
    return merge_runs_once(store, run_paths, out_path);
  }
  // Bounded fan-in: merge groups into intermediate files, repeat.
  std::vector<std::string> current = run_paths;
  uint64_t pass = 0;
  while (current.size() > max_fan_in) {
    std::vector<std::string> next;
    for (size_t i = 0; i < current.size(); i += max_fan_in) {
      const size_t end = std::min(i + max_fan_in, current.size());
      std::vector<std::string> group(current.begin() + i, current.begin() + end);
      if (group.size() == 1) {
        next.push_back(group[0]);
        continue;
      }
      const std::string intermediate =
          out_path + ".merge" + std::to_string(pass) + "_" + std::to_string(i);
      merge_runs_once(store, group, intermediate);
      for (const std::string& path : group) {
        if (path != intermediate) (void)store->remove(path);
      }
      next.push_back(intermediate);
    }
    current = std::move(next);
    ++pass;
  }
  const uint64_t written = merge_runs_once(store, current, out_path);
  for (const std::string& path : current) {
    if (path != out_path) (void)store->remove(path);
  }
  return written;
}

}  // namespace hamr::storage
