#include "storage/file_store.h"

#include <algorithm>
#include <utility>

namespace hamr::storage {

void FileStore::install(const std::string& path, std::string data) {
  FileBuffer buffer = std::make_shared<const std::string>(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  // `buffer` takes the replaced version out: it is freed after the lock is
  // released, or later by the last reader still holding it.
  files_[path].swap(buffer);
}

FileBuffer FileStore::find(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

void FileStore::write_file(const std::string& path, std::string data) {
  if (device_ != nullptr) device_->charge(data.size());
  install(path, std::move(data));
}

Status FileStore::write_file_checked(const std::string& path,
                                     std::string&& data) {
  if (device_ != nullptr) {
    Status status = device_->charge_write(data.size());
    if (!status.ok()) return status;
  }
  install(path, std::move(data));
  return Status::Ok();
}

void FileStore::append(const std::string& path, std::string_view data) {
  if (device_ != nullptr) device_->charge(data.size());
  FileBuffer replaced;  // freed after the lock, as in install()
  {
    // Read-modify-write under the lock: concurrent appends to one path
    // serialize, and none of them touches a buffer a reader may hold.
    std::lock_guard<std::mutex> lock(mu_);
    FileBuffer& slot = files_[path];
    std::string grown;
    grown.reserve((slot ? slot->size() : 0) + data.size());
    if (slot) grown.append(*slot);
    grown.append(data);
    replaced = std::exchange(slot, std::make_shared<const std::string>(std::move(grown)));
  }
}

Result<FileBuffer> FileStore::read_file(const std::string& path) const {
  FileBuffer file = find(path);
  if (!file) return Status::NotFound("file: " + path);
  if (device_ != nullptr) device_->charge(file->size());
  return file;
}

Result<std::string> FileStore::read_range(const std::string& path,
                                          uint64_t offset, uint64_t len) const {
  FileBuffer file = find(path);
  if (!file) return Status::NotFound("file: " + path);
  if (offset >= file->size()) return std::string();
  const uint64_t n = std::min<uint64_t>(len, file->size() - offset);
  if (device_ != nullptr) device_->charge(n);
  return file->substr(offset, n);
}

Result<uint64_t> FileStore::file_size(const std::string& path) const {
  FileBuffer file = find(path);
  if (!file) return Status::NotFound("file: " + path);
  return static_cast<uint64_t>(file->size());
}

bool FileStore::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status FileStore::remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.erase(path) > 0 ? Status::Ok() : Status::NotFound("file: " + path);
}

std::vector<std::string> FileStore::list(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

uint64_t FileStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, file] : files_) total += file->size();
  return total;
}

}  // namespace hamr::storage
