// Per-node local file system, hermetic and in-memory, fronted by the node's
// ThrottledDevice for cost accounting.
//
// This stands in for each cluster node's local disks: map-task spill files,
// shuffle segments, HAMR spill runs, and MiniDfs block storage all live here.
// Keeping bytes in memory (with modeled I/O cost) makes every test and bench
// deterministic and independent of the host file system.
//
// Buffer ownership: each file is one immutable shared buffer. read_file hands
// out that buffer itself, not a copy; writers move their bytes in, and every
// write or append swaps a new buffer into the map under the store lock, so a
// buffer once handed out never changes and stays alive while a reader holds it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/device.h"

namespace hamr::storage {

// A file's bytes as handed out by read_file: immutable, shared with the store
// and with every other reader of the same file version.
using FileBuffer = std::shared_ptr<const std::string>;

class FileStore {
 public:
  // `device` may be null (free I/O); when set, reads and writes are charged.
  explicit FileStore(ThrottledDevice* device = nullptr) : device_(device) {}

  // Creates or truncates a file; `data` becomes the file's buffer.
  void write_file(const std::string& path, std::string data);

  // Fallible variant: consults the device's fault injector and, on an
  // injected write error, leaves the file untouched and returns the error.
  // `data` is moved from only on success, so the caller can retry with the
  // same bytes. Recovery-aware writers (the engine's spill path) use this.
  Status write_file_checked(const std::string& path, std::string&& data);

  // Appends to a file, creating it if absent. Copies the old contents into a
  // new buffer (readers of the old one are unaffected), so it suits the few
  // large appends of an output writer, not a stream of small ones.
  void append(const std::string& path, std::string_view data);

  // The whole file, without a copy. Charges the device for its full size.
  Result<FileBuffer> read_file(const std::string& path) const;

  // Reads [offset, offset+len) clamped to file size.
  Result<std::string> read_range(const std::string& path, uint64_t offset,
                                 uint64_t len) const;

  Result<uint64_t> file_size(const std::string& path) const;
  bool exists(const std::string& path) const;
  Status remove(const std::string& path);

  // All paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix) const;

  // Total bytes across all files (memory-footprint probe for tests).
  uint64_t total_bytes() const;

  ThrottledDevice* device() const { return device_; }

 private:
  // Swaps `data` in as the file's buffer.
  void install(const std::string& path, std::string data);
  // The file's current buffer, or null when it does not exist.
  FileBuffer find(const std::string& path) const;

  ThrottledDevice* device_;
  mutable std::mutex mu_;
  std::map<std::string, FileBuffer> files_;
};

}  // namespace hamr::storage
