// Sorted-run files: the on-disk format shared by the baseline engine's
// map-side sort/spill/merge and by HAMR's reduce-input spill path.
//
// A run file is a sequence of length-prefixed (key, value) records whose keys
// are non-decreasing. RunWriter enforces the ordering in debug builds;
// RunReader streams records back without materializing the file as records;
// merge_runs k-way merges many runs into one through the loser tree of
// staged_runs.h (paying device cost for both the reads and the writes,
// exactly like Hadoop's multi-pass merge).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/file_store.h"

namespace hamr::storage {

// Encodes sorted records straight into the file's own buffer and moves it
// into the store once on close(), so device cost is charged for the file's
// full size exactly once (sequential write) and the bytes are never copied.
class RunWriter {
 public:
  // `size_hint` reserves the buffer up front; pass the exact file size (the
  // sum of record_bytes() over the records) to write without regrowth.
  RunWriter(FileStore* store, std::string path, uint64_t size_hint = 0);
  ~RunWriter();

  // Encoded size of one record in a run file.
  static uint64_t record_bytes(size_t key_len, size_t value_len);

  void add(std::string_view key, std::string_view value);

  // Flushes and finalizes the file. Returns total bytes written.
  uint64_t close();

  // Fallible close: on an injected device write error the buffer is kept and
  // the writer stays open, so the caller can back off and call finish()
  // again (or fall back to the infallible close()).
  Result<uint64_t> finish();

  uint64_t records() const { return records_; }

 private:
  FileStore* store_;
  std::string path_;
  std::string buf_;
  uint64_t bytes_ = 0;  // file size, once closed (buf_ has moved out)
  uint64_t records_ = 0;
  bool closed_ = false;
  // Ordering check: the previous key, as a range of buf_ (no per-record copy).
  size_t last_key_pos_ = 0;
  size_t last_key_len_ = 0;
};

// Sequentially decodes a run file. The file's shared buffer is fetched once
// (charging the device for one sequential read) and iterated in place.
class RunReader {
 public:
  RunReader(const FileStore* store, const std::string& path);

  // Returns false at end of file. The views point into the file's buffer,
  // which the reader keeps alive: they stay valid for the reader's lifetime.
  bool next(std::string_view* key, std::string_view* value);

  bool done() const { return pos_ >= data_->size(); }

  // The file's size in bytes.
  uint64_t size() const { return data_->size(); }

 private:
  FileBuffer data_;
  size_t pos_ = 0;
};

// K-way merges sorted runs into `out_path`. Stable on equal keys (run order).
// Returns the number of records written. `max_fan_in` (>= 2) bounds how many
// runs merge at once, like Hadoop's io.sort.factor: with more runs than the
// fan-in, intermediate merge files are written and re-read (extra disk
// passes - the behavior the paper's in-memory engine avoids). 0 = unlimited.
uint64_t merge_runs(FileStore* store, const std::vector<std::string>& run_paths,
                    const std::string& out_path, size_t max_fan_in = 0);

}  // namespace hamr::storage
