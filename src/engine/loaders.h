// Built-in loader flowlet: TextLoader reads newline-delimited files from the
// node's local store, emitting (byte offset, line) records in fine-grain
// chunks (paper's TextLoader, Alg. 1/4). Paced streaming sources live in the
// stream layer (stream::GeneratorSource behind stream::SourceFlowlet).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "engine/flowlet.h"

namespace hamr::engine {

// Emits (key = decimal byte offset within the file, value = line without the
// trailing newline) on port 0. Each split covers [offset, offset+length) of a
// file in the preferred node's local store; a line belongs to the split where
// it starts (lines never straddle splits in the HAMR input layout - input
// distribution writes whole lines per node file).
class TextLoader : public LoaderFlowlet {
 public:
  explicit TextLoader(uint64_t lines_per_chunk = 2048)
      : lines_per_chunk_(lines_per_chunk == 0 ? 1 : lines_per_chunk) {}

  bool load_chunk(const InputSplit& split, uint64_t* cursor, Context& ctx) override;

 private:
  struct CachedSplit {
    std::string data;
  };
  std::shared_ptr<CachedSplit> split_data(const InputSplit& split, Context& ctx);
  void drop_split(const InputSplit& split);
  static std::string split_key(const InputSplit& split);

  const uint64_t lines_per_chunk_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<CachedSplit>> cache_;
};

}  // namespace hamr::engine
