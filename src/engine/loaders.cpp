#include "engine/loaders.h"

#include "obs/trace.h"

namespace hamr::engine {

std::string TextLoader::split_key(const InputSplit& split) {
  return split.path + "@" + std::to_string(split.offset) + "+" +
         std::to_string(split.length);
}

std::shared_ptr<TextLoader::CachedSplit> TextLoader::split_data(
    const InputSplit& split, Context& ctx) {
  const std::string key = split_key(split);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Read outside the lock (pays the disk cost); concurrent first-chunk calls
  // for the same split cannot happen (one task chain per split).
  auto cached = std::make_shared<CachedSplit>();
  const uint64_t len = split.length == 0 ? UINT64_MAX : split.length;
  obs::TraceSpan span("loader.read_split", "engine.io", ctx.node(), -1,
                      static_cast<int64_t>(split.offset));
  auto data = ctx.local_store().read_range(split.path, split.offset, len);
  data.status().ExpectOk();
  cached->data = std::move(data).value();
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.emplace(key, std::move(cached)).first->second;
}

void TextLoader::drop_split(const InputSplit& split) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.erase(split_key(split));
}

bool TextLoader::load_chunk(const InputSplit& split, uint64_t* cursor,
                            Context& ctx) {
  auto cached = split_data(split, ctx);
  const std::string& data = cached->data;
  uint64_t pos = *cursor;
  uint64_t lines = 0;
  while (pos < data.size() && lines < lines_per_chunk_) {
    size_t eol = data.find('\n', pos);
    if (eol == std::string::npos) eol = data.size();
    if (eol > pos) {  // skip empty lines
      const std::string key = std::to_string(split.offset + pos);
      ctx.emit(0, key, std::string_view(data).substr(pos, eol - pos));
    }
    pos = eol + 1;
    ++lines;
  }
  if (pos >= data.size()) {
    drop_split(split);
    return false;
  }
  *cursor = pos;
  return true;
}

}  // namespace hamr::engine
