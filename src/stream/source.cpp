#include "stream/source.h"

#include <thread>

#include "common/hash.h"

namespace hamr::stream {

// --- GeneratorSource -------------------------------------------------------

GeneratorSource::GeneratorSource(GeneratorConfig config)
    : config_(std::move(config)) {
  if (config_.events_per_sec > 0) {
    gate_ = std::make_unique<engine::RateGate>(config_.events_per_sec);
  }
}

int64_t GeneratorSource::event_ts(uint64_t index) const {
  int64_t ts = config_.base_ts_us +
               static_cast<int64_t>(index) * config_.period_us;
  if (config_.jitter_us > 0) {
    // Forward-only jitter keeps the cursor watermark exact: every event at
    // index >= c has ts >= base + c * period.
    ts += static_cast<int64_t>(
        hash_combine(config_.seed, index) %
        static_cast<uint64_t>(config_.jitter_us + 1));
  }
  return ts;
}

bool GeneratorSource::poll(const engine::InputSplit& split, uint64_t* cursor,
                           size_t max_events, engine::Context& ctx,
                           std::vector<StreamEvent>* out) {
  (void)ctx;
  uint64_t i = *cursor;
  uint64_t end = i + max_events;
  if (config_.total_events > 0 && end > config_.total_events) {
    end = config_.total_events;
  }
  if (i >= end) return config_.total_events == 0;
  if (gate_) gate_->charge(end - i);
  for (; i < end; ++i) {
    StreamEvent ev;
    ev.ts_us = event_ts(i);
    if (config_.make) {
      config_.make(split, i, &ev.key, &ev.value);
    } else {
      ev.key = "k" + std::to_string(i % 64);
      ev.value = "1";
    }
    out->push_back(std::move(ev));
  }
  *cursor = i;
  return config_.total_events == 0 || i < config_.total_events;
}

int64_t GeneratorSource::watermark(const engine::InputSplit& split,
                                   uint64_t cursor) {
  (void)split;
  if (config_.total_events > 0 && cursor >= config_.total_events) {
    return INT64_MAX;
  }
  return config_.base_ts_us + static_cast<int64_t>(cursor) * config_.period_us;
}

// --- FileTailSource --------------------------------------------------------

bool FileTailSource::poll(const engine::InputSplit& split, uint64_t* cursor,
                          size_t max_events, engine::Context& ctx,
                          std::vector<StreamEvent>* out) {
  const std::string& path = split.path.empty() ? config_.path : split.path;
  auto data = ctx.local_store().read_range(path, *cursor, config_.max_read_bytes);
  if (!data.ok()) {
    // Not created yet: keep tailing (bounded replays stop instead).
    return !config_.stop_at_eof;
  }
  const std::string& chunk = data.value();
  size_t pos = 0;
  size_t produced = 0;
  while (produced < max_events) {
    const size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) break;  // incomplete trailing line stays
    const std::string_view line(chunk.data() + pos, nl - pos);
    pos = nl + 1;
    const size_t t1 = line.find('\t');
    if (t1 == std::string_view::npos) continue;  // malformed: skip
    const size_t t2 = line.find('\t', t1 + 1);
    if (t2 == std::string_view::npos) continue;
    int64_t ts = 0;
    bool neg = false;
    size_t d = 0;
    if (d < t1 && line[d] == '-') {
      neg = true;
      ++d;
    }
    bool ok = d < t1;
    for (; d < t1; ++d) {
      if (line[d] < '0' || line[d] > '9') {
        ok = false;
        break;
      }
      ts = ts * 10 + (line[d] - '0');
    }
    if (!ok) continue;
    if (neg) ts = -ts;
    StreamEvent ev;
    ev.ts_us = ts;
    ev.key.assign(line.substr(t1 + 1, t2 - t1 - 1));
    ev.value.assign(line.substr(t2 + 1));
    if (ev.ts_us > max_ts_) max_ts_ = ev.ts_us;
    out->push_back(std::move(ev));
    ++produced;
  }
  *cursor += pos;
  if (config_.stop_at_eof && produced == 0 && pos == 0) {
    auto size = ctx.local_store().file_size(path);
    if (size.ok() && *cursor >= size.value()) return false;
  }
  return true;
}

int64_t FileTailSource::watermark(const engine::InputSplit& split,
                                  uint64_t cursor) {
  (void)split;
  (void)cursor;
  if (max_ts_ == INT64_MIN) return INT64_MIN;
  return max_ts_ - config_.allowed_lateness_us;
}

// --- SourceFlowlet ---------------------------------------------------------

SourceFlowlet::SourceFlowlet(std::unique_ptr<StreamSource> source,
                             SourceOptions options)
    : source_(std::move(source)), options_(std::move(options)) {
  if (options_.events_per_chunk == 0) options_.events_per_chunk = 1;
  if (options_.punctuate_every == 0) options_.punctuate_every = 1;
}

bool SourceFlowlet::load_chunk(const engine::InputSplit& split,
                               uint64_t* cursor, engine::Context& ctx) {
  if (ingested_c_ == nullptr) {
    ingested_c_ = ctx.metrics().counter("stream.events_ingested");
    stalls_c_ = ctx.metrics().counter("stream.backpressure_stalls");
  }
  StreamStats* stats = options_.stats.get();

  // Backpressure from open-window state: over budget, nap briefly (like
  // RateGate's pacing nap) and retry the same cursor. The engine's own
  // outbox / bin-queue credits throttle the path below this one.
  if (!ctx.stream_stopping() && options_.window_buffer_budget > 0 &&
      stats != nullptr &&
      stats->window_bytes.load(std::memory_order_relaxed) >
          options_.window_buffer_budget) {
    stalls_c_->inc();
    stats->backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(options_.backpressure_pause);
    return true;
  }

  if (ctx.stream_stopping()) {
    // Drain: everything emitted so far is final; a +inf watermark lets every
    // buffered window close through the watermark path before completion.
    punctuate(split, *cursor, ctx, /*final_punct=*/true);
    return false;
  }

  batch_.clear();
  const bool more = source_->poll(split, cursor, options_.events_per_chunk,
                                  ctx, &batch_);
  for (const StreamEvent& ev : batch_) {
    // Composite (window, key) records, built in a reused buffer: only the
    // 16-hex window end changes between the covering windows of one event.
    key_buf_.resize(kWindowKeyPrefix + ev.key.size());
    std::copy(ev.key.begin(), ev.key.end(),
              key_buf_.begin() + kWindowKeyPrefix);
    options_.window.each_window(ev.ts_us, [&](int64_t end) {
      write_window_prefix(end, key_buf_.data());
      ctx.emit(0, key_buf_, ev.value);
    });
  }
  if (!batch_.empty()) {
    ingested_c_->add(batch_.size());
    if (stats != nullptr) {
      stats->events_ingested.fetch_add(batch_.size(),
                                       std::memory_order_relaxed);
    }
    events_since_punct_ += batch_.size();
  }
  if (!more) {
    punctuate(split, *cursor, ctx, /*final_punct=*/true);
    return false;
  }
  if (events_since_punct_ >= options_.punctuate_every) {
    punctuate(split, *cursor, ctx, /*final_punct=*/false);
  }
  return true;
}

void SourceFlowlet::punctuate(const engine::InputSplit& split, uint64_t cursor,
                              engine::Context& ctx, bool final_punct) {
  events_since_punct_ = 0;
  const int64_t wm =
      final_punct ? INT64_MAX : source_->watermark(split, cursor);
  if (wm == INT64_MIN || wm <= last_watermark_) return;
  last_watermark_ = wm;
  // One split per node (origin = the split's node): broadcast rides the same
  // out-edge as data, behind every event it covers on each channel.
  ctx.emit_broadcast(0, punctuation_key(),
                     encode_punctuation(split.preferred_node, wm));
  StreamStats* stats = options_.stats.get();
  if (stats != nullptr && !final_punct) {
    int64_t prev = stats->watermark.load(std::memory_order_relaxed);
    while (wm > prev &&
           !stats->watermark.compare_exchange_weak(prev, wm)) {
    }
  }
}

}  // namespace hamr::stream
