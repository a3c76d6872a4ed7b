// Segmented message payload with shared ownership: the one byte type from
// Endpoint::send to the worker that processes a message.
//
// A Payload is a small owned `head` (frame/sequence headers, built per send)
// plus an optional immutable shared `body` (the bulk bytes - a shuffle bin,
// written once when it is sealed) addressed by offset/length. Copying a
// Payload copies the tiny head and bumps the body refcount, so the outbox,
// the retransmission slot, fault duplicates, the transport queue, the
// reorder stash and the bin queue all hold the same body bytes: they are
// written exactly once and copied nowhere, on either side of the transport.
//
// Readers take contiguous bytes through view(). Every payload a transport
// delivers is one segment (head-only or body-only) except an in-proc
// reliable-channel frame, whose view() is its frame header; suffix() then
// yields the framed message as a slice of the same body.
//
// A plain std::string converts implicitly (head-only payload), so callers
// without a shared body (RPC envelopes, acks, tests) are unaffected.
//
// Ownership rule: whoever holds a Payload keeps the body alive, and the
// last holder to drop it - wherever in the stack that is - frees it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace hamr::net {

class Payload {
 public:
  Payload() = default;
  // Implicit: a head-only payload owning its bytes.
  Payload(std::string bytes) : head_(std::move(bytes)) {}  // NOLINT
  Payload(const char* bytes) : head_(bytes) {}             // NOLINT

  // head + the whole shared body. The body segment follows the head on the
  // wire.
  static Payload with_body(std::string head,
                           std::shared_ptr<const std::string> body) {
    Payload p;
    p.head_ = std::move(head);
    p.body_len_ = body ? body->size() : 0;
    p.body_ = std::move(body);
    return p;
  }

  size_t size() const { return head_.size() + body_len_; }

  const std::string& head() const { return head_; }
  std::string_view body_view() const {
    return body_ ? std::string_view(*body_).substr(body_off_, body_len_)
                 : std::string_view();
  }

  // Contiguous bytes: the head when there is one, else the body slice. For a
  // one-segment payload that is all of it.
  std::string_view view() const {
    return head_.empty() ? body_view() : std::string_view(head_);
  }

  // Bytes [offset, size()) sharing this payload's body; only head bytes past
  // `offset` (a few header bytes at most) are copied.
  Payload suffix(size_t offset) const {
    Payload p;
    if (offset < head_.size()) p.head_ = head_.substr(offset);
    const size_t skip =
        std::min(offset - std::min(offset, head_.size()), body_len_);
    p.body_ = body_;
    p.body_off_ = body_off_ + skip;
    p.body_len_ = body_len_ - skip;
    return p;
  }

 private:
  std::string head_;
  std::shared_ptr<const std::string> body_;
  size_t body_off_ = 0;
  size_t body_len_ = 0;
};

}  // namespace hamr::net
