#include "src/content/client_buffer.h"

#include <stdexcept>

namespace cvr::content {

ClientTileBuffer::ClientTileBuffer(std::size_t threshold)
    : threshold_(threshold) {
  if (threshold == 0) {
    throw std::invalid_argument("ClientTileBuffer: zero threshold");
  }
}

void ClientTileBuffer::unlink(std::uint32_t node) {
  Node& n = nodes_[node];
  (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
}

void ClientTileBuffer::push_front(std::uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = node;
  head_ = node;
}

void ClientTileBuffer::insert(VideoId id, std::vector<VideoId>& released) {
  if (const std::uint32_t* held = index_.find(id)) {
    if (*held != head_) {
      unlink(*held);
      push_front(*held);
    }
    return;
  }
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
  } else {
    if (nodes_.size() >= kNil) {
      throw std::length_error("ClientTileBuffer: node pool exhausted");
    }
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].id = id;
  push_front(node);
  index_.insert(id, node);
  while (index_.size() > threshold_) {
    const std::uint32_t victim = tail_;
    released.push_back(nodes_[victim].id);
    index_.erase(nodes_[victim].id);
    unlink(victim);
    nodes_[victim].next = free_;
    free_ = victim;
    ++released_total_;
  }
}

bool ClientTileBuffer::touch(VideoId id) {
  const std::uint32_t* held = index_.find(id);
  if (held == nullptr) return false;
  if (*held != head_) {
    unlink(*held);
    push_front(*held);
  }
  return true;
}

}  // namespace cvr::content
