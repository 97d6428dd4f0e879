// Per-node runtime page cache: fs::PageCache behind a mutex.
//
// The paper's superlinear-speedup argument is aggregate memory — N nodes
// hold N caches' worth of the hot document set, so the cluster serves it
// without touching disk. The simulator already models this with
// fs::PageCache; this wrapper carries the same LRU byte-budgeted policy
// into the real-sockets runtime, where worker threads race on it. The
// cache tracks *residency* only (which documents count as "in RAM" on this
// node); the bytes themselves live in the DocStore's shared buffers, which
// the zero-copy send path writes without ever re-copying.
//
// The CacheDirectory holds every node's cache in one place — like the
// LoadBoard, it is cluster-shared state standing in for what loadd
// broadcasts would carry — so a broker on any node can ask "is this path
// resident on that peer?" and price a redirect accordingly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fs/page_cache.h"
#include "obs/registry.h"

namespace sweb::runtime {

class NodeCache {
 public:
  /// `capacity_bytes` of residency budget; 0 disables (every lookup
  /// misses, nothing is admitted).
  explicit NodeCache(std::uint64_t capacity_bytes) : cache_(capacity_bytes) {}
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  /// Hit test with LRU refresh + hit/miss stats — the serve path's probe.
  [[nodiscard]] bool lookup(std::string_view path);
  /// Side-effect-free residency probe — what the broker peeks at.
  [[nodiscard]] bool contains(std::string_view path) const;
  /// Admits `path` (evicting LRU entries to fit the byte budget).
  void insert(std::string_view path, std::uint64_t bytes);

  /// Registers `<prefix>.hits` / `<prefix>.misses` counters and a
  /// `<prefix>.bytes` gauge (kept current on insert/evict). Call
  /// before the cache is shared across threads.
  void bind_registry(obs::Registry& registry, const std::string& prefix);

  [[nodiscard]] std::uint64_t capacity() const;
  [[nodiscard]] std::uint64_t used() const;
  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] double hit_rate() const;

 private:
  void publish_bytes();  // caller holds mutex_

  mutable std::mutex mutex_;
  fs::PageCache cache_;
  obs::Gauge* bytes_gauge_ = nullptr;
};

/// One NodeCache per node, cluster-shared (like the LoadBoard) so every
/// node's broker can probe every peer's residency.
class CacheDirectory {
 public:
  CacheDirectory(int num_nodes, std::uint64_t bytes_per_node);

  [[nodiscard]] NodeCache& node(int n) {
    return *caches_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const NodeCache& node(int n) const {
    return *caches_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(caches_.size());
  }
  /// False when built with a zero byte budget: the serve path skips the
  /// cache entirely (pure copy path) and the broker applies no discount.
  [[nodiscard]] bool enabled() const noexcept { return bytes_per_node_ > 0; }
  [[nodiscard]] std::uint64_t bytes_per_node() const noexcept {
    return bytes_per_node_;
  }

  /// Is `path` resident on `node`? (No stats, no recency refresh.)
  [[nodiscard]] bool resident(int node, std::string_view path) const;

  /// Binds every node's cache under `node.<n>.cache.*`.
  void bind_registry(obs::Registry& registry);

 private:
  std::vector<std::unique_ptr<NodeCache>> caches_;
  std::uint64_t bytes_per_node_;
};

}  // namespace sweb::runtime
