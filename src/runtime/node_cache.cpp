#include "runtime/node_cache.h"

namespace sweb::runtime {

bool NodeCache::lookup(std::string_view path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.lookup(path);
}

bool NodeCache::contains(std::string_view path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.contains(path);
}

void NodeCache::insert(std::string_view path, std::uint64_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(path, bytes);
  publish_bytes();
}

void NodeCache::bind_registry(obs::Registry& registry,
                              const std::string& prefix) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.bind_registry(registry, prefix);
  bytes_gauge_ = &registry.gauge(prefix + ".bytes");
  publish_bytes();
}

void NodeCache::publish_bytes() {
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->set(static_cast<std::int64_t>(cache_.used()));
  }
}

std::uint64_t NodeCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.capacity();
}

std::uint64_t NodeCache::used() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.used();
}

std::uint64_t NodeCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.entries();
}

std::uint64_t NodeCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.hits();
}

std::uint64_t NodeCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.misses();
}

double NodeCache::hit_rate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.hit_rate();
}

CacheDirectory::CacheDirectory(int num_nodes, std::uint64_t bytes_per_node)
    : bytes_per_node_(bytes_per_node) {
  caches_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    caches_.push_back(std::make_unique<NodeCache>(bytes_per_node));
  }
}

bool CacheDirectory::resident(int node, std::string_view path) const {
  if (node < 0 || node >= num_nodes() || !enabled()) return false;
  return caches_[static_cast<std::size_t>(node)]->contains(path);
}

void CacheDirectory::bind_registry(obs::Registry& registry) {
  for (int n = 0; n < num_nodes(); ++n) {
    caches_[static_cast<std::size_t>(n)]->bind_registry(
        registry, "node." + std::to_string(n) + ".cache");
  }
}

}  // namespace sweb::runtime
