// Per-request phase tracing in Chrome trace_event format.
//
// Every request moves through the paper's Table-5 phases
// (dns → connect → queue → preprocess → analysis → redirect → data → send);
// the tracer records one span per phase and serializes the whole experiment
// as a Chrome trace_event JSON file, so a run opens directly in
// chrome://tracing or https://ui.perfetto.dev. Process id = node, thread
// id = request: Perfetto then lays requests out as per-node swim lanes.
//
// Timestamps are caller-supplied seconds: the simulator feeds virtual
// sim-time, the real-sockets runtime feeds wall-clock seconds since the
// tracer's construction (now_seconds()).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace sweb::obs {

/// One trace_event entry. `dur_s` < 0 marks an instant event ("i"),
/// otherwise a complete span ("X").
struct TraceSpan {
  std::string name;
  std::string category;
  double ts_s = 0.0;
  double dur_s = 0.0;
  std::int64_t pid = 0;  // node id
  std::int64_t tid = 0;  // request id
  /// Extra key/value detail rendered into "args" (values emitted as strings).
  std::vector<std::pair<std::string, std::string>> args;
};

class SpanTracer {
 public:
  /// `enabled` = false makes every add a cheap no-op (one relaxed load);
  /// flip it on when a --trace-out sink exists.
  explicit SpanTracer(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Wall-clock seconds since this tracer was constructed — the runtime's
  /// time base (the simulator passes sim.now() instead).
  [[nodiscard]] double now_seconds() const;

  /// Fresh request id for tid labelling (shared across node threads).
  [[nodiscard]] std::uint64_t next_request_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add_span(TraceSpan span);
  void add_instant(std::string name, std::string category, double ts_s,
                   std::int64_t pid, std::int64_t tid);
  /// Names the pid lane ("node 3") via a metadata event.
  void set_process_name(std::int64_t pid, std::string name);

  [[nodiscard]] std::size_t size() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome JSON object
  /// format (preferred over the bare array: Perfetto and catapult both
  /// accept it and it self-terminates).
  void write_chrome_json(std::ostream& out) const;
  /// Convenience: write_chrome_json to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  std::vector<std::pair<std::int64_t, std::string>> process_names_;
};

/// Merges several Chrome trace JSON documents (each the object form
/// write_chrome_json emits) into one: the traceEvents arrays are
/// concatenated in input order and duplicated "M" metadata events (e.g. the
/// same process_name announced by every node's file) are dropped. With the
/// request id propagated across the 302 redirect, the origin and target
/// nodes' spans share a tid and stitch into one logical trace here.
/// nullopt when any input fails to parse or lacks a traceEvents array.
[[nodiscard]] std::optional<std::string> merge_chrome_traces(
    const std::vector<std::string>& docs);

/// File variant: reads every path, writes the merged document to
/// `out_path`. False on I/O or parse failure.
bool merge_chrome_trace_files(const std::vector<std::string>& paths,
                              const std::string& out_path);

}  // namespace sweb::obs
