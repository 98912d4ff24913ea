#pragma once
// Standard in-memory trace sink with the two machine-readable exporters:
//
//  * Chrome trace_events JSON ("X" complete events + thread_name metadata),
//    loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
//  * Aggregated per-span summary JSON: count / total / min / max seconds per
//    span name plus all counter values, keys emitted in sorted order. The
//    summary's *structure* — span names, span counts, counter values — is
//    bit-identical across MTH_THREADS values (tools/check_determinism.sh
//    diffs it 1-vs-8 via tools/trace_schema_check.py --canonical); only the
//    duration fields carry wall-clock noise.

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mth/trace/trace.hpp"

namespace mth::trace {

/// Aggregated statistics for one span name.
struct SpanStat {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
};

/// Thread-safe collecting sink. Install with SinkScope, run the workload,
/// then export. Collection is append-only under one mutex — spans are
/// coarse (stage/phase/chunk granularity; the hottest per-iteration work is
/// counter-only), so contention stays far below the 2% overhead budget
/// (bench_runtime_profile measures it and exits nonzero above the budget).
class Collector final : public Sink {
 public:
  void span(const SpanRecord& rec) override;
  void counter(const char* name, std::int64_t delta) override;

  /// All span records, sorted by (start_ns, track) for stable export.
  std::vector<SpanRecord> sorted_spans() const;

  /// Aggregation keyed by span name, in sorted (std::map) key order.
  std::map<std::string, SpanStat> aggregate() const;

  /// Counter totals, sorted key order. Values are monotonic accumulations
  /// and deterministic for a deterministic workload.
  std::map<std::string, std::int64_t> counters() const;

  /// Drop every collected event and counter (for A/B reuse in benches).
  void clear();

  /// Chrome trace_events JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(std::ostream& os) const;
  /// Aggregated summary JSON. With `include_timings` false the duration
  /// fields are omitted entirely, yielding the canonical thread-count-
  /// independent form used by determinism diffs.
  void write_summary(std::ostream& os, bool include_timings = true) const;

  /// File-writing convenience wrappers; return false (and log) on I/O error.
  bool write_chrome_trace_file(const std::string& path) const;
  bool write_summary_file(const std::string& path,
                          bool include_timings = true) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::int64_t> counters_;
};

}  // namespace mth::trace
