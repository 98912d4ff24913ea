#pragma once
// mth::serve — the flow/RAP job server behind tools/mth_serve (README
// "Serving").
//
// A Server is a long-lived engine fed line-delimited job envelopes (the
// mth::ser schema): each line is one job naming a bundled testcase or a
// LEF/DEF pair, a flow id, optional FlowOptions overrides and optionally a
// prior job to ECO-hot-start from. Admission control is a bounded queue
// with a typed reject on overload; scheduling is a deterministic
// round-robin over tenants in lexicographic order, so the execution order
// of any batch is a pure function of its envelopes. Jobs execute one at a
// time — the trace sink contract is process-global, and serial execution
// is also what makes a served batch bit-identical to the same runs through
// the mth_flow CLI (tools/check_determinism.sh, serve leg) — while each
// job's internal stages parallelize on the shared util::ThreadPool under
// the server's ExecPolicy.
//
// Each job runs under its own RunContext: a per-job trace::Collector is
// installed via FlowOptions::ctx.sink (exactly the mth_flow wiring), so a
// job's canonical trace summary matches the CLI's and server-layer spans
// (`serve/job`) never leak into it. Results are cached by canonical
// identity — testcase-or-design hash + options hash + flow + route — and a
// cache hit replays the stored response byte-identically except for the
// `id` and `cache_hit` fields. Completed jobs keep their RapResult so a
// later envelope can name them in `eco_base` (RapOptions::eco_base).

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mth/flows/flow.hpp"
#include "mth/ser/ser.hpp"
#include "mth/util/exec.hpp"

namespace mth::serve {

struct ServeOptions {
  /// A/B knob — admission bound: jobs queued across all tenants before a
  /// submit gets a typed `rejected` response instead of enqueueing
  /// (`serve/rejected` counter). Sized against the overload behavior of
  /// `bench_serve` (gated by tools/perf_smoke.sh) and settable via
  /// `mth_serve --max-queue`.
  int max_queue = 64;
  /// A/B toggle — result cache: keyed by canonical design/testcase hash +
  /// canonical options hash + flow + route (mth::ser hashing), a hit
  /// replays the stored response byte-identically (only `id`/`cache_hit`
  /// differ) without re-solving. The hit-vs-cold A/B lives in `bench_serve`
  /// (≥10× replay gate; tools/perf_smoke.sh) and behind
  /// `mth_serve --no-cache`.
  bool cache = true;
  /// Cached responses kept (FIFO eviction).
  int cache_capacity = 64;
  /// Completed jobs whose RapResult stays referenceable via `eco_base`
  /// (FIFO eviction, independent of the response cache).
  int keep_results = 64;
  /// Server-wide execution contract applied to every job (jobs carry no
  /// thread policy — that belongs to the serving process), plus the
  /// server-layer observability sink (`serve/*` spans and counters; per-job
  /// flow spans go to each job's own collector instead).
  RunContext ctx;
};

/// One job server. Not thread-safe: feed it from one reader loop
/// (tools/mth_serve.cpp) or one test.
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  /// Parse + admit one envelope line. Returns a complete response line for
  /// an immediate outcome (malformed envelope -> `error`, full queue ->
  /// `rejected`), or std::nullopt when the job was enqueued.
  std::optional<std::string> submit(const std::string& line);

  /// Execute the next job in deterministic tenant round-robin order.
  /// Returns its response line, or std::nullopt when the queue is empty.
  std::optional<std::string> step();

  /// step() until the queue is empty; responses in execution order.
  std::vector<std::string> drain();

  int queued() const;
  int accepted() const { return accepted_; }
  int rejected() const { return rejected_; }
  int completed() const { return completed_; }
  int cache_hits() const { return cache_hits_; }

  /// The RapResult a completed job left behind (null when the job is
  /// unknown, evicted, or its flow had no RAP stage). Exposed for tests and
  /// bench_serve; envelopes reference it by job id via `eco_base`.
  std::shared_ptr<const rap::RapResult> result_of(const std::string& id) const;

 private:
  // A parsed, admitted envelope (kinds "job" and "repro").
  struct Job {
    std::string id;
    std::string tenant;
    int flow = 5;
    bool route = false;
    std::string testcase;   // bundled-testcase jobs
    std::string lef_path;   // external-design jobs (with def_path)
    std::string def_path;
    std::string eco_base;   // prior job id to hot-start from ("" = none)
    flows::FlowOptions options;
  };

  std::string execute(const Job& job);

  ServeOptions opt_;
  // Tenant -> FIFO of its queued jobs; drained round-robin in key order.
  std::map<std::string, std::deque<Job>> queues_;
  // Lexicographic cursor: next drain pass resumes after this tenant, so one
  // chatty tenant cannot starve the others between submits.
  std::string cursor_;
  int queued_ = 0;
  int accepted_ = 0;
  int rejected_ = 0;
  int completed_ = 0;
  int cache_hits_ = 0;

  struct CacheEntry {
    ser::Value payload;  // response body minus id/cache_hit
    std::shared_ptr<const rap::RapResult> rap;
  };
  std::map<std::string, CacheEntry> cache_;
  std::deque<std::string> cache_order_;  // FIFO eviction
  std::map<std::string, std::shared_ptr<const rap::RapResult>> results_;
  std::deque<std::string> results_order_;  // FIFO eviction
};

}  // namespace mth::serve
