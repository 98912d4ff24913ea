#pragma once
// Row Assignment Problem (RAP) — the paper's core contribution (§III-B/C).
//
// Minority cells are clustered with 2-D k-means (N_C = s * N_minC); an ILP
// then assigns each cluster to a row pair while choosing which N_minR pairs
// become minority rows:
//
//   min  sum f_cr x_cr                      f_cr = a*Disp + (1-a)*dHPWL  (1,2)
//   s.t. sum_r x_cr = 1            for all c                             (3)
//        sum_c w(c) x_cr <= w(r) y_r  for all r   (capacity + linking; the
//                                     max_c x_cr of Eq. 5 is linearized with
//                                     binary y_r — DESIGN.md §5.1)        (4)
//        sum_r y_r = N_minR                                              (5)
//
// Disp(c,r) sums |y(r) - y(cell)| over the cluster's cells; dHPWL(c,r) sums
// each cell's HPWL change when moved vertically to row r at constant x.
// Cluster widths use the *original* (pre-mLEF) cell widths (§III-C).

#include <memory>

#include "mth/db/design.hpp"
#include "mth/db/rowassign.hpp"
#include "mth/ilp/solver.hpp"
#include "mth/util/exec.hpp"

namespace mth::rap {

struct RapResult;

struct RapOptions {
  double s = 0.2;        ///< clustering resolution (paper-tuned; Fig. 4a)
  double alpha = 0.75;   ///< displacement weight (paper-tuned; Fig. 4b)
  /// A/B toggle — false == one cluster per cell, the paper's unclustered
  /// exact formulation. Benched by `bench_ablation_clustering` (EXPERIMENTS
  /// A1); no dedicated CLI flag (edit the bench env or call solve_rap).
  bool use_clustering = true;
  /// Minority row-pair budget; 0 = auto-size from minority width demand
  /// (paper: "set N_minR to match the result from the Flow (2)").
  int n_min_pairs = 0;
  double minority_row_fill = 0.80;  ///< fill target for auto-sizing
  /// Library supplying cell widths for Eq. 4 (the original mixed-height
  /// library when the design is in mLEF space); null == design's library.
  const Library* width_library = nullptr;
  int kmeans_max_iterations = 40;
  /// A/B knob — candidate-row pruning: keep only this many cheapest rows
  /// (by f_cr, ties to the lower row index) as assignment candidates per
  /// cluster, shrinking the ILP from N_C*N_R to N_C*K variables. 0 =
  /// dense/exact formulation — every row stays a candidate. The dense-cold
  /// vs sparse-warm A/B lives in `bench_fig5_ilp_scaling`
  /// (gated by tools/perf_smoke.sh). A cluster whose
  /// pruned set cannot absorb it is widened (candidate count doubled) until
  /// feasible, so pruning never manufactures infeasibility.
  int max_cand_rows = 64;
  /// Model the displacement of majority cells evicted from chosen minority
  /// pairs as a linear cost on y_r. The paper's f_cr covers minority cells
  /// only; Table IV's metric is *total* displacement, and at small design
  /// scales majority eviction dominates it, so this extension keeps the
  /// objective aligned with the reported metric (DESIGN.md §5; ablated in
  /// bench_ablation_clustering).
  bool model_eviction = true;
  /// Execution policy (ctx.exec.num_threads drives the cost-matrix build
  /// and k-means assignment; see util::ExecPolicy) and observability sink.
  /// solve_rap installs ctx.sink for its duration, emitting rap/cluster,
  /// rap/cost_matrix and rap/ilp spans plus the solver counters (README
  /// "Observability"); a null sink inherits the caller's.
  RunContext ctx;
  /// A/B toggle — attach a RapCertificate (final root model + LP duals) to
  /// the result so verify::certify_rap can bound the optimality gap
  /// independently (`mth_fuzz --certify`; EXPERIMENTS V1). Costs one copy
  /// of the (sparse, pruned) model; off for memory-tight sweeps.
  bool export_certificate = true;
  /// A/B knob — sharded decomposition (solve_rap_sharded): the floorplan's
  /// row pairs are cut into this many contiguous horizontal bands, the
  /// minority-row quota is split across bands proportionally to band cluster
  /// mass, each band solves as an independent sparse RAP subproblem on the
  /// deterministic thread pool, and every band boundary is then reconciled
  /// by a small repair ILP. 1 = whole-design exact solve (solve_rap
  /// semantics; the default), 0 = auto-size the band count from the cluster
  /// count, N > 1 = exactly min(N, feasible) bands. Decomposition trades the
  /// whole-design certificate for per-band certificates aggregated by
  /// verify::certify_rap. The sharded-vs-whole A/B lives in `bench_scaling`
  /// (gated by tools/perf_smoke.sh) and behind `mth_flow --shards`.
  int shards = 1;
  /// Pairs on each side of a band boundary re-optimized by the boundary
  /// repair ILP after the band merge (solve_rap_sharded only).
  int shard_overlap = 2;
  ilp::Options ilp = default_ilp_options();
  /// A/B knob — ECO re-solve (README "Serving"): a prior whole-design
  /// RapResult for a *similar* design (same floorplan pair count, quota and
  /// cluster count — typically the pre-perturbation run of an ECO loop).
  /// When set and compatible, solve_rap hot-starts from it: the prior
  /// cluster→pair assignment and open-row set are offered as the incumbent
  /// warm point, and the prior certificate's root lp::Basis seeds the root
  /// cut loop's first LP (dual re-solve instead of cold two-phase). A warm
  /// hint never changes the answer, only the work — incompatible or
  /// infeasible hints fall back to the cold path. Acceptance shows up as
  /// RapResult::basis_reuse_hits and the `rap/eco_hot` trace counter. The
  /// warm-vs-cold ECO A/B lives in `bench_serve` (gated by
  /// tools/perf_smoke.sh) and behind the mth_serve `eco_base` job field.
  std::shared_ptr<const RapResult> eco_base;

  static ilp::Options default_ilp_options() {
    // CPLEX-with-a-deadline semantics: prove optimality within the gap when
    // possible, otherwise return the incumbent + bound (status Feasible).
    ilp::Options o;
    o.time_limit_s = 20.0;
    o.rel_gap = 5e-3;
    o.max_nodes = 4000;
    o.lp.refactor_interval = 96;
    return o;
  }
};

/// Everything an external verifier needs to re-derive the solved ILP and
/// bound its optimality gap without trusting the solver: the final root
/// model (Eqs. 3-5 + linking cuts, exactly what branch & bound searched),
/// the root relaxation's lp::solve dual vector, and the index maps tying
/// model variables back to (cluster, candidate pair) / pair indicators.
/// verify::certify_rap checks the model's rows and objective coefficients
/// against its own recomputation of f_cr / Eq. 4 data, then evaluates the
/// Lagrangian bound from the duals with independent arithmetic.
struct RapCertificate {
  lp::Model model;                     ///< final root model, root bounds
  std::vector<double> duals;           ///< root-LP row duals (lp::solve)
  double root_lp_objective = 0.0;      ///< claimed root relaxation optimum
  std::vector<std::vector<int>> xvar;  ///< cluster -> model var per candidate
  std::vector<std::vector<int>> cand;  ///< cluster -> candidate pair indices
  std::vector<int> yvar;               ///< pair -> indicator model var
  std::vector<Dbu> cluster_w;          ///< Eq. 4 cluster widths (width lib)
  std::vector<double> evict_cost;      ///< y_r objective coefficients
  /// Optimal basis of the *base* model's first root-relaxation solve (round
  /// 0 of the cut loop, before any linking cuts were appended). Unlike the
  /// final cut-loop basis, this one is loadable into a freshly built model
  /// of the same shape (lp::load_warm_basis requires m_old <= m), which is
  /// exactly what an ECO re-solve builds — see RapOptions::eco_base. Empty
  /// when the round-0 LP did not export a basis.
  lp::Basis root_basis;
};

/// One horizontal band of a sharded solve (solve_rap_sharded): the pair
/// window it owns, the clusters routed to it, its share of the Eq. 5 quota,
/// and the band subproblem's solver outcome *at band-solve time* — the
/// boundary repair pass may afterwards move clusters or open pairs across
/// band edges, which only ever lowers the global objective.
/// verify::certify_rap checks each band's certificate against the band
/// window and aggregates the per-band dual bounds into a whole-design
/// decomposition bound.
struct RapBand {
  int pair_lo = 0;            ///< first row pair of the band (inclusive)
  int pair_hi = 0;            ///< one past the band's last row pair
  std::vector<int> clusters;  ///< global cluster ids solved in this band
  int n_min_pairs = 0;        ///< band share of the Eq. 5 quota
  ilp::Status status = ilp::Status::NoSolution;
  double objective = 0.0;     ///< band ILP objective (pre-repair)
  double best_bound = 0.0;    ///< band dual bound (pre-repair)
  /// Band-local certificate: cand/yvar indices are band-relative (pair 0 ==
  /// pair_lo), cluster indices follow `clusters` order. Null for bands with
  /// no clusters (their trivial optimum needs no dual certificate).
  std::shared_ptr<const RapCertificate> certificate;
};

struct RapResult {
  RowAssignment assignment;
  std::vector<InstId> minority_cells;
  std::vector<int> cluster_of;   ///< minority-cell index -> cluster
  std::vector<int> cluster_pair; ///< cluster -> assigned row pair
  int num_clusters = 0;
  /// Actual ILP assignment-variable count: the sum of per-cluster candidate
  /// list lengths (== the paper's N_C x N_R only when pruning is off).
  int num_x_vars = 0;
  int num_cand_rows = 0;         ///< widest per-cluster candidate list used
  int n_min_pairs = 0;

  double cluster_seconds = 0.0;
  double cost_seconds = 0.0;
  double ilp_seconds = 0.0;

  ilp::Status status = ilp::Status::NoSolution;
  double objective = 0.0;
  double gap = 0.0;
  int ilp_nodes = 0;
  int lp_iterations = 0;         ///< simplex pivots: root cut loop + all B&B nodes
  int basis_reuse_hits = 0;      ///< LP solves that started from a warm basis
  int cand_widenings = 0;        ///< feasibility-repair widening passes taken

  /// Dual certificate for independent gap verification; null when
  /// RapOptions::export_certificate is off or the root LP never reached
  /// optimality (deadline hit before the first node solved). Shared so
  /// RapResult copies stay cheap.
  std::shared_ptr<const RapCertificate> certificate;

  /// Sharded-solve decomposition record: one entry per band, in ascending
  /// pair order. Empty for whole-design solves (solve_rap, or a sharded
  /// call that fell back / collapsed to one band). When non-empty, the
  /// top-level `certificate` is null and verification goes through the
  /// per-band certificates instead.
  std::vector<RapBand> bands;
  int repair_moves = 0;  ///< boundary repair ILPs that improved the merge
};

/// Solve the RAP for a design holding an unconstrained initial placement
/// (mLEF space). Deterministic for fixed options, including across
/// `num_threads` values.
RapResult solve_rap(const Design& design, const RapOptions& options = {});

/// Sharded RAP (README "Scaling"): cut the row pairs into
/// RapOptions::shards contiguous horizontal bands, route each cluster to
/// the band owning its y centroid, split the minority-row quota across
/// bands (per-band feasibility floor + largest-remainder proportional to
/// band cluster mass, in fixed band order), solve the bands as independent
/// subproblems on util::ThreadPool, merge in fixed band order, then run a
/// small repair ILP over every band-interface window to reconcile quota
/// drift and boundary evictions (warm-started with the merged solution, so
/// repair only ever improves). Delegates to solve_rap when the effective
/// band count is 1 and falls back to it when the decomposition is
/// infeasible (a band's cluster mass exceeding its capacity or quota
/// share). Bit-identical for fixed options at any `num_threads`.
RapResult solve_rap_sharded(const Design& design,
                            const RapOptions& options = {});

namespace detail {

/// Greedy capacity-aware warm-start assignment (exposed for unit tests).
/// Clusters in width-descending order each take the cheapest feasible row;
/// `cost[c][j]` prices cluster c on candidate row `cand[c][j]`, opening a
/// closed row additionally pays its `open_cost` (when non-null). When
/// `forced_rows` is non-null it fixes the open-row set; otherwise up to
/// `n_min` rows open on demand and the open set is padded to exactly `n_min`
/// afterwards. All cost ties — including the all-zero ties of a null
/// `open_cost` during padding — break to the lowest row index. On failure,
/// `fail_cluster` (when non-null) receives the first cluster that could not
/// be placed, or -1 when the failure was not cluster-local (open-set
/// padding) — the candidate-pruning repair pass widens exactly that cluster.
bool greedy_assign(const std::vector<std::vector<double>>& cost,
                   const std::vector<std::vector<int>>& cand,
                   const std::vector<Dbu>& cluster_w,
                   const std::vector<Dbu>& cap, int n_min,
                   const std::vector<double>* open_cost,
                   const std::vector<char>* forced_rows,
                   std::vector<int>& pair_out, std::vector<char>& open_out,
                   int* fail_cluster = nullptr);

/// Per-net vertical extremes with owner tracking, enabling O(1) evaluation
/// of "net y-span if instance `i` moved to y'". Two distinct-owner extremes
/// per side suffice because an instance contributes one y value (its center)
/// no matter how many of its pins touch the net. Exposed for unit tests and
/// the bench_micro_kernels before/after harness.
struct YExtremes {
  Dbu min1 = INT64_MAX, min2 = INT64_MAX;
  Dbu max1 = INT64_MIN, max2 = INT64_MIN;
  InstId min1_owner = -2, max1_owner = -2;  // -2 == port (never a cell)

  void add(InstId owner, Dbu y);

  /// y-span if `cell`'s contribution is replaced by `newy`.
  Dbu span_with(InstId cell, Dbu newy) const {
    const Dbu lo = (min1_owner == cell) ? min2 : min1;
    const Dbu hi = (max1_owner == cell) ? max2 : max1;
    if (lo == INT64_MAX || hi == INT64_MIN) return 0;  // no other pins
    return std::max(hi, newy) - std::min(lo, newy);
  }

  Dbu span() const {
    if (min1 == INT64_MAX) return 0;
    return max1 - min1;
  }
};

/// One YExtremes per net (clock nets left at their zero-span default).
/// O(pins) preprocessing shared by every cost-matrix formulation; the
/// kernel harness builds it once outside the timed region.
std::vector<YExtremes> build_y_extremes(const Design& d);

/// The f_cr cost matrix (Eqs. 1-2) as a flat row-major buffer of
/// `n_clusters * floorplan.num_pairs()` doubles: entry [c * nr + r] prices
/// cluster c on row pair r. Built cluster-parallel on the mth::simd kernel
/// layer (SoA row-y / per-net Δspan sweeps); bit-identical to the historical
/// nested-loop build for every thread count and SIMD tier, because all
/// coordinate terms are integers-in-double and the per-row combine keeps the
/// exact scalar expression shape. `extremes` must come from
/// build_y_extremes(design); the Design overload builds it internally.
/// Exposed for unit tests and the bench_micro_kernels before/after harness.
std::vector<double> build_cost_matrix(const Design& design,
                                      const std::vector<YExtremes>& extremes,
                                      const std::vector<InstId>& minority_cells,
                                      const std::vector<int>& cluster_of,
                                      int n_clusters, double alpha,
                                      int num_threads);
std::vector<double> build_cost_matrix(const Design& design,
                                      const std::vector<InstId>& minority_cells,
                                      const std::vector<int>& cluster_of,
                                      int n_clusters, double alpha,
                                      int num_threads);

/// Everything solve_rap derives from the Design before the ILP stage:
/// minority set, clustering, cluster widths, the full f_cr matrix, eviction
/// surcharges and the warm-start geometry. Built once by prepare_rap and
/// consumed whole by solve_prepared (whole-design) or sliced per band by
/// solve_rap_sharded.
struct PreparedRap {
  std::vector<InstId> minority_cells;
  std::vector<int> cluster_of;  ///< minority index -> cluster
  int n_clusters = 0;
  int n_min_pairs = 0;          ///< resolved Eq. 5 quota (auto-sizing applied)
  int nr = 0;                   ///< floorplan row-pair count
  Dbu pair_cap = 0;             ///< per-pair width capacity
  std::vector<Dbu> cluster_w;   ///< Eq. 4 cluster widths (width library)
  std::vector<double> full_cost;   ///< n_clusters x nr f_cr (row-major)
  std::vector<double> evict_cost;  ///< per-pair y_r surcharge
  std::vector<Dbu> member_ys;      ///< minority index -> cell y center
  std::vector<Dbu> pair_y;         ///< pair -> y center (ascending)
  double cluster_seconds = 0.0;
  double cost_seconds = 0.0;
};
PreparedRap prepare_rap(const Design& design, const RapOptions& options);

/// One RAP assignment subproblem over a contiguous window of row pairs —
/// the whole design for solve_rap, one horizontal band or one boundary
/// repair window for solve_rap_sharded. All indices are window-local:
/// cluster c in [0, n_clusters), pair r in [0, nr).
struct SubInstance {
  int n_clusters = 0;
  int nr = 0;
  int n_min_pairs = 0;             ///< Eq. 5 quota for this window
  std::vector<Dbu> cluster_w;
  std::vector<double> cost;        ///< n_clusters x nr f_cr slice (row-major)
  std::vector<Dbu> caps;           ///< per-pair capacity
  std::vector<double> evict_cost;  ///< per-pair y_r surcharge
  std::vector<Dbu> member_ys;      ///< member-cell y centers (k-means warm)
  std::vector<Dbu> pair_y;         ///< pair y centers (k-means warm)
  /// Optional externally supplied incumbent (e.g. the merged band solution a
  /// repair window starts from), offered to the ILP alongside the internal
  /// greedy/k-means warm starts — the solve then never returns a worse
  /// objective than this point. Use with dense candidates
  /// (RapOptions::max_cand_rows == 0) so the point is always representable.
  std::vector<int> warm_pair;      ///< empty == none
  std::vector<char> warm_open;
  /// Optional hot-start basis for the root cut loop's first LP (an ECO
  /// re-solve passes the prior certificate's root_basis). Ignored unless it
  /// matches the model the solve builds; see RapOptions::eco_base.
  lp::Basis hot_basis;
};

/// Solver outcome of one subproblem, window-local indices throughout.
struct SubSolution {
  ilp::Status status = ilp::Status::NoSolution;
  double objective = 0.0;
  double best_bound = 0.0;
  double gap = 0.0;
  std::vector<int> cluster_pair;  ///< local cluster -> local pair
  std::vector<char> open;         ///< local pair -> opened as minority
  int num_x_vars = 0;
  int num_cand_rows = 0;
  int nodes = 0;
  int lp_iterations = 0;
  int basis_reuse_hits = 0;
  int cand_widenings = 0;
  double seconds = 0.0;
  std::shared_ptr<const RapCertificate> certificate;  ///< local indices
};

/// Candidate pruning + root cut loop + warm starts + branch & bound for one
/// SubInstance (the extracted ILP stage of the historical solve_rap; the
/// whole-design path through it is bit-identical to that code). Emits one
/// `rap/ilp` span. Returns status Infeasible/NoSolution instead of
/// asserting when no feasible assignment exists — callers decide between
/// the historical hard-failure contract (solve_rap) and falling back to a
/// whole-design solve (solve_rap_sharded).
SubSolution solve_subproblem(const SubInstance& inst,
                             const RapOptions& options);

/// Whole-design solve over an already-built PreparedRap (the tail of
/// solve_rap; also the sharded solver's fallback so preparation never runs
/// twice). Asserts on infeasibility like solve_rap.
RapResult solve_prepared(const Design& design, const RapOptions& options,
                         PreparedRap prep);

}  // namespace detail

}  // namespace mth::rap
