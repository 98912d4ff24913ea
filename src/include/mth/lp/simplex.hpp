#pragma once
// Bounded-variable revised simplex.
//
// Two-phase method with explicit artificial variables (big-M-free), sparse LU
// basis factorization with product-form (eta) updates, Dantzig pricing with
// a Bland's-rule anti-cycling fallback. Designed for the RAP ILP relaxations
// (a few hundred rows, 10^3-10^5 very sparse columns) as the drop-in
// replacement for CPLEX's LP core (DESIGN.md §2).
//
// The basis LU (src/lp/lu.hpp) is refactorized every
// Options::refactor_interval pivots. It stores only the nonzeros of L and U
// — RAP bases are mostly slack and assignment columns, and at paper scale
// (aes_360, m = 848) the factors hold 3.7% of m^2 — so FTRAN/BTRAN, two or
// three per pivot, cost O(fill) instead of O(m^2). It picks the pivots of
// dense partial pivoting and accumulates in the dense loops' order, so its
// results equal a dense LU's bit for bit.
//
// Warm-basis re-solves: an Optimal solve exports its basis (basic variable
// per row + nonbasic bound status per structural/slack variable). A later
// solve of the same matrix — with tightened bounds, or with rows appended
// (cuts; their slacks enter the basis) — can start from that basis: bound
// changes leave the old basis dual-feasible, so a bounded-variable dual
// simplex restores primal feasibility in a handful of pivots and phase 1 is
// skipped entirely. Any mismatch or numerical trouble falls back to the cold
// two-phase path, so a warm hint never changes the answer, only the work.

#include <cstdint>
#include <vector>

#include "mth/lp/model.hpp"

namespace mth::lp {

enum class Status { Optimal, Infeasible, Unbounded, IterLimit };

const char* to_string(Status s);

/// Nonbasic rest state of a variable in an exported basis.
enum class BasisState : std::uint8_t { Basic, AtLower, AtUpper, Free };

/// Simplex basis snapshot over the structural + slack variables (slack of
/// row i has index num_structs + i; solver-internal artificials are never
/// exported). Valid as a warm start for the same matrix, optionally with
/// extra rows appended since the snapshot was taken.
struct Basis {
  int num_structs = 0;           ///< structural var count when snapshotted
  std::vector<int> basic;        ///< row -> basic variable index
  std::vector<BasisState> state; ///< per-variable status, size num_structs + basic.size()

  bool empty() const { return basic.empty(); }
};

struct Options {
  int max_iterations = 200000;   ///< combined phase 1+2 pivot budget
  double tol = 1e-8;             ///< feasibility / reduced-cost tolerance
  int refactor_interval = 64;    ///< eta count before LU refactorization
};

struct Result {
  Status status = Status::IterLimit;
  double objective = 0.0;
  std::vector<double> x;      ///< primal values (structural vars only)
  /// Row duals at the optimum (valid when Optimal) — the exported dual
  /// certificate. Sign convention of the internal slack formulation: LE rows
  /// have duals <= 0, GE rows >= 0, EQ rows free (up to the pivot
  /// tolerance), so b'y + min_{lb<=x<=ub} (c - A'y)'x is a machine-checkable
  /// lower bound on the optimum that equals `objective` at an exact basis.
  std::vector<double> duals;
  int iterations = 0;         ///< total pivots (primal + dual)
  int dual_iterations = 0;    ///< dual-simplex share of `iterations`
  bool warm_used = false;     ///< warm basis accepted (phase 1 skipped)
  Basis basis;                ///< optimal basis (empty unless exportable)
};

/// Solve min c'x s.t. rows, lb <= x <= ub. `warm`, when non-null and
/// compatible (see Basis), seeds the starting basis; an incompatible or
/// numerically unusable basis is ignored.
Result solve(const Model& model, const Options& options = {},
             const Basis* warm = nullptr);

}  // namespace mth::lp
