#pragma once
// The global placer's two kernels, private to mth::place: the per-axis
// quadratic system with its Jacobi-preconditioned conjugate-gradient solve,
// and the Tetris look-ahead that spreads the QP solution over the rows. The
// place tests check both against copies of the code they replaced.
//
// Why QpSystem::solve is the old solve, bit for bit:
// - A p is the same edge-list scatter: y_i = diag_i * p_i, then for each
//   edge in insertion order y_a -= w * p_b and y_b -= w * p_a, so each row's
//   subtractions keep their order.
// - The vector passes are fused, but every element is the same expression
//   of the same operands, and every dot product (r.z, r.r, p.Ap) is summed
//   into its own accumulator in index order, as std::inner_product did.
//   The build selects ISO C++ (no GNU extensions), in which GCC contracts
//   no a * b + c into a fused multiply-add.
// - The fused update computes z = r / d and r.z before the r.r exit test;
//   on exit they are simply unused. p = z + beta p also writes the diagonal
//   part of the next A p, which the next scatter completes.
// - The three exits are kept: r0 < 1e-12 returns before any iteration,
//   p.Ap <= 1e-18 and |r| < tol * r0 end the loop, as does the cap.
//
// Why LookAhead::place is the old look-ahead, bit for bit:
// - Cells are visited in the order std::sort gives (x, id) pairs under the
//   old comparator on x alone. std::sort's moves depend only on comparison
//   results, so the order is the same, ties included.
// - A cell's frontier does not change while its row windows widen, so a
//   row rejected in one window is rejected in every wider one. A widened
//   window therefore scans only the rows it adds: first the lower band, then
//   the upper band, which keeps the old scan's row order and so its
//   first-lowest-cost tie rule.
// - When x_want + w exceeds every row's x1, max(frontier, x_want) + w does
//   too (rounding is monotone), so no row can take the cell: the scan is
//   skipped and the cell drops into the least-filled row, as before.
// - The window sequence is kept. The last window need not cover every row
//   (with 18 rows and r_near = 0 it stops at row 16), so a cell can fall
//   back while an unscanned row would fit it; a global nearest-row search
//   would change placements.
//
// Storage: QpSystem keeps its edges, diag/rhs and CG vectors across reset()
// and solve() calls, and LookAhead its sort keys and frontier, so one
// global_place call allocates them once.

#include <cstdint>
#include <utility>
#include <vector>

#include "mth/db/floorplan.hpp"

namespace mth::place::detail {

/// Sparse symmetric system A x = rhs with A = diag minus the weighted
/// adjacency of undirected edges. Solved per axis.
class QpSystem {
 public:
  struct Edge {
    int a, b;
    double w;
  };

  /// Empty system over n unknowns; storage is kept for reuse.
  void reset(int n);

  void add_edge(int a, int b, double w) {
    diag_[static_cast<std::size_t>(a)] += w;
    diag_[static_cast<std::size_t>(b)] += w;
    edges_.push_back({a, b, w});
  }
  void add_fixed(int a, double w, double pos) {
    diag_[static_cast<std::size_t>(a)] += w;
    rhs_[static_cast<std::size_t>(a)] += w * pos;
  }

  /// Jacobi-preconditioned CG; x holds the warm start on entry. Returns the
  /// number of iterations run (products A p).
  int solve(std::vector<double>& x, int max_iters, double tol);

 private:
  /// y -= offdiag(x): the edge part of y = A x.
  void scatter(const double* x, double* y) const;

  std::vector<double> diag_, rhs_;
  std::vector<Edge> edges_;
  std::vector<double> r_, z_, p_, ap_;  ///< CG scratch
};

/// Tetris-style look-ahead legalization on cell centres over rows of one
/// height (mLEF space). Rows are stacked bottom-up, as a Floorplan's are.
class LookAhead {
 public:
  /// Row geometry and cell widths are read once; `rows` must not be empty.
  LookAhead(const std::vector<Row>& rows, std::vector<double> widths);

  /// Target centre of every cell whose QP centre is (xc[i], yc[i]), written
  /// to `target`. Returns the number of cells no row window could take;
  /// those drop into the least-filled row.
  std::int64_t place(const std::vector<double>& xc, const std::vector<double>& yc,
                     std::vector<std::pair<double, double>>& target);

 private:
  /// Floorplan::row_at_y over these rows.
  int row_at(Dbu y) const;

  std::vector<Dbu> row_y_;  ///< bottom edges
  std::vector<double> x0_, x1_, yc_;
  double max_x1_ = 0.0;
  std::vector<double> width_;
  std::vector<std::pair<double, int>> keys_;  ///< (x centre, cell)
  std::vector<double> frontier_;
};

}  // namespace mth::place::detail
