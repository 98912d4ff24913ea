#pragma once
// The global placer's kernels, private to mth::place: the flat B2B net list
// that assembles each axis's quadratic system, that system with its
// Jacobi-preconditioned conjugate-gradient solve, and the Tetris look-ahead
// that spreads the QP solution over the rows. The place tests check each
// against a copy of the code it replaced.
//
// Why B2bNets::assemble is the old per-net assembly, bit for bit:
// - It keeps the old nets (non-clock, at least two pins) in netlist order
//   and each net's pins in Net::pins order. A pin reads its coordinate from
//   one array: the cell's centre, or the port's fixed coordinate, the same
//   value the old per-net pin vector copied.
// - The extremes are the first minimum and the first maximum, as the old
//   strict `<` and `>` scans kept; the scan only selects without branching.
// - The calls follow the old loop exactly: for each pin i, the edge to the
//   minimum unless i is it, then the edge to the maximum unless i is it or
//   the two extremes coincide, with the same weight 2/(k-1) / max(|dx|, 1)
//   and the same add_edge / add_fixed choice. So every diagonal, right-hand
//   side and edge list entry is the same sum in the same order.
//
// Why QpSystem::solve is the old solve, bit for bit:
// - A p is the same edge-list scatter: y_i = diag_i * p_i, then for each
//   edge in insertion order y_a -= w * p_b and y_b -= w * p_a, so each row's
//   subtractions keep their order. The scatter takes two edges per step and
//   forms their four products before it writes, but p is never written
//   during the scatter, so the products are the same and the subtractions
//   run in the old order.
// - The vector passes are fused, but every element is the same expression
//   of the same operands, and every dot product (r.z, r.r, p.Ap) is summed
//   into its own accumulator in index order, as std::inner_product did.
//   The update pass (x, r, z with r.r and r.z) and the direction pass
//   (p = z + beta p with the diagonal part of the next A p) are
//   mth::simd kernels, whose tiers are bit-identical by that layer's
//   contract. Both gp_kernels.cpp and util/simd.cpp are compiled with
//   -ffp-contract=off, so no a * b + c is fused into a multiply-add even on
//   a target with FMA.
// - The update computes z = r / d and r.z before the r.r exit test; on exit
//   they are simply unused. p = z + beta p also writes the diagonal part of
//   the next A p, which the next scatter completes.
// - The three exits are kept: r0 < 1e-12 returns before any iteration,
//   p.Ap <= 1e-18 and |r| < tol * r0 end the loop, as does the cap.
//
// Why LookAhead::place is the old look-ahead, bit for bit:
// - Cells are visited in the order std::sort gives (x, id) pairs under the
//   old comparator on x alone. std::sort's moves depend only on comparison
//   results, so the order is the same, ties included.
// - The rows are gap-free and of one height h (the constructor checks it),
//   so the old search for the last row whose bottom edge is at or below y
//   is (y - y0) / h, capped at the top row; below the first row it is
//   still the first row.
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
// Storage: B2bNets is built once per global_place call; QpSystem keeps its
// edges, diag/rhs and CG vectors across reset() and solve() calls, and
// LookAhead its sort keys and frontier, so one call allocates them once.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/db/floorplan.hpp"
#include "mth/db/pintable.hpp"

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

  const std::vector<double>& diag() const { return diag_; }
  const std::vector<double>& rhs() const { return rhs_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Jacobi-preconditioned CG; x holds the warm start on entry. Returns the
  /// number of iterations run (products A p).
  int solve(std::vector<double>& x, int max_iters, double tol);

 private:
  /// y -= offdiag(x): the edge part of y = A x. x and y must not alias.
  void scatter(const double* x, double* y) const;

  std::vector<double> diag_, rhs_;
  std::vector<Edge> edges_;
  std::vector<double> r_, z_, p_, ap_;  ///< CG scratch
};

/// The B2B model's nets in one flat list: each pin is a cell id (-1 for a
/// port) and a slot in a per-axis coordinate array that holds the cell
/// centres first (slot == cell) and then the ports' fixed coordinates.
class B2bNets {
 public:
  /// No nets over `num_cells` cells.
  explicit B2bNets(int num_cells);

  /// The non-clock nets of `design` with at least two pins, read through a
  /// db::PinTable that lives only as long as this constructor.
  explicit B2bNets(const Design& design);

  /// Append one net of at least two pins. A pin of cell `inst` reads that
  /// cell's centre; a port pin (inst == kInvalidId) is fixed at `offset`.
  void add_net(std::span<const db::PinTable::Pin> pins);

  int num_nets() const { return static_cast<int>(scale_.size()); }

  /// Add every net's B2B terms on one axis to `sys`, with the cells'
  /// centres on that axis in `centres` (one per cell).
  void assemble(QpSystem& sys, const std::vector<double>& centres, bool is_x);

 private:
  struct Pin {
    int cell;  ///< -1 for a port
    int slot;  ///< index into coord_
  };

  int num_cells_;
  std::vector<std::uint32_t> net_begin_;  ///< num_nets + 1 offsets into pins_
  std::vector<double> scale_;             ///< 2 / (k - 1) per net
  std::vector<Pin> pins_;
  std::vector<double> coord_[2];  ///< x, y: cell centres, then ports
};

/// Tetris-style look-ahead legalization on cell centres over rows of one
/// height (mLEF space). Rows are stacked bottom-up, as a Floorplan's are.
class LookAhead {
 public:
  /// Row geometry and cell widths are read once. Throws mth::Error unless
  /// `rows` is non-empty, gap-free and of one positive height.
  LookAhead(const std::vector<Row>& rows, std::vector<double> widths);

  /// Target centre of every cell whose QP centre is (xc[i], yc[i]), written
  /// to `target`. Returns the number of cells no row window could take;
  /// those drop into the least-filled row.
  std::int64_t place(const std::vector<double>& xc, const std::vector<double>& yc,
                     std::vector<std::pair<double, double>>& target);

 private:
  /// Floorplan::row_at_y over these rows.
  int row_at(Dbu y) const {
    if (y < y0_) return 0;
    const Dbu r = (y - y0_) / h_;
    return r < top_ ? static_cast<int>(r) : static_cast<int>(top_);
  }

  Dbu y0_ = 0;   ///< bottom edge of the first row
  Dbu h_ = 1;    ///< row height
  Dbu top_ = 0;  ///< index of the last row
  std::vector<double> x0_, x1_, yc_;
  double max_x1_ = 0.0;
  std::vector<double> width_;
  std::vector<std::pair<double, int>> keys_;  ///< (x centre, cell)
  std::vector<double> frontier_;
};

}  // namespace mth::place::detail
