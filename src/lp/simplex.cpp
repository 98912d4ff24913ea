#include "mth/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "lu.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::lp {

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

// Product-form update: new basis = old * E, where E is identity with column
// `pivot_row` replaced by `col` (the FTRAN'd entering column).
struct Eta {
  int pivot_row = 0;
  std::vector<std::pair<int, double>> col;  // sparse non-pivot entries
  double pivot_value = 1.0;
};

/// Internal pseudo-status: basis went singular, restart from artificials.
constexpr Status kNeedsRebuild = static_cast<Status>(99);
/// Internal pseudo-status: warm start unusable, fall back to the cold path.
constexpr Status kWarmFail = static_cast<Status>(98);

// ---------------------------------------------------------------------------
// The solver proper.
// ---------------------------------------------------------------------------
class Simplex {
 public:
  Simplex(const Model& model, const Options& opt, const Basis* warm)
      : model_(model), opt_(opt), warm_(warm) {
    build_layout();
  }

  Result run() {
    Result res;
    if (m_ == 0) return solve_trivial();

    Status st;
    if (warm_ != nullptr && !warm_->empty() && load_warm_basis()) {
      res.warm_used = true;
      phase1_ = false;
      st = reoptimize();
      if (st == kNeedsRebuild || st == kWarmFail) {
        MTH_DEBUG << "simplex: warm basis abandoned — cold restart";
        res.warm_used = false;
        st = cold_solve();
      }
    } else {
      st = cold_solve();
    }

    res.status = st;
    res.iterations = iterations_;
    res.dual_iterations = dual_iterations_;
    if (st != Status::Optimal) return res;

    res.x.assign(static_cast<std::size_t>(model_.num_vars()), 0.0);
    for (int j = 0; j < model_.num_vars(); ++j) {
      res.x[static_cast<std::size_t>(j)] = value_[static_cast<std::size_t>(j)];
    }
    res.objective = model_.objective_value(res.x);
    res.duals = compute_duals();
    export_basis(res.basis);
    return res;
  }

 private:
  /// Column j of the working matrix: structural columns come from the
  /// model's compiled CSC; slack and artificial columns are implicit unit
  /// vectors. `f(row, coef)` is invoked per nonzero.
  template <class F>
  void for_col(int j, F&& f) const {
    if (j < nstruct_) {
      const std::size_t b = static_cast<std::size_t>(csc_->ptr[static_cast<std::size_t>(j)]);
      const std::size_t e = static_cast<std::size_t>(csc_->ptr[static_cast<std::size_t>(j) + 1]);
      for (std::size_t k = b; k < e; ++k) f(csc_->idx[k], csc_->val[k]);
    } else if (j < art0_) {
      f(j - slack0_, 1.0);
    } else {
      f(j - art0_, art_sign_[static_cast<std::size_t>(j - art0_)]);
    }
  }

  Result solve_trivial() {
    // No constraints: every variable goes to its cheaper finite bound.
    Result res;
    res.x.assign(static_cast<std::size_t>(model_.num_vars()), 0.0);
    for (int j = 0; j < model_.num_vars(); ++j) {
      const double c = model_.obj(j);
      const double lo = model_.lb(j);
      const double hi = model_.ub(j);
      double v;
      if (c > 0) {
        if (lo == -kInf) {
          res.status = Status::Unbounded;
          return res;
        }
        v = lo;
      } else if (c < 0) {
        if (hi == kInf) {
          res.status = Status::Unbounded;
          return res;
        }
        v = hi;
      } else {
        v = (lo != -kInf) ? lo : (hi != kInf ? hi : 0.0);
      }
      res.x[static_cast<std::size_t>(j)] = v;
    }
    res.status = Status::Optimal;
    res.objective = model_.objective_value(res.x);
    return res;
  }

  void build_layout() {
    m_ = model_.num_rows();
    nstruct_ = model_.num_vars();
    slack0_ = nstruct_;
    art0_ = nstruct_ + m_;
    ntotal_ = nstruct_ + 2 * m_;
    csc_ = &model_.csc();

    lb_.assign(static_cast<std::size_t>(ntotal_), 0.0);
    ub_.assign(static_cast<std::size_t>(ntotal_), 0.0);
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    art_sign_.assign(static_cast<std::size_t>(m_), 1.0);

    for (int j = 0; j < nstruct_; ++j) {
      lb_[static_cast<std::size_t>(j)] = model_.lb(j);
      ub_[static_cast<std::size_t>(j)] = model_.ub(j);
    }
    for (int i = 0; i < m_; ++i) {
      const Row& r = model_.row(i);
      rhs_[static_cast<std::size_t>(i)] = r.rhs;
      // Slack: row + slack == rhs.
      const int s = slack0_ + i;
      switch (r.sense) {
        case Sense::LE:
          lb_[static_cast<std::size_t>(s)] = 0.0;
          ub_[static_cast<std::size_t>(s)] = kInf;
          break;
        case Sense::GE:
          lb_[static_cast<std::size_t>(s)] = -kInf;
          ub_[static_cast<std::size_t>(s)] = 0.0;
          break;
        case Sense::EQ:
          lb_[static_cast<std::size_t>(s)] = 0.0;
          ub_[static_cast<std::size_t>(s)] = 0.0;
          break;
      }
      // Artificial sign is fixed at init time (cold path).
    }
  }

  /// Nonbasic starting value for a variable given its bounds.
  static std::pair<double, BasisState> start_point(double lo, double hi) {
    if (lo == -kInf && hi == kInf) return {0.0, BasisState::Free};
    if (lo == -kInf) return {hi, BasisState::AtUpper};
    if (hi == kInf) return {lo, BasisState::AtLower};
    return std::abs(lo) <= std::abs(hi) ? std::make_pair(lo, BasisState::AtLower)
                                        : std::make_pair(hi, BasisState::AtUpper);
  }

  // -------------------------------------------------------------------------
  // Cold start: two-phase from the artificial basis.
  // -------------------------------------------------------------------------
  Status cold_solve() {
    Status st = Status::IterLimit;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (attempt > 0) {
        MTH_WARN << "simplex: singular basis — restarting (attempt "
                 << attempt + 1 << ")";
      }
      // (Re-)open artificial bounds for phase 1.
      for (int i = 0; i < m_; ++i) {
        lb_[static_cast<std::size_t>(art0_ + i)] = 0.0;
        ub_[static_cast<std::size_t>(art0_ + i)] = kInf;
      }
      init_basis();

      // Phase 1: minimize sum of artificials.
      phase1_ = true;
      st = iterate();
      if (st == kNeedsRebuild) continue;
      if (st == Status::IterLimit) return st;
      if (basic_cost_sum() > 1e-6) return Status::Infeasible;
      // Lock artificials to zero and switch to the real objective.
      for (int j = art0_; j < art0_ + m_; ++j) {
        lb_[static_cast<std::size_t>(j)] = 0.0;
        ub_[static_cast<std::size_t>(j)] = 0.0;
        if (state_[static_cast<std::size_t>(j)] != BasisState::Basic) {
          state_[static_cast<std::size_t>(j)] = BasisState::AtLower;
          value_[static_cast<std::size_t>(j)] = 0.0;
        }
      }
      phase1_ = false;
      if (!refactorize()) continue;  // recomputes basic values too

      st = iterate();
      if (st == kNeedsRebuild) continue;
      break;
    }
    if (st == kNeedsRebuild) st = Status::IterLimit;
    return st;
  }

  void init_basis() {
    value_.assign(static_cast<std::size_t>(ntotal_), 0.0);
    state_.assign(static_cast<std::size_t>(ntotal_), BasisState::AtLower);
    for (int j = 0; j < art0_; ++j) {
      const auto [v, st] = start_point(lb_[static_cast<std::size_t>(j)],
                                       ub_[static_cast<std::size_t>(j)]);
      value_[static_cast<std::size_t>(j)] = v;
      state_[static_cast<std::size_t>(j)] = st;
    }
    // Residuals decide artificial signs so artificial values start >= 0.
    std::vector<double> resid = rhs_;
    for (int j = 0; j < art0_; ++j) {
      const double v = value_[static_cast<std::size_t>(j)];
      if (v != 0.0) {
        for_col(j, [&](int row, double coef) {
          resid[static_cast<std::size_t>(row)] -= coef * v;
        });
      }
    }
    basic_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      const int a = art0_ + i;
      art_sign_[static_cast<std::size_t>(i)] =
          resid[static_cast<std::size_t>(i)] >= 0.0 ? 1.0 : -1.0;
      lb_[static_cast<std::size_t>(a)] = 0.0;
      ub_[static_cast<std::size_t>(a)] = kInf;
      state_[static_cast<std::size_t>(a)] = BasisState::Basic;
      value_[static_cast<std::size_t>(a)] =
          std::abs(resid[static_cast<std::size_t>(i)]);
      basic_[static_cast<std::size_t>(i)] = a;
    }
    const bool ok = refactorize();
    MTH_ASSERT(ok, "simplex: artificial basis cannot be singular");
  }

  // -------------------------------------------------------------------------
  // Warm start: adopt an exported basis (possibly from a model with fewer
  // rows — appended cut rows get their slack basic), then re-optimize with
  // the dual simplex. Returns false when the snapshot doesn't fit.
  // -------------------------------------------------------------------------
  bool load_warm_basis() {
    const Basis& b = *warm_;
    if (b.num_structs != nstruct_) return false;
    const int m_old = static_cast<int>(b.basic.size());
    if (m_old <= 0 || m_old > m_) return false;
    if (static_cast<int>(b.state.size()) != nstruct_ + m_old) return false;

    value_.assign(static_cast<std::size_t>(ntotal_), 0.0);
    state_.assign(static_cast<std::size_t>(ntotal_), BasisState::AtLower);
    basic_.assign(static_cast<std::size_t>(m_), -1);

    std::vector<char> is_basic(static_cast<std::size_t>(nstruct_ + m_), 0);
    for (int i = 0; i < m_old; ++i) {
      const int j = b.basic[static_cast<std::size_t>(i)];
      if (j < 0 || j >= nstruct_ + m_old) return false;
      if (b.state[static_cast<std::size_t>(j)] != BasisState::Basic) return false;
      if (is_basic[static_cast<std::size_t>(j)]) return false;  // duplicate
      is_basic[static_cast<std::size_t>(j)] = 1;
      basic_[static_cast<std::size_t>(i)] = j;
      state_[static_cast<std::size_t>(j)] = BasisState::Basic;
    }
    // Rows appended since the snapshot (cuts): their slacks are basic.
    for (int i = m_old; i < m_; ++i) {
      basic_[static_cast<std::size_t>(i)] = slack0_ + i;
      state_[static_cast<std::size_t>(slack0_ + i)] = BasisState::Basic;
    }
    // Nonbasic structural/old-slack variables rest on a bound. Bounds may
    // have moved since the snapshot; re-anchor on the current ones.
    for (int j = 0; j < nstruct_ + m_old; ++j) {
      if (state_[static_cast<std::size_t>(j)] == BasisState::Basic) continue;
      const double lo = lb_[static_cast<std::size_t>(j)];
      const double hi = ub_[static_cast<std::size_t>(j)];
      BasisState st = b.state[static_cast<std::size_t>(j)];
      if (st == BasisState::AtLower && lo == -kInf) {
        st = hi != kInf ? BasisState::AtUpper : BasisState::Free;
      } else if (st == BasisState::AtUpper && hi == kInf) {
        st = lo != -kInf ? BasisState::AtLower : BasisState::Free;
      } else if (st == BasisState::Free && (lo != -kInf || hi != kInf)) {
        st = start_point(lo, hi).second;
      }
      state_[static_cast<std::size_t>(j)] = st;
      value_[static_cast<std::size_t>(j)] =
          st == BasisState::AtLower ? lo : (st == BasisState::AtUpper ? hi : 0.0);
    }
    // Artificials stay locked out of a warm solve.
    for (int i = 0; i < m_; ++i) {
      const int a = art0_ + i;
      art_sign_[static_cast<std::size_t>(i)] = 1.0;
      lb_[static_cast<std::size_t>(a)] = 0.0;
      ub_[static_cast<std::size_t>(a)] = 0.0;
      state_[static_cast<std::size_t>(a)] = BasisState::AtLower;
      value_[static_cast<std::size_t>(a)] = 0.0;
    }
    return refactorize();
  }

  /// Dual simplex until primal feasible, then primal clean-up. Only entered
  /// with a loaded warm basis (dual-feasible after bound changes / new cuts).
  Status reoptimize() {
    const Status st = dual_iterate();
    if (st != Status::Optimal) return st;
    return iterate();
  }

  double cost_of(int j) const {
    if (phase1_) return j >= art0_ ? 1.0 : 0.0;
    return j < nstruct_ ? model_.obj(j) : 0.0;
  }

  double basic_cost_sum() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[static_cast<std::size_t>(i)];
      s += cost_of(j) * value_[static_cast<std::size_t>(j)];
    }
    return s;
  }

  /// Returns false when the basis matrix is numerically singular (the caller
  /// then repairs the basis instead of aborting).
  bool refactorize() {
    {
      MTH_SPAN("lp/factorize");
      MTH_COUNT("lp/factorizations", 1);
      basis_cols_.ptr.assign(1, 0);
      basis_cols_.idx.clear();
      basis_cols_.val.clear();
      for (int i = 0; i < m_; ++i) {
        for_col(basic_[static_cast<std::size_t>(i)], [&](int row, double coef) {
          basis_cols_.idx.push_back(row);
          basis_cols_.val.push_back(coef);
        });
        basis_cols_.ptr.push_back(static_cast<int>(basis_cols_.idx.size()));
      }
      if (!lu_.factorize(basis_cols_, m_, 1e-11)) return false;
      MTH_COUNT("lp/lu_nnz", static_cast<std::int64_t>(lu_.nnz()));
    }
    etas_.clear();
    recompute_basic_values();
    return true;
  }


  void recompute_basic_values() {
    std::vector<double> r = rhs_;
    for (int j = 0; j < ntotal_; ++j) {
      if (state_[static_cast<std::size_t>(j)] == BasisState::Basic) continue;
      const double v = value_[static_cast<std::size_t>(j)];
      if (v != 0.0) {
        for_col(j, [&](int row, double coef) {
          r[static_cast<std::size_t>(row)] -= coef * v;
        });
      }
    }
    ftran(r);
    for (int i = 0; i < m_; ++i) {
      value_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] =
          r[static_cast<std::size_t>(i)];
    }
  }

  void ftran(std::vector<double>& v) const {
    lu_.solve(v);
    for (const Eta& e : etas_) {
      double& pv = v[static_cast<std::size_t>(e.pivot_row)];
      pv /= e.pivot_value;
      if (pv != 0.0) {
        for (const auto& [i, c] : e.col) v[static_cast<std::size_t>(i)] -= c * pv;
      }
    }
  }

  void btran(std::vector<double>& v) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const Eta& e = *it;
      double s = v[static_cast<std::size_t>(e.pivot_row)];
      for (const auto& [i, c] : e.col) s -= c * v[static_cast<std::size_t>(i)];
      v[static_cast<std::size_t>(e.pivot_row)] = s / e.pivot_value;
    }
    lu_.solve_transpose(v);
  }

  std::vector<double> compute_duals() const {
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      y[static_cast<std::size_t>(i)] = cost_of(basic_[static_cast<std::size_t>(i)]);
    }
    std::vector<double> duals = y;
    btran(duals);
    return duals;
  }

  /// Export the current (optimal) basis unless an artificial is still basic
  /// — such a basis is meaningless outside this solve.
  void export_basis(Basis& out) const {
    for (int i = 0; i < m_; ++i) {
      if (basic_[static_cast<std::size_t>(i)] >= art0_) return;
    }
    out.num_structs = nstruct_;
    out.basic = basic_;
    out.state.assign(static_cast<std::size_t>(art0_), BasisState::AtLower);
    for (int j = 0; j < art0_; ++j) {
      out.state[static_cast<std::size_t>(j)] = state_[static_cast<std::size_t>(j)];
    }
  }

  /// Dantzig (or Bland) pricing. Returns entering var or -1 (optimal).
  int price(const std::vector<double>& y, int& direction, bool bland) const {
    int best = -1;
    double best_score = opt_.tol;
    for (int j = 0; j < ntotal_; ++j) {
      const BasisState st = state_[static_cast<std::size_t>(j)];
      if (st == BasisState::Basic) continue;
      if (lb_[static_cast<std::size_t>(j)] == ub_[static_cast<std::size_t>(j)]) continue;
      double d = cost_of(j);
      for_col(j, [&](int row, double coef) {
        d -= y[static_cast<std::size_t>(row)] * coef;
      });
      int dir = 0;
      if ((st == BasisState::AtLower || st == BasisState::Free) && d < -opt_.tol) {
        dir = +1;
      } else if ((st == BasisState::AtUpper || st == BasisState::Free) && d > opt_.tol) {
        dir = -1;
      } else {
        continue;
      }
      if (bland) {
        direction = dir;
        return j;  // lowest index wins
      }
      const double score = std::abs(d);
      if (score > best_score) {
        best_score = score;
        best = j;
        direction = dir;
      }
    }
    return best;
  }

  Status iterate() {
    int degenerate_streak = 0;
    while (true) {
      if (iterations_ >= opt_.max_iterations) return Status::IterLimit;
      const bool bland = degenerate_streak > 400;

      std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        y[static_cast<std::size_t>(i)] = cost_of(basic_[static_cast<std::size_t>(i)]);
      }
      btran(y);

      int dir = 0;
      const int q = price(y, dir, bland);
      if (q < 0) return Status::Optimal;

      // FTRAN the entering column.
      std::vector<double> w(static_cast<std::size_t>(m_), 0.0);
      for_col(q, [&](int row, double coef) {
        w[static_cast<std::size_t>(row)] = coef;
      });
      ftran(w);

      // Two-pass (Harris-style) ratio test: find the tightest step, then
      // among the near-tied blockers pick the one with the largest pivot
      // magnitude — small pivots breed singular bases.
      double t_max = kInf;
      const double span = ub_[static_cast<std::size_t>(q)] - lb_[static_cast<std::size_t>(q)];
      if (span < kInf) t_max = span;  // bound flip candidate

      auto limit_of = [&](int i, double* bound) {
        const double wi = w[static_cast<std::size_t>(i)];
        if (std::abs(wi) <= 1e-10) return kInf;
        const int bj = basic_[static_cast<std::size_t>(i)];
        const double xv = value_[static_cast<std::size_t>(bj)];
        const double delta = dir * wi;  // basic decreases when delta > 0
        double limit = kInf;
        if (delta > 0) {
          const double lo = lb_[static_cast<std::size_t>(bj)];
          if (lo != -kInf) {
            limit = (xv - lo) / delta;
            *bound = lo;
          }
        } else {
          const double hi = ub_[static_cast<std::size_t>(bj)];
          if (hi != kInf) {
            limit = (xv - hi) / delta;
            *bound = hi;
          }
        }
        return limit < 0.0 ? 0.0 : limit;  // numerical: already past the bound
      };

      for (int i = 0; i < m_; ++i) {
        double b = 0.0;
        t_max = std::min(t_max, limit_of(i, &b));
      }

      int leave = -1;  // basis position
      double leave_bound = 0.0;
      if (t_max < span - 1e-12 || span == kInf) {
        double best_pivot = 0.0;
        for (int i = 0; i < m_; ++i) {
          double b = 0.0;
          const double limit = limit_of(i, &b);
          if (limit > t_max + 1e-9) continue;
          const double piv = std::abs(w[static_cast<std::size_t>(i)]);
          const int bj = basic_[static_cast<std::size_t>(i)];
          const bool better =
              bland ? (leave < 0 || bj < basic_[static_cast<std::size_t>(leave)])
                    : piv > best_pivot;
          if (better) {
            best_pivot = piv;
            leave = i;
            leave_bound = b;
          }
        }
        if (leave >= 0) {
          double b = 0.0;
          t_max = limit_of(leave, &b);
        }
      }

      if (t_max == kInf) return Status::Unbounded;
      if (t_max < opt_.tol) {
        ++degenerate_streak;
      } else {
        degenerate_streak = 0;
      }

      // Apply the step to basic values and the entering variable.
      const double step = t_max * dir;
      if (step != 0.0) {
        for (int i = 0; i < m_; ++i) {
          const double wi = w[static_cast<std::size_t>(i)];
          if (wi != 0.0) {
            value_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] -=
                step * wi;
          }
        }
      }
      value_[static_cast<std::size_t>(q)] += step;

      if (leave < 0) {
        // Bound flip: q jumps to its opposite bound; no basis change.
        state_[static_cast<std::size_t>(q)] =
            dir > 0 ? BasisState::AtUpper : BasisState::AtLower;
        value_[static_cast<std::size_t>(q)] =
            dir > 0 ? ub_[static_cast<std::size_t>(q)] : lb_[static_cast<std::size_t>(q)];
      } else {
        const int out = basic_[static_cast<std::size_t>(leave)];
        value_[static_cast<std::size_t>(out)] = leave_bound;
        state_[static_cast<std::size_t>(out)] =
            (leave_bound == lb_[static_cast<std::size_t>(out)]) ? BasisState::AtLower
                                                                : BasisState::AtUpper;
        basic_[static_cast<std::size_t>(leave)] = q;
        state_[static_cast<std::size_t>(q)] = BasisState::Basic;

        // Record the eta (product-form update) for the new basis.
        Eta e;
        e.pivot_row = leave;
        e.pivot_value = w[static_cast<std::size_t>(leave)];
        for (int i = 0; i < m_; ++i) {
          if (i != leave && std::abs(w[static_cast<std::size_t>(i)]) > 1e-12) {
            e.col.emplace_back(i, w[static_cast<std::size_t>(i)]);
          }
        }
        etas_.push_back(std::move(e));
        if (static_cast<int>(etas_.size()) >= opt_.refactor_interval) {
          if (!refactorize()) return kNeedsRebuild;
        }
      }
      ++iterations_;
    }
  }

  // -------------------------------------------------------------------------
  // Bounded-variable dual simplex: drive out-of-bound basic variables to
  // their violated bound while keeping reduced costs dual-feasible. Returns
  // Optimal once primal feasible (the primal clean-up then finishes),
  // kWarmFail when no admissible pivot exists (genuinely primal-infeasible
  // or numerically stuck — the cold path delivers the verdict either way).
  // -------------------------------------------------------------------------
  Status dual_iterate() {
    constexpr double kFeasTol = 1e-7;
    constexpr double kPivotTol = 1e-9;
    const int budget = iterations_ + std::max(200, 8 * m_);
    int degenerate_streak = 0;
    int repair_attempts = 0;
    while (true) {
      if (iterations_ >= opt_.max_iterations) return Status::IterLimit;
      if (iterations_ >= budget) return kWarmFail;

      // Leaving variable: the most infeasible basic.
      int p = -1;
      double worst = kFeasTol;
      double target = 0.0;
      for (int i = 0; i < m_; ++i) {
        const int bj = basic_[static_cast<std::size_t>(i)];
        const double v = value_[static_cast<std::size_t>(bj)];
        const double lo = lb_[static_cast<std::size_t>(bj)];
        const double hi = ub_[static_cast<std::size_t>(bj)];
        if (lo != -kInf && lo - v > worst) {
          worst = lo - v;
          p = i;
          target = lo;
        } else if (hi != kInf && v - hi > worst) {
          worst = v - hi;
          p = i;
          target = hi;
        }
      }
      if (p < 0) return Status::Optimal;  // primal feasible

      // Row p of B^{-1} (for the alphas) and the duals (for reduced costs).
      std::vector<double> rho(static_cast<std::size_t>(m_), 0.0);
      rho[static_cast<std::size_t>(p)] = 1.0;
      btran(rho);
      std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        y[static_cast<std::size_t>(i)] = cost_of(basic_[static_cast<std::size_t>(i)]);
      }
      btran(y);

      const int pj = basic_[static_cast<std::size_t>(p)];
      const double e = value_[static_cast<std::size_t>(pj)] - target;
      const bool bland = degenerate_streak > 400;

      // Entering variable: dual ratio test. Moving nonbasic j by t changes
      // the leaving value by -alpha_j * t; t = e / alpha_j must respect j's
      // rest bound, and min |d_j| / |alpha_j| keeps the duals feasible.
      int q = -1;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (int j = 0; j < ntotal_; ++j) {
        const BasisState st = state_[static_cast<std::size_t>(j)];
        if (st == BasisState::Basic) continue;
        if (lb_[static_cast<std::size_t>(j)] == ub_[static_cast<std::size_t>(j)]) continue;
        double alpha = 0.0;
        for_col(j, [&](int row, double coef) {
          alpha += rho[static_cast<std::size_t>(row)] * coef;
        });
        if (std::abs(alpha) <= kPivotTol) continue;
        const double t_sign = e / alpha;  // movement direction of j
        if (st == BasisState::AtLower && t_sign < 0.0) continue;
        if (st == BasisState::AtUpper && t_sign > 0.0) continue;
        double d = cost_of(j);
        for_col(j, [&](int row, double coef) {
          d -= y[static_cast<std::size_t>(row)] * coef;
        });
        const double ratio = std::abs(d) / std::abs(alpha);
        const bool better =
            bland ? (q < 0 || (ratio <= best_ratio + opt_.tol && j < q))
                  : (ratio < best_ratio - 1e-12 ||
                     (ratio < best_ratio + 1e-12 && std::abs(alpha) > std::abs(best_alpha)));
        if (better) {
          best_ratio = ratio;
          best_alpha = alpha;
          q = j;
        }
      }
      if (q < 0) return kWarmFail;  // no admissible pivot

      // FTRAN the entering column; its p-entry must agree with alpha_q.
      std::vector<double> w(static_cast<std::size_t>(m_), 0.0);
      for_col(q, [&](int row, double coef) {
        w[static_cast<std::size_t>(row)] = coef;
      });
      ftran(w);
      const double wp = w[static_cast<std::size_t>(p)];
      if (std::abs(wp) <= kPivotTol ||
          std::abs(wp - best_alpha) > 1e-6 * std::max(1.0, std::abs(best_alpha))) {
        if (++repair_attempts > 3 || !refactorize()) return kWarmFail;
        continue;  // recompute with a fresh factorization
      }

      const double t = e / wp;
      for (int i = 0; i < m_; ++i) {
        const double wi = w[static_cast<std::size_t>(i)];
        if (i != p && wi != 0.0) {
          value_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] -=
              t * wi;
        }
      }
      value_[static_cast<std::size_t>(q)] += t;
      value_[static_cast<std::size_t>(pj)] = target;
      state_[static_cast<std::size_t>(pj)] =
          (target == lb_[static_cast<std::size_t>(pj)]) ? BasisState::AtLower
                                                        : BasisState::AtUpper;
      basic_[static_cast<std::size_t>(p)] = q;
      state_[static_cast<std::size_t>(q)] = BasisState::Basic;

      Eta eta;
      eta.pivot_row = p;
      eta.pivot_value = wp;
      for (int i = 0; i < m_; ++i) {
        if (i != p && std::abs(w[static_cast<std::size_t>(i)]) > 1e-12) {
          eta.col.emplace_back(i, w[static_cast<std::size_t>(i)]);
        }
      }
      etas_.push_back(std::move(eta));
      if (static_cast<int>(etas_.size()) >= opt_.refactor_interval) {
        if (!refactorize()) return kNeedsRebuild;
      }

      if (std::abs(t) < opt_.tol) {
        ++degenerate_streak;
      } else {
        degenerate_streak = 0;
      }
      ++iterations_;
      ++dual_iterations_;
    }
  }

  const Model& model_;
  Options opt_;
  const Basis* warm_ = nullptr;
  int m_ = 0, nstruct_ = 0, slack0_ = 0, art0_ = 0, ntotal_ = 0;
  const SparseView* csc_ = nullptr;
  std::vector<double> lb_, ub_, rhs_, value_, art_sign_;
  std::vector<BasisState> state_;
  std::vector<int> basic_;
  SparseView basis_cols_;  // basis columns in position order (refactorize)
  detail::SparseLu lu_;
  std::vector<Eta> etas_;
  bool phase1_ = true;
  int iterations_ = 0;
  int dual_iterations_ = 0;
};

}  // namespace

Result solve(const Model& model, const Options& options, const Basis* warm) {
  Simplex s(model, options, warm);
  Result res = s.run();
  MTH_COUNT("lp/pivots", res.iterations - res.dual_iterations);
  MTH_COUNT("lp/dual_pivots", res.dual_iterations);
  if (res.warm_used) MTH_COUNT("lp/warm_hits", 1);
  return res;
}

}  // namespace mth::lp
