// LP solver tests: hand-checked problems, status detection, and property
// sweeps against brute force (assignment-problem LP relaxations are integral,
// so the simplex optimum must match the best permutation).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "mth/flows/flow.hpp"
#include "mth/lp/model.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/rap/rap.hpp"
#include "mth/util/rng.hpp"
#include "lu.hpp"

namespace mth::lp {
namespace {

TEST(LpModel, BasicAccounting) {
  Model m;
  const int x = m.add_var(0, 5, 2.0);
  const int y = m.add_var(-1, 1, -3.0);
  EXPECT_EQ(m.num_vars(), 2);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.obj(x), 2.0);
  EXPECT_EQ(m.lb(y), -1.0);
}

TEST(LpModel, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_var(2, 1, 0), Error);
}

TEST(LpModel, RejectsUnknownVarInRow) {
  Model m;
  m.add_var(0, 1, 0);
  EXPECT_THROW(m.add_row(Sense::LE, 0, {{5, 1.0}}), Error);
}

TEST(LpModel, MaxViolation) {
  Model m;
  const int x = m.add_var(0, 1, 0);
  m.add_row(Sense::LE, 0.5, {{x, 1.0}});
  EXPECT_DOUBLE_EQ(m.max_violation({0.2}), 0.0);
  EXPECT_NEAR(m.max_violation({0.9}), 0.4, 1e-12);
  EXPECT_NEAR(m.max_violation({-0.3}), 0.3, 1e-12);
}

TEST(Simplex, TrivialNoConstraints) {
  Model m;
  m.add_var(1, 4, 2.0);   // min at lb
  m.add_var(-3, 7, -1.0); // min at ub
  m.add_var(-2, 2, 0.0);
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);
  EXPECT_DOUBLE_EQ(r.x[1], 7.0);
  EXPECT_DOUBLE_EQ(r.objective, 2.0 - 7.0);
}

TEST(Simplex, TrivialUnboundedBelow) {
  Model m;
  m.add_var(-kInf, kInf, 1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, SimpleTwoVar) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
  // Optimum at (2, 2): obj -6.
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-8);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
  EXPECT_NEAR(r.x[y], 2.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 3y  s.t. x + y == 5, 0 <= x <= 4, 0 <= y <= 10 -> (4, 1), obj 7.
  Model m;
  const int x = m.add_var(0, 4, 1.0);
  const int y = m.add_var(0, 10, 3.0);
  m.add_row(Sense::EQ, 5.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-8);
}

TEST(Simplex, GreaterEqual) {
  // min 2x + y  s.t. x + y >= 3, x,y in [0, 10] -> (0, 3), obj 3.
  Model m;
  const int x = m.add_var(0, 10, 2.0);
  const int y = m.add_var(0, 10, 1.0);
  m.add_row(Sense::GE, 3.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
  EXPECT_NEAR(r.x[y], 3.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.add_var(0, 1, 0.0);
  m.add_row(Sense::GE, 5.0, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  Model m;
  const int x = m.add_var(0, 10, 0.0);
  const int y = m.add_var(0, 10, 0.0);
  m.add_row(Sense::EQ, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::EQ, 9.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x  s.t. x - y <= 1, x,y >= 0 unbounded above along x == y + 1.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, 0.0);
  m.add_row(Sense::LE, 1.0, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsGe) {
  // min x s.t. -x <= -2  (x >= 2), x in [0, 10] -> 2.
  Model m;
  const int x = m.add_var(0, 10, 1.0);
  m.add_row(Sense::LE, -2.0, {{x, -1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
}

TEST(Simplex, FreeVariable) {
  // min x^+ style: free var with equality pinning: x + y == 0, min y,
  // x free in [-inf, inf], y in [-2, 2] -> y = -2, x = 2.
  Model m;
  const int x = m.add_var(-kInf, kInf, 0.0);
  const int y = m.add_var(-2, 2, 1.0);
  m.add_row(Sense::EQ, 0.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.x[y], -2.0, 1e-8);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
}

TEST(Simplex, DualsMatchObjectiveOnEqualities) {
  // For an equality-constrained LP with interior bounds, strong duality:
  // obj == y' b when no variable sits strictly at a finite bound with
  // nonzero reduced cost. Use a transportation-like instance.
  Model m;
  const int a = m.add_var(0, 10, 2.0);
  const int b = m.add_var(0, 10, 3.0);
  m.add_row(Sense::EQ, 4.0, {{a, 1.0}, {b, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_EQ(r.duals.size(), 1u);
  EXPECT_NEAR(r.objective, 8.0, 1e-8);
  EXPECT_NEAR(r.duals[0], 2.0, 1e-8);  // marginal cost of one more unit
}

// --- warm-basis re-solves (dual simplex) ------------------------------------
// Costs and bounds below are small integers, so every pivot is exact in
// binary floating point and warm-vs-cold comparisons can demand bit-for-bit
// equality, not just tolerance.

TEST(SimplexWarm, BoundTighteningResolvesInFewIterations) {
  // min -x - 2y  s.t. x + y <= 4, x in [0,3], y in [0,2] -> (2,2), obj -6.
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());

  // Tighten the basic variable's upper bound past the old optimum (x sits
  // basic at 2 with y at its bound): the parent basis stays dual-feasible
  // but turns primal-infeasible, so the dual simplex repairs it in O(1)
  // pivots instead of a cold phase 1 + phase 2.
  m.set_bounds(x, 0.0, 1.0);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_LE(warm.iterations, 3);
  EXPECT_GE(warm.dual_iterations, 1);

  const Result recold = solve(m);
  ASSERT_EQ(recold.status, Status::Optimal);
  EXPECT_FALSE(recold.warm_used);
  // Unique integral vertex (1,2): warm and cold must agree bit-for-bit.
  EXPECT_EQ(warm.objective, recold.objective);
  ASSERT_EQ(warm.x.size(), recold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i) {
    EXPECT_EQ(warm.x[i], recold.x[i]) << "component " << i;
  }
  EXPECT_EQ(warm.objective, -5.0);
}

TEST(SimplexWarm, CutRowExtensionKeepsBasis) {
  // Appended rows after a solve (a root cut loop): the stored basis is for
  // the smaller row set; new slacks enter basic and the re-solve stays warm.
  Model m;
  const int x = m.add_var(0, 4, -1.0);
  const int y = m.add_var(0, 4, -1.0);
  m.add_row(Sense::LE, 6.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_EQ(cold.objective, -6.0);  // any vertex with x + y == 6

  m.add_row(Sense::LE, 5.0, {{x, 1.0}, {y, 1.0}});  // violated cut
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  const Result recold = solve(m);
  EXPECT_EQ(warm.objective, recold.objective);
  EXPECT_EQ(warm.objective, -5.0);
}

TEST(SimplexWarm, StaleBasisFallsBackToColdSolve) {
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}});
  Basis stale;
  stale.num_structs = 7;  // from some other model
  stale.basic = {0};
  stale.state = {BasisState::Basic, BasisState::AtLower};
  const Result r = solve(m, {}, &stale);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_FALSE(r.warm_used);
  EXPECT_EQ(r.objective, -7.0);
}

TEST(SimplexWarm, WarmResolveWithoutChangesIsInstant) {
  Model m;
  const int x = m.add_var(0, 5, 1.0);
  const int y = m.add_var(0, 5, 2.0);
  m.add_row(Sense::GE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_EQ(warm.dual_iterations, 0);  // already primal-feasible: no pivots
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST(SimplexWarm, DegenerateDualResolveTerminates) {
  // Known-degenerate vertex: many redundant rows through (2,0)/(0,2) ties.
  // After tightening, the dual simplex must terminate (anti-cycling) and
  // reproduce the cold objective exactly.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, -1.0);
  for (int k = 1; k <= 12; ++k) {
    m.add_row(Sense::LE, 2.0, {{x, 1.0}, {y, static_cast<double>(k) / 6.0}});
  }
  m.add_row(Sense::LE, 2.0, {{x, 1.0}});
  m.add_row(Sense::LE, 2.0, {{y, 1.0}});
  const Result cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());

  m.set_bounds(x, 0.0, 1.0);
  const Result warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  const Result recold = solve(m);
  ASSERT_EQ(recold.status, Status::Optimal);
  EXPECT_EQ(warm.objective, recold.objective);
  EXPECT_LE(m.max_violation(warm.x), 1e-7);
}

TEST(SimplexWarm, RandomBoundTighteningsMatchColdExactly) {
  // Property: on integral assignment-style LPs, warm re-solves after a bound
  // fix (the branch & bound step) must match the cold solve bit-for-bit.
  Rng rng(20240807u);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4;
    Model m;
    std::vector<int> vars;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        vars.push_back(
            m.add_var(0, 1, static_cast<double>(rng.uniform_int(0, 16))));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<RowEntry> row_i, col_i;
      for (int j = 0; j < n; ++j) {
        row_i.push_back({vars[static_cast<std::size_t>(i * n + j)], 1.0});
        col_i.push_back({vars[static_cast<std::size_t>(j * n + i)], 1.0});
      }
      m.add_row(Sense::EQ, 1.0, row_i);
      m.add_row(Sense::EQ, 1.0, col_i);
    }
    const Result root = solve(m);
    ASSERT_EQ(root.status, Status::Optimal);
    // Fix one variable to each side, as branching does.
    const int bv = vars[rng.uniform_int(0, static_cast<int>(vars.size()) - 1)];
    for (double fixed : {0.0, 1.0}) {
      m.set_bounds(bv, fixed, fixed);
      const Result warm = solve(m, {}, &root.basis);
      const Result cold = solve(m);
      ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
      if (cold.status == Status::Optimal) {
        EXPECT_EQ(warm.objective, cold.objective) << "trial " << trial;
      }
      m.set_bounds(bv, 0.0, 1.0);
    }
  }
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  const int x = m.add_var(0, kInf, -1.0);
  const int y = m.add_var(0, kInf, -1.0);
  for (int k = 1; k <= 12; ++k) {
    m.add_row(Sense::LE, 2.0, {{x, 1.0}, {y, static_cast<double>(k) / 6.0}});
  }
  m.add_row(Sense::LE, 2.0, {{x, 1.0}});
  m.add_row(Sense::LE, 2.0, {{y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_LE(m.max_violation(r.x), 1e-7);
}

// ---------------------------------------------------------------------------
// Property: assignment-problem LP relaxations are integral; simplex optimum
// must equal the best permutation found by brute force.
// ---------------------------------------------------------------------------
class AssignmentLp : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentLp, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 2));  // 3..5
    std::vector<std::vector<double>> c(static_cast<std::size_t>(n),
                                       std::vector<double>(static_cast<std::size_t>(n)));
    for (auto& row : c) {
      for (double& v : row) v = rng.uniform_real(0.0, 10.0);
    }
    Model m;
    std::vector<std::vector<int>> x(static_cast<std::size_t>(n),
                                    std::vector<int>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            m.add_var(0, 1, c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<RowEntry> row_i, col_i;
      for (int j = 0; j < n; ++j) {
        row_i.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
        col_i.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], 1.0});
      }
      m.add_row(Sense::EQ, 1.0, row_i);
      m.add_row(Sense::EQ, 1.0, col_i);
    }
    const Result r = solve(m);
    ASSERT_EQ(r.status, Status::Optimal);

    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    double best = 1e300;
    do {
      double s = 0;
      for (int i = 0; i < n; ++i) {
        s += c[static_cast<std::size_t>(i)][static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
      }
      best = std::min(best, s);
    } while (std::next_permutation(perm.begin(), perm.end()));

    EXPECT_NEAR(r.objective, best, 1e-6) << "n=" << n << " trial=" << trial;
    EXPECT_LE(m.max_violation(r.x), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentLp, ::testing::Range(1, 9));

// Property: random LE-constrained LPs — solution feasible and no sampled
// feasible point beats it.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, OptimalBeatsSampledPoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977u);
  for (int trial = 0; trial < 6; ++trial) {
    const int nv = 4 + static_cast<int>(rng.uniform_int(0, 4));
    const int nc = 3 + static_cast<int>(rng.uniform_int(0, 4));
    Model m;
    for (int v = 0; v < nv; ++v) m.add_var(0.0, 5.0, rng.uniform_real(-3, 3));
    for (int r = 0; r < nc; ++r) {
      std::vector<RowEntry> row;
      for (int v = 0; v < nv; ++v) {
        if (rng.chance(0.6)) row.push_back({v, rng.uniform_real(0.1, 2.0)});
      }
      if (row.empty()) row.push_back({0, 1.0});
      m.add_row(Sense::LE, rng.uniform_real(2.0, 12.0), std::move(row));
    }
    const Result res = solve(m);
    ASSERT_EQ(res.status, Status::Optimal);  // x == 0 is always feasible here
    ASSERT_LE(m.max_violation(res.x), 1e-7);
    for (int s = 0; s < 200; ++s) {
      std::vector<double> z(static_cast<std::size_t>(nv));
      for (double& v : z) v = rng.uniform_real(0.0, 5.0);
      if (m.max_violation(z) <= 0.0) {
        ASSERT_GE(m.objective_value(z), res.objective - 1e-7);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Dual certificate property: the exported duals must reconstruct the optimum.
// This is the identity verify::certify_rap leans on — evaluate it here with
// independent arithmetic on every class of LP the solver emits duals for.
// ---------------------------------------------------------------------------

/// Lagrangian box bound b'y + sum_j min(d_j lb_j, d_j ub_j), d = c - A'y,
/// with duals clamped into the valid cone per row sense first (min-problem:
/// LE rows need y <= 0, GE rows y >= 0). At an optimal basis the bound
/// equals the primal objective exactly (strong duality + complementary
/// slackness); clamping is a no-op there and only guards noisy duals.
double dual_bound(const Model& m, const Result& r) {
  std::vector<double> d(static_cast<std::size_t>(m.num_vars()));
  for (int j = 0; j < m.num_vars(); ++j) {
    d[static_cast<std::size_t>(j)] = m.obj(j);
  }
  double bound = 0.0;
  for (int i = 0; i < m.num_rows(); ++i) {
    const Row& row = m.row(i);
    double y = r.duals[static_cast<std::size_t>(i)];
    if (row.sense == Sense::LE) y = std::min(y, 0.0);
    if (row.sense == Sense::GE) y = std::max(y, 0.0);
    bound += y * row.rhs;
    for (const RowEntry& e : row.entries) {
      d[static_cast<std::size_t>(e.var)] -= y * e.coef;
    }
  }
  for (int j = 0; j < m.num_vars(); ++j) {
    const double dj = d[static_cast<std::size_t>(j)];
    bound += std::min(dj * m.lb(j), dj * m.ub(j));
  }
  return bound;
}

class DualCertificate : public ::testing::TestWithParam<int> {};

TEST_P(DualCertificate, BoundMatchesObjectiveAtOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131u + 7u);
  for (int trial = 0; trial < 6; ++trial) {
    Model m;
    const int nv = 3 + static_cast<int>(rng.uniform_int(0, 4));
    for (int v = 0; v < nv; ++v) {
      m.add_var(0.0, rng.uniform_real(1.0, 6.0), rng.uniform_real(-4, 4));
    }
    const int nc = 2 + static_cast<int>(rng.uniform_int(0, 4));
    for (int r = 0; r < nc; ++r) {
      std::vector<RowEntry> row;
      for (int v = 0; v < nv; ++v) {
        if (rng.chance(0.7)) row.push_back({v, rng.uniform_real(-1.5, 2.0)});
      }
      if (row.empty()) row.push_back({0, 1.0});
      const int pick = static_cast<int>(rng.uniform_int(0, 2));
      const Sense sense =
          pick == 0 ? Sense::LE : (pick == 1 ? Sense::GE : Sense::EQ);
      // Keep the row satisfiable at x == midpoint to avoid mass infeasibility.
      double mid = 0.0;
      for (const RowEntry& e : row) mid += e.coef * m.ub(e.var) * 0.5;
      const double slack = rng.uniform_real(0.0, 3.0);
      const double rhs = sense == Sense::GE ? mid - slack
                         : sense == Sense::LE ? mid + slack
                                              : mid;
      m.add_row(sense, rhs, std::move(row));
    }
    const Result r = solve(m);
    if (r.status != Status::Optimal) continue;  // infeasible draws are fine
    ASSERT_EQ(r.duals.size(), static_cast<std::size_t>(m.num_rows()));
    const double scale = std::max(1.0, std::abs(r.objective));
    EXPECT_NEAR(dual_bound(m, r), r.objective, 1e-6 * scale)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualCertificate, ::testing::Range(1, 9));

TEST(DualCertificate, NoisyDualsStayValidLowerBound) {
  // Perturbed duals must still give a *lower* bound after cone clamping —
  // this is what makes the certifier robust to solver round-off.
  Rng rng(424242u);
  Model m;
  const int x = m.add_var(0, 3, -1.0);
  const int y = m.add_var(0, 2, -2.0);
  m.add_row(Sense::LE, 4.0, {{x, 1.0}, {y, 1.0}});
  const Result r = solve(m);
  ASSERT_EQ(r.status, Status::Optimal);
  for (int trial = 0; trial < 50; ++trial) {
    Result noisy = r;
    for (double& d : noisy.duals) d += rng.uniform_real(-0.5, 0.5);
    EXPECT_LE(dual_bound(m, noisy), r.objective + 1e-9) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Factorization equivalence: the sparse basis LU against the dense LU it
// replaced, kept here as the reference — verbatim apart from the lines
// marked "not in the original", which record the singular step and count
// the factors' nonzeros. Both must
// pick the same pivots, report singularity at the same step, and solve to
// the same bits (signs of zero included) on bases shaped like the RAP's:
// slack-heavy, assignment columns with 1-3 nonzeros, dense linking columns,
// and coefficients drawn from a few magnitudes so pivot ties are common.
// ---------------------------------------------------------------------------
class DenseLu {
 public:
  /// Factorize an n x n row-major matrix in place. Returns false if singular.
  bool factorize(std::vector<double> a, int n, double tol) {
    failed_step_ = -1;  // not in the original
    n_ = n;
    a_ = std::move(a);
    perm_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      // Partial pivot: largest |a[i][k]| for i >= k.
      int piv = k;
      double best = std::abs(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double v = std::abs(at(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best <= tol) {
        failed_step_ = k;  // not in the original
        return false;
      }
      if (piv != k) {
        for (int j = 0; j < n; ++j) std::swap(at(k, j), at(piv, j));
        std::swap(perm_[static_cast<std::size_t>(k)],
                  perm_[static_cast<std::size_t>(piv)]);
      }
      const double inv = 1.0 / at(k, k);
      for (int i = k + 1; i < n; ++i) {
        const double l = at(i, k) * inv;
        at(i, k) = l;
        if (l != 0.0) {
          for (int j = k + 1; j < n; ++j) at(i, j) -= l * at(k, j);
        }
      }
    }
    return true;
  }

  /// b := A^{-1} b.
  void solve(std::vector<double>& b) const {
    scratch_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      scratch_[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    }
    // Forward: L y = Pb (L unit lower triangular).
    for (int i = 1; i < n_; ++i) {
      double s = scratch_[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(i, j) * scratch_[static_cast<std::size_t>(j)];
      scratch_[static_cast<std::size_t>(i)] = s;
    }
    // Backward: U x = y.
    for (int i = n_ - 1; i >= 0; --i) {
      double s = scratch_[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < n_; ++j) s -= at(i, j) * scratch_[static_cast<std::size_t>(j)];
      scratch_[static_cast<std::size_t>(i)] = s / at(i, i);
    }
    b = scratch_;
  }

  /// b := A^{-T} b.  (A^T = U^T L^T P  =>  y = P^T (L^T \ (U^T \ b))).
  void solve_transpose(std::vector<double>& b) const {
    scratch_ = b;
    // U^T y = b (forward, U^T lower triangular).
    for (int i = 0; i < n_; ++i) {
      double s = scratch_[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(j, i) * scratch_[static_cast<std::size_t>(j)];
      scratch_[static_cast<std::size_t>(i)] = s / at(i, i);
    }
    // L^T z = y (backward, unit diagonal).
    for (int i = n_ - 1; i >= 0; --i) {
      double s = scratch_[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < n_; ++j) s -= at(j, i) * scratch_[static_cast<std::size_t>(j)];
      scratch_[static_cast<std::size_t>(i)] = s;
    }
    // Undo permutation: x = P^T z.
    for (int i = 0; i < n_; ++i) {
      b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          scratch_[static_cast<std::size_t>(i)];
    }
  }

 public:
  int failed_step() const { return failed_step_; }  // not in the original
  std::size_t nonzeros() const {  // not in the original
    return static_cast<std::size_t>(std::count_if(a_.begin(), a_.end(), [](double v) { return v != 0.0; }));
  }

 private:
  double& at(int i, int j) { return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(j)]; }
  double at(int i, int j) const { return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(j)]; }

  int n_ = 0;
  int failed_step_ = -1;  // not in the original
  std::vector<double> a_;
  std::vector<int> perm_;
  mutable std::vector<double> scratch_;
};

struct TestBasis {
  int n = 0;
  SparseView cols;             // for detail::SparseLu
  std::vector<double> dense;   // row-major, for DenseLu
};

TestBasis make_basis(int n, const std::vector<std::vector<std::pair<int, double>>>& cols) {
  TestBasis b;
  b.n = n;
  b.cols.ptr.assign(1, 0);
  b.dense.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < n; ++k) {
    for (const auto& [row, v] : cols[static_cast<std::size_t>(k)]) {
      b.cols.idx.push_back(row);
      b.cols.val.push_back(v);
      b.dense[static_cast<std::size_t>(row) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(k)] = v;
    }
    b.cols.ptr.push_back(static_cast<int>(b.cols.idx.size()));
  }
  return b;
}

/// Random basis columns. Column k always holds row perm[k] of a random
/// permutation, so the pattern admits a full pivot sequence; `slack_share`
/// of the columns are signed unit columns, the rest assignment-like (1-3
/// nonzeros), and the first `linking` columns touch about half the rows.
/// With `ties`, magnitudes come from {1, 2} only.
std::vector<std::vector<std::pair<int, double>>> random_columns(
    Rng& rng, int n, double slack_share, int linking, bool ties) {
  auto coef = [&] {
    const double mag = ties ? static_cast<double>(rng.uniform_int(1, 2))
                            : rng.uniform_real(0.05, 40.0);
    return rng.uniform_int(0, 1) == 0 ? mag : -mag;
  };
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  std::vector<std::vector<std::pair<int, double>>> cols(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    std::vector<int> rows{perm[static_cast<std::size_t>(k)]};
    if (k < linking) {
      for (int r = 0; r < n; ++r) {
        if (r != rows[0] && rng.uniform_int(0, 1) == 0) rows.push_back(r);
      }
    } else if (rng.uniform_real(0.0, 1.0) >= slack_share) {
      const int nnz = static_cast<int>(rng.uniform_int(1, std::min(3, n)));
      while (static_cast<int>(rows.size()) < nnz) {
        const int r = static_cast<int>(rng.uniform_int(0, n - 1));
        if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
      }
    }
    std::sort(rows.begin(), rows.end());
    for (int r : rows) cols[static_cast<std::size_t>(k)].emplace_back(r, coef());
  }
  // Linking columns go to random positions, as basis order is arbitrary.
  rng.shuffle(cols);
  return cols;
}

/// Right-hand sides the simplex feeds the factors: unit vectors (BTRAN of a
/// row), sparse columns (FTRAN), cost-like vectors with many zeros, and
/// vectors seeded with -0.0 (what an eta pass hands to BTRAN).
std::vector<std::vector<double>> random_rhs(Rng& rng, int n) {
  auto draw = [&](int from, int to) { return static_cast<int>(rng.uniform_int(from, to)); };
  std::vector<std::vector<double>> out;
  for (int t = 0; t < 10; ++t) {
    std::vector<double> v(static_cast<std::size_t>(n), 0.0);
    if (t < 2) {
      v[static_cast<std::size_t>(draw(0, n - 1))] = t == 0 ? 1.0 : -1.0;
    } else {
      for (double& x : v) {
        const int pick = draw(0, 9);
        if (t < 6) {  // sparse; t >= 4 also seeds -0.0
          x = pick == 0 ? rng.uniform_real(-5.0, 5.0) : (t >= 4 && pick < 5 ? -0.0 : 0.0);
        } else {  // small integers among both zeros
          x = pick < 3 ? -0.0 : (pick < 5 ? 0.0 : static_cast<double>(draw(-3, 3)));
        }
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

/// Factorize with both; returns false (after checking the verdicts agree)
/// when the basis is singular.
bool factor_both(const TestBasis& b, DenseLu& dense, detail::SparseLu& sparse,
                 const std::string& what) {
  const bool dense_ok = dense.factorize(b.dense, b.n, 1e-11);
  const bool sparse_ok = sparse.factorize(b.cols, b.n, 1e-11);
  EXPECT_EQ(sparse_ok, dense_ok) << what;
  EXPECT_EQ(sparse.singular_step(), dense.failed_step()) << what;
  return dense_ok && sparse_ok;
}

void expect_same_solves(const DenseLu& dense,
                        const detail::SparseLu& sparse,
                        const std::vector<std::vector<double>>& rhs,
                        const std::string& what) {
  for (std::size_t t = 0; t < rhs.size(); ++t) {
    std::vector<double> d = rhs[t], s = rhs[t];
    dense.solve(d);
    sparse.solve(s);
    EXPECT_EQ(s, d) << what << " ftran rhs " << t;
    EXPECT_TRUE(same_bits(s, d)) << what << " ftran rhs " << t;
    d = rhs[t];
    s = rhs[t];
    dense.solve_transpose(d);
    sparse.solve_transpose(s);
    EXPECT_EQ(s, d) << what << " btran rhs " << t;
    EXPECT_TRUE(same_bits(s, d)) << what << " btran rhs " << t;
  }
  EXPECT_EQ(sparse.nnz(), dense.nonzeros()) << what;
}

struct BasisShape {
  const char* name;
  double slack_share;
  int linking;
  bool ties;
};

TEST(SparseLu, MatchesDenseLuBitForBit) {
  const BasisShape shapes[] = {
      {"slack-heavy", 0.85, 0, false},
      {"assignment", 0.2, 0, false},
      {"linking", 0.5, 4, false},
      {"ties", 0.5, 2, true},
      {"ties-assignment", 0.1, 0, true},
  };
  Rng rng(20261016u);
  int factored = 0;
  for (const BasisShape& shape : shapes) {
    DenseLu dense;
    detail::SparseLu sparse;  // reused across bases, as the simplex does
    for (int trial = 0; trial < 40; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(1, 90));
      const TestBasis b = make_basis(
          n, random_columns(rng, n, shape.slack_share, std::min(shape.linking, n), shape.ties));
      const std::string what = std::string(shape.name) + " trial " + std::to_string(trial);
      if (!factor_both(b, dense, sparse, what)) continue;
      ++factored;
      expect_same_solves(dense, sparse, random_rhs(rng, n), what);
    }
  }
  EXPECT_GT(factored, 100);  // most draws must be nonsingular to mean much
}

TEST(SparseLu, SingularAtTheSameStep) {
  Rng rng(7u);
  DenseLu dense;
  detail::SparseLu sparse;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 60));
    auto cols = random_columns(rng, n, 0.5, 1, trial % 2 == 0);
    // Make one column a multiple of another (or empty): rank-deficient.
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    int c = static_cast<int>(rng.uniform_int(0, n - 1));
    if (c == a) c = (a + 1) % n;
    auto& dup = cols[static_cast<std::size_t>(c)];
    dup = cols[static_cast<std::size_t>(a)];
    if (trial % 3 == 0) {
      dup.clear();
    } else {
      for (auto& e : dup) e.second *= -2.0;
    }
    const TestBasis b = make_basis(n, cols);
    const std::string what = "trial " + std::to_string(trial);
    EXPECT_FALSE(factor_both(b, dense, sparse, what)) << what;
    EXPECT_GE(sparse.singular_step(), 0) << what;
    // The same solver object factorizes a nonsingular basis afterwards.
    const TestBasis ok = make_basis(n, random_columns(rng, n, 1.0, 0, false));
    if (factor_both(ok, dense, sparse, what + " refactor")) {
      expect_same_solves(dense, sparse, random_rhs(rng, n), what + " refactor");
    }
  }
}

// ---------------------------------------------------------------------------
// Solve-level pin: the RAP root LP that aes_360 at scale 0.04 exports in its
// certificate, solved cold, warm from the certificate's round-0 basis (the
// appended linking cuts enter with their slacks basic), and warm after one
// branching bound change. Pivot counts, objective bits and a hash of every
// primal and dual bit (signs of zero included) are the values the dense LU
// factorization produced; a different pivot sequence or a single differing
// bit in a factor solve shows here.
// ---------------------------------------------------------------------------
std::uint64_t fnv_bits(std::uint64_t h, const std::vector<double>& v) {
  for (double d : v) {
    h ^= std::bit_cast<std::uint64_t>(d);
    h *= 1099511628211ull;
  }
  return h;
}

struct Pin {
  int iterations;
  int dual_iterations;
  std::uint64_t objective_bits;
  std::uint64_t solution_hash;
};

Pin pin_of(const Result& r) {
  const std::uint64_t h = fnv_bits(fnv_bits(14695981039346656037ull, r.x), r.duals);
  return {r.iterations, r.dual_iterations, std::bit_cast<std::uint64_t>(r.objective), h};
}

void expect_pin(const Result& r, const Pin& want, const char* what) {
  ASSERT_EQ(r.status, Status::Optimal) << what;
  const Pin got = pin_of(r);
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.dual_iterations, want.dual_iterations) << what;
  EXPECT_EQ(got.objective_bits, want.objective_bits)
      << what << ": objective " << r.objective;
  EXPECT_EQ(got.solution_hash, want.solution_hash) << what;
}

TEST(SimplexPin, Aes360RootLpMatchesDenseLuBitForBit) {
  flows::FlowOptions opt;
  opt.scale = 0.04;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_360"), opt);
  rap::RapOptions ro = opt.rap;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  const rap::RapResult rr = rap::solve_rap(pc.initial, ro);
  ASSERT_NE(rr.certificate, nullptr);
  Model model = rr.certificate->model;

  const Result cold = solve(model, ro.ilp.lp);
  expect_pin(cold, {137, 0, 0x40e9c2654e25b9f1ull, 0x68501d79794fa6d7ull}, "cold");
  const Result cut_warm = solve(model, ro.ilp.lp, &rr.certificate->root_basis);
  EXPECT_TRUE(cut_warm.warm_used);
  expect_pin(cut_warm, {43, 43, 0x40e9c2654e25b9f0ull, 0xf597a5c046a0ccb9ull},
             "warm from round 0");

  // Branch down on the lowest-index fractional variable.
  int branch = -1;
  for (int j = 0; j < model.num_vars() && branch < 0; ++j) {
    const double v = cold.x[static_cast<std::size_t>(j)];
    if (std::abs(v - std::round(v)) > 1e-6) branch = j;
  }
  ASSERT_GE(branch, 0);
  model.set_bounds(branch, model.lb(branch),
                   std::floor(cold.x[static_cast<std::size_t>(branch)]));
  const Result child = solve(model, ro.ilp.lp, &cold.basis);
  EXPECT_TRUE(child.warm_used);
  expect_pin(child, {6, 6, 0x40ea36101a2ee4c7ull, 0x23a644753a5a53c6ull},
             "branch-down child");
}

}  // namespace
}  // namespace mth::lp
