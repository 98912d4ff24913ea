#include "maze.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace mth::route::detail {

EdgeCosts::EdgeCosts(int nx, int ny, double initial)
    : nx_(nx),
      ny_(ny),
      h_(static_cast<std::size_t>(nx - 1) * static_cast<std::size_t>(ny), initial),
      v_(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny - 1), initial),
      col_min_(static_cast<std::size_t>(nx - 1), initial),
      row_min_(static_cast<std::size_t>(ny - 1), initial) {}

void EdgeCosts::set(bool horiz, std::size_t id, double cost) {
  double& slot = horiz ? h_[id] : v_[id];
  const double old = slot;
  slot = cost;
  const std::size_t w = static_cast<std::size_t>(nx_ - 1);
  const std::size_t gap = horiz ? id % w : id / static_cast<std::size_t>(nx_);
  double& m = horiz ? col_min_[gap] : row_min_[gap];
  if (cost < m) {
    m = cost;
  } else if (old == m && cost > old) {  // the minimum rose: rescan the gap
    if (horiz) {
      m = h_[gap];
      for (std::size_t e = gap + w; e < h_.size(); e += w) m = std::min(m, h_[e]);
    } else {
      const auto row = v_.begin() + static_cast<std::ptrdiff_t>(gap * static_cast<std::size_t>(nx_));
      m = *std::min_element(row, row + nx_);
    }
  }
}

namespace {

/// lb[i] = sum of gap_min(j) over the gaps j between i and `to`.
template <class GapMin>
void sum_outward(std::vector<double>& lb, int to, GapMin gap_min) {
  const int n = static_cast<int>(lb.size());
  lb[static_cast<std::size_t>(to)] = 0.0;
  for (int i = to - 1; i >= 0; --i) {
    lb[static_cast<std::size_t>(i)] = lb[static_cast<std::size_t>(i + 1)] + gap_min(i);
  }
  for (int i = to + 1; i < n; ++i) {
    lb[static_cast<std::size_t>(i)] = lb[static_cast<std::size_t>(i - 1)] + gap_min(i - 1);
  }
}

}  // namespace

void MazeSearch::push(Key key) {
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

MazeSearch::Key MazeSearch::pop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift `last` down from the root along the smaller child.
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
    if (!(heap_[c] < last)) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = last;
  return top;
}

bool MazeSearch::route(const EdgeCosts& g, GridPt a, GridPt b, double ub,
                       std::vector<Seg>& out) {
  if (a == b) {  // the source pops first and is the target
    ++pops_;
    out.clear();
    return true;
  }
  const int nx = g.nx(), ny = g.ny();
  const std::size_t w = static_cast<std::size_t>(nx - 1);
  const std::size_t nn = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  if (node_.size() != nn || lb_x_.size() != static_cast<std::size_t>(nx)) {
    node_.assign(nn, Node{0.0, -1, 0});
    lb_x_.resize(static_cast<std::size_t>(nx));
    lb_y_.resize(static_cast<std::size_t>(ny));
    gen_ = 0;
  }

  // LB to b: the per-gap minima summed outward from b.
  sum_outward(lb_x_, b.x, [&g](int x) { return g.col_min(x); });
  sum_outward(lb_y_, b.y, [&g](int y) { return g.row_min(y); });
  const double bound = ub * (1.0 + 1e-9) + 1e-9;

  if (++gen_ == 0) {  // generation wrapped: forget every stamp
    for (Node& n : node_) n.stamp = 0;
    gen_ = 1;
  }
  const std::uint32_t gen = gen_;
  auto id_of = [nx](int x, int y) {
    return static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(nx) +
           static_cast<std::uint32_t>(x);
  };
  auto key_of = [](double dist, std::uint32_t id) {
    return (Key{std::bit_cast<std::uint64_t>(dist)} << 32) | id;
  };
  heap_.clear();
  const std::uint32_t source = id_of(a.x, a.y);
  const std::uint32_t target = id_of(b.x, b.y);
  node_[source] = {0.0, -1, gen};
  heap_.push_back(key_of(0.0, source));
  std::int64_t pops = 0;
  while (!heap_.empty()) {
    const Key top = pop();
    const double d = std::bit_cast<double>(static_cast<std::uint64_t>(top >> 32));
    const std::uint32_t u = static_cast<std::uint32_t>(top);
    if (d > node_[u].dist) continue;
    ++pops;
    if (u == target) break;
    const int ux = static_cast<int>(u % static_cast<std::uint32_t>(nx));
    const int uy = static_cast<int>(u / static_cast<std::uint32_t>(nx));
    auto relax = [&](int vx, int vy, double cost) {
      const double nd = d + cost;
      const std::uint32_t id = id_of(vx, vy);
      Node& n = node_[id];
      const double cur = n.stamp == gen ? n.dist : std::numeric_limits<double>::max();
      if (nd < cur && !(nd + (lb_x_[static_cast<std::size_t>(vx)] +
                              lb_y_[static_cast<std::size_t>(vy)]) > bound)) {
        n = {nd, static_cast<std::int32_t>(u), gen};
        push(key_of(nd, id));
      }
    };
    const std::size_t hrow = static_cast<std::size_t>(uy) * w;
    const std::size_t vrow = static_cast<std::size_t>(uy) * static_cast<std::size_t>(nx);
    const std::size_t uxs = static_cast<std::size_t>(ux);
    if (ux > 0) relax(ux - 1, uy, g.h(hrow + uxs - 1));
    if (ux + 1 < nx) relax(ux + 1, uy, g.h(hrow + uxs));
    if (uy > 0) relax(ux, uy - 1, g.v(vrow - static_cast<std::size_t>(nx) + uxs));
    if (uy + 1 < ny) relax(ux, uy + 1, g.v(vrow + uxs));
  }
  pops_ += pops;
  if (node_[target].stamp != gen) return false;
  std::size_t hops = 0;
  for (std::int32_t p = node_[target].prev; p >= 0;
       p = node_[static_cast<std::size_t>(p)].prev) {
    ++hops;
  }
  out.resize(hops);
  std::uint32_t cur = target;
  for (Seg& seg : out) {
    const std::uint32_t p = static_cast<std::uint32_t>(node_[cur].prev);
    const int cx = static_cast<int>(cur % static_cast<std::uint32_t>(nx));
    const int cy = static_cast<int>(cur / static_cast<std::uint32_t>(nx));
    const int px = static_cast<int>(p % static_cast<std::uint32_t>(nx));
    const int py = static_cast<int>(p / static_cast<std::uint32_t>(nx));
    if (cy == py) {
      seg = {true, static_cast<std::size_t>(cy) * w +
                       static_cast<std::size_t>(std::min(cx, px))};
    } else {
      seg = {false, static_cast<std::size_t>(std::min(cy, py)) *
                            static_cast<std::size_t>(nx) +
                        static_cast<std::size_t>(cx)};
    }
    cur = p;
  }
  return true;
}

}  // namespace mth::route::detail
