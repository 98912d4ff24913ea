#include "mth/ser/ser.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "mth/io/defio.hpp"
#include "mth/io/lefio.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"

namespace mth::ser {

// ---------------------------------------------------------------------------
// JSON (mth::json plus the ser spans)
// ---------------------------------------------------------------------------

Value parse(std::string_view text) {
  MTH_SPAN("ser/read");
  return json::parse(text);
}

std::string write(const Value& v) {
  MTH_SPAN("ser/write");
  return json::write(v);
}

std::string write_compact(const Value& v) { return json::write_compact(v); }

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

Value make_envelope(const char* kind) {
  Value v = Value::object();
  v.set("mth_ser_version", Value::integer(kSchemaVersion));
  v.set("kind", Value::string(kind));
  return v;
}

std::string envelope_kind(const Value& v) {
  if (!v.is_object()) throw Error("ser: envelope must be an object");
  const std::int64_t version = v.get("mth_ser_version").as_int();
  if (version < 1 || version > kSchemaVersion) {
    throw Error("ser: unsupported schema version " + std::to_string(version) +
                " (this build reads versions 1.." +
                std::to_string(kSchemaVersion) + ")");
  }
  return v.get("kind").as_string();
}

void expect_kind(const Value& v, std::string_view kind) {
  const std::string got = envelope_kind(v);
  if (got != kind) {
    throw Error("ser: expected payload kind '" + std::string(kind) +
                "', got '" + got + "'");
  }
}

void reject_unknown_keys(const Value& v,
                         std::initializer_list<std::string_view> known,
                         const char* where) {
  for (const auto& kv : v.members()) {
    bool ok = false;
    for (const std::string_view k : known) {
      if (kv.first == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw Error(std::string("ser: unknown field '") + kv.first + "' in " +
                  where + " (version skew? this build reads schema version " +
                  std::to_string(kSchemaVersion) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

namespace {

template <typename T>
Value int_array(const std::vector<T>& xs) {
  Value a = Value::array();
  for (const T x : xs) a.push(Value::integer(static_cast<std::int64_t>(x)));
  return a;
}

Value double_array(const std::vector<double>& xs) {
  Value a = Value::array();
  for (const double x : xs) a.push(Value::number(x));
  return a;
}

template <typename T>
std::vector<T> int_vector(const Value& v) {
  std::vector<T> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(static_cast<T>(v.at(i).as_int()));
  }
  return out;
}

std::vector<double> double_vector(const Value& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(v.at(i).as_double());
  return out;
}

const char* sense_name(lp::Sense s) {
  switch (s) {
    case lp::Sense::LE: return "LE";
    case lp::Sense::GE: return "GE";
    case lp::Sense::EQ: return "EQ";
  }
  return "?";
}

lp::Sense sense_from(const std::string& s) {
  if (s == "LE") return lp::Sense::LE;
  if (s == "GE") return lp::Sense::GE;
  if (s == "EQ") return lp::Sense::EQ;
  throw Error("ser: unknown row sense '" + s + "'");
}

ilp::Status status_from(const std::string& s) {
  if (s == "optimal") return ilp::Status::Optimal;
  if (s == "feasible") return ilp::Status::Feasible;
  if (s == "infeasible") return ilp::Status::Infeasible;
  if (s == "no_solution") return ilp::Status::NoSolution;
  throw Error("ser: unknown ilp status '" + s + "'");
}

const char* status_name(ilp::Status s) {
  switch (s) {
    case ilp::Status::Optimal: return "optimal";
    case ilp::Status::Feasible: return "feasible";
    case ilp::Status::Infeasible: return "infeasible";
    case ilp::Status::NoSolution: return "no_solution";
  }
  return "?";
}

Value model_to_value(const lp::Model& m) {
  Value v = Value::object();
  std::vector<double> lb, ub, obj;
  lb.reserve(static_cast<std::size_t>(m.num_vars()));
  ub.reserve(static_cast<std::size_t>(m.num_vars()));
  obj.reserve(static_cast<std::size_t>(m.num_vars()));
  for (int i = 0; i < m.num_vars(); ++i) {
    lb.push_back(m.lb(i));
    ub.push_back(m.ub(i));
    obj.push_back(m.obj(i));
  }
  v.set("lb", double_array(lb));
  v.set("ub", double_array(ub));
  v.set("obj", double_array(obj));
  Value rows = Value::array();
  for (int r = 0; r < m.num_rows(); ++r) {
    const lp::Row& row = m.row(r);
    Value rv = Value::object();
    rv.set("s", Value::string(sense_name(row.sense)));
    rv.set("rhs", Value::number(row.rhs));
    Value entries = Value::array();
    for (const lp::RowEntry& e : row.entries) {
      Value ev = Value::array();
      ev.push(Value::integer(e.var));
      ev.push(Value::number(e.coef));
      entries.push(std::move(ev));
    }
    rv.set("e", std::move(entries));
    rows.push(std::move(rv));
  }
  v.set("rows", std::move(rows));
  return v;
}

lp::Model model_from_value(const Value& v) {
  reject_unknown_keys(v, {"lb", "ub", "obj", "rows"}, "lp model");
  const std::vector<double> lb = double_vector(v.get("lb"));
  const std::vector<double> ub = double_vector(v.get("ub"));
  const std::vector<double> obj = double_vector(v.get("obj"));
  if (lb.size() != ub.size() || lb.size() != obj.size()) {
    throw Error("ser: lp model bound/objective array length mismatch");
  }
  lp::Model m;
  for (std::size_t i = 0; i < lb.size(); ++i) m.add_var(lb[i], ub[i], obj[i]);
  const Value& rows = v.get("rows");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& rv = rows.at(r);
    reject_unknown_keys(rv, {"s", "rhs", "e"}, "lp model row");
    const Value& entries = rv.get("e");
    std::vector<lp::RowEntry> es;
    es.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Value& ev = entries.at(i);
      if (ev.size() != 2) throw Error("ser: lp row entry must be [var, coef]");
      es.push_back(lp::RowEntry{static_cast<int>(ev.at(0).as_int()),
                                ev.at(1).as_double()});
    }
    m.add_row(sense_from(rv.get("s").as_string()), rv.get("rhs").as_double(),
              std::move(es));
  }
  return m;
}

Value basis_to_value(const lp::Basis& b) {
  Value v = Value::object();
  v.set("num_structs", Value::integer(b.num_structs));
  v.set("basic", int_array(b.basic));
  std::vector<int> state;
  state.reserve(b.state.size());
  for (const lp::BasisState s : b.state) state.push_back(static_cast<int>(s));
  v.set("state", int_array(state));
  return v;
}

lp::Basis basis_from_value(const Value& v) {
  reject_unknown_keys(v, {"num_structs", "basic", "state"}, "lp basis");
  lp::Basis b;
  b.num_structs = static_cast<int>(v.get("num_structs").as_int());
  b.basic = int_vector<int>(v.get("basic"));
  const Value& state = v.get("state");
  b.state.reserve(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const std::int64_t s = state.at(i).as_int();
    if (s < 0 || s > 3) throw Error("ser: bad basis state value");
    b.state.push_back(static_cast<lp::BasisState>(s));
  }
  return b;
}

// Optional-field readers for option codecs: absent keeps the default.
void opt_double(const Value& v, std::string_view key, double& out) {
  if (const Value* f = v.find(key)) out = f->as_double();
}

void opt_int(const Value& v, std::string_view key, int& out) {
  if (const Value* f = v.find(key)) out = static_cast<int>(f->as_int());
}

void opt_bool(const Value& v, std::string_view key, bool& out) {
  if (const Value* f = v.find(key)) out = f->as_bool();
}

Value nested_int_array(const std::vector<std::vector<int>>& xss) {
  Value a = Value::array();
  for (const auto& xs : xss) a.push(int_array(xs));
  return a;
}

std::vector<std::vector<int>> nested_int_vector(const Value& v) {
  std::vector<std::vector<int>> out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(int_vector<int>(v.at(i)));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Design codec
// ---------------------------------------------------------------------------

Value to_value(const Design& d) {
  MTH_ASSERT(d.library != nullptr, "ser: design without library");
  Value v = make_envelope("design");
  Value lib = Value::object();
  if (d.library == liberty::library_ref()) {
    lib.set("source", Value::string("builtin"));
    lib.set("name", Value::string(d.library->name()));
  } else {
    std::ostringstream os;
    io::write_lef(os, *d.library);
    lib.set("source", Value::string("lef"));
    lib.set("name", Value::string(d.library->name()));
    lib.set("lef", Value::string(os.str()));
  }
  v.set("library", std::move(lib));
  std::ostringstream os;
  io::write_design(os, d);
  v.set("def", Value::string(os.str()));
  return v;
}

Design design_from_value(const Value& v) {
  expect_kind(v, "design");
  reject_unknown_keys(v, {"mth_ser_version", "kind", "library", "def"},
                      "design");
  const Value& lib = v.get("library");
  const std::string source = lib.get("source").as_string();
  std::shared_ptr<const Library> library;
  if (source == "builtin") {
    reject_unknown_keys(lib, {"source", "name"}, "design library");
    library = liberty::library_ref();
    const std::string& name = lib.get("name").as_string();
    if (name != library->name()) {
      throw Error("ser: builtin library mismatch: payload expects '" + name +
                  "', this build provides '" + library->name() + "'");
    }
  } else if (source == "lef") {
    reject_unknown_keys(lib, {"source", "name", "lef"}, "design library");
    std::istringstream is(lib.get("lef").as_string());
    library = io::read_lef(is, lib.get("name").as_string()).library;
  } else {
    throw Error("ser: unknown library source '" + source + "'");
  }
  std::istringstream is(v.get("def").as_string());
  return io::read_design(is, std::move(library));
}

// ---------------------------------------------------------------------------
// Options codecs
// ---------------------------------------------------------------------------

Value to_value(const rap::RapOptions& o) {
  Value v = make_envelope("rap_options");
  v.set("s", Value::number(o.s));
  v.set("alpha", Value::number(o.alpha));
  v.set("use_clustering", Value::boolean(o.use_clustering));
  v.set("n_min_pairs", Value::integer(o.n_min_pairs));
  v.set("minority_row_fill", Value::number(o.minority_row_fill));
  v.set("kmeans_max_iterations", Value::integer(o.kmeans_max_iterations));
  v.set("max_cand_rows", Value::integer(o.max_cand_rows));
  v.set("model_eviction", Value::boolean(o.model_eviction));
  v.set("export_certificate", Value::boolean(o.export_certificate));
  v.set("shards", Value::integer(o.shards));
  v.set("shard_overlap", Value::integer(o.shard_overlap));
  v.set("seed", Value::integer(static_cast<std::int64_t>(o.ctx.exec.seed)));
  Value ilp = Value::object();
  ilp.set("time_limit_s", Value::number(o.ilp.time_limit_s));
  ilp.set("rel_gap", Value::number(o.ilp.rel_gap));
  ilp.set("int_tol", Value::number(o.ilp.int_tol));
  ilp.set("max_nodes", Value::integer(o.ilp.max_nodes));
  ilp.set("warm_basis", Value::boolean(o.ilp.warm_basis));
  ilp.set("node_batch", Value::integer(o.ilp.node_batch));
  v.set("ilp", std::move(ilp));
  return v;
}

rap::RapOptions rap_options_from_value(const Value& v) {
  expect_kind(v, "rap_options");
  reject_unknown_keys(
      v,
      {"mth_ser_version", "kind", "s", "alpha", "use_clustering",
       "n_min_pairs", "minority_row_fill", "kmeans_max_iterations",
       "max_cand_rows", "model_eviction", "export_certificate", "shards",
       "shard_overlap", "seed", "ilp"},
      "rap_options");
  // Option fields are individually optional: an absent field keeps this
  // build's default (hand-written job envelopes only say what they change),
  // while an unknown field still hard-fails above.
  rap::RapOptions o;
  opt_double(v, "s", o.s);
  opt_double(v, "alpha", o.alpha);
  opt_bool(v, "use_clustering", o.use_clustering);
  opt_int(v, "n_min_pairs", o.n_min_pairs);
  opt_double(v, "minority_row_fill", o.minority_row_fill);
  opt_int(v, "kmeans_max_iterations", o.kmeans_max_iterations);
  opt_int(v, "max_cand_rows", o.max_cand_rows);
  opt_bool(v, "model_eviction", o.model_eviction);
  opt_bool(v, "export_certificate", o.export_certificate);
  opt_int(v, "shards", o.shards);
  opt_int(v, "shard_overlap", o.shard_overlap);
  if (const Value* seed = v.find("seed")) {
    o.ctx.exec.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const Value* ilp = v.find("ilp")) {
    reject_unknown_keys(*ilp,
                        {"time_limit_s", "rel_gap", "int_tol", "max_nodes",
                         "warm_basis", "node_batch"},
                        "rap_options.ilp");
    opt_double(*ilp, "time_limit_s", o.ilp.time_limit_s);
    opt_double(*ilp, "rel_gap", o.ilp.rel_gap);
    opt_double(*ilp, "int_tol", o.ilp.int_tol);
    opt_int(*ilp, "max_nodes", o.ilp.max_nodes);
    opt_bool(*ilp, "warm_basis", o.ilp.warm_basis);
    opt_int(*ilp, "node_batch", o.ilp.node_batch);
  }
  return o;
}

Value to_value(const flows::FlowOptions& o) {
  Value v = make_envelope("flow_options");
  v.set("scale", Value::number(o.scale));
  v.set("utilization", Value::number(o.utilization));
  v.set("aspect_ratio", Value::number(o.aspect_ratio));
  v.set("verify", Value::boolean(o.verify));
  v.set("seed", Value::integer(static_cast<std::int64_t>(o.ctx.exec.seed)));
  v.set("baseline_minority_row_fill",
        Value::number(o.baseline.minority_row_fill));
  v.set("rap", to_value(o.rap));
  return v;
}

flows::FlowOptions flow_options_from_value(const Value& v) {
  expect_kind(v, "flow_options");
  reject_unknown_keys(v,
                      {"mth_ser_version", "kind", "scale", "utilization",
                       "aspect_ratio", "verify", "seed",
                       "baseline_minority_row_fill", "rap"},
                      "flow_options");
  flows::FlowOptions o;
  opt_double(v, "scale", o.scale);
  opt_double(v, "utilization", o.utilization);
  opt_double(v, "aspect_ratio", o.aspect_ratio);
  opt_bool(v, "verify", o.verify);
  if (const Value* seed = v.find("seed")) {
    o.ctx.exec.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  opt_double(v, "baseline_minority_row_fill", o.baseline.minority_row_fill);
  if (const Value* rap = v.find("rap")) {
    o.rap = rap_options_from_value(*rap);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Certificate / result codecs
// ---------------------------------------------------------------------------

Value to_value(const rap::RapCertificate& c) {
  Value v = make_envelope("rap_certificate");
  v.set("model", model_to_value(c.model));
  v.set("duals", double_array(c.duals));
  v.set("root_lp_objective", Value::number(c.root_lp_objective));
  v.set("xvar", nested_int_array(c.xvar));
  v.set("cand", nested_int_array(c.cand));
  v.set("yvar", int_array(c.yvar));
  v.set("cluster_w", int_array(c.cluster_w));
  v.set("evict_cost", double_array(c.evict_cost));
  v.set("root_basis", basis_to_value(c.root_basis));
  return v;
}

rap::RapCertificate certificate_from_value(const Value& v) {
  expect_kind(v, "rap_certificate");
  reject_unknown_keys(v,
                      {"mth_ser_version", "kind", "model", "duals",
                       "root_lp_objective", "xvar", "cand", "yvar",
                       "cluster_w", "evict_cost", "root_basis"},
                      "rap_certificate");
  rap::RapCertificate c;
  c.model = model_from_value(v.get("model"));
  c.duals = double_vector(v.get("duals"));
  c.root_lp_objective = v.get("root_lp_objective").as_double();
  c.xvar = nested_int_vector(v.get("xvar"));
  c.cand = nested_int_vector(v.get("cand"));
  c.yvar = int_vector<int>(v.get("yvar"));
  c.cluster_w = int_vector<Dbu>(v.get("cluster_w"));
  c.evict_cost = double_vector(v.get("evict_cost"));
  c.root_basis = basis_from_value(v.get("root_basis"));
  return c;
}

namespace {

Value band_to_value(const rap::RapBand& b) {
  Value v = Value::object();
  v.set("pair_lo", Value::integer(b.pair_lo));
  v.set("pair_hi", Value::integer(b.pair_hi));
  v.set("clusters", int_array(b.clusters));
  v.set("n_min_pairs", Value::integer(b.n_min_pairs));
  v.set("status", Value::string(status_name(b.status)));
  v.set("objective", Value::number(b.objective));
  v.set("best_bound", Value::number(b.best_bound));
  v.set("certificate",
        b.certificate == nullptr ? Value::null() : to_value(*b.certificate));
  return v;
}

rap::RapBand band_from_value(const Value& v) {
  reject_unknown_keys(v,
                      {"pair_lo", "pair_hi", "clusters", "n_min_pairs",
                       "status", "objective", "best_bound", "certificate"},
                      "rap band");
  rap::RapBand b;
  b.pair_lo = static_cast<int>(v.get("pair_lo").as_int());
  b.pair_hi = static_cast<int>(v.get("pair_hi").as_int());
  b.clusters = int_vector<int>(v.get("clusters"));
  b.n_min_pairs = static_cast<int>(v.get("n_min_pairs").as_int());
  b.status = status_from(v.get("status").as_string());
  b.objective = v.get("objective").as_double();
  b.best_bound = v.get("best_bound").as_double();
  const Value& cert = v.get("certificate");
  if (!cert.is_null()) {
    b.certificate = std::make_shared<const rap::RapCertificate>(
        certificate_from_value(cert));
  }
  return b;
}

}  // namespace

Value to_value(const rap::RapResult& r) {
  Value v = make_envelope("rap_result");
  std::vector<int> assignment;
  assignment.reserve(r.assignment.pair_is_minority.size());
  for (const bool b : r.assignment.pair_is_minority) assignment.push_back(b ? 1 : 0);
  v.set("assignment", int_array(assignment));
  v.set("minority_cells", int_array(r.minority_cells));
  v.set("cluster_of", int_array(r.cluster_of));
  v.set("cluster_pair", int_array(r.cluster_pair));
  v.set("num_clusters", Value::integer(r.num_clusters));
  v.set("num_x_vars", Value::integer(r.num_x_vars));
  v.set("num_cand_rows", Value::integer(r.num_cand_rows));
  v.set("n_min_pairs", Value::integer(r.n_min_pairs));
  v.set("cluster_seconds", Value::number(r.cluster_seconds));
  v.set("cost_seconds", Value::number(r.cost_seconds));
  v.set("ilp_seconds", Value::number(r.ilp_seconds));
  v.set("status", Value::string(status_name(r.status)));
  v.set("objective", Value::number(r.objective));
  v.set("gap", Value::number(r.gap));
  v.set("ilp_nodes", Value::integer(r.ilp_nodes));
  v.set("lp_iterations", Value::integer(r.lp_iterations));
  v.set("basis_reuse_hits", Value::integer(r.basis_reuse_hits));
  v.set("cand_widenings", Value::integer(r.cand_widenings));
  v.set("certificate",
        r.certificate == nullptr ? Value::null() : to_value(*r.certificate));
  Value bands = Value::array();
  for (const rap::RapBand& b : r.bands) bands.push(band_to_value(b));
  v.set("bands", std::move(bands));
  v.set("repair_moves", Value::integer(r.repair_moves));
  return v;
}

rap::RapResult rap_result_from_value(const Value& v) {
  expect_kind(v, "rap_result");
  reject_unknown_keys(
      v,
      {"mth_ser_version", "kind", "assignment", "minority_cells",
       "cluster_of", "cluster_pair", "num_clusters", "num_x_vars",
       "num_cand_rows", "n_min_pairs", "cluster_seconds", "cost_seconds",
       "ilp_seconds", "status", "objective", "gap", "ilp_nodes",
       "lp_iterations", "basis_reuse_hits", "cand_widenings", "certificate",
       "bands", "repair_moves"},
      "rap_result");
  rap::RapResult r;
  const Value& assignment = v.get("assignment");
  r.assignment.pair_is_minority.reserve(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    r.assignment.pair_is_minority.push_back(assignment.at(i).as_int() != 0);
  }
  r.minority_cells = int_vector<InstId>(v.get("minority_cells"));
  r.cluster_of = int_vector<int>(v.get("cluster_of"));
  r.cluster_pair = int_vector<int>(v.get("cluster_pair"));
  r.num_clusters = static_cast<int>(v.get("num_clusters").as_int());
  r.num_x_vars = static_cast<int>(v.get("num_x_vars").as_int());
  r.num_cand_rows = static_cast<int>(v.get("num_cand_rows").as_int());
  r.n_min_pairs = static_cast<int>(v.get("n_min_pairs").as_int());
  r.cluster_seconds = v.get("cluster_seconds").as_double();
  r.cost_seconds = v.get("cost_seconds").as_double();
  r.ilp_seconds = v.get("ilp_seconds").as_double();
  r.status = status_from(v.get("status").as_string());
  r.objective = v.get("objective").as_double();
  r.gap = v.get("gap").as_double();
  r.ilp_nodes = static_cast<int>(v.get("ilp_nodes").as_int());
  r.lp_iterations = static_cast<int>(v.get("lp_iterations").as_int());
  r.basis_reuse_hits = static_cast<int>(v.get("basis_reuse_hits").as_int());
  r.cand_widenings = static_cast<int>(v.get("cand_widenings").as_int());
  const Value& cert = v.get("certificate");
  if (!cert.is_null()) {
    r.certificate = std::make_shared<const rap::RapCertificate>(
        certificate_from_value(cert));
  }
  const Value& bands = v.get("bands");
  r.bands.reserve(bands.size());
  for (std::size_t i = 0; i < bands.size(); ++i) {
    r.bands.push_back(band_from_value(bands.at(i)));
  }
  r.repair_moves = static_cast<int>(v.get("repair_moves").as_int());
  return r;
}

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void feed(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
};

// The writer's %.17g / inf form, so the hash keys the same digits ser
// writes.
void append_double(std::string& out, double d) {
  out += json::write_compact(Value::number(d));
}

}  // namespace

std::uint64_t canonical_design_hash(const Design& d) {
  MTH_ASSERT(d.library != nullptr, "ser: design without library");
  std::string text;
  text.reserve(1 << 16);
  text += "design ";
  text += d.name;
  text += ' ';
  append_double(text, d.clock_ps);
  text += '\n';

  // Library: masters sorted by name (electrical fields excluded — they are
  // defaults for every ingested library and identical across builds for the
  // built-in one; the geometric/structural fields are what placement sees).
  text += "library ";
  text += d.library->name();
  text += '\n';
  std::vector<int> master_order(static_cast<std::size_t>(d.library->num_masters()));
  for (std::size_t i = 0; i < master_order.size(); ++i) master_order[i] = static_cast<int>(i);
  std::sort(master_order.begin(), master_order.end(), [&](int a, int b) {
    return d.library->master(a).name < d.library->master(b).name;
  });
  for (const int mi : master_order) {
    const CellMaster& m = d.library->master(mi);
    text += "master ";
    text += m.name;
    text += ' ';
    text += to_string(m.func);
    text += m.track_height == TrackHeight::H75T ? " 7.5T " : " 6T ";
    text += to_string(m.vt);
    text += ' ';
    text += std::to_string(m.drive);
    text += ' ';
    text += std::to_string(m.width);
    text += ' ';
    text += std::to_string(m.height);
    for (const PinDef& p : m.pins) {
      text += ' ';
      text += p.name;
      text += ':';
      text += std::to_string(p.offset.x);
      text += ':';
      text += std::to_string(p.offset.y);
      text += p.is_output ? ":o" : (p.is_clock ? ":c" : ":i");
    }
    text += '\n';
  }

  const Floorplan& fp = d.floorplan;
  text += "core ";
  text += std::to_string(fp.core().lo.x);
  text += ' ';
  text += std::to_string(fp.core().lo.y);
  text += ' ';
  text += std::to_string(fp.core().hi.x);
  text += ' ';
  text += std::to_string(fp.core().hi.y);
  text += ' ';
  text += std::to_string(fp.site_width());
  text += '\n';
  for (const Row& r : fp.rows()) {
    text += "row ";
    text += std::to_string(r.y);
    text += ' ';
    text += std::to_string(r.height);
    text += ' ';
    text += std::to_string(r.x0);
    text += ' ';
    text += std::to_string(r.x1);
    text += r.track_height == TrackHeight::H75T ? " 7.5T\n" : " 6T\n";
  }

  // Name-sorted entity sections: the hash must be invariant under the order
  // instances/ports/nets were added, so everything is keyed and referenced
  // by name (netlist names are unique; Netlist::check enforces structure).
  const Netlist& nl = d.netlist;
  std::vector<int> port_order(static_cast<std::size_t>(nl.num_ports()));
  for (std::size_t i = 0; i < port_order.size(); ++i) port_order[i] = static_cast<int>(i);
  std::sort(port_order.begin(), port_order.end(), [&](int a, int b) {
    return nl.port(a).name < nl.port(b).name;
  });
  for (const int pi : port_order) {
    const Port& p = nl.port(pi);
    text += "port ";
    text += p.name;
    text += ' ';
    text += std::to_string(p.pos.x);
    text += ' ';
    text += std::to_string(p.pos.y);
    text += p.is_input ? " in\n" : " out\n";
  }

  std::vector<int> inst_order(static_cast<std::size_t>(nl.num_instances()));
  for (std::size_t i = 0; i < inst_order.size(); ++i) inst_order[i] = static_cast<int>(i);
  std::sort(inst_order.begin(), inst_order.end(), [&](int a, int b) {
    return nl.instance(a).name < nl.instance(b).name;
  });
  for (const int ii : inst_order) {
    const Instance& inst = nl.instance(ii);
    text += "inst ";
    text += inst.name;
    text += ' ';
    text += d.library->master(inst.master).name;
    text += ' ';
    text += std::to_string(inst.pos.x);
    text += ' ';
    text += std::to_string(inst.pos.y);
    text += inst.fixed ? " fixed\n" : "\n";
  }

  std::vector<int> net_order(static_cast<std::size_t>(nl.num_nets()));
  for (std::size_t i = 0; i < net_order.size(); ++i) net_order[i] = static_cast<int>(i);
  std::sort(net_order.begin(), net_order.end(), [&](int a, int b) {
    return nl.net(a).name < nl.net(b).name;
  });
  for (const int ni : net_order) {
    const Net& n = nl.net(ni);
    text += "net ";
    text += n.name;
    text += ' ';
    append_double(text, n.activity);
    text += n.is_clock ? " 1" : " 0";
    for (const PinRef& p : n.pins) {
      text += ' ';
      if (p.is_port()) {
        text += "port:";
        text += nl.port(p.pin).name;
      } else {
        text += nl.instance(p.inst).name;
        text += ':';
        text += std::to_string(p.pin);
      }
    }
    text += '\n';
  }

  Fnv1a fnv;
  fnv.feed(text);
  return fnv.h;
}

std::uint64_t canonical_options_hash(const flows::FlowOptions& o) {
  Fnv1a fnv;
  fnv.feed(write_compact(to_value(o)));
  return fnv.h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return std::string(buf, 16);
}

}  // namespace mth::ser
