// mth::ser tests: canonical JSON value layer, envelope versioning, codec
// round-trip byte-identity, and the canonical design/options hashes that key
// the mth_serve result cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string_view>

#include "mth/flows/flow.hpp"
#include "mth/io/lefio.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/ser/ser.hpp"

namespace mth::ser {
namespace {

const flows::PreparedCase& shared_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    opt.rap.ilp.time_limit_s = 10;
    return prepare_case(synth::spec_by_name("aes_300"), opt);
  }();
  return pc;
}

const rap::RapResult& shared_rap() {
  static const std::shared_ptr<const rap::RapResult> res = [] {
    const flows::PreparedCase& pc = shared_case();
    flows::FlowOptions opt;
    opt.scale = 0.05;
    opt.rap.ilp.time_limit_s = 10;
    (void)flows::run_flow(pc, flows::FlowId::F4, opt, false, false);
    return pc.rap_cache;
  }();
  return *res;
}

// --- value layer -----------------------------------------------------------

TEST(Value, ParseWriteScalars) {
  EXPECT_EQ(write_compact(parse("true")), "true");
  EXPECT_EQ(write_compact(parse("null")), "null");
  EXPECT_EQ(write_compact(parse("-42")), "-42");
  EXPECT_EQ(write_compact(parse("\"a\\nb\"")), "\"a\\nb\"");
  EXPECT_EQ(write_compact(parse("inf")), "inf");
  EXPECT_EQ(write_compact(parse("-inf")), "-inf");
}

TEST(Value, IntAndDoubleAreDistinct) {
  EXPECT_EQ(parse("3").kind(), Value::Kind::Int);
  EXPECT_EQ(parse("3.0").kind(), Value::Kind::Double);
  // int64 round-trips exactly even where double would lose bits.
  EXPECT_EQ(parse("9007199254740993").as_int(), 9007199254740993);
}

TEST(Value, ObjectsPreserveInsertionOrder) {
  const Value v = parse("{\"z\": 1, \"a\": 2}");
  EXPECT_EQ(write_compact(v), "{\"z\":1,\"a\":2}");
}

TEST(Value, DuplicateKeysRejected) {
  EXPECT_THROW(parse("{\"a\": 1, \"a\": 2}"), Error);
}

TEST(Value, TrailingGarbageRejected) { EXPECT_THROW(parse("1 2"), Error); }

TEST(Value, DepthLimited) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(parse(deep), Error);
}

TEST(Value, DoubleWriteIsStable) {
  // write(parse(write(x))) is byte-stable: %.17g survives a re-parse.
  for (double x : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, 5e-3}) {
    const std::string once = write_compact(Value::number(x));
    EXPECT_EQ(write_compact(parse(once)), once);
  }
}

// --- envelopes -------------------------------------------------------------

TEST(Envelope, FutureVersionRejected) {
  EXPECT_THROW(
      envelope_kind(parse("{\"mth_ser_version\": 2, \"kind\": \"job\"}")),
      Error);
}

TEST(Envelope, MissingVersionRejected) {
  EXPECT_THROW(envelope_kind(parse("{\"kind\": \"job\"}")), Error);
}

TEST(Envelope, UnknownFieldRejected) {
  Value v = to_value(rap::RapOptions{});
  v.set("definitely_not_a_field", Value::integer(1));
  EXPECT_THROW(rap_options_from_value(v), Error);
}

TEST(Envelope, WrongKindRejected) {
  const Value v = to_value(rap::RapOptions{});
  EXPECT_THROW(flow_options_from_value(v), Error);
}

// --- codec round-trips -----------------------------------------------------

// A small design over a LEF-closed library (one that io::write_lef can
// express — master heights match site heights), exercising the embedded-LEF
// codec path used for external designs.
Design tiny_external_design() {
  std::ostringstream lef;
  io::write_lef(lef, *liberty::library_ref());
  std::istringstream lef_in(lef.str());
  Design d;
  d.name = "tiny";
  d.clock_ps = 500.0;
  d.library = io::read_lef(lef_in, "tiny_lib").library;
  int out_pin = -1, in_pin = -1;
  const CellMaster& m = d.library->master(0);
  for (std::size_t p = 0; p < m.pins.size(); ++p) {
    (m.pins[p].is_output ? out_pin : in_pin) = static_cast<int>(p);
  }
  d.netlist.add_instance("u0", 0, {0, 0});
  d.netlist.add_instance("u1", 0, {540, 0});
  const NetId n = d.netlist.add_net("n0");
  d.netlist.connect(n, {0, out_pin});
  d.netlist.connect(n, {1, in_pin});
  return d;
}

TEST(RoundTrip, DesignByteIdentity) {
  const Design d = tiny_external_design();
  const std::string first = write(to_value(d));
  const Design back = design_from_value(parse(first));
  EXPECT_EQ(write(to_value(back)), first);
  EXPECT_EQ(back.netlist.num_instances(), d.netlist.num_instances());
  EXPECT_EQ(canonical_design_hash(back), canonical_design_hash(d));
}

TEST(RoundTrip, BuiltinLibraryByReference) {
  Design d = tiny_external_design();
  d.library = liberty::library_ref();
  const Value v = to_value(d);
  // The bundled library is referenced by name, not embedded as LEF text:
  // electrical data (which LEF cannot carry) survives the round trip.
  EXPECT_EQ(v.get("library").get("source").as_string(), "builtin");
  EXPECT_EQ(v.get("library").find("lef"), nullptr);
  const Design back = design_from_value(v);
  EXPECT_EQ(back.library.get(), d.library.get());
  EXPECT_EQ(write(to_value(back)), write(v));
}

TEST(RoundTrip, FlowOptionsByteIdentity) {
  flows::FlowOptions opt;
  opt.scale = 0.25;
  opt.utilization = 0.55;
  opt.rap.alpha = 0.5;
  opt.rap.ilp.time_limit_s = 7.5;
  const std::string first = write(to_value(opt));
  const flows::FlowOptions back = flow_options_from_value(parse(first));
  EXPECT_EQ(write(to_value(back)), first);
  EXPECT_EQ(back.scale, 0.25);
  EXPECT_EQ(back.rap.ilp.time_limit_s, 7.5);
}

TEST(RoundTrip, PartialOptionsKeepDefaults) {
  // Hand-written envelopes may state only what they override.
  const flows::FlowOptions back = flow_options_from_value(parse(
      "{\"mth_ser_version\": 1, \"kind\": \"flow_options\", \"scale\": 0.5}"));
  EXPECT_EQ(back.scale, 0.5);
  EXPECT_EQ(back.utilization, flows::FlowOptions{}.utilization);
  EXPECT_EQ(back.rap.alpha, rap::RapOptions{}.alpha);
}

TEST(RoundTrip, RapResultByteIdentity) {
  const rap::RapResult& r = shared_rap();
  ASSERT_GT(r.num_clusters, 0);
  const std::string first = write(to_value(r));
  const rap::RapResult back = rap_result_from_value(parse(first));
  EXPECT_EQ(write(to_value(back)), first);
  EXPECT_EQ(back.assignment.num_pairs(), r.assignment.num_pairs());
  EXPECT_EQ(back.minority_cells, r.minority_cells);
  EXPECT_EQ(back.objective, r.objective);
}

TEST(RoundTrip, RapCertificateByteIdentity) {
  const rap::RapResult& r = shared_rap();
  ASSERT_NE(r.certificate, nullptr);
  ASSERT_FALSE(r.certificate->root_basis.empty())
      << "certificate must carry the round-0 basis for ECO hot starts";
  const std::string first = write(to_value(*r.certificate));
  const rap::RapCertificate back = certificate_from_value(parse(first));
  EXPECT_EQ(write(to_value(back)), first);
  EXPECT_EQ(back.duals.size(), r.certificate->duals.size());
  EXPECT_EQ(back.root_lp_objective, r.certificate->root_lp_objective);
}

// --- canonical hashing -----------------------------------------------------

TEST(Hash, PermutedInstanceOrderHashesIdentically) {
  const Design& d = shared_case().initial;
  // Rebuild the netlist with instances stored in reverse order (ids
  // remapped); the canonical hash keys on names, so storage order must not
  // matter — the mth_serve cache treats the two as the same design.
  Design p;
  p.name = d.name;
  p.clock_ps = d.clock_ps;
  p.library = d.library;
  p.floorplan = d.floorplan;
  const int n = d.netlist.num_instances();
  for (int i = n - 1; i >= 0; --i) {
    const Instance& inst = d.netlist.instance(i);
    p.netlist.add_instance(inst.name, inst.master, inst.pos);
  }
  for (PortId i = 0; i < d.netlist.num_ports(); ++i) {
    const Port& port = d.netlist.port(i);
    p.netlist.add_port(port.name, port.pos, port.is_input);
  }
  for (NetId i = 0; i < d.netlist.num_nets(); ++i) {
    const Net& net = d.netlist.net(i);
    const NetId id = p.netlist.add_net(net.name);
    p.netlist.net(id).activity = net.activity;
    p.netlist.net(id).is_clock = net.is_clock;
    for (const PinRef& pin : net.pins) {
      p.netlist.connect(id, pin.is_port()
                                ? pin
                                : PinRef{static_cast<InstId>(n - 1 - pin.inst),
                                         pin.pin});
    }
  }
  EXPECT_EQ(canonical_design_hash(p), canonical_design_hash(d));
}

TEST(Hash, DistinctDesignsHashDifferently) {
  const Design& d = shared_case().initial;
  Design moved = d;
  moved.netlist.instance(0).pos.x += 1;
  EXPECT_NE(canonical_design_hash(moved), canonical_design_hash(d));
}

TEST(Hash, OptionsHashTracksFields) {
  flows::FlowOptions a, b;
  EXPECT_EQ(canonical_options_hash(a), canonical_options_hash(b));
  b.rap.alpha = 0.9;
  EXPECT_NE(canonical_options_hash(a), canonical_options_hash(b));
  EXPECT_EQ(hash_hex(canonical_options_hash(a)).size(), 16u);
}

// --- byte pin ----------------------------------------------------------------

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One value that reaches every writer branch: each control character,
/// quote and backslash, a é escape read back, %.17g doubles (-0.0, a
/// subnormal), +-inf, the int64 extremes, empty and nested composites, and
/// arrays both inline (scalars only) and broken over lines.
Value every_branch_value() {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  controls += "\"\\/ plain";
  Value doubles = Value::array();
  for (const double d : {0.1, -0.0, 4.9406564584124654e-324, 1.0 / 3.0,
                         -1e300, 2.5, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    doubles.push(Value::number(d));
  }
  Value ints = Value::array();
  for (const std::int64_t i : {std::numeric_limits<std::int64_t>::min(),
                               std::int64_t{-1}, std::int64_t{0},
                               std::numeric_limits<std::int64_t>::max()}) {
    ints.push(Value::integer(i));
  }
  Value inner = Value::object();
  inner.set("null", Value::null());
  inner.set("yes", Value::boolean(true));
  inner.set("no", Value::boolean(false));
  inner.set("empty_array", Value::array());
  inner.set("empty_object", Value::object());
  Value mixed = Value::array();
  mixed.push(Value::integer(1));
  mixed.push(inner);
  mixed.push(Value::array());
  mixed.push(ints);
  Value v = Value::object();
  v.set("controls", Value::string(controls));
  v.set("latin1", parse("\"caf\\u00e9\""));
  v.set("doubles", std::move(doubles));
  v.set("ints", std::move(ints));
  v.set("mixed", std::move(mixed));
  v.set("", Value::string(""));
  return v;
}

TEST(Ser, MatchesParentBytes) {
  // FNV-1a of write() and write_compact() on one hand-built value and on
  // the envelopes of a Flow 5 run, plus serve's two cache keys. Recorded
  // before the JSON value moved to mth::json; any byte the move changes
  // fails here.
  flows::FlowOptions opt;
  opt.scale = 0.04;
  opt.rap.ilp.time_limit_s = 1e9;
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name("aes_360"), opt);
  const flows::FlowOutput out =
      flows::run_flow(pc, flows::FlowId::F5, opt, false, true);
  ASSERT_NE(pc.rap_cache, nullptr);
  rap::RapResult result = *pc.rap_cache;
  ASSERT_NE(result.certificate, nullptr);
  // Wall clock, not output.
  result.cluster_seconds = 0.0;
  result.cost_seconds = 0.0;
  result.ilp_seconds = 0.0;

  struct Want {
    const char* what;
    Value value;
    std::uint64_t pretty;
    std::uint64_t compact;
  };
  const Want cases[] = {
      {"every branch", every_branch_value(),
       0xbc4056fb8831a772ull, 0xc8c8360caf6d8970ull},
      {"design", to_value(pc.initial),
       0xfd980e52a310967full, 0xa400a1ced490f395ull},
      {"flow design", to_value(*out.design),
       0x22c7900a7482e2afull, 0x7dd8b49779966e45ull},
      {"flow_options", to_value(opt),
       0x06408452cf0734c3ull, 0x98b2fa41d3842e13ull},
      {"rap_options", to_value(opt.rap),
       0xeecdd12e25cfc0c1ull, 0x57eecfe428a016cdull},
      {"rap_result", to_value(result),
       0x7d8f23ab9a42507eull, 0xd57370464aa7f1a4ull},
      {"rap_certificate", to_value(*result.certificate),
       0xd5a7c9dab24cb81cull, 0xd9eb23679d59388eull},
  };
  for (const Want& w : cases) {
    EXPECT_EQ(fnv1a(write(w.value)), w.pretty)
        << w.what << " write: got " << hash_hex(fnv1a(write(w.value)));
    EXPECT_EQ(fnv1a(write_compact(w.value)), w.compact)
        << w.what << " write_compact: got "
        << hash_hex(fnv1a(write_compact(w.value)));
  }
  EXPECT_EQ(canonical_design_hash(pc.initial), 0xb4dbaed974a86a40ull)
      << "got " << hash_hex(canonical_design_hash(pc.initial));
  EXPECT_EQ(canonical_options_hash(opt), 0x98b2fa41d3842e13ull)
      << "got " << hash_hex(canonical_options_hash(opt));
}

}  // namespace
}  // namespace mth::ser
