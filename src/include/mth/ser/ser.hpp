#pragma once
// mth::ser — the versioned serialization layer (README "Serving").
//
// Canonical, schema-versioned (de)serialization for the types that cross
// the process boundary: db::Design, flows::FlowOptions, rap::RapOptions,
// rap::RapResult and rap::RapCertificate. This is the API seam the job
// server (mth_serve / mth::serve) ships work across, modeled on the
// job-envelope pattern of distributed detailed routing (PAPERS.md:
// OpenROAD FlexDR's RoutingJobDescription/serialize_worker).
//
// Format: mth::json (mth/util/json.hpp), JSON with two deliberate
// extensions — `inf` / `-inf` numeric tokens (LP bounds are routinely
// infinite) and a distinguished integer flavor so DBU coordinates
// round-trip exactly as int64. Every top-level value is an *envelope*: an
// object whose first two keys are `mth_ser_version` (the schema version;
// readers reject versions newer than kSchemaVersion) and `kind` (the
// payload type). Objects reject duplicate keys at parse time and every
// codec rejects unknown keys, so version skew fails loudly instead of
// silently dropping fields.
//
// Canonical form: write() is a pure function of the value — fixed key
// order (codec-chosen), fixed number formatting (%.17g doubles, exact
// int64), fixed indentation — so serialize→deserialize→serialize is
// byte-identical (property-tested in ser_test). The canonical design
// hash sorts instances/ports/nets by *name* and refers to pins by name,
// making it invariant under construction-order permutation; it keys the
// mth_serve result cache (same hash + same options → cached replay).
//
// What is deliberately NOT serialized: runtime policy (RunContext — the
// sink and thread count belong to the executing process, not the job),
// callback hooks (ilp heuristics), and borrowed pointers
// (RapOptions::width_library, RapOptions::eco_base — the server re-binds
// those from its own state). Deserialization starts from the type's
// defaults and overwrites the serialized surface, so non-serialized
// knobs keep their build's defaults.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/flows/flow.hpp"
#include "mth/rap/rap.hpp"
#include "mth/util/json.hpp"

namespace mth::ser {

/// Schema version written by this build; readers accept <= this.
constexpr std::int64_t kSchemaVersion = 1;

// ---------------------------------------------------------------------------
// JSON value
// ---------------------------------------------------------------------------

/// The JSON value lives in mth/util/json.hpp; ser adds the spans below.
using Value = json::Value;

/// json::parse inside one `ser/read` span.
Value parse(std::string_view text);

/// json::write inside one `ser/write` span: the canonical multi-line form
/// (2-space indent, scalar-only arrays inline, trailing newline).
std::string write(const Value& v);

/// json::write_compact: the single-line form for the line-delimited
/// mth_serve protocol. Same canonical number/string formatting as write().
std::string write_compact(const Value& v);

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// Fresh envelope object: {"mth_ser_version": kSchemaVersion, "kind": kind}.
Value make_envelope(const char* kind);

/// Validate an envelope and return its kind. Throws on a missing/invalid
/// version field or a version newer than this build reads.
std::string envelope_kind(const Value& v);

/// envelope_kind() + kind equality check.
void expect_kind(const Value& v, std::string_view kind);

/// Reject any member key not in `known` (version-skew safety: a field this
/// build does not understand must fail the whole read). `where` names the
/// payload in the error message.
void reject_unknown_keys(const Value& v,
                         std::initializer_list<std::string_view> known,
                         const char* where);

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Design <-> envelope kind "design". The netlist/floorplan body embeds the
/// defio text (exact integer round-trip); the library is either a named
/// reference to the built-in liberty library (electrical fields preserved)
/// or an embedded LEF text (geometric/structural fields only — the
/// io::write_lef contract).
Value to_value(const Design& d);
Design design_from_value(const Value& v);

/// FlowOptions <-> envelope kind "flow_options". Covers the determinism-
/// relevant surface: scale, utilization, aspect_ratio, verify, seed and the
/// nested RapOptions + baseline fill; runtime policy is not serialized.
Value to_value(const flows::FlowOptions& o);
flows::FlowOptions flow_options_from_value(const Value& v);

/// RapOptions <-> envelope kind "rap_options".
Value to_value(const rap::RapOptions& o);
rap::RapOptions rap_options_from_value(const Value& v);

/// RapResult <-> envelope kind "rap_result" (bands and certificates
/// included, so a served result can later seed an ECO re-solve).
Value to_value(const rap::RapResult& r);
rap::RapResult rap_result_from_value(const Value& v);

/// RapCertificate <-> envelope kind "rap_certificate" (full lp::Model,
/// duals, index maps and the root lp::Basis).
Value to_value(const rap::RapCertificate& c);
rap::RapCertificate certificate_from_value(const Value& v);

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over the design's canonical text: library masters sorted
/// by name, instances/ports/nets sorted by name, net pins referred to by
/// name in stored order (pins[0] stays the driver). Two semantically equal
/// designs built in different instance order hash identically; any change
/// to a name, position, master or connection changes the hash.
std::uint64_t canonical_design_hash(const Design& d);

/// FNV-1a over write_compact(to_value(o)) — the serialized option surface.
std::uint64_t canonical_options_hash(const flows::FlowOptions& o);

/// Fixed-width lowercase hex (16 chars) for cache keys / logs.
std::string hash_hex(std::uint64_t h);

}  // namespace mth::ser
