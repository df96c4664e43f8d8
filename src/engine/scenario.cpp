#include "engine/scenario.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "engine/format.h"
#include "social/density.h"
#include "social/network.h"

namespace dlm::engine {
namespace {

/// Copies rows 1..max_d, hours 1..horizon of a density field.
std::vector<std::vector<double>> surface_of(const social::density_field& field,
                                            int max_d) {
  std::vector<std::vector<double>> surface;
  surface.reserve(static_cast<std::size_t>(max_d));
  for (int x = 1; x <= max_d; ++x) {
    std::vector<double> row;
    row.reserve(static_cast<std::size_t>(field.hours()));
    for (int t = 1; t <= field.hours(); ++t) row.push_back(field.at(x, t));
    surface.push_back(std::move(row));
  }
  return surface;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Content fingerprint of a validated slice (see dataset_slice docs).
std::uint64_t slice_fingerprint(const dataset_slice& slice) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](const auto& value) {
    hash = fnv1a(hash, &value, sizeof(value));
  };
  mix(static_cast<int>(slice.metric));
  mix(slice.max_distance);
  mix(slice.horizon_hours);
  for (const auto& row : slice.actual)
    for (const double value : row) mix(value);
  mix(slice.base_params.d);
  mix(slice.base_params.k);
  mix(slice.base_params.x_min);
  mix(slice.base_params.x_max);
  const std::string& label = slice.base_params.r.label();
  hash = fnv1a(hash, label.data(), label.size());
  // Graph-driven inputs by cheap structural invariants, not by address:
  // the fingerprint is part of every on-disk cache key (engine/cache_io.h),
  // so it must be identical across processes — a pointer value is not.
  // Hashing full graph content would rehash whole graphs per slice;
  // node/edge counts plus the partition's group sizes are O(groups) and
  // separate any two datasets that differ in shape.
  mix(slice.followers != nullptr);
  if (slice.followers != nullptr) {
    mix(slice.followers->node_count());
    mix(slice.followers->edge_count());
  }
  mix(slice.partition != nullptr);
  if (slice.partition != nullptr) {
    mix(static_cast<int>(slice.partition->metric));
    for (const std::size_t size : slice.partition->sizes) mix(size);
  }
  mix(slice.initiator);
  return hash;
}

/// 1-based character position of a token inside its spec — every
/// rejection names where the offending token starts, not just which spec
/// failed, so a bad entry in a long multiplier or mixing list is
/// attributable at a glance.
std::string at_position(std::size_t offset) {
  return " at position " + std::to_string(offset + 1);
}

/// Fails a make_rate parse: the reason, the offending token's position,
/// the spec verbatim, and the full accepted grammar (failures usually
/// surface deep inside a sweep, where "unknown spec" alone is not
/// attributable).
[[noreturn]] void bad_rate_spec(const std::string& spec,
                                const std::string& reason,
                                std::size_t offset = 0) {
  throw std::invalid_argument("make_rate: " + reason + at_position(offset) +
                              " in spec '" + spec + "'\n" +
                              rate_spec_grammar());
}

double parse_double(std::string_view text, const std::string& spec,
                    std::size_t offset) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    bad_rate_spec(spec, "bad number '" + std::string(text) + "'", offset);
  return value;
}

/// The temporal subset of the grammar ("preset" resolved per metric).
/// `offset` is where `body` starts inside `spec` (0 for a bare temporal
/// spec, past the prefix for one nested in a spatial form).
core::growth_rate make_temporal_rate(const std::string& body,
                                     social::distance_metric metric,
                                     const std::string& spec,
                                     std::size_t offset) {
  if (body == "preset" || body == "-") {
    return metric == social::distance_metric::friendship_hops
               ? core::growth_rate::paper_hops()
               : core::growth_rate::paper_interest();
  }
  if (body == "paper_hops") return core::growth_rate::paper_hops();
  if (body == "paper_interest") return core::growth_rate::paper_interest();
  if (body.starts_with("constant:")) {
    const std::size_t at = sizeof("constant:") - 1;
    const double value =
        parse_double(std::string_view(body).substr(at), spec, offset + at);
    if (value < 0.0)
      bad_rate_spec(spec, "negative constant rate", offset + at);
    return core::growth_rate::constant(value);
  }
  if (body.starts_with("decay:")) {
    const std::size_t at = sizeof("decay:") - 1;
    const std::string_view params = std::string_view(body).substr(at);
    const std::size_t first = params.find(',');
    const std::size_t second =
        first == std::string_view::npos ? first : params.find(',', first + 1);
    if (first == std::string_view::npos || second == std::string_view::npos)
      bad_rate_spec(spec, "decay form needs 3 comma-separated numbers",
                    offset + at);
    const double a = parse_double(params.substr(0, first), spec, offset + at);
    const double b = parse_double(params.substr(first + 1, second - first - 1),
                                  spec, offset + at + first + 1);
    const double c =
        parse_double(params.substr(second + 1), spec, offset + at + second + 1);
    if (a < 0.0 || b <= 0.0 || c < 0.0)
      bad_rate_spec(spec, "decay form needs a >= 0, b > 0, c >= 0",
                    offset + at);
    return core::growth_rate::exponential_decay(a, b, c);
  }
  if (body.starts_with("calibrate"))
    bad_rate_spec(spec,
                  "'" + body +
                      "' is a calibration spec, not a concrete rate; it is "
                      "resolved by engine::run_sweep before models solve",
                  offset);
  if (body.starts_with("spatial:") || body.starts_with("per-hop:"))
    bad_rate_spec(spec, "spatial forms cannot nest ('" + body + "')", offset);
  bad_rate_spec(spec, "unknown growth-rate form '" + body + "'", offset);
}

/// Fails a make_domain parse, mirroring bad_rate_spec.
[[noreturn]] void bad_domain_spec(const std::string& spec,
                                  const std::string& reason,
                                  std::size_t offset = 0) {
  throw std::invalid_argument("make_domain: " + reason + at_position(offset) +
                              " in spec '" + spec + "'\n" +
                              domain_spec_grammar());
}

double parse_domain_double(std::string_view text, const std::string& spec,
                           std::size_t offset) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    bad_domain_spec(spec, "bad number '" + std::string(text) + "'", offset);
  return value;
}

/// Comma-separated doubles starting at `offset` inside `spec`.
std::vector<double> parse_domain_list(std::string_view text,
                                      const std::string& spec,
                                      std::size_t offset) {
  std::vector<double> values;
  std::size_t at = 0;
  while (true) {
    const std::size_t comma = text.find(',', at);
    const std::string_view piece = text.substr(
        at, comma == std::string_view::npos ? comma : comma - at);
    if (piece.empty())
      bad_domain_spec(spec, "empty list entry", offset + at);
    values.push_back(parse_domain_double(piece, spec, offset + at));
    if (comma == std::string_view::npos) break;
    at = comma + 1;
  }
  return values;
}

}  // namespace

double dataset_slice::actual_at(int x, int t) const {
  if (x < 1 || x > max_distance || t < 1 || t > horizon_hours)
    throw std::out_of_range("dataset_slice: (x, t) outside the surface");
  return actual[static_cast<std::size_t>(x - 1)][static_cast<std::size_t>(t - 1)];
}

std::vector<double> dataset_slice::profile_at(int t) const {
  std::vector<double> profile;
  profile.reserve(static_cast<std::size_t>(max_distance));
  for (int x = 1; x <= max_distance; ++x) profile.push_back(actual_at(x, t));
  return profile;
}

std::size_t scenario_context::add_slice(dataset_slice slice) {
  if (slice.actual.empty() || slice.actual.front().empty())
    throw std::invalid_argument("scenario_context: empty surface in slice '" +
                                slice.name + "'");
  slice.max_distance = static_cast<int>(slice.actual.size());
  slice.horizon_hours = static_cast<int>(slice.actual.front().size());
  for (const auto& row : slice.actual) {
    if (row.size() != slice.actual.front().size())
      throw std::invalid_argument(
          "scenario_context: ragged surface in slice '" + slice.name + "'");
  }
  for (const auto& existing : slices_) {
    if (existing.name == slice.name)
      throw std::invalid_argument("scenario_context: duplicate slice name '" +
                                  slice.name + "'");
  }
  slice.fingerprint = slice_fingerprint(slice);
  slices_.push_back(std::move(slice));
  return slices_.size() - 1;
}

const dataset_slice& scenario_context::slice(std::size_t index) const {
  if (index >= slices_.size())
    throw std::out_of_range("scenario_context: slice index out of range");
  return slices_[index];
}

const dataset_slice& scenario_context::slice(const std::string& name) const {
  for (const auto& s : slices_) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("scenario_context: unknown slice '" + name +
                              "'");
}

std::vector<std::string> scenario_context::slice_names() const {
  std::vector<std::string> names;
  names.reserve(slices_.size());
  for (const auto& s : slices_) names.push_back(s.name);
  return names;
}

scenario_context scenario_context::from_dataset(digg::digg_dataset data,
                                                int max_hops) {
  scenario_context ctx;
  ctx.data_ = std::make_shared<digg::digg_dataset>(std::move(data));
  const digg::digg_dataset& d = *ctx.data_;
  const int horizon = d.config.horizon_hours;
  for (std::size_t i = 0; i < d.flagship_ids.size(); ++i) {
    const std::string story = d.config.stories[i].name;

    const social::density_field hop_field(d.network, d.flagship_ids[i],
                                          d.hop_partitions[i], horizon);
    const int hop_max = std::min(max_hops, hop_field.max_distance());
    dataset_slice hops;
    hops.name = story + "/hops";
    hops.story = story;
    hops.metric = social::distance_metric::friendship_hops;
    hops.actual = surface_of(hop_field, hop_max);
    hops.base_params = core::dl_parameters::paper_hops(hop_max);
    hops.followers = &d.network.followers();
    hops.initiator = d.initiators[i];
    hops.partition = &d.hop_partitions[i];
    ctx.add_slice(std::move(hops));

    const social::density_field int_field(d.network, d.flagship_ids[i],
                                          d.interest_partitions[i], horizon);
    const int int_max =
        std::min(static_cast<int>(d.config.interest_groups),
                 int_field.max_distance());
    dataset_slice interests;
    interests.name = story + "/interests";
    interests.story = story;
    interests.metric = social::distance_metric::shared_interests;
    interests.actual = surface_of(int_field, int_max);
    interests.base_params = core::dl_parameters::paper_interest(int_max);
    interests.followers = &d.network.followers();
    interests.initiator = d.initiators[i];
    interests.partition = &d.interest_partitions[i];
    ctx.add_slice(std::move(interests));
  }
  return ctx;
}

scenario_context scenario_context::from_cascade(
    graph::digraph followers, graph::node_id initiator,
    const std::vector<social::vote>& votes, int horizon_hours, int max_hops) {
  scenario_context ctx;
  ctx.graphs_.push_back(std::make_unique<graph::digraph>(std::move(followers)));
  const graph::digraph& g = *ctx.graphs_.back();

  social::social_network_builder builder(g, 1);
  for (const auto& v : votes) builder.add_vote(v.user, v.story, v.time);
  const social::social_network net = builder.build();

  ctx.partitions_.push_back(std::make_unique<social::distance_partition>(
      social::partition_by_hops(net, initiator, max_hops)));
  const social::distance_partition& partition = *ctx.partitions_.back();

  const int max_d = std::min(max_hops, partition.max_distance());
  const social::density_field field(net, 0, partition, horizon_hours);

  dataset_slice slice;
  slice.name = "cascade/hops";
  slice.story = "cascade";
  slice.metric = social::distance_metric::friendship_hops;
  slice.actual = surface_of(field, std::min(max_d, field.max_distance()));
  slice.base_params = core::dl_parameters::paper_hops(
      static_cast<double>(slice.actual.size()));
  slice.followers = &g;
  slice.initiator = initiator;
  slice.partition = &partition;
  ctx.add_slice(std::move(slice));
  return ctx;
}

scenario_context scenario_context::from_surface(
    std::string name, social::distance_metric metric,
    std::vector<std::vector<double>> actual, core::dl_parameters params) {
  scenario_context ctx;
  dataset_slice slice;
  slice.name = std::move(name);
  slice.story = slice.name;
  slice.metric = metric;
  slice.actual = std::move(actual);
  slice.base_params = params;
  ctx.add_slice(std::move(slice));
  return ctx;
}

const std::string& rate_spec_grammar() {
  static const std::string grammar =
      "accepted growth-rate specs:\n"
      "  preset | paper_hops | paper_interest\n"
      "  constant:<v>\n"
      "  decay:<a>,<b>,<c>\n"
      "  spatial:<base>|<m1>,<m2>,...   (base = any temporal form above)\n"
      "  per-hop:<spec1>;<spec2>;...    (one temporal form per group)\n"
      "  calibrate[:<H>] | calibrate-fixed[:<H>] | calibrate-spatial[:<H>]\n"
      "    (calibration specs; resolved by engine::run_sweep, not "
      "make_rate)";
  return grammar;
}

bool is_spatial_rate_spec(const std::string& spec) {
  return spec.starts_with("spatial:") || spec.starts_with("per-hop:");
}

std::string spatial_base_spec(const std::string& spec) {
  if (spec.starts_with("spatial:")) {
    const std::size_t at = sizeof("spatial:") - 1;
    const std::string_view body = std::string_view(spec).substr(at);
    const std::size_t bar = body.find('|');
    if (bar == std::string_view::npos)
      bad_rate_spec(spec, "spatial form needs '<base>|<m1>,<m2>,...'", at);
    return std::string(body.substr(0, bar));
  }
  if (spec.starts_with("per-hop:")) return "preset";
  return spec;
}

core::rate_field make_rate(const std::string& spec,
                           social::distance_metric metric) {
  if (spec.starts_with("spatial:")) {
    const std::size_t at = sizeof("spatial:") - 1;
    const std::string_view body = std::string_view(spec).substr(at);
    const std::size_t bar = body.find('|');
    if (bar == std::string_view::npos)
      bad_rate_spec(spec, "spatial form needs '<base>|<m1>,<m2>,...'", at);
    const std::string base(body.substr(0, bar));
    if (base.empty())
      bad_rate_spec(spec, "spatial form has an empty base", at);
    const std::vector<std::string> pieces =
        split_keep_empty(body.substr(bar + 1), ',');
    std::vector<double> multipliers;
    multipliers.reserve(pieces.size());
    std::size_t piece_at = at + bar + 1;
    for (const std::string& piece : pieces) {
      if (piece.empty()) bad_rate_spec(spec, "empty multiplier", piece_at);
      const double m = parse_double(piece, spec, piece_at);
      if (m < 0.0)
        bad_rate_spec(spec, "negative multiplier " + piece, piece_at);
      multipliers.push_back(m);
      piece_at += piece.size() + 1;
    }
    return core::rate_field::separable(
        make_temporal_rate(base, metric, spec, at), std::move(multipliers));
  }
  if (spec.starts_with("per-hop:")) {
    const std::size_t at = sizeof("per-hop:") - 1;
    const std::vector<std::string> pieces =
        split_keep_empty(std::string_view(spec).substr(at), ';');
    std::vector<core::growth_rate> rates;
    rates.reserve(pieces.size());
    std::size_t piece_at = at;
    for (const std::string& piece : pieces) {
      if (piece.empty()) bad_rate_spec(spec, "empty per-hop entry", piece_at);
      rates.push_back(make_temporal_rate(piece, metric, spec, piece_at));
      piece_at += piece.size() + 1;
    }
    return core::rate_field::per_group(std::move(rates));
  }
  return make_temporal_rate(spec, metric, spec, 0);
}

const std::string& domain_spec_grammar() {
  static const std::string grammar =
      "accepted domain specs:\n"
      "  line                                1-D distance axis (default)\n"
      "  grid2d:<y_min>,<y_max>              2-D distance x interest sheet "
      "(ADI)\n"
      "  comm:<K>                            K uncoupled per-community "
      "lines, 1 <= K <= " +
      std::to_string(max_community_count) + "\n"
      "  comm:<K>|mix=<rate>                 uniform cross-community "
      "mixing\n"
      "  comm:<K>|mix=<m11>,...,<mKK>        full K*K mixing matrix "
      "(row-major)\n"
      "  comm:<K>|...|scale=<s1>,...,<sK>    per-community initial-mass "
      "scales\n"
      "  (non-line domains solve with the strang-cn scheme only)";
  return grammar;
}

core::domain make_domain(const std::string& spec) {
  if (spec.empty() || spec == "line" || spec == "-")
    return core::domain::line();
  if (spec.starts_with("grid2d:")) {
    const std::size_t at = sizeof("grid2d:") - 1;
    const std::string_view body = std::string_view(spec).substr(at);
    const std::size_t comma = body.find(',');
    if (comma == std::string_view::npos)
      bad_domain_spec(spec, "grid2d form needs '<y_min>,<y_max>'", at);
    const double y_min = parse_domain_double(body.substr(0, comma), spec, at);
    const double y_max =
        parse_domain_double(body.substr(comma + 1), spec, at + comma + 1);
    if (!(y_min < y_max))
      bad_domain_spec(spec, "grid2d needs y_min < y_max", at);
    core::domain dom = core::domain::grid(y_min, y_max);
    dom.validate();
    return dom;
  }
  if (spec.starts_with("comm:")) {
    const std::size_t at = sizeof("comm:") - 1;
    const std::string_view body = std::string_view(spec).substr(at);
    const std::size_t first_bar = body.find('|');
    const std::string_view count_text = body.substr(0, first_bar);
    unsigned long k = 0;
    const auto [ptr, ec] = std::from_chars(
        count_text.data(), count_text.data() + count_text.size(), k);
    if (ec != std::errc{} || ptr != count_text.data() + count_text.size() ||
        k == 0)
      bad_domain_spec(
          spec, "bad community count '" + std::string(count_text) + "'", at);
    if (k > max_community_count)
      bad_domain_spec(spec,
                      "community count " + std::string(count_text) +
                          " exceeds the cap of " +
                          std::to_string(max_community_count),
                      at);
    core::domain dom = core::domain::coupled(k);
    // Optional |mix=... / |scale=... segments, in any order.
    std::size_t seg_at = first_bar;
    while (seg_at != std::string_view::npos) {
      seg_at += 1;  // past the '|'
      const std::size_t next_bar = body.find('|', seg_at);
      const std::string_view segment = body.substr(
          seg_at, next_bar == std::string_view::npos ? next_bar
                                                     : next_bar - seg_at);
      if (segment.empty()) {
        bad_domain_spec(spec, "empty segment", at + seg_at);
      } else if (segment.starts_with("mix=")) {
        const std::size_t val_at = seg_at + sizeof("mix=") - 1;
        const std::vector<double> values =
            parse_domain_list(segment.substr(sizeof("mix=") - 1), spec,
                              at + val_at);
        if (values.size() == 1) {
          if (!(values[0] >= 0.0))
            bad_domain_spec(spec, "mixing rate must be >= 0", at + val_at);
          // Only the mixing matrix: a scale= segment parsed earlier in
          // the spec must survive.
          dom.mixing = core::domain::coupled(k, values[0]).mixing;
        } else if (values.size() == k * k) {
          dom.mixing = values;
        } else {
          bad_domain_spec(spec,
                          "mix= needs 1 rate or " + std::to_string(k * k) +
                              " entries (K=" + std::to_string(k) + "), got " +
                              std::to_string(values.size()),
                          at + val_at);
        }
      } else if (segment.starts_with("scale=")) {
        const std::size_t val_at = seg_at + sizeof("scale=") - 1;
        const std::vector<double> values = parse_domain_list(
            segment.substr(sizeof("scale=") - 1), spec, at + val_at);
        if (values.size() != k)
          bad_domain_spec(spec,
                          "scale= needs one entry per community (K=" +
                              std::to_string(k) + "), got " +
                              std::to_string(values.size()),
                          at + val_at);
        dom.scales = values;
      } else {
        bad_domain_spec(spec,
                        "unknown segment '" + std::string(segment) + "'",
                        at + seg_at);
      }
      seg_at = next_bar;
    }
    dom.validate();
    return dom;
  }
  bad_domain_spec(spec, "unknown domain form '" + spec + "'");
}

}  // namespace dlm::engine
