#include "engine/shard.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/dl_solver.h"
#include "engine/calibration.h"
#include "engine/format.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/solve_cache.h"
#include "social/distance.h"

namespace dlm::engine {
namespace {

/// Fails a parse_shard_spec parse, mirroring make_rate/make_domain: the
/// reason, the offending token's 1-based character position, the spec
/// verbatim, and the full accepted grammar.
[[noreturn]] void bad_shard_spec(const std::string& spec,
                                 const std::string& reason,
                                 std::size_t offset = 0) {
  throw std::invalid_argument("parse_shard_spec: " + reason +
                              " at position " + std::to_string(offset + 1) +
                              " in shard spec '" + spec + "'\n" +
                              shard_spec_grammar());
}

std::size_t parse_shard_size(std::string_view text, const std::string& spec,
                             const std::string& what, std::size_t offset) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    bad_shard_spec(spec, "bad " + what + " '" + std::string(text) + "'",
                   offset);
  return value;
}

// ------------------------------------------------- remote reply parsing
//
// Every double on the wire went through format_full_precision (%.17g),
// so parsing it back recovers the exact bits the server computed —
// which is what keeps remote rows byte-identical to local ones.

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ') ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

[[noreturn]] void bad_reply(const std::string& reply) {
  throw std::runtime_error("run_shard_remote: malformed server reply '" +
                           reply + "'");
}

double parse_wire_double(std::string_view text, const std::string& reply) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) bad_reply(reply);
  return value;
}

std::size_t parse_wire_size(std::string_view text, const std::string& reply) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) bad_reply(reply);
  return value;
}

/// The value of the "key=" token among `tokens`, or nullopt.
std::optional<std::string_view> find_field(
    const std::vector<std::string>& tokens, std::string_view key) {
  for (const std::string& token : tokens) {
    if (token.size() > key.size() && token.compare(0, key.size(), key) == 0 &&
        token[key.size()] == '=')
      return std::string_view(token).substr(key.size() + 1);
  }
  return std::nullopt;
}

std::string_view require_field(const std::vector<std::string>& tokens,
                               std::string_view key, const std::string& reply) {
  const std::optional<std::string_view> value = find_field(tokens, key);
  if (!value) bad_reply(reply);
  return *value;
}

}  // namespace

model_trace parse_trace_reply(const std::string& reply) {
  std::vector<std::string_view> lines;
  {
    std::string_view rest = reply;
    while (!rest.empty()) {
      const std::size_t nl = rest.find('\n');
      lines.push_back(rest.substr(0, nl));
      if (nl == std::string_view::npos) break;
      rest = rest.substr(nl + 1);
    }
  }
  if (lines.size() < 3) bad_reply(reply);
  const std::vector<std::string> head = split_ws(lines[0]);
  if (head.size() < 2 || head[0] != "ok" || head[1] != "trace")
    bad_reply(reply);
  const std::size_t rows = parse_wire_size(require_field(head, "rows", reply),
                                           reply);
  const std::size_t cols = parse_wire_size(require_field(head, "cols", reply),
                                           reply);
  const double effective_dt =
      parse_wire_double(require_field(head, "effective_dt", reply), reply);
  const std::optional<std::string_view> domain = find_field(head, "domain");
  if (lines.size() != 3 + rows) bad_reply(reply);

  const std::vector<std::string> xs = split_ws(lines[1]);
  if (xs.size() != rows + 1 || xs[0] != "x") bad_reply(reply);
  std::vector<int> distances;
  distances.reserve(rows);
  for (std::size_t i = 1; i < xs.size(); ++i)
    distances.push_back(static_cast<int>(parse_wire_double(xs[i], reply)));

  const std::vector<std::string> ts = split_ws(lines[2]);
  if (ts.size() != cols + 1 || ts[0] != "t") bad_reply(reply);
  std::vector<double> times;
  times.reserve(cols);
  for (std::size_t j = 1; j < ts.size(); ++j)
    times.push_back(parse_wire_double(ts[j], reply));

  model_trace trace(distances, times);
  trace.effective_dt = effective_dt;
  if (domain) trace.domain = std::string(*domain);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<std::string> ps = split_ws(lines[3 + r]);
    if (ps.size() != cols + 1 || ps[0] != "p") bad_reply(reply);
    const std::span<double> row = trace.predicted(r);
    for (std::size_t j = 0; j < cols; ++j)
      row[j] = parse_wire_double(ps[j + 1], reply);
  }
  return trace;
}

namespace {

/// A parsed "calibrate" reply ("ok fit d=... k=... ... rate=...").
struct fit_reply {
  double d = 0.0;
  double k = 0.0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  std::vector<double> multipliers;
  double sse = 0.0;
  std::size_t evals = 0;
  std::string rate;
};

fit_reply parse_fit_reply(const std::string& reply) {
  const std::vector<std::string> tokens = split_ws(reply);
  if (tokens.size() < 2 || tokens[0] != "ok" || tokens[1] != "fit")
    bad_reply(reply);
  fit_reply fit;
  fit.d = parse_wire_double(require_field(tokens, "d", reply), reply);
  fit.k = parse_wire_double(require_field(tokens, "k", reply), reply);
  fit.a = parse_wire_double(require_field(tokens, "a", reply), reply);
  fit.b = parse_wire_double(require_field(tokens, "b", reply), reply);
  fit.c = parse_wire_double(require_field(tokens, "c", reply), reply);
  fit.sse = parse_wire_double(require_field(tokens, "sse", reply), reply);
  fit.evals = parse_wire_size(require_field(tokens, "evals", reply), reply);
  fit.rate = std::string(require_field(tokens, "rate", reply));
  const std::string_view m = require_field(tokens, "m", reply);
  if (m != "-") {
    for (const std::string& piece : split_keep_empty(m, ','))
      fit.multipliers.push_back(parse_wire_double(piece, reply));
  }
  return fit;
}

/// The request tail shared by solve and calibrate: the axes the model
/// consumes, spelled exactly as run_sweep's cache keys and CSV spell
/// them.
std::string request_tail(const scenario& sc, const dataset_slice& slice,
                         const diffusion_model& model) {
  std::string req = " model=" + sc.model + " slice=" + slice.name;
  if (model.uses_scheme()) {
    req += " scheme=" + core::to_string(sc.scheme);
    req += " dt=" + format_full_precision(sc.dt);
  }
  if (model.uses_grid()) req += " grid=" + std::to_string(sc.points_per_unit);
  req += " t0=" + format_full_precision(sc.t0) +
         " t_end=" + format_full_precision(sc.t_end) +
         " seed=" + std::to_string(sc.seed);
  if (model.supports_domain() && !make_domain(sc.domain).is_line())
    req += " domain=" + sc.domain;
  return req;
}

}  // namespace

void shard_spec::validate() const {
  if (count == 0)
    throw std::invalid_argument("shard_spec: shard count must be positive");
  if (index >= count)
    throw std::invalid_argument(
        "shard_spec: shard index " + std::to_string(index) +
        " out of range for " + std::to_string(count) + " shards");
}

std::string shard_spec::label() const {
  std::string out = std::to_string(index) + "/" + std::to_string(count);
  if (policy == shard_policy::strided) out += ":strided";
  return out;
}

const std::string& shard_spec_grammar() {
  static const std::string grammar =
      "accepted shard spec forms:\n"
      "  <i>/<N>             shard i of N (0-based, 0 <= i < N), contiguous "
      "chunk ranges\n"
      "  <i>/<N>:contiguous  the contiguous policy, spelled out\n"
      "  <i>/<N>:strided     round-robin chunk assignment (chunk c -> shard "
      "c mod N)";
  return grammar;
}

shard_spec parse_shard_spec(const std::string& spec) {
  if (spec.empty()) bad_shard_spec(spec, "empty shard spec");
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos)
    bad_shard_spec(spec, "missing '/' between shard index and count");
  const std::size_t colon = spec.find(':', slash + 1);
  const std::string_view text(spec);

  shard_spec shard;
  shard.index =
      parse_shard_size(text.substr(0, slash), spec, "shard index", 0);
  const std::size_t count_end =
      (colon == std::string::npos ? spec.size() : colon);
  shard.count = parse_shard_size(
      text.substr(slash + 1, count_end - slash - 1), spec, "shard count",
      slash + 1);
  if (shard.count == 0)
    bad_shard_spec(spec, "shard count must be positive", slash + 1);
  if (shard.index >= shard.count)
    bad_shard_spec(spec,
                   "shard index " + std::to_string(shard.index) +
                       " out of range for " + std::to_string(shard.count) +
                       " shards");
  if (colon != std::string::npos) {
    const std::string_view policy = text.substr(colon + 1);
    if (policy == "contiguous") {
      shard.policy = shard_policy::contiguous;
    } else if (policy == "strided") {
      shard.policy = shard_policy::strided;
    } else {
      bad_shard_spec(spec,
                     "unknown shard policy '" + std::string(policy) + "'",
                     colon + 1);
    }
  }
  return shard;
}

std::vector<std::vector<std::size_t>> shard_chunks(
    const std::vector<std::vector<std::size_t>>& chunks,
    const shard_spec& shard) {
  shard.validate();
  if (shard.is_all()) return chunks;
  std::size_t total = 0;
  for (const std::vector<std::size_t>& chunk : chunks) total += chunk.size();
  std::vector<std::vector<std::size_t>> mine;
  if (total == 0) return mine;
  std::size_t offset = 0;  // cumulative scenario count before this chunk
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::size_t owner = shard.policy == shard_policy::strided
                                  ? c % shard.count
                                  : offset * shard.count / total;
    if (owner == shard.index) mine.push_back(chunks[c]);
    offset += chunks[c].size();
  }
  return mine;
}

std::vector<std::size_t> shard_scenarios(std::span<const scenario> scenarios,
                                         const shard_spec& shard,
                                         const model_registry& registry,
                                         std::size_t batch_width) {
  const std::vector<std::vector<std::size_t>> mine =
      shard_chunks(batch_sweep(scenarios, registry, batch_width), shard);
  std::vector<std::size_t> owned;
  for (const std::vector<std::size_t>& chunk : mine)
    owned.insert(owned.end(), chunk.begin(), chunk.end());
  std::sort(owned.begin(), owned.end());
  return owned;
}

result_table run_shard_remote(const scenario_context& context,
                              std::span<const scenario> scenarios,
                              std::span<const std::size_t> owned,
                              const std::string& socket_path,
                              const model_registry& registry,
                              const remote_options& remote) {
  using clock = std::chrono::steady_clock;

  // Lazily (re)connected so a connection-level failure — including the
  // very first connect — retries with backoff.  "err" replies return
  // normally and are never retried (see remote_options).  A re-sent
  // request is safe by the protocol's purity: the reply depends only on
  // the request and the slice data.
  std::unique_ptr<service_client> client;
  const auto request = [&](const std::string& payload) -> std::string {
    double backoff = remote.backoff_initial_ms;
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        if (client == nullptr)
          client = std::make_unique<service_client>(socket_path);
        return client->request(payload);
      } catch (const std::exception& e) {
        client.reset();  // the connection is suspect: reconnect next try
        if (attempt >= remote.retries) throw;
        std::fprintf(stderr,
                     "run_shard_remote: %s; retrying in %.0f ms "
                     "(attempt %zu of %zu)\n",
                     e.what(), backoff, attempt + 1, remote.retries + 1);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
        backoff *= remote.backoff_multiplier;
      }
    }
  };

  // Model instances memoized per name: only capability flags are needed.
  std::vector<std::pair<std::string, std::unique_ptr<diffusion_model>>> models;
  const auto model_for = [&](const std::string& name) -> const diffusion_model& {
    for (const auto& [n, m] : models)
      if (n == name) return *m;
    models.emplace_back(name, registry.make(name));
    return *models.back().second;
  };

  std::vector<result_row> rows;
  rows.reserve(owned.size());
  for (const std::size_t i : owned) {
    if (i >= scenarios.size())
      throw std::invalid_argument(
          "run_shard_remote: owned index " + std::to_string(i) +
          " out of range for " + std::to_string(scenarios.size()) +
          " scenarios");
    const scenario& sc = scenarios[i];
    const dataset_slice& slice = context.slice(sc.slice);
    const diffusion_model& model = model_for(sc.model);
    const clock::time_point start = clock::now();

    result_row row;
    row.index = i;

    const auto fail = [&](const std::string& reply) -> void {
      throw std::runtime_error(
          "run_shard_remote: scenario #" + std::to_string(i) + " (model '" +
          sc.model + "', slice '" + slice.name + "') failed: " + reply);
    };

    // Calibrate specs: fit on the server first, then solve the rewritten
    // scenario (resolved rate + fitted d/K overrides) — run_sweep's exact
    // order of operations, so cache keys and CSV fields agree.
    const bool calibrated = model.uses_rate() && is_calibrate_spec(sc.rate);
    std::string solve_req = "solve" + request_tail(sc, slice, model);
    if (calibrated) {
      const std::string reply = request(
          "calibrate rate=" + sc.rate + request_tail(sc, slice, model));
      if (reply.starts_with("err")) fail(reply);
      const fit_reply fit = parse_fit_reply(reply);
      solve_req += " rate=" + fit.rate +
                   " d=" + format_full_precision(fit.d) +
                   " k=" + format_full_precision(fit.k);
      row.resolved_rate = fit.rate;
      row.fit_d = fit.d;
      row.fit_k = fit.k;
      row.fit_a = fit.a;
      row.fit_b = fit.b;
      row.fit_c = fit.c;
      row.fit_m = fit.multipliers;
      row.fit_sse = fit.sse;
      row.fit_evals = fit.evals;
    } else if (model.uses_rate()) {
      solve_req += " rate=" + sc.rate;
      if (!std::isnan(sc.d_override))
        solve_req += " d=" + format_full_precision(sc.d_override);
      if (!std::isnan(sc.k_override))
        solve_req += " k=" + format_full_precision(sc.k_override);
    }

    const std::string reply = request(solve_req);
    if (reply.starts_with("err")) fail(reply);
    const model_trace trace = parse_trace_reply(reply);
    const auto [accuracy, cells] = score_trace(trace, slice);

    row.model = sc.model;
    row.slice = slice.name;
    row.story = slice.story;
    row.metric = social::to_string(slice.metric);
    row.scheme = model.uses_scheme() ? core::to_string(sc.scheme) : "-";
    row.points_per_unit = model.uses_grid() ? sc.points_per_unit : 0;
    row.dt = model.uses_scheme() ? trace.effective_dt : 0.0;
    row.rate = model.uses_rate() ? sc.rate : "-";
    if (!calibrated)
      row.resolved_rate =
          model.uses_rate() ? resolve_rate_spec(sc.rate, slice.metric) : "-";
    row.t0 = sc.t0;
    row.t_end = sc.t_end;
    row.domain = trace.domain;
    row.cells = cells;
    row.accuracy = accuracy;
    row.wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count();
    rows.push_back(std::move(row));
  }
  return result_table(std::move(rows));
}

}  // namespace dlm::engine
