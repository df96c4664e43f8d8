// The shard axis: partitioning one deterministic sweep across processes.
//
// Scenario expansion (expand_sweep) is already a deterministic indexed
// list and batch_sweep groups it into index-stable chunks; sharding
// simply assigns every chunk to exactly one of N shards.  Each shard
// process runs only its chunks — with global scenario indices preserved
// in its result_table rows — so N shard tables recombine
// (engine::merge_tables) into a table whose CSV is byte-identical to
// the unsharded run, and N shard cache files union (merge_cache_files)
// into the unsharded run's cache file bytes.
//
// The partition is **batch-chunk-aligned**: shards own whole batch_sweep
// chunks, never split ones, so the lockstep grouping inside a shard is
// exactly the grouping the unsharded run would have used and per-lane
// traces stay bitwise identical.
//
//   contiguous (default) — a chunk starting at cumulative scenario
//     offset p of S total goes to shard floor(p·N / S): shards own
//     runs of consecutive chunks, balanced by scenario count.
//   strided — chunk c goes to shard c mod N: round-robin over the
//     chunk list, interleaving expensive scenario regions (calibrate
//     blocks) across shards.
//
// Either policy covers every chunk exactly once; which one merely
// trades locality against load balance, and the merged output is
// byte-identical regardless.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "engine/model_registry.h"
#include "engine/result_table.h"
#include "engine/scenario.h"

namespace dlm::engine {

enum class shard_policy { contiguous, strided };

/// One shard of an N-way sweep partition.  The default (0 of 1) owns
/// everything — sharding off.
struct shard_spec {
  std::size_t index = 0;
  std::size_t count = 1;
  shard_policy policy = shard_policy::contiguous;

  /// True when this spec is the whole sweep (no partitioning).
  [[nodiscard]] bool is_all() const noexcept { return count <= 1; }

  /// Throws std::invalid_argument unless 0 <= index < count.
  void validate() const;

  /// Canonical "i/N[:strided]" rendering (contiguous stays implicit).
  [[nodiscard]] std::string label() const;

  bool operator==(const shard_spec&) const = default;
};

/// The accepted forms of a textual shard spec, one per line — appended
/// verbatim to every parse_shard_spec rejection.
[[nodiscard]] const std::string& shard_spec_grammar();

/// Parses "i/N", "i/N:contiguous" or "i/N:strided" (0-based shard index,
/// 0 <= i < N).  Rejections follow the make_rate/make_domain style: the
/// reason, the offending token's 1-based character position, the spec
/// verbatim, and the grammar above.
[[nodiscard]] shard_spec parse_shard_spec(const std::string& spec);

/// Selects the batch_sweep chunks `shard` owns, preserving chunk order
/// and content.  The S in the contiguous policy's floor(p·N / S) is the
/// total scenario count summed over `chunks` (batch_sweep chunks
/// partition the sweep exactly).  Across shards 0..N−1 every chunk is
/// returned exactly once; shard 0 of 1 returns `chunks` unchanged.
[[nodiscard]] std::vector<std::vector<std::size_t>> shard_chunks(
    const std::vector<std::vector<std::size_t>>& chunks,
    const shard_spec& shard);

/// Convenience: the ascending global scenario indices `shard` owns, via
/// batch_sweep + shard_chunks (`batch_width` as in runner_options; the
/// width must match the one the runs use for the partition to be
/// chunk-aligned with them).
[[nodiscard]] std::vector<std::size_t> shard_scenarios(
    std::span<const scenario> scenarios, const shard_spec& shard,
    const model_registry& registry = default_registry(),
    std::size_t batch_width = 0);

/// Parses a "solve" reply (the service's trace rendering) back into the
/// trace it renders — the parser run_shard_remote scores.  Every double
/// crosses the wire at full precision, so the parsed trace is bitwise
/// the server's.  Throws std::runtime_error on a malformed reply.
[[nodiscard]] model_trace parse_trace_reply(const std::string& reply);

/// Connection-resilience knobs for run_shard_remote.
struct remote_options {
  /// Retries after a *connection-level* failure (connect refused, server
  /// closed mid-request, I/O timeout) — each retry reconnects and
  /// re-sends.  Safe to repeat: a reply is a pure function of the
  /// request, so a re-send can only reproduce the same bytes.  "err"
  /// replies are protocol answers, not connection failures, and are
  /// never retried.  0 (default): the historical fail-on-first-error.
  std::size_t retries = 0;
  /// Backoff before retry r is initial * multiplier^(r-1) milliseconds.
  double backoff_initial_ms = 50.0;
  double backoff_multiplier = 2.0;
};

/// Executes the owned scenarios of one shard against a resident
/// dl_serve server (engine/service.h) instead of solving locally: each
/// scenario becomes one "solve" request — calibrate specs first issue a
/// "calibrate" request and re-solve with the fitted overrides, exactly
/// run_sweep's order of operations — and the returned trace is scored
/// locally.  Because every double crosses the wire through
/// format_full_precision (exact round-trip), the resulting rows are
/// byte-identical to a local run's, so remote shards merge with local
/// ones transparently.  Note the server's calibration options must
/// match the local runner_options::calibration for calibrate rows to
/// agree.  `owned` lists ascending global scenario indices (from
/// shard_scenarios).  Throws std::runtime_error naming the scenario on
/// any "err" reply or connection failure.
[[nodiscard]] result_table run_shard_remote(
    const scenario_context& context, std::span<const scenario> scenarios,
    std::span<const std::size_t> owned, const std::string& socket_path,
    const model_registry& registry = default_registry(),
    const remote_options& remote = {});

}  // namespace dlm::engine
