// The shard axis contract: N processes, one byte-identical result.
//
// The engine promises that partitioning a sweep with shard_chunks,
// running each shard independently (each with its own solve cache) and
// recombining through merge_tables / merge_cache_files reproduces the
// unsharded run *exactly* — CSV bytes, text-table bytes and the
// serialized cache file — for any shard count, either policy and any
// merge order.  These tests pin that contract in-process (run_sweep
// with runner_options::shard), over the wire (run_shard_remote against
// a resident dl_service) and at the seams: spec parsing rejections,
// overlap/gap detection in the merge, empty shards, bitwise conflict
// counting and the loud-failure path for an unwritable cache file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/format.h"
#include "engine/model_registry.h"
#include "engine/result_table.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/shard.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using engine::shard_policy;
using engine::shard_spec;

/// The self-consistent synthetic DL surface the persistence tests use:
/// calibrate rows recover the generating parameters.
engine::scenario_context make_context(const std::string& name = "shard") {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return engine::scenario_context::from_surface(
      name, social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

/// Every axis the shard CSV has to carry faithfully: both schemes, all
/// rate-spec families (plain, constant, spatial, calibrate) and all
/// three domain families — non-line domains expand only under
/// strang_cn, so chunk sizes are deliberately uneven across the sweep.
engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::strang_cn, core::dl_scheme::ftcs};
  spec.grid = {12};
  spec.rates = {"preset", "constant:0.5",
                "spatial:preset|1.3,1,0.75,0.6,0.5,0.45",
                "calibrate-fixed:3"};
  spec.domains = {"line", "grid2d:1,3", "comm:2|mix=0.05"};
  return spec;
}

std::filesystem::path temp_path(const std::string& leaf) {
  return std::filesystem::temp_directory_path() /
         ("dlm_shard_test_" + std::to_string(::getpid()) + "_" + leaf);
}

/// wall_ms is the one nondeterministic column; to_text() renders it, so
/// byte-comparing text tables goes through the CSV round-trip (the CSV
/// omits timings, zeroing them on both sides).
std::string stable_text(const engine::result_table& table) {
  return engine::result_table::from_csv(table.to_csv()).to_text();
}

// ------------------------------------------------------------- parsing

TEST(ShardSpec, ParsesEveryAcceptedForm) {
  EXPECT_EQ(engine::parse_shard_spec("0/1"),
            (shard_spec{0, 1, shard_policy::contiguous}));
  EXPECT_EQ(engine::parse_shard_spec("2/5"),
            (shard_spec{2, 5, shard_policy::contiguous}));
  EXPECT_EQ(engine::parse_shard_spec("0/3:contiguous"),
            (shard_spec{0, 3, shard_policy::contiguous}));
  EXPECT_EQ(engine::parse_shard_spec("1/4:strided"),
            (shard_spec{1, 4, shard_policy::strided}));
  EXPECT_EQ(engine::parse_shard_spec("1/4:strided").label(), "1/4:strided");
  EXPECT_EQ(engine::parse_shard_spec("0/1").label(), "0/1");
  EXPECT_TRUE(engine::parse_shard_spec("0/1").is_all());
  EXPECT_FALSE(engine::parse_shard_spec("0/2").is_all());
}

/// Rejections carry the 1-based position, the spec verbatim and the
/// grammar — the same contract every other spec parser in the repo
/// honors.
TEST(ShardSpec, RejectionsNameThePositionSpecAndGrammar) {
  const struct {
    const char* spec;
    const char* reason;
    const char* position;
  } cases[] = {
      {"", "empty shard spec", "at position 1"},
      {"3", "missing '/'", "at position 1"},
      {"x/2", "", "at position 1"},
      {"1/y", "", "at position 3"},
      {"1/0", "shard count must be positive", "at position 3"},
      {"2/2", "out of range", "at position 1"},
      {"0/2:weird", "unknown shard policy 'weird'", "at position 5"},
  };
  for (const auto& c : cases) {
    try {
      (void)engine::parse_shard_spec(c.spec);
      FAIL() << "'" << c.spec << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.position), std::string::npos) << what;
      EXPECT_NE(what.find("'" + std::string(c.spec) + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("accepted shard spec forms:"), std::string::npos)
          << what;
      if (*c.reason != '\0') {
        EXPECT_NE(what.find(c.reason), std::string::npos) << what;
      }
    }
  }
}

TEST(ShardSpec, ValidateRejectsZeroCountAndOutOfRangeIndex) {
  EXPECT_THROW((shard_spec{0, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((shard_spec{3, 3}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((shard_spec{2, 3}).validate());
}

// ----------------------------------------------------------- the plan

/// Both policies must partition the chunk list: every chunk assigned to
/// exactly one shard, member order untouched.
TEST(ShardChunks, EveryPolicyPartitionsTheChunkList) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios);
  ASSERT_GT(chunks.size(), 1u);

  for (const shard_policy policy :
       {shard_policy::contiguous, shard_policy::strided}) {
    for (const std::size_t n : {2u, 3u, 8u}) {
      std::vector<std::size_t> covered;
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<std::vector<std::size_t>> mine =
            engine::shard_chunks(chunks, shard_spec{i, n, policy});
        for (const std::vector<std::size_t>& chunk : mine) {
          // Assigned chunks are the original chunks, not re-splits.
          EXPECT_NE(std::find(chunks.begin(), chunks.end(), chunk),
                    chunks.end());
          covered.insert(covered.end(), chunk.begin(), chunk.end());
        }
      }
      std::sort(covered.begin(), covered.end());
      std::vector<std::size_t> expected(scenarios.size());
      std::iota(expected.begin(), expected.end(), 0u);
      EXPECT_EQ(covered, expected)
          << "policy " << (policy == shard_policy::strided ? "strided"
                                                           : "contiguous")
          << ", n=" << n;
    }
  }
}

TEST(ShardChunks, ShardZeroOfOneIsTheIdentity) {
  const engine::scenario_context ctx = make_context();
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(engine::expand_sweep(make_spec(), ctx));
  EXPECT_EQ(engine::shard_chunks(chunks, shard_spec{0, 1}), chunks);
}

TEST(ShardChunks, StridedAssignsChunksRoundRobin) {
  const engine::scenario_context ctx = make_context();
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(engine::expand_sweep(make_spec(), ctx));
  const std::size_t n = 3;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::vector<std::size_t>> mine = engine::shard_chunks(
        chunks, shard_spec{i, n, shard_policy::strided});
    std::size_t expected = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c)
      if (c % n == i) {
        ASSERT_LT(expected, mine.size());
        EXPECT_EQ(mine[expected++], chunks[c]);
      }
    EXPECT_EQ(expected, mine.size());
  }
}

// ----------------------------------------------- byte-identical merge

struct shard_outputs {
  std::vector<engine::result_table> tables;
  std::vector<std::string> cache_bytes;  ///< serialize_cache per shard
};

/// Runs every shard of an N-way partition independently, each with its
/// own fresh solve cache — exactly what N worker processes do.
shard_outputs run_shards(const engine::scenario_context& ctx,
                         const std::vector<engine::scenario>& scenarios,
                         std::size_t n, shard_policy policy) {
  shard_outputs out;
  for (std::size_t i = 0; i < n; ++i) {
    engine::solve_cache cache;
    engine::runner_options options;
    options.threads = 1;
    options.shard = shard_spec{i, n, policy};
    options.cache = &cache;
    out.tables.push_back(engine::run_sweep(ctx, scenarios, options).table);
    out.cache_bytes.push_back(engine::serialize_cache(cache));
  }
  return out;
}

TEST(ShardedSweep, MergedShardsReproduceTheUnshardedBytes) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);

  engine::solve_cache full_cache;
  engine::runner_options options;
  options.threads = 1;
  options.cache = &full_cache;
  const engine::result_table full =
      engine::run_sweep(ctx, scenarios, options).table;
  const std::string full_csv = full.to_csv();
  const std::string full_text = stable_text(full);
  const std::string full_cache_bytes = engine::serialize_cache(full_cache);

  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  for (const shard_policy policy :
       {shard_policy::contiguous, shard_policy::strided}) {
    for (const std::size_t n : {2u, 3u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (policy == shard_policy::strided ? " strided"
                                                    : " contiguous"));
      const shard_outputs shards = run_shards(ctx, scenarios, n, policy);

      // Tables merge to the unsharded CSV *and* text bytes — in
      // reversed pass order, because merge order must not matter.
      std::vector<engine::result_table> reversed(shards.tables.rbegin(),
                                                 shards.tables.rend());
      const engine::result_table merged = engine::merge_tables(reversed);
      EXPECT_EQ(merged.to_csv(), full_csv);
      EXPECT_EQ(stable_text(merged), full_text);

      // Shard cache files merge to the unsharded cache file bytes.
      std::vector<std::filesystem::path> files;
      for (std::size_t i = 0; i < n; ++i) {
        const std::filesystem::path path = temp_path(
            "merge_" + std::to_string(n) + "_" + std::to_string(i) + ".cache");
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << shards.cache_bytes[i];
        ASSERT_TRUE(out.good());
        files.push_back(path);
      }
      engine::solve_cache merged_cache;
      const engine::cache_merge_result report =
          engine::merge_cache_files(merged_cache, files);
      EXPECT_EQ(report.conflicts, 0u);
      EXPECT_EQ(engine::serialize_cache(merged_cache), full_cache_bytes);

      // And the merged cache is *usable*: loaded back, the whole sweep
      // replays warm — zero new misses, identical CSV.
      const engine::cache_stats before = merged_cache.stats();
      engine::runner_options warm;
      warm.threads = 1;
      warm.cache = &merged_cache;
      const engine::result_table replay =
          engine::run_sweep(ctx, scenarios, warm).table;
      EXPECT_EQ(replay.to_csv(), full_csv);
      EXPECT_EQ(merged_cache.stats().misses, before.misses);

      for (const std::filesystem::path& path : files)
        std::filesystem::remove(path);
    }
  }
}

TEST(ShardedSweep, MoreShardsThanChunksLeavesTrailingShardsEmpty) {
  const engine::scenario_context ctx = make_context();
  engine::sweep_spec tiny = make_spec();
  tiny.schemes = {core::dl_scheme::strang_cn};
  tiny.rates = {"preset"};  // 3 scenarios: one per domain
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(tiny, ctx);
  ASSERT_EQ(scenarios.size(), 3u);

  engine::runner_options options;
  options.threads = 1;
  const std::string full_csv =
      engine::run_sweep(ctx, scenarios, options).table.to_csv();

  const shard_outputs shards =
      run_shards(ctx, scenarios, 8, shard_policy::contiguous);
  std::size_t empty = 0;
  for (const engine::result_table& table : shards.tables)
    if (table.size() == 0) ++empty;
  EXPECT_GE(empty, 5u);  // at most 3 chunks to hand out
  EXPECT_EQ(engine::merge_tables(shards.tables).to_csv(), full_csv);
}

TEST(ShardedSweep, RunSweepRejectsAnInvalidShard) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  engine::runner_options options;
  options.shard = shard_spec{2, 2};
  EXPECT_THROW((void)engine::run_sweep(ctx, scenarios, options),
               std::invalid_argument);
}

// ---------------------------------------------------- merge validation

TEST(MergeTables, RejectsOverlapNamesTheDuplicateIndex) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const shard_outputs shards =
      run_shards(ctx, scenarios, 2, shard_policy::contiguous);

  const std::vector<engine::result_table> overlapping = {
      shards.tables[0], shards.tables[0], shards.tables[1]};
  try {
    (void)engine::merge_tables(overlapping);
    FAIL() << "overlapping shards were merged";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("more than one shard"),
              std::string::npos)
        << e.what();
  }
}

TEST(MergeTables, RejectsAGapNamesTheMissingIndex) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const shard_outputs shards =
      run_shards(ctx, scenarios, 2, shard_policy::contiguous);
  ASSERT_GT(shards.tables[1].size(), 0u);

  // Shard 1 alone starts at a nonzero global index: index 0 is missing.
  const std::vector<engine::result_table> gap = {shards.tables[1]};
  try {
    (void)engine::merge_tables(gap);
    FAIL() << "a gapped merge was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 0 is missing"), std::string::npos) << what;
  }
}

TEST(MergeTables, EmptyInputsMergeToAnEmptyTable) {
  const std::vector<engine::result_table> none;
  EXPECT_EQ(engine::merge_tables(none).size(), 0u);
  const std::vector<engine::result_table> empties(3);
  EXPECT_EQ(engine::merge_tables(empties).size(), 0u);
}

// ------------------------------------------------------- cache merging

TEST(CacheMerge, CountersDistinguishInsertDuplicateAndConflict) {
  engine::solve_cache cache;
  EXPECT_EQ(cache.merge_value("probe:a", 1.0),
            engine::solve_cache::merge_outcome::inserted);
  EXPECT_EQ(cache.merge_value("probe:a", 1.0),
            engine::solve_cache::merge_outcome::duplicate);
  EXPECT_EQ(cache.merge_value("probe:a", 2.0),
            engine::solve_cache::merge_outcome::conflict);

  const engine::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.merged_entries, 1u);
  EXPECT_EQ(stats.merge_conflicts, 1u);
  // First insert wins: the conflicting 2.0 was not adopted.
  EXPECT_EQ(engine::serialize_cache(cache), [] {
    engine::solve_cache expected;
    (void)expected.merge_value("probe:a", 1.0);
    return engine::serialize_cache(expected);
  }());
}

TEST(CacheMerge, FileMergeCountsConflictsAndFirstInputWins) {
  engine::solve_cache first, second;
  (void)first.merge_value("probe:x", 1.0);
  (void)first.merge_value("probe:y", 5.0);
  (void)second.merge_value("probe:x", 3.0);  // conflicts with first
  (void)second.merge_value("probe:z", 7.0);

  const std::filesystem::path a = temp_path("conflict_a.cache");
  const std::filesystem::path b = temp_path("conflict_b.cache");
  engine::save_cache(first, a);
  engine::save_cache(second, b);

  engine::solve_cache merged;
  const std::vector<std::filesystem::path> inputs = {a, b};
  const engine::cache_merge_result report =
      engine::merge_cache_files(merged, inputs);
  EXPECT_EQ(report.merged_values, 3u);
  EXPECT_EQ(report.conflicts, 1u);
  EXPECT_EQ(report.duplicates, 0u);

  engine::solve_cache expected;
  (void)expected.merge_value("probe:x", 1.0);  // first input's bits
  (void)expected.merge_value("probe:y", 5.0);
  (void)expected.merge_value("probe:z", 7.0);
  EXPECT_EQ(engine::serialize_cache(merged),
            engine::serialize_cache(expected));

  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

TEST(CacheMerge, AMissingInputThrowsAndLeavesTheTargetUntouched) {
  engine::solve_cache target;
  (void)target.merge_value("probe:kept", 9.0);
  const std::string before = engine::serialize_cache(target);

  const std::filesystem::path good = temp_path("present.cache");
  engine::save_cache(target, good);
  const std::filesystem::path missing = temp_path("missing.cache");
  std::filesystem::remove(missing);

  const std::vector<std::filesystem::path> inputs = {good, missing};
  try {
    (void)engine::merge_cache_files(target, inputs);
    FAIL() << "a missing input file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing.string()),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine::serialize_cache(target), before);
  std::filesystem::remove(good);
}

/// Merging `inputs` into a one-entry target must throw a runtime_error
/// that names `bad` (and mentions `reason`), and leave the target as it
/// was — the good inputs come first, so all-or-nothing is what is tested.
void expect_merge_rejects(const std::vector<std::filesystem::path>& inputs,
                          const std::filesystem::path& bad,
                          const std::string& reason) {
  engine::solve_cache target;
  (void)target.merge_value("probe:kept", 9.0);
  const std::string before = engine::serialize_cache(target);
  try {
    (void)engine::merge_cache_files(target, inputs);
    ADD_FAILURE() << "a bad input '" << bad.string() << "' was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(bad.string()), std::string::npos) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
  EXPECT_EQ(engine::serialize_cache(target), before);
}

TEST(CacheMerge, ADirectoryInputThrowsNamingItAndLeavesTheTargetUntouched) {
  engine::solve_cache source;
  (void)source.merge_value("probe:other", 1.0);
  const std::filesystem::path good = temp_path("dir_good.cache");
  engine::save_cache(source, good);
  const std::filesystem::path dir = temp_path("dir_input.cache");
  std::filesystem::create_directories(dir);

  expect_merge_rejects({good, dir}, dir, "not a regular file");
  std::filesystem::remove(good);
  std::filesystem::remove_all(dir);
}

TEST(CacheMerge, ACorruptInputThrowsNamingItAndLeavesTheTargetUntouched) {
  // One flipped payload bit: the section checksum no longer matches.
  engine::solve_cache source;
  (void)source.merge_value("probe:other", 1.0);
  const std::filesystem::path good = temp_path("flip_good.cache");
  engine::save_cache(source, good);
  const std::filesystem::path flipped = temp_path("flip_bad.cache");
  std::string bytes = engine::serialize_cache(source);
  bytes.back() ^= 0x01;  // the last byte of the value payload
  {
    std::ofstream out(flipped, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  expect_merge_rejects({good, flipped}, flipped, "checksum mismatch");
  std::filesystem::remove(good);
  std::filesystem::remove(flipped);
}

// --------------------------------------------------- loud cache failure

TEST(PersistentCache, UnwritablePathFailsLoudlyAndUpFront) {
  const std::filesystem::path doomed =
      "/nonexistent_dlm_shard_test_dir/solve.cache";
  EXPECT_FALSE(engine::probe_cache_writable(doomed).empty());

  engine::persistent_cache persist(doomed);
  EXPECT_FALSE(persist.write_error().empty());
  EXPECT_NE(persist.write_error().find(doomed.string()), std::string::npos)
      << persist.write_error();
  EXPECT_THROW(persist.flush(), std::runtime_error);
}

TEST(PersistentCache, WritablePathProbesClean) {
  const std::filesystem::path fine = temp_path("probe_ok.cache");
  EXPECT_EQ(engine::probe_cache_writable(fine), "");
  // The probe must not leave its temp file behind.
  EXPECT_FALSE(std::filesystem::exists(fine.string() + ".tmp"));
}

// -------------------------------------------------------- remote shards

/// Two shards executed over the dl_serve wire protocol against a
/// resident service must merge to the local unsharded bytes — every
/// double crosses the wire in full %.17g precision, and the executor
/// mirrors run_sweep's calibrate-then-solve order.
TEST(RemoteShard, WireExecutedShardsMergeToTheLocalBytes) {
  const engine::scenario_context local_ctx = make_context("svc");
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), local_ctx);

  engine::runner_options options;
  options.threads = 1;
  const std::string local_csv =
      engine::run_sweep(local_ctx, scenarios, options).table.to_csv();

  engine::service_options service_options;
  service_options.socket_path = temp_path("remote.sock").string();
  service_options.threads = 1;
  engine::dl_service service(make_context("svc"), service_options);

  std::vector<engine::result_table> tables;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<std::size_t> owned =
        engine::shard_scenarios(scenarios, shard_spec{i, 2});
    tables.push_back(engine::run_shard_remote(
        local_ctx, scenarios, owned, service.socket_path()));
  }
  EXPECT_EQ(engine::merge_tables(tables).to_csv(), local_csv);

  // The stats verb reports the merge counters alongside the hit/miss
  // line, so a fleet driver can watch shard-merge health remotely.
  engine::service_client client(service.socket_path());
  const std::string stats = client.request("stats");
  EXPECT_TRUE(stats.starts_with("ok stats ")) << stats;
  EXPECT_NE(stats.find(" merged="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" merge_conflicts="), std::string::npos) << stats;

  service.stop();
}

/// The compact trace layout's edge shapes cross the wire intact: a
/// zero-time, a zero-distance and a community trace, cached under the
/// keys of three scenarios, are served by a live dl_service, and
/// parse_trace_reply — the parser run_shard_remote scores — recovers
/// each one's bytes exactly.
TEST(RemoteShard, EdgeShapedTracesKeepTheirBytesThroughASolveReply) {
  const engine::scenario_context ctx = make_context("edges");
  const engine::dataset_slice& slice = ctx.slice(0);
  const std::unique_ptr<engine::diffusion_model> model =
      engine::default_registry().make("dl");

  std::vector<engine::scenario> scenarios(3);
  for (engine::scenario& sc : scenarios) sc.model = "dl";
  scenarios[0].rate = "constant:0.25";
  scenarios[1].rate = "constant:0.5";
  scenarios[2].rate = "constant:0.75";
  scenarios[2].domain = "comm:2|mix=0.05";
  engine::model_trace no_times({1, 2, 3, 4, 5, 6}, {});
  no_times.effective_dt = 0.1 + 0.2;
  engine::model_trace no_distances({}, {2.0, 3.0, 4.0, 5.0, 6.0});
  no_distances.effective_dt = 1.0 / 3.0;
  const std::vector<engine::model_trace> traces{
      no_times, no_distances, model->solve(scenarios[2], slice)};
  ASSERT_NE(traces[2].domain, "line");

  std::vector<std::string> keys;
  engine::solve_cache seeded;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    keys.push_back(engine::scenario_cache_key(scenarios[i], slice, *model));
    seeded.store_trace(keys.back(), traces[i]);
  }
  const std::filesystem::path cache_file = temp_path("edges.cache");
  engine::save_cache(seeded, cache_file);

  engine::service_options options;
  options.socket_path = temp_path("edges.sock").string();
  options.cache_file = cache_file.string();
  options.threads = 1;
  engine::dl_service service(make_context("edges"), options);
  ASSERT_TRUE(service.startup_load().loaded) << service.startup_load().error;
  engine::service_client client(service.socket_path());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const engine::scenario& sc = scenarios[i];
    std::string request = "solve model=dl slice=edges scheme=" +
                          core::to_string(sc.scheme) +
                          " dt=" + engine::format_full_precision(sc.dt) +
                          " grid=" + std::to_string(sc.points_per_unit) +
                          " t0=" + engine::format_full_precision(sc.t0) +
                          " t_end=" + engine::format_full_precision(sc.t_end) +
                          " seed=" + std::to_string(sc.seed) +
                          " rate=" + sc.rate;
    if (sc.domain != "line") request += " domain=" + sc.domain;
    const std::string reply = client.request(request);
    ASSERT_TRUE(reply.starts_with("ok trace")) << reply;
    const engine::model_trace parsed = engine::parse_trace_reply(reply);
    EXPECT_EQ(engine::encode_trace_entry(keys[i], parsed),
              engine::encode_trace_entry(keys[i], traces[i]))
        << "scenario " << i;
  }
  EXPECT_EQ(service.stats().misses, 0u) << "a reply was solved, not cached";
  service.stop();
  std::filesystem::remove(cache_file);
}

}  // namespace
