// Cold-vs-warm solve-cache timing on an engine calibration sweep.
//
// The cache is keyed on canonical scenario identity (see
// engine/solve_cache.h): a cold sweep pays every PDE solve — dominated by
// the calibration lattice + Nelder–Mead probes — while a warm repeat of
// the identical sweep must serve everything from the cache.  The spread
// between the two is the headline number of the caching PR.  The spatial
// pair repeats the measurement on the r(x, t) axis (a concrete separable
// field + the "calibrate-spatial" per-hop-multiplier fit).  The
// warm-from-disk bench extends the pair across a process boundary: load
// the saved cache file into a fresh cache, re-run, zero solves — with
// the file size (cache_file_bytes) and the bare save/load costs
// reported alongside.  The merge bench prices the shard join: two shard
// cache files of the calibration sweep merged into one cache.  The
// journal bench prices the WAL tax of the crash-safety PR:
// journal_ns_per_entry and wal_bytes per appended trace record.  The
// entry benches price one resident trace of the shape dl_serve keeps for
// every cold solve: its heap cost (bytes_per_trace_entry, gated in CI)
// and warm lookups of it from one and four threads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "alloc_counter.h"
#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/cache_journal.h"
#include "engine/model_registry.h"
#include "engine/scenario_runner.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;

/// Attaches the heap-allocation count of the timed loop as an
/// allocs-per-sweep counter (see bench/alloc_counter.h); the workflow's
/// --benchmark_out JSON picks it up as a column.
class alloc_scope {
 public:
  explicit alloc_scope(benchmark::State& state)
      : state_(state), before_(bench::allocations_now()) {}
  ~alloc_scope() {
    state_.counters["allocs_per_sweep"] = benchmark::Counter(
        static_cast<double>(bench::allocations_now() - before_),
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

engine::scenario_context make_context() {
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
      "bench", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {10, 20};
  spec.rates = {"preset", "constant:0.5", "calibrate-fixed:3"};
  spec.t_end = 6.0;
  return spec;
}

void BM_calibration_sweep_cold(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;  // fresh: every solve runs
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
  }
}
BENCHMARK(BM_calibration_sweep_cold)->Unit(benchmark::kMillisecond);

void BM_calibration_sweep_warm(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, spec, options);  // warm it up once
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
}
BENCHMARK(BM_calibration_sweep_warm)->Unit(benchmark::kMillisecond);

engine::sweep_spec make_spatial_spec() {
  // The §V spatial-rate axis: a concrete separable field plus the
  // per-hop-multiplier fit family ("calibrate-spatial" probes carry 6
  // extra optimizer dimensions, so its cache pressure is the worst case).
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"spatial:preset|1.3,1,0.75,0.6,0.5,0.45",
                "calibrate-spatial:3"};
  spec.t_end = 6.0;
  return spec;
}

void BM_spatial_sweep_cold(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spatial_spec();
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;  // fresh: every solve runs
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
  }
}
BENCHMARK(BM_spatial_sweep_cold)->Unit(benchmark::kMillisecond);

void BM_spatial_sweep_warm(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spatial_spec();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, spec, options);  // warm it up once
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
}
BENCHMARK(BM_spatial_sweep_warm)->Unit(benchmark::kMillisecond);

void BM_calibration_sweep_warm_from_disk(benchmark::State& state) {
  // The persistence PR's headline: the same warm sweep, but the warmth
  // crossed a process boundary.  Each iteration loads the saved cache
  // file into a fresh cache — exactly what a second process pays — and
  // re-runs the sweep, which must be pure lookups.  The file size rides
  // along as a counter, so BENCH_solve_cache.json tracks format bloat.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_cache_" + std::to_string(::getpid()) + ".bin");
  {
    engine::solve_cache cache;
    engine::runner_options options;
    options.cache = &cache;
    (void)engine::run_sweep(ctx, spec, options);  // one cold run, saved
    engine::save_cache(cache, path);
  }
  state.counters["cache_file_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;  // fresh, as in a new process
    if (!engine::load_cache(cache, path).loaded)
      state.SkipWithError("cache file failed to load");
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
    if (cache.stats().misses != 0)
      state.SkipWithError("warm-from-disk sweep performed a solve");
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_calibration_sweep_warm_from_disk)->Unit(benchmark::kMillisecond);

void BM_cache_save(benchmark::State& state) {
  // Serialization cost alone (the shutdown flush of dl_serve).
  const engine::scenario_context ctx = make_context();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, make_spec(), options);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_cache_save_" + std::to_string(::getpid()) + ".bin");
  const alloc_scope allocs(state);
  for (auto _ : state) engine::save_cache(cache, path);
  state.counters["cache_file_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_cache_save)->Unit(benchmark::kMillisecond);

void BM_cache_load(benchmark::State& state) {
  // Deserialization + checksum cost alone (the startup load).
  const engine::scenario_context ctx = make_context();
  std::string bytes;
  {
    engine::solve_cache cache;
    engine::runner_options options;
    options.cache = &cache;
    (void)engine::run_sweep(ctx, make_spec(), options);
    bytes = engine::serialize_cache(cache);
  }
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;
    if (!engine::deserialize_cache(cache, bytes).loaded)
      state.SkipWithError("cache bytes failed to load");
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_cache_load)->Unit(benchmark::kMillisecond);

void BM_cache_merge(benchmark::State& state) {
  // The shard join (dl_shard --merge-cache): merge_cache_files of the two
  // contiguous shard caches of the calibration sweep into a fresh cache —
  // read, checksum and parse both files, then merge their entries.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  std::vector<std::filesystem::path> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    engine::solve_cache cache;
    engine::runner_options options;
    options.cache = &cache;
    options.shard = {i, 2, engine::shard_policy::contiguous};
    (void)engine::run_sweep(ctx, spec, options);
    paths.push_back(std::filesystem::temp_directory_path() /
                    ("dlm_perf_merge_" + std::to_string(::getpid()) + "_" +
                     std::to_string(i) + ".bin"));
    engine::save_cache(cache, paths.back());
  }
  {
    const alloc_scope allocs(state);
    for (auto _ : state) {
      engine::solve_cache merged;
      if (engine::merge_cache_files(merged, paths).conflicts != 0)
        state.SkipWithError("shard caches conflict");
      benchmark::DoNotOptimize(merged);
    }
  }
  for (const std::filesystem::path& path : paths)
    std::filesystem::remove(path);
}
BENCHMARK(BM_cache_merge)->Unit(benchmark::kMillisecond);

void BM_journal_append(benchmark::State& state) {
  // The WAL tax: per-insert cost of journaling a realistic trace record
  // (engine/cache_journal.h), reported as journal_ns_per_entry so the
  // sweep-throughput budget can be checked against it, plus wal_bytes —
  // the on-disk growth per entry — so compaction cadence stays honest.
  engine::model_trace trace({1, 2, 3, 4, 5, 6},
                            {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  std::ranges::fill(trace.values(), 0.25);
  trace.effective_dt = 0.01;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_journal_" + std::to_string(::getpid()) + ".wal");
  std::filesystem::remove(path);
  std::size_t appended = 0;
  std::uint64_t wal_bytes = 0;
  const alloc_scope allocs(state);
  {
    engine::cache_journal journal(path);
    for (auto _ : state) {
      journal.append_trace("bench/journal/" + std::to_string(appended++),
                           trace);
      if (!journal.write_error().empty())
        state.SkipWithError("journal append failed");
    }
    wal_bytes = journal.bytes();
  }
  // kIsIterationInvariantRate computes value * iterations / elapsed;
  // inverted with value 1e-9 that is elapsed_ns / iterations.
  state.counters["journal_ns_per_entry"] = benchmark::Counter(
      1e-9, benchmark::Counter::kIsIterationInvariantRate |
                benchmark::Counter::kInvert);
  state.counters["wal_bytes"] =
      benchmark::Counter(static_cast<double>(wal_bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_journal_append);

/// The cold entries a dl_serve sweep leaves resident: a 6 × 5 line trace
/// under the scenario_cache_key of each of 4096 "constant:" scenarios
/// on the 6-distance bench slice.  The rates are eight-digit decimals,
/// so every key is 134 bytes, the length of serve_mixed's cold keys.
struct cold_entries {
  std::vector<std::string> keys;
  engine::model_trace trace;
};

const cold_entries& make_cold_entries() {
  static const cold_entries entries = [] {
    const engine::scenario_context ctx = make_context();
    const engine::dataset_slice& slice = ctx.slice(0);
    const std::unique_ptr<engine::diffusion_model> model =
        engine::default_registry().make("dl");
    cold_entries out;
    engine::scenario sc;
    sc.model = "dl";
    sc.points_per_unit = 10;
    for (int i = 0; i < 4096; ++i) {
      char rate[32];
      std::snprintf(rate, sizeof rate, "constant:0.3%07d", i);
      sc.rate = rate;
      out.keys.push_back(engine::scenario_cache_key(sc, slice, *model));
    }
    out.trace = model->solve(sc, slice);
    return out;
  }();
  return entries;
}

/// Heap bytes in use, small blocks and mmapped ones alike.
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

void BM_cache_store(benchmark::State& state) {
  // Stores every cold entry into a fresh cache.  bytes_per_trace_entry
  // is the heap the cache holds per stored trace, key included, read
  // from mallinfo2 before and after the stores.
  const cold_entries& entries = make_cold_entries();
  double bytes = 0.0;
  for (auto _ : state) {
    engine::solve_cache cache;
    const std::size_t before = heap_in_use();
    for (const std::string& key : entries.keys)
      cache.store_trace(key, entries.trace);
    bytes = static_cast<double>(heap_in_use() - before);
  }
  const auto stored = static_cast<double>(entries.keys.size());
  state.counters["bytes_per_trace_entry"] = benchmark::Counter(bytes / stored);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(entries.keys.size()));
}
BENCHMARK(BM_cache_store)->Unit(benchmark::kMillisecond);

void BM_cache_find_hit(benchmark::State& state) {
  // Warm trace lookups on one shared cache.  An uncapped find takes the
  // cache's lock shared, so the four-thread row should not serialize.
  const cold_entries& entries = make_cold_entries();
  static engine::solve_cache cache;
  static const bool filled = [&entries] {
    for (const std::string& key : entries.keys)
      cache.store_trace(key, entries.trace);
    return true;
  }();
  benchmark::DoNotOptimize(filled);
  std::size_t next = static_cast<std::size_t>(state.thread_index()) * 997;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cache.find_trace(entries.keys[next++ % entries.keys.size()]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_cache_find_hit)->Threads(1)->Threads(4)->UseRealTime();

void BM_calibration_sweep_uncached(benchmark::State& state) {
  // Baseline without any cache, for the no-regression comparison on the
  // plain path.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, {}));
}
BENCHMARK(BM_calibration_sweep_uncached)->Unit(benchmark::kMillisecond);

}  // namespace
