// The three sweep workloads — sweep_solve, sweep_calibrate, resume_warm —
// and the traced replay of one run_sweep pass they share.
//
// The untraced path is the library's: run_sweep, merge_cache_files,
// merge_tables, save_cache.  The traced path replays the same pass from
// the layers' public functions, one call at a time, with a span around
// each: batch_sweep, then per chunk scenario_cache_key / find_trace /
// the model's solve_batch / store_trace / score_trace, and for calibrate
// specs calibrate_scenario with memo hooks that span every probe's key
// build, lookup, PDE solve and store.  The replay's CSV must equal the
// reference, so the layer numbers describe the computation the untraced
// run performs.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "engine/cache_io.h"
#include "engine/calibration.h"
#include "engine/format.h"
#include "engine/model_registry.h"
#include "engine/scenario_runner.h"
#include "engine/thread_pool.h"
#include "social/distance.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dlm;

/// As in model_comparison, 3 lattice points per fitted axis.  The
/// Nelder–Mead cap is one every 5-D and 8-D fit reaches, so a fit's probe
/// count — and a pass's cost — barely depends on the seeded surface.
fit::calibration_options calibration_options() {
  fit::calibration_options options;
  options.coarse_steps = 3;
  options.refine_iterations = 150;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

/// Flips one bit in the middle of a reference (the smoke test's proof
/// that the correctness gate trips).
void corrupt(std::string& reference) {
  if (!reference.empty()) reference[reference.size() / 2] ^= 1;
}

// ----------------------------------------------------------- the inputs

/// sweep_solve: concrete rates only, every value drawn from the seed.
/// All four schemes on the line at three grids, plus strang-cn on the
/// 2-D sheet and the mixed communities.  The sheet solves six rates over
/// three time steps: three 2-lane ADI chunks of 6–9 ms, so neither the
/// sheet nor the lines hold much more than half the solve time and no
/// single chunk sets the pass time.  The sheets come first because the
/// pool takes chunks in order, so the longest ones start first.
std::vector<engine::scenario> solve_scenarios(std::uint64_t seed,
                                              const engine::scenario_context& ctx,
                                              digest& inputs) {
  rng r(seed ^ 0xA24BAED4963EE407ull);
  const auto constant = [&r] { return "constant:" + fmt(r.uniform(0.25, 0.9)); };
  const auto decay = [&r] {
    return "decay:" + fmt(r.uniform(0.8, 1.8)) + ',' + fmt(r.uniform(0.8, 2.0)) +
           ',' + fmt(r.uniform(0.1, 0.4));
  };
  std::vector<std::string> rates = {constant(), decay()};
  std::string multipliers;
  for (int g = 0; g < 6; ++g)
    multipliers += (g == 0 ? "" : ",") + fmt(r.uniform(0.5, 1.4));
  rates.push_back("spatial:" + decay() + '|' + multipliers);
  rates.push_back(constant());
  std::vector<std::string> sheet_rates = rates;
  sheet_rates.push_back(decay());
  sheet_rates.push_back(constant());

  std::vector<engine::scenario> scenarios;
  const auto add = [&](const engine::sweep_spec& spec) {
    const std::vector<engine::scenario> more = engine::expand_sweep(spec, ctx);
    scenarios.insert(scenarios.end(), more.begin(), more.end());
  };
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.t_end = 6.0;
  spec.grid = {6};
  spec.domains = {"grid2d:1,4"};
  const double sheet_dts[] = {0.02, 0.025, 0.03};
  for (std::size_t i = 0; i < 3; ++i) {
    spec.dts = {sheet_dts[i]};
    spec.rates = {sheet_rates[2 * i], sheet_rates[2 * i + 1]};
    add(spec);
  }
  spec.dts = {0.02};
  spec.rates = rates;
  spec.domains = {"comm:3|mix=0.05"};
  add(spec);
  spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
  spec.grid = {10, 20, 40};
  spec.domains = {"line"};
  add(spec);
  for (const std::string& rate : sheet_rates) inputs.add("rate " + rate);
  inputs.add("sweep_solve scenarios=" + std::to_string(scenarios.size()));
  return scenarios;
}

/// sweep_calibrate (and resume_warm): the three calibrate families on the
/// line and the mixed communities at a small grid and a coarse step, so a
/// pass of six fits (~1.5k probe solves) stays well under 100 ms.  The seed enters
/// through the context's surface, which every fit targets.
std::vector<engine::scenario> calibrate_scenarios(const engine::scenario_context& ctx,
                                                  digest& inputs) {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {5};
  spec.dts = {0.1};
  spec.rates = {"calibrate", "calibrate-fixed", "calibrate-spatial"};
  spec.domains = {"line", "comm:3|mix=0.05"};
  spec.t_end = 6.0;
  std::vector<engine::scenario> scenarios = engine::expand_sweep(spec, ctx);
  inputs.add("sweep_calibrate scenarios=" + std::to_string(scenarios.size()) +
             " coarse_steps=3 refine_iterations=150 grid=5 dt=0.1");
  return scenarios;
}

// --------------------------------------------------------- traced replay

/// Start of the PDE solve that follows a probe's cache miss on this
/// thread; the store of its value ends it.
thread_local std::int64_t t_probe_solve_start = 0;

/// The value-key prefix calibrate_scenario gives a fit's objective
/// probes (engine/calibration.cpp), mirrored so the replay's probes hit
/// exactly what run_sweep stored — resume_warm's replay runs on a cache
/// merged from library-written shard files.
std::string probe_prefix(const engine::scenario& sc,
                         const engine::dataset_slice& slice) {
  const engine::calibrate_spec info = engine::parse_calibrate_spec(
      sc.rate, sc.t0, sc.t_end, slice.horizon_hours);
  std::string prefix = "cal|slice=" + slice.name + '#' +
                       std::to_string(slice.fingerprint) + "|model=" + sc.model;
  prefix += "|scheme=" + core::to_string(sc.scheme);
  prefix += "|grid=" + std::to_string(sc.points_per_unit);
  prefix += "|dt=" + engine::format_full_precision(sc.dt);
  if (info.fit_rate)
    prefix += "|rate=fit";
  else if (info.fit_spatial)
    prefix += "|rate=fit-m:" + engine::resolve_rate_spec("preset", slice.metric);
  else
    prefix += "|rate=" + engine::resolve_rate_spec("preset", slice.metric);
  prefix += "|t0=" + engine::format_full_precision(sc.t0);
  prefix += "|fit_end=" + std::to_string(info.fit_end);
  const core::domain dom = engine::make_domain(sc.domain);
  if (!dom.is_line()) prefix += "|domain=" + dom.label();
  return prefix;
}

std::string probe_key(const std::string& prefix, std::span<const double> v) {
  span s("cache.key");
  std::string key = prefix + "|v=";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) key += ',';
    key += engine::format_full_precision(v[i]);
  }
  return key;
}

engine::scenario_calibration traced_calibration(
    const engine::scenario& sc, const engine::dataset_slice& slice,
    engine::solve_cache& cache, const fit::calibration_options& base,
    engine::thread_pool& pool, replay_counts& counts) {
  span s("calibration.calibrate");
  fit::calibration_options options = base;
  const std::string prefix = probe_prefix(sc, slice);
  options.cache_find = [&cache, &counts, prefix](std::span<const double> v) {
    const std::string key = probe_key(prefix, v);
    std::optional<double> hit;
    {
      span find("cache.find_value");
      hit = cache.find_value(key);
    }
    counts.lookups.fetch_add(1, std::memory_order_relaxed);
    if (hit)
      counts.hits.fetch_add(1, std::memory_order_relaxed);
    else
      t_probe_solve_start = now_ns();
    return hit;
  };
  options.cache_store = [&cache, &counts, prefix](std::span<const double> v,
                                                 double value) {
    if (t_probe_solve_start != 0) {
      record_span("core.solve", t_probe_solve_start, now_ns());
      t_probe_solve_start = 0;
      counts.solve_calls.fetch_add(1, std::memory_order_relaxed);
      counts.lanes.fetch_add(1, std::memory_order_relaxed);
    }
    const std::string key = probe_key(prefix, v);
    span store("cache.store_value");
    cache.store_value(key, value);
  };
  options.run_batch = [&pool](std::vector<std::function<void()>> tasks) {
    span batch("pool.run_batch");
    const std::uint64_t parent = current_span();
    const std::uint64_t op = current_op();
    for (std::function<void()>& task : tasks)
      task = [inner = std::move(task), parent, op] {
        const adopt_parent adopt(parent, op);
        inner();
      };
    pool.run_batch(std::move(tasks));
  };
  // Null cache and pool: calibrate_scenario keeps the hooks above.
  engine::scenario_calibration cal =
      engine::calibrate_scenario(sc, slice, options, nullptr, nullptr);
  counts.fits.fetch_add(1, std::memory_order_relaxed);
  counts.fit_evals.fetch_add(cal.fit.evaluations, std::memory_order_relaxed);
  counts.fit_solves.fetch_add(cal.fit.pde_solves, std::memory_order_relaxed);
  counts.fit_hits.fetch_add(cal.fit.cache_hits, std::memory_order_relaxed);
  return cal;
}

/// One result row, filled as run_sweep fills it.
engine::result_row make_row(std::size_t index, const engine::scenario& sc,
                            const engine::scenario& solved,
                            const engine::scenario_calibration* cal,
                            const engine::diffusion_model& model,
                            const engine::dataset_slice& slice,
                            const engine::model_trace& trace) {
  const auto [accuracy, cells] = engine::score_trace(trace, slice);
  engine::result_row row;
  row.index = index;
  row.model = sc.model;
  row.slice = slice.name;
  row.story = slice.story;
  row.metric = social::to_string(slice.metric);
  row.scheme = model.uses_scheme() ? core::to_string(sc.scheme) : "-";
  row.points_per_unit = model.uses_grid() ? sc.points_per_unit : 0;
  row.dt = model.uses_scheme() ? trace.effective_dt : 0.0;
  row.rate = model.uses_rate() ? sc.rate : "-";
  row.resolved_rate =
      model.uses_rate()
          ? (cal != nullptr ? solved.rate
                            : engine::resolve_rate_spec(sc.rate, slice.metric))
          : "-";
  row.t0 = sc.t0;
  row.t_end = sc.t_end;
  row.domain = trace.domain;
  row.cells = cells;
  row.accuracy = accuracy;
  if (cal != nullptr) {
    row.fit_d = cal->fit.params.d;
    row.fit_k = cal->fit.params.k;
    row.fit_a = cal->fit_a;
    row.fit_b = cal->fit_b;
    row.fit_c = cal->fit_c;
    row.fit_m = cal->multipliers;
    row.fit_sse = cal->fit.sse;
    row.fit_evals = cal->fit.evaluations;
    row.fit_solves = cal->fit.pde_solves;
    row.fit_hits = cal->fit.cache_hits;
  }
  return row;
}

void replay_chunk(const engine::scenario_context& ctx,
                  std::span<const engine::scenario> scenarios,
                  const std::vector<std::size_t>& chunk, engine::solve_cache& cache,
                  const fit::calibration_options& calibration,
                  engine::thread_pool& pool, std::vector<engine::result_row>& rows,
                  replay_counts& counts) {
  const engine::scenario& first = scenarios[chunk.front()];
  const engine::dataset_slice& slice = ctx.slice(first.slice);
  const std::unique_ptr<engine::diffusion_model> model =
      engine::default_registry().make(first.model);
  const std::size_t n = chunk.size();

  std::vector<engine::scenario> solved(n);
  std::vector<std::optional<engine::scenario_calibration>> cals(n);
  for (std::size_t m = 0; m < n; ++m) {
    solved[m] = scenarios[chunk[m]];
    if (!model->uses_rate() || !engine::is_calibrate_spec(solved[m].rate)) continue;
    cals[m] = traced_calibration(solved[m], slice, cache, calibration, pool, counts);
    solved[m].rate = cals[m]->resolved_rate;
    solved[m].d_override = cals[m]->fit.params.d;
    solved[m].k_override = cals[m]->fit.params.k;
  }

  std::vector<std::string> keys(n);
  std::vector<std::shared_ptr<const engine::model_trace>> cached(n);
  std::vector<engine::scenario> misses;
  std::vector<std::size_t> miss_pos;
  for (std::size_t m = 0; m < n; ++m) {
    {
      span s("cache.key");
      keys[m] = engine::scenario_cache_key(solved[m], slice, *model);
    }
    {
      span s("cache.find");
      cached[m] = cache.find_trace(keys[m]);
    }
    counts.lookups.fetch_add(1, std::memory_order_relaxed);
    if (cached[m] != nullptr) {
      counts.hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses.push_back(solved[m]);
      miss_pos.push_back(m);
    }
  }

  std::vector<engine::model_trace> fresh;
  if (!misses.empty()) {
    span s("core.solve");
    fresh = model->solve_batch(misses, slice);
    counts.solve_calls.fetch_add(1, std::memory_order_relaxed);
    counts.lanes.fetch_add(misses.size(), std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < miss_pos.size(); ++t) {
    span s("cache.store");
    cache.store_trace(keys[miss_pos[t]], fresh[t]);
  }

  std::size_t next = 0;
  for (std::size_t m = 0; m < n; ++m) {
    span s("runner.score");
    const engine::model_trace& trace =
        cached[m] != nullptr ? *cached[m] : fresh[next++];
    rows[chunk[m]] = make_row(chunk[m], scenarios[chunk[m]], solved[m],
                              cals[m] ? &*cals[m] : nullptr, *model, slice, trace);
  }
}

}  // namespace

/// One run_sweep pass replayed layer by layer; returns its CSV.
std::string traced_sweep(const engine::scenario_context& ctx,
                         std::span<const engine::scenario> scenarios,
                         engine::solve_cache& cache,
                         const fit::calibration_options& calibration,
                         std::size_t threads, replay_counts& counts) {
  std::vector<std::vector<std::size_t>> chunks;
  {
    span s("runner.batch_sweep");
    chunks = engine::batch_sweep(scenarios);
  }
  counts.chunks.fetch_add(chunks.size(), std::memory_order_relaxed);
  counts.pool_workers.store(threads, std::memory_order_relaxed);
  std::vector<engine::result_row> rows(scenarios.size());
  std::atomic<bool> failed{false};
  {
    engine::thread_pool pool(threads);
    const std::uint64_t parent = current_span();
    const std::uint64_t op = current_op();
    for (const std::vector<std::size_t>& chunk : chunks)
      pool.submit([&, parent, op] {
        const adopt_parent adopt(parent, op);
        span s("runner.chunk");
        try {
          replay_chunk(ctx, scenarios, chunk, cache, calibration, pool, rows, counts);
        } catch (...) {
          failed.store(true);
        }
      });
    pool.wait();
  }
  if (failed.load()) throw std::runtime_error("traced sweep replay failed");
  span s("runner.csv");
  return engine::result_table(std::move(rows)).to_csv();
}

namespace {

// ------------------------------------------------ sweep_solve / _calibrate

class sweep_workload : public workload {
 public:
  sweep_workload(const run_config& cfg, bool calibrate)
      : cfg_(cfg), calibrate_(calibrate) {}

  void setup() override {
    context_ = make_context(cfg_.seed, inputs_);
    scenarios_ = calibrate_ ? calibrate_scenarios(context_, inputs_)
                            : solve_scenarios(cfg_.seed, context_, inputs_);
    // The reference: the scalar path, one thread, no batching.
    engine::solve_cache cache;
    engine::runner_options options = runner(cache);
    options.threads = 1;
    options.batch_width = 1;
    reference_ = engine::run_sweep(context_, scenarios_, options).table.to_csv();
    if (cfg_.corrupt_reference) corrupt(reference_);
  }

  measurement measure(double seconds) override {
    measurement m;
    const std::int64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      const std::int64_t op_start = now_ns();
      // A cold pass: a fresh cache, so every scenario solves.
      engine::solve_cache cache;
      const bool ok =
          engine::run_sweep(context_, scenarios_, runner(cache)).table.to_csv() ==
          reference_;
      const double op_s = seconds_since(op_start);
      m.op_ms.push_back(op_s * 1e3);
      m.work_s += op_s;
      m.scenarios += scenarios_.size();
      ++m.attempted;
      if (!ok) ++m.failed;
    }
    return m;
  }

  bool replay_op(std::uint64_t op, replay_counts& counts) override {
    engine::solve_cache cache;
    const op_span root(calibrate_ ? "sweep_calibrate.op" : "sweep_solve.op", op);
    return traced_sweep(context_, scenarios_, cache, calibration_options(),
                        cfg_.threads, counts) == reference_;
  }

 private:
  engine::runner_options runner(engine::solve_cache& cache) const {
    engine::runner_options options;
    options.threads = cfg_.threads;
    options.cache = &cache;
    options.calibration = calibration_options();
    return options;
  }

  run_config cfg_;
  bool calibrate_;
  engine::scenario_context context_;
  std::vector<engine::scenario> scenarios_;
  std::string reference_;
};

// ------------------------------------------------------------ resume_warm

class resume_workload : public workload {
 public:
  explicit resume_workload(const run_config& cfg) : cfg_(cfg) {}

  void setup() override {
    context_ = make_context(cfg_.seed, inputs_);
    scenarios_ = calibrate_scenarios(context_, inputs_);
    const std::string dir = cfg_.run_dir + "/resume";
    std::filesystem::create_directories(dir);
    for (std::size_t i = 0; i < 2; ++i) {
      engine::solve_cache cache;
      engine::runner_options options = runner(cache);
      options.shard = {i, 2, engine::shard_policy::contiguous};
      const engine::sweep_result shard = engine::run_sweep(context_, scenarios_, options);
      csv_paths_.push_back(dir + "/shard" + std::to_string(i) + ".csv");
      cache_paths_.push_back(dir + "/shard" + std::to_string(i) + ".bin");
      write_file(csv_paths_.back(), shard.table.to_csv());
      engine::save_cache(cache, cache_paths_.back());
    }
    engine::solve_cache cache;
    reference_csv_ = engine::run_sweep(context_, scenarios_, runner(cache)).table.to_csv();
    reference_cache_ = engine::serialize_cache(cache);
    out_path_ = dir + "/resumed.bin";
    if (cfg_.corrupt_reference) corrupt(reference_csv_);
  }

  measurement measure(double seconds) override {
    measurement m;
    const std::int64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      const std::int64_t op_start = now_ns();
      const outcome out = resume(nullptr);
      const double op_s = seconds_since(op_start);
      m.op_ms.push_back(op_s * 1e3);
      m.work_s += op_s;
      m.scenarios += scenarios_.size();
      ++m.attempted;
      if (!check(out, false)) ++m.failed;
    }
    return m;
  }

  bool replay_op(std::uint64_t op, replay_counts& counts) override {
    const op_span root("resume_warm.op", op);
    return check(resume(&counts), true);
  }

 private:
  struct outcome {
    std::size_t conflicts = 0;
    std::string merged_csv;
    std::string warm_csv;
    std::size_t warm_misses = 0;
  };

  /// merge_cache_files → merge_tables → warm replay → save_cache, from
  /// the same bytes on disk every time.  The warm replay is the library's
  /// run_sweep, or with `counts` the benchmark's layer-by-layer replay.
  outcome resume(replay_counts* counts) {
    outcome out;
    engine::solve_cache cache;
    {
      span s("shard.merge_cache");
      out.conflicts = engine::merge_cache_files(cache, cache_paths_).conflicts;
    }
    {
      span s("shard.merge_tables");
      std::vector<engine::result_table> shards;
      for (const std::string& path : csv_paths_)
        shards.push_back(engine::result_table::from_csv(read_file(path)));
      out.merged_csv = engine::merge_tables(shards).to_csv();
    }
    // One worker: the replay is pure lookups, and a pool would mostly
    // time its own start-up and wake-ups.
    const std::size_t misses_before = cache.stats().misses;
    if (counts != nullptr) {
      out.warm_csv =
          traced_sweep(context_, scenarios_, cache, calibration_options(), 1, *counts);
      counts->merge_conflicts.fetch_add(out.conflicts, std::memory_order_relaxed);
    } else {
      engine::runner_options options = runner(cache);
      options.threads = 1;
      out.warm_csv = engine::run_sweep(context_, scenarios_, options).table.to_csv();
    }
    out.warm_misses = cache.stats().misses - misses_before;
    {
      span s("cache_io.save");
      engine::save_cache(cache, out_path_);
    }
    return out;
  }

  /// No conflicts, both CSVs equal the unsharded run's, the library's
  /// warm replay made zero PDE solves, and the saved cache is the
  /// unsharded run's cache byte for byte.  (The traced replay's solve
  /// count is reported as core.solve_calls instead of gated: it rests on
  /// the mirrored probe-key layout, not on the library.)
  bool check(const outcome& out, bool replayed) const {
    return out.conflicts == 0 && out.merged_csv == reference_csv_ &&
           out.warm_csv == reference_csv_ && (replayed || out.warm_misses == 0) &&
           read_file(out_path_) == reference_cache_;
  }

  engine::runner_options runner(engine::solve_cache& cache) const {
    engine::runner_options options;
    options.threads = cfg_.threads;
    options.cache = &cache;
    options.calibration = calibration_options();
    return options;
  }

  run_config cfg_;
  engine::scenario_context context_;
  std::vector<engine::scenario> scenarios_;
  std::vector<std::filesystem::path> cache_paths_;
  std::vector<std::string> csv_paths_;
  std::string out_path_;
  std::string reference_csv_;
  std::string reference_cache_;
};

}  // namespace

std::unique_ptr<workload> make_sweep_solve(const run_config& cfg) {
  return std::make_unique<sweep_workload>(cfg, false);
}

std::unique_ptr<workload> make_sweep_calibrate(const run_config& cfg) {
  return std::make_unique<sweep_workload>(cfg, true);
}

std::unique_ptr<workload> make_resume_warm(const run_config& cfg) {
  return std::make_unique<resume_workload>(cfg);
}

}  // namespace perfbench
