// The ledger probe: the per-call cost of every layer on fixed micro-inputs
// drawn from the seed, measured at the end of each traced run so every
// workload reports the same rows — from the Thomas kernel up to one
// dl_serve request.  Where a traced workload gives each layer's share of
// the work, these rows give what one call of the layer costs.

#include <algorithm>
#include <barrier>
#include <filesystem>
#include <functional>
#include <thread>

#include "bench.h"
#include "core/dl_model.h"
#include "core/dl_solver.h"
#include "engine/cache_io.h"
#include "engine/cache_journal.h"
#include "engine/format.h"
#include "engine/model_registry.h"
#include "engine/result_table.h"
#include "engine/scenario_runner.h"
#include "numerics/tridiagonal.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dlm;

/// Seconds per call of `fn`: the median over five batches, each running
/// `fn` until it has taken at least `batch_s`.
double seconds_per_call(const std::function<void()>& fn, double batch_s = 0.02) {
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t calls = 0;
    const std::int64_t start = now_ns();
    do {
      fn();
      ++calls;
    } while (seconds_since(start) < batch_s);
    per_call.push_back(seconds_since(start) / static_cast<double>(calls));
  }
  return median(per_call);
}

void thomas(rng& r, std::vector<metric>& out) {
  constexpr std::size_t n = 1001;
  const double c = r.uniform(0.2, 0.6);
  num::tridiagonal_matrix a(n);
  std::fill(a.diag.begin(), a.diag.end(), 1.0 + 2.0 * c);
  std::fill(a.lower.begin(), a.lower.end(), -c);
  std::fill(a.upper.begin(), a.upper.end(), -c);
  num::tridiagonal_factorization factor;
  factor.factor(a);
  std::vector<double> rhs(n), work(n);
  for (double& v : rhs) v = r.uniform(0.0, 1.0);
  const double s = seconds_per_call([&] {
    std::copy(rhs.begin(), rhs.end(), work.begin());
    factor.solve_in_place(work);
  });
  out.push_back({"num.thomas_ns_per_node", s * 1e9 / n, "ns"});
}

void core_solves(rng& r, std::vector<metric>& out) {
  const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  constexpr double t0 = 1.0, t_end = 6.0, dt = 0.02;
  const double steps = (t_end - t0) / dt;
  // ns per grid node per time step of `lanes` strang-cn solves in one call.
  const auto cost = [&](const core::domain& dom, std::size_t ppu, std::size_t lanes) {
    std::vector<core::dl_parameters> params(lanes, core::dl_parameters::paper_hops(6.0));
    std::vector<core::initial_condition> phis;
    std::vector<core::solve_request> requests;
    phis.reserve(lanes);
    for (core::dl_parameters& p : params) {
      p.dom = dom;
      p.r = engine::make_rate("constant:" + fmt(r.uniform(0.3, 0.9)),
                              social::distance_metric::friendship_hops);
      phis.push_back(core::dl_model::build_initial(p, observed));
    }
    for (std::size_t i = 0; i < lanes; ++i)
      requests.push_back({.params = &params[i],
                          .phi = &phis[i],
                          .t0 = t0,
                          .t_end = t_end,
                          .options = {.scheme = core::dl_scheme::strang_cn,
                                      .points_per_unit = ppu,
                                      .dt = dt}});
    std::size_t sink = 0;
    const double s = seconds_per_call([&] {
      sink += lanes == 1 ? core::solve_dl(requests.front()).times().size()
                         : core::solve_dl(requests).size();
    });
    const std::size_t x_nodes = 5 * ppu + 1;
    const double nodes = static_cast<double>(dom.node_count(x_nodes, ppu));
    return sink == 0 ? 0.0 : s * 1e9 / (nodes * steps * static_cast<double>(lanes));
  };
  out.push_back({"core.line_ns_per_node_step", cost(core::domain::line(), 20, 1), "ns"});
  out.push_back({"core.lane_ns_per_node_step", cost(core::domain::line(), 20, 8), "ns"});
  out.push_back({"core.adi_ns_per_node_step", cost(core::domain::grid(1.0, 4.0), 10, 1), "ns"});
  out.push_back({"core.comm_ns_per_node_step",
                 cost(core::domain::coupled(3, 0.05), 20, 1), "ns"});
}

/// Cache calls on a table of distinct keys, then the same cache through
/// the snapshot format and the WAL.
void cache_layers(const run_config& cfg, rng& r, std::vector<metric>& out) {
  constexpr std::size_t n = 4096;
  digest unused;
  const engine::scenario_context ctx = make_context(cfg.seed, unused);
  const engine::dataset_slice& slice = ctx.slice(0);
  const std::unique_ptr<engine::diffusion_model> model =
      engine::default_registry().make("dl");
  const double base = r.uniform(0.2, 0.4);
  std::vector<engine::scenario> scenarios(n);
  for (std::size_t i = 0; i < n; ++i)
    scenarios[i].rate = "constant:" + engine::format_full_precision(
                                          base + static_cast<double>(i) * 1e-6);
  const engine::model_trace trace = model->solve(scenarios[0], slice);

  std::vector<std::string> keys(n), absent(n);
  const double key_s = seconds_per_call([&] {
    for (std::size_t i = 0; i < n; ++i)
      keys[i] = engine::scenario_cache_key(scenarios[i], slice, *model);
  });
  for (std::size_t i = 0; i < n; ++i) absent[i] = keys[i] + "#absent";
  out.push_back({"cache.key_build_ns", key_s * 1e9 / n, "ns"});

  std::vector<double> store_s;
  std::unique_ptr<engine::solve_cache> cache;
  for (int round = 0; round < 5; ++round) {
    cache = std::make_unique<engine::solve_cache>();
    const std::int64_t start = now_ns();
    for (const std::string& key : keys) cache->store_trace(key, trace);
    store_s.push_back(seconds_since(start));
  }
  out.push_back({"cache.store_ns", median(store_s) * 1e9 / n, "ns"});

  std::size_t found = 0;
  const auto sweep = [&](const std::vector<std::string>& which) {
    for (const std::string& key : which) found += cache->find_trace(key) != nullptr;
  };
  out.push_back({"cache.find_hit_ns", seconds_per_call([&] { sweep(keys); }) * 1e9 / n, "ns"});
  out.push_back({"cache.find_miss_ns", seconds_per_call([&] { sweep(absent); }) * 1e9 / n, "ns"});

  // Every thread hits the same table at once: the one cache mutex.
  std::vector<double> per_thread_s(cfg.threads);
  {
    std::barrier ready(static_cast<std::ptrdiff_t>(cfg.threads));
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < cfg.threads; ++t)
      threads.emplace_back([&, t] {
        ready.arrive_and_wait();
        const std::int64_t start = now_ns();
        for (int pass = 0; pass < 8; ++pass)
          for (const std::string& key : keys) (void)cache->find_trace(key);
        per_thread_s[t] = seconds_since(start);
      });
  }
  out.push_back({"cache.find_hit_ns_contended", median(per_thread_s) * 1e9 / (8.0 * n), "ns"});

  const std::string snapshot = cfg.run_dir + "/probe-cache.bin";
  const double save_s = seconds_per_call([&] { engine::save_cache(*cache, snapshot); });
  const double load_s = seconds_per_call([&] {
    engine::solve_cache fresh;
    found += engine::load_cache(fresh, snapshot).traces;
  });
  out.push_back({"cache_io.save_ms", save_s * 1e3, "ms"});
  out.push_back({"cache_io.load_ms", load_s * 1e3, "ms"});
  out.push_back({"cache_io.file_bytes",
                 static_cast<double>(std::filesystem::file_size(snapshot)), "bytes"});

  const std::string wal = cfg.run_dir + "/probe.wal";
  std::filesystem::remove(wal);
  engine::cache_journal journal(wal);
  const std::uint64_t header = journal.bytes();
  const std::int64_t start = now_ns();
  for (const std::string& key : keys) journal.append_trace(key, trace);
  out.push_back({"journal.append_us", seconds_since(start) * 1e6 / n, "us"});
  out.push_back({"journal.bytes_per_entry",
                 static_cast<double>(journal.bytes() - header) / n, "bytes"});
  if (found == 0) throw std::runtime_error("cache probe found nothing");
}

/// A small fixed sweep: expansion, one traced pass for the chunk / score
/// / CSV costs, and a two-shard split for the merge costs.
void runner_and_shard(const run_config& cfg, rng& r, std::vector<metric>& out) {
  digest unused;
  const engine::scenario_context ctx = make_context(cfg.seed, unused);
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::strang_cn, core::dl_scheme::mol_rk4};
  spec.grid = {10};
  spec.rates.clear();
  for (int i = 0; i < 4; ++i) spec.rates.push_back("constant:" + fmt(r.uniform(0.3, 0.9)));
  spec.t_end = 6.0;

  std::vector<engine::scenario> scenarios;
  const double expand_s =
      seconds_per_call([&] { scenarios = engine::expand_sweep(spec, ctx); }, 0.005);
  out.push_back({"runner.expand_ms", expand_s * 1e3, "ms"});

  replay_counts counts;
  clear_spans();
  set_tracing(true);
  for (std::uint64_t op = 1; op <= 5; ++op) {
    engine::solve_cache cache;
    const op_span root("probe.op", op);
    (void)traced_sweep(ctx, scenarios, cache, {}, cfg.threads, counts);
  }
  set_tracing(false);
  const layer_times times = summarize(collect_spans());
  clear_spans();
  const auto durations = [&](const char* name) {
    const auto it = times.durations_ns.find(name);
    return it == times.durations_ns.end() ? std::vector<double>{} : it->second;
  };
  const auto mean_of = [&](const char* name) {
    const std::vector<double> d = durations(name);
    double sum = 0.0;
    for (const double v : d) sum += v;
    return ratio(sum, static_cast<double>(d.size()));
  };
  const std::vector<double> chunks = durations("runner.chunk");
  out.push_back({"runner.chunk_ms_p50", median(chunks) / 1e6, "ms"});
  out.push_back({"runner.chunk_ms_max", quantile(chunks, 1.0) / 1e6, "ms"});
  out.push_back({"runner.score_us", mean_of("runner.score") / 1e3, "us"});
  out.push_back({"runner.csv_ms", mean_of("runner.csv") / 1e6, "ms"});

  std::vector<std::string> csvs;
  std::vector<std::filesystem::path> caches;
  for (std::size_t i = 0; i < 2; ++i) {
    engine::solve_cache cache;
    engine::runner_options options;
    options.threads = cfg.threads;
    options.cache = &cache;
    options.shard = {i, 2, engine::shard_policy::contiguous};
    csvs.push_back(engine::run_sweep(ctx, scenarios, options).table.to_csv());
    caches.push_back(cfg.run_dir + "/probe-shard" + std::to_string(i) + ".bin");
    engine::save_cache(cache, caches.back());
  }
  std::size_t rows = 0;
  const double tables_s = seconds_per_call([&] {
    std::vector<engine::result_table> shards;
    for (const std::string& csv : csvs) shards.push_back(engine::result_table::from_csv(csv));
    rows += engine::merge_tables(shards).size();
  });
  const double cache_s = seconds_per_call([&] {
    engine::solve_cache merged;
    rows += engine::merge_cache_files(merged, caches).merged_traces;
  });
  out.push_back({"shard.merge_tables_ms", tables_s * 1e3, "ms"});
  out.push_back({"shard.merge_cache_ms", cache_s * 1e3, "ms"});
  if (rows == 0) throw std::runtime_error("shard probe merged nothing");
}

/// Serial requests to one server: the transport floor (ping) and each
/// verb's cost above it.
std::size_t service(const run_config& cfg, const std::string& socket, rng& r,
                    std::vector<metric>& out) {
  std::unique_ptr<server_process> own;
  std::string path = socket;
  if (path.empty()) {
    own = std::make_unique<server_process>(cfg, cfg.run_dir + "/probe.sock",
                                           std::vector<std::string>{});
    path = own->socket();
  }
  const auto c = connect(path);
  const std::string args = "model=dl slice=bench grid=20 rate=constant:" +
                           fmt(r.uniform(0.3, 0.9));
  const std::string solve = "solve " + args;
  const std::string predict = "predict " + args + " x=3 t=4";
  const std::string calibrate = "calibrate model=dl slice=bench grid=10 rate=calibrate-fixed";
  for (const std::string* warm : {&solve, &calibrate}) (void)c->request(*warm);

  const double cold_base = 1.5 + r.uniform(0.0, 0.1);
  std::size_t cold = 0;
  const auto p50_us = [&](const std::function<std::string()>& request, std::size_t n) {
    std::vector<double> us;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string payload = request();
      const std::int64_t start = now_ns();
      if (!c->request(payload).starts_with("ok"))
        throw std::runtime_error("probe request failed: " + payload);
      us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    return median(us);
  };
  const double ping = p50_us([] { return std::string("ping"); }, 400);
  out.push_back({"service.ping_rtt_us", ping, "us"});
  out.push_back({"service.solve_self_us", p50_us([&] { return solve; }, 200) - ping, "us"});
  out.push_back({"service.predict_self_us", p50_us([&] { return predict; }, 200) - ping, "us"});
  out.push_back({"service.calibrate_self_us", p50_us([&] { return calibrate; }, 30) - ping, "us"});
  out.push_back({"service.cold_solve_self_us",
                 p50_us([&] {
                   return "solve model=dl slice=bench grid=20 rate=constant:" +
                          engine::format_full_precision(
                              cold_base + static_cast<double>(cold++) * 1e-9);
                 }, 100) - ping,
                 "us"});
  return own ? own->stop() : 0;
}

}  // namespace

std::size_t run_probe(const run_config& cfg, const std::string& socket,
                      std::vector<metric>& out) {
  rng r(cfg.seed ^ 0x6A09E667F3BCC909ull);
  thomas(r, out);
  core_solves(r, out);
  cache_layers(cfg, r, out);
  runner_and_shard(cfg, r, out);
  return service(cfg, socket, r, out);
}

}  // namespace perfbench
