// serve_mixed: the real dl_serve binary under nproc concurrent clients,
// each sending the traffic the repo's own remote client sends.
//
// Every connection runs engine::run_shard_remote — the code behind
// `dl_shard --worker i/N --socket` — over model_comparison's sweep, pass
// after pass, minus the `si` model, which needs a follower graph.  For a calibrate scenario it sends a calibrate request and
// then a solve with the fitted overrides; for any other scenario, one
// solve.  The verb mix therefore follows from the sweep; no weights are
// chosen here.  Two things fit the sweep to a benchmark (README.md names
// both):
//   - grids {20, 40} become {10} and the ADI sheet is left out, so the
//     cold warm-up at setup takes about a second;
//   - each pass redraws the sweep's two concrete rates (`constant:` and
//     `spatial:`), while presets and calibrations repeat.  This is an
//     unverified assumption: a client scanning new rates against a server
//     that already holds the slice's calibrations.
// So calibrations and preset solves replay warm, and the concrete-rate
// scenarios are cold: a miss, a PDE solve, a store and a WAL append.
//
// The server runs with a cache file and --journal.  Warm rows must
// byte-equal the rows of a serial pass made at setup.  Cold rows must
// byte-equal a serial re-run after the loop.  The server's miss counter
// must move by exactly the number of cold scenarios (warm paths solve
// nothing).

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "engine/calibration.h"
#include "engine/format.h"
#include "engine/model_registry.h"
#include "engine/scenario_runner.h"
#include "engine/shard.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dlm;

enum kind : std::size_t { calibrated, warm_solve, cold_solve, kind_count };
constexpr const char* kKindNames[kind_count] = {"calibrate_then_solve", "solve",
                                                "cold_solve"};
constexpr const char* kKindSpans[kind_count] = {
    "service.calibrate_then_solve", "service.solve", "service.cold_solve"};


std::vector<std::string> csv_lines(const engine::result_table& table) {
  std::vector<std::string> lines;
  std::istringstream in(table.to_csv());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

class serve_workload : public workload {
 public:
  explicit serve_workload(const run_config& cfg) : cfg_(cfg) {}

  void setup() override {
    // The slice `dl_serve --test-surface` serves (tools/dl_serve.cpp),
    // rebuilt so run_shard_remote scores traces against the server's data.
    context_ = surface_context(0.06, 22.0, {1.9, 0.8, 1.1, 0.6, 0.4, 0.3});
    // The seed draws the concrete rates; the sweep's shape is fixed, so
    // every seed costs the same.
    rng r(cfg_.seed ^ 0x2545F4914F6CDD1Dull);
    constant_base_ = r.uniform(0.3, 0.7);
    spatial_base_ = r.uniform(1.0, 1.4);
    for (int g = 0; g < 3; ++g) multipliers_ += ',' + fmt(r.uniform(0.6, 1.2));

    const std::vector<engine::scenario> scenarios = pass(cfg_.threads, 0);
    all_.resize(scenarios.size());
    std::iota(all_.begin(), all_.end(), std::size_t{0});
    const engine::model_registry& registry = engine::default_registry();
    kinds_.clear();
    for (const engine::scenario& sc : scenarios) {
      const bool uses_rate = registry.make(sc.model)->uses_rate();
      kinds_.push_back(!uses_rate || sc.rate == "preset" ? warm_solve
                       : engine::is_calibrate_spec(sc.rate) ? calibrated
                                                            : cold_solve);
      inputs_.add(sc.model + ' ' + core::to_string(sc.scheme) + ' ' + sc.rate + ' ' +
                  sc.domain);
    }
    cold_per_pass_ = static_cast<std::size_t>(
        std::count(kinds_.begin(), kinds_.end(), cold_solve));

    const std::string cache = cfg_.run_dir + "/serve-cache.bin";
    std::filesystem::remove(cache);
    std::filesystem::remove(cache + ".wal");
    server_ = std::make_unique<server_process>(
        cfg_, cfg_.run_dir + "/serve.sock",
        std::vector<std::string>{"--cache-file", cache, "--journal"});

    // One cold pass warms the server; the same pass again, now warm, is
    // the reference.  A reply is a pure function of the request, so both
    // must give the same rows.
    const std::string cold = remote(scenarios, all_).to_csv();
    reference_ = csv_lines(remote(scenarios, all_));
    if (cold != remote(scenarios, all_).to_csv())
      throw std::runtime_error("serve_mixed: warm pass differs from the cold one");
    if (cfg_.corrupt_reference) reference_[1 + first_of(calibrated)][10] ^= 1;
  }

  measurement measure(double seconds) override {
    struct connection_result {
      std::size_t attempted = 0, failed = 0, scenarios = 0, cold = 0;
      std::vector<double> pass_ms;
      std::vector<double> kind_us[kind_count];
      std::string first_csv;  ///< pass 0, re-run serially after the loop
    };
    const auto c0 = connect(server_->socket());
    const std::size_t misses_before = stat_field(c0->request("stats"), "misses");

    std::vector<connection_result> results(cfg_.threads);
    const double server_cpu_before = server_->cpu_s();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    {
      std::vector<std::jthread> connections;
      for (std::size_t k = 0; k < cfg_.threads; ++k)
        connections.emplace_back([&, k] {
          connection_result& out = results[k];
          try {
            for (std::size_t p = 0; now_ns() < deadline; ++p) {
              const std::vector<engine::scenario> scenarios = pass(k, p);
              const std::int64_t t0 = now_ns();
              const engine::result_table table = remote(scenarios, all_);
              out.pass_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
              const std::vector<std::string> lines = csv_lines(table);
              for (std::size_t i = 0; i < all_.size(); ++i) {
                out.kind_us[kinds_[i]].push_back(table.rows()[i].wall_ms * 1e3);
                ++out.attempted;
                ++out.scenarios;
                if (kinds_[i] == cold_solve)
                  ++out.cold;
                else if (lines[1 + i] != reference_[1 + i])
                  ++out.failed;
              }
              if (p == 0) out.first_csv = table.to_csv();
            }
          } catch (const std::exception&) {
            ++out.attempted;  // a pass failed: one failed operation
            ++out.failed;
          }
        });
    }
    const double loop_s = seconds_since(start);
    const double server_cpu_s = server_->cpu_s() - server_cpu_before;

    measurement m;
    std::size_t cold = 0;
    for (const connection_result& out : results) {
      m.attempted += out.attempted;
      m.failed += out.failed;
      m.scenarios += out.scenarios;
      cold += out.cold;
      m.op_ms.insert(m.op_ms.end(), out.pass_ms.begin(), out.pass_ms.end());
      for (std::size_t v = 0; v < kind_count; ++v) {
        auto& all = m.verb_us[kKindNames[v]];
        all.insert(all.end(), out.kind_us[v].begin(), out.kind_us[v].end());
      }
    }
    // Warm paths make zero PDE solves: misses moved once per cold row.
    const std::size_t misses_after = stat_field(c0->request("stats"), "misses");
    ++m.attempted;
    if (misses_after - misses_before != cold) ++m.failed;
    // Replies are a pure function of the request: each connection's first
    // pass, re-run serially and now all warm, must give the same rows.
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (results[k].first_csv.empty()) continue;
      ++m.attempted;
      if (remote(pass(k, 0), all_).to_csv() != results[k].first_csv) ++m.failed;
    }
    ++m.attempted;
    if (stat_field(c0->request("stats"), "misses") != misses_after) ++m.failed;
    m.work_s = loop_s;
    m.child_rss_mb = server_->peak_rss_mb();
    m.child_cpu_s = server_cpu_s;
    return m;
  }

  bool replay_op(std::uint64_t op, replay_counts& counts) override {
    // One serial pass, one run_shard_remote call per scenario, each a span
    // of the service layer as the client sees it (the call's connect and
    // the server's per-connection thread start are inside it).
    const auto c = connect(server_->socket());
    const std::string before = c->request("stats");
    const op_span root("serve_mixed.op", op);
    const std::vector<engine::scenario> scenarios = pass(cfg_.threads + 1 + op, 0);
    std::vector<engine::result_row> rows;
    std::size_t fits = 0, evals = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::size_t owned[] = {i};
      engine::result_table one;
      {
        span s(kKindSpans[kinds_[i]]);
        one = remote(scenarios, owned);
      }
      rows.push_back(one.rows().front());
      if (kinds_[i] == calibrated) {
        ++fits;
        evals += rows.back().fit_evals;
      }
    }
    const std::vector<std::string> lines =
        csv_lines(engine::result_table(std::move(rows)));
    bool ok = lines.size() == reference_.size();
    for (std::size_t i = 0; ok && i < kinds_.size(); ++i)
      if (kinds_[i] != cold_solve && lines[1 + i] != reference_[1 + i]) ok = false;

    const std::string after = c->request("stats");
    const std::size_t misses = stat_field(after, "misses") - stat_field(before, "misses");
    const std::size_t hits = stat_field(after, "hits") - stat_field(before, "hits");
    counts.solve_calls.fetch_add(misses);
    counts.lanes.fetch_add(misses);
    counts.lookups.fetch_add(hits + misses);
    counts.hits.fetch_add(hits);
    // Misses beyond the cold rows were calibration probes that solved.
    const std::size_t fit_solves = misses > cold_per_pass_ ? misses - cold_per_pass_ : 0;
    counts.fits.fetch_add(fits);
    counts.fit_evals.fetch_add(evals);
    counts.fit_solves.fetch_add(fit_solves);
    counts.fit_hits.fetch_add(evals - std::min(fit_solves, evals));
    return ok && misses == cold_per_pass_;  // warm scenarios solve nothing
  }

  std::size_t shutdown() override { return server_ ? server_->stop() : 0; }

  std::string probe_socket() const override { return server_->socket(); }

 private:
  /// model_comparison's main sweep (examples/model_comparison.cpp) on the
  /// server's slice: every registered model but `si`, which needs a
  /// follower graph the surface slice lacks; all four schemes and its five
  /// rate specs, at grid 10 on the line and the mixed communities.  The
  /// concrete rates are unique to (stream, pass), so their scenarios are
  /// cold; the other specs are the same in every pass.
  std::vector<engine::scenario> pass(std::size_t stream, std::size_t pass) const {
    const double shift =
        static_cast<double>(stream) * 1e-3 + static_cast<double>(pass) * 1e-9;
    engine::sweep_spec spec;
    spec.models = {"dl", "heat", "logistic", "per_distance_logistic"};
    spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                    core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
    spec.grid = {10};
    spec.rates = {"preset",
                  "constant:" + engine::format_full_precision(constant_base_ + shift),
                  "spatial:preset|" +
                      engine::format_full_precision(spatial_base_ + shift) +
                      multipliers_,
                  "calibrate", "calibrate-spatial"};
    spec.domains = {"line", "comm:3|mix=0.05"};
    spec.t_end = 6.0;
    std::vector<engine::scenario> scenarios = engine::expand_sweep(spec, context_);
    if (!kinds_.empty() && scenarios.size() != kinds_.size())
      throw std::runtime_error("serve_mixed: the sweep's shape changed between passes");
    return scenarios;
  }

  engine::result_table remote(std::span<const engine::scenario> scenarios,
                              std::span<const std::size_t> owned) const {
    return engine::run_shard_remote(context_, scenarios, owned, server_->socket());
  }

  std::size_t first_of(kind k) const {
    return static_cast<std::size_t>(std::find(kinds_.begin(), kinds_.end(), k) -
                                    kinds_.begin());
  }

  run_config cfg_;
  engine::scenario_context context_;
  double constant_base_ = 0.0;
  double spatial_base_ = 0.0;
  std::string multipliers_;
  std::vector<std::size_t> all_;
  std::vector<kind> kinds_;
  std::size_t cold_per_pass_ = 0;
  std::vector<std::string> reference_;
  std::unique_ptr<server_process> server_;
};

}  // namespace

std::unique_ptr<workload> make_serve_mixed(const run_config& cfg) {
  return std::make_unique<serve_workload>(cfg);
}

}  // namespace perfbench
