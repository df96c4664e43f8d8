// Shared pieces of the DL predictor benchmark: seeded input generation,
// statistics, the workload interface, and the dl_serve child process.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/scenario.h"
#include "engine/service.h"
#include "engine/solve_cache.h"
#include "fit/calibrate.h"

namespace perfbench {

/// SplitMix64.  Every generated input derives from the workload seed
/// through one of these, so the same seed gives the same inputs.
class rng {
 public:
  explicit rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// FNV-1a-64 over the generated inputs; printed with every run.
class digest {
 public:
  void add(std::string_view text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Short decimal rendering for generated spec values (six significant
/// digits: distinct seeds give distinct, readable keys).
[[nodiscard]] std::string fmt(double value);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// a / b, or 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);

[[nodiscard]] double seconds_since(std::int64_t start_ns);

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;    ///< per-run scratch: sockets, caches, WALs
  std::string out_dir;    ///< result and trace files
  std::string serve_bin;  ///< the dl_serve binary
  std::size_t threads = 1;  ///< nproc: worker threads and connections
  /// Smoke-test hook: perturb the correctness reference after setup, so
  /// the gate must trip.
  bool corrupt_reference = false;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of an untraced measurement.
struct measurement {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t scenarios = 0;  ///< scenarios resolved while measuring
  double work_s = 0.0;        ///< time the scenarios took
  std::vector<double> op_ms;  ///< per-operation latency
  /// serve_mixed: client-observed latency per verb, in microseconds.
  std::map<std::string, std::vector<double>> verb_us;
  double child_rss_mb = 0.0;  ///< peak RSS of spawned processes
  double child_cpu_s = 0.0;   ///< CPU time spawned processes spent measuring
};

/// Work the traced replay saw, by layer.  Atomic: pool workers add to it.
struct replay_counts {
  std::atomic<std::size_t> solve_calls{0};
  std::atomic<std::size_t> lanes{0};
  std::atomic<std::size_t> fits{0};
  std::atomic<std::size_t> fit_evals{0};
  std::atomic<std::size_t> fit_solves{0};
  std::atomic<std::size_t> fit_hits{0};
  std::atomic<std::size_t> lookups{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> chunks{0};
  std::atomic<std::size_t> merge_conflicts{0};
  /// Worker threads of the pool the last replayed sweep ran on.
  std::atomic<std::size_t> pool_workers{0};
};

/// One workload.  setup() builds the seeded inputs and the correctness
/// references; measure() runs the untraced loop on the library path;
/// replay_op() runs one operation as the benchmark's own layer-by-layer
/// replay, which records spans when tracing is on.
class workload {
 public:
  virtual ~workload() = default;
  virtual void setup() = 0;
  [[nodiscard]] virtual measurement measure(double seconds) = 0;
  /// Adds the work the replay saw to `counts`; returns false when the
  /// operation's output failed its check.
  virtual bool replay_op(std::uint64_t op, replay_counts& counts) = 0;
  /// Stops spawned processes; returns how many were left behind.
  virtual std::size_t shutdown() { return 0; }
  /// A running dl_serve the ledger probe may use, or empty.
  [[nodiscard]] virtual std::string probe_socket() const { return {}; }
  [[nodiscard]] const digest& inputs() const { return inputs_; }

 protected:
  digest inputs_;
};

[[nodiscard]] std::unique_ptr<workload> make_sweep_solve(const run_config& cfg);
[[nodiscard]] std::unique_ptr<workload> make_sweep_calibrate(const run_config& cfg);
[[nodiscard]] std::unique_ptr<workload> make_resume_warm(const run_config& cfg);
[[nodiscard]] std::unique_ptr<workload> make_serve_mixed(const run_config& cfg);

/// The seeded single-slice context the sweep workloads share: a density
/// surface generated by the DL model itself from seeded (d, K) and
/// initial profile, so calibration has a well-posed target.
[[nodiscard]] dlm::engine::scenario_context make_context(std::uint64_t seed,
                                                         digest& inputs);

/// The single slice "bench" (friendship hops, 6 distances × hours 1–6):
/// the DL model's own surface for (d, K) and the initial profile.
[[nodiscard]] dlm::engine::scenario_context surface_context(
    double d, double k, const std::vector<double>& initial);

/// One run_sweep pass replayed from the layers' public functions with a
/// span around each call (see sweeps.cpp); returns the pass's CSV.
[[nodiscard]] std::string traced_sweep(
    const dlm::engine::scenario_context& ctx,
    std::span<const dlm::engine::scenario> scenarios,
    dlm::engine::solve_cache& cache,
    const dlm::fit::calibration_options& calibration, std::size_t threads,
    replay_counts& counts);

/// The ledger probe: fixed, seeded micro-inputs for every layer, run at
/// the end of each traced run.  `socket` names a running dl_serve to
/// time; empty spawns one.  Returns how many processes it left behind.
std::size_t run_probe(const run_config& cfg, const std::string& socket,
                      std::vector<metric>& out);

/// A dl_serve child in its own process group.  The destructor kills the
/// group and reaps it.
class server_process {
 public:
  server_process(const run_config& cfg, std::string socket,
                 std::vector<std::string> extra_args);
  ~server_process();
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  /// Peak RSS of the server so far (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// CPU time (user + system) the server has used so far, in seconds.
  [[nodiscard]] double cpu_s() const;
  /// Kills and reaps the group; returns how many processes of it were
  /// still alive afterwards (0 or 1).  Idempotent.
  std::size_t stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Kills every live server group; async-signal-safe.
void kill_servers_from_signal();

/// The library's blocking client, with a 30 s send/receive timeout so a
/// wedged server fails the run instead of hanging it.
[[nodiscard]] std::unique_ptr<dlm::engine::service_client> connect(
    const std::string& socket);

/// Parses "key=<count>" out of a "stats" reply; 0 when absent.
[[nodiscard]] std::size_t stat_field(const std::string& reply,
                                     const std::string& key);

}  // namespace perfbench
