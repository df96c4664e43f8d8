// The DL predictor benchmark: one seeded workload per invocation.
//
//   dlm_perfbench --workload <sweep_solve|sweep_calibrate|serve_mixed|resume_warm>
//                 --seed N --seconds S --trace 0|1 --serve-bin <dl_serve>
//                 [--run-dir DIR] [--out-dir DIR] [--commit ID]
//                 [--source-digest HEX] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics on the library path with
// tracing off.  --trace 1 runs the benchmark's layer-by-layer replay of
// each operation, alternately with tracing off and on, writes the spans as
// a Chrome trace, and reports the per-layer metrics plus the ledger probe.
// Either way the outputs are checked; the last stdout line is one JSON
// object with "correct", "attempted", "failed" and "metrics".  See
// perfbench/README.md.

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"

#ifndef DLM_PERFBENCH_BUILD_TYPE
#define DLM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DLM_PERFBENCH_COMPILER_ID
#define DLM_PERFBENCH_COMPILER_ID "unknown"
#endif

namespace {

using namespace perfbench;

/// setup_s is the median of this many complete set-ups.
constexpr int kSetupRepeats = 3;
/// Traced runs make at most this many pairs of replays, one with tracing
/// off and one with it on: the calibrate replays record ~25k spans per
/// operation.
constexpr std::size_t kMaxTracedPairs = 5;
/// A p99 is reported only with at least ten samples beyond it.
constexpr std::size_t kP99Samples = 1000;
/// The run-level watchdog, under the 180 s limit.
constexpr unsigned kWatchdogSeconds = 175;

void on_fatal(int sig) {
  kill_servers_from_signal();
  ::_exit(128 + sig);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line))
    if (line.starts_with("model name")) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string host_block(const std::string& commit, const std::string& source_digest) {
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"compiler\": " +
         json_string(std::string(DLM_PERFBENCH_COMPILER_ID) + ' ' + __VERSION__) +
         ", \"build_type\": " + json_string(DLM_PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_string(commit) +
         ", \"source_digest\": " + json_string(source_digest) + '}';
}

std::string metrics_json(const std::vector<metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + '}';
  return out + '}';
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU time (user + system, all threads) this process has used.
double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::unique_ptr<workload> make_workload(const run_config& cfg) {
  if (cfg.workload == "sweep_solve") return make_sweep_solve(cfg);
  if (cfg.workload == "sweep_calibrate") return make_sweep_calibrate(cfg);
  if (cfg.workload == "serve_mixed") return make_serve_mixed(cfg);
  if (cfg.workload == "resume_warm") return make_resume_warm(cfg);
  return nullptr;
}

struct run_result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<metric> metrics;
  std::string inputs_digest;
  std::string samples;  ///< JSON object: sample counts behind each timing
};

run_result run_untraced(const run_config& cfg) {
  run_result result;
  std::vector<double> setup_s;
  std::unique_ptr<workload> w;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (w) {
      ++result.attempted;
      if (w->shutdown() != 0) ++result.failed;
      w.reset();
    }
    w = make_workload(cfg);
    const std::int64_t start = now_ns();
    w->setup();
    setup_s.push_back(seconds_since(start));
  }
  const double cpu_before = self_cpu_s();
  const measurement m = w->measure(cfg.seconds);
  const double cpu_s = self_cpu_s() - cpu_before + m.child_cpu_s;
  ++result.attempted;
  if (w->shutdown() != 0) ++result.failed;
  result.attempted += m.attempted;
  result.failed += m.failed;
  result.inputs_digest = w->inputs().hex();

  result.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", self_peak_rss_mb() + m.child_rss_mb, "MB"},
      {"ok_ratio",
       ratio(static_cast<double>(result.attempted - result.failed),
             static_cast<double>(result.attempted)),
       "ratio"},
      {"scenarios_per_s", ratio(static_cast<double>(m.scenarios), m.work_s), "1/s"},
      {"cpu_ms_per_scenario", ratio(cpu_s * 1e3, static_cast<double>(m.scenarios)), "ms"},
      {"op_p50_ms", quantile(m.op_ms, 0.5), "ms"},
  };

  // The tail is reported with its sample count but not gated: under
  // hypervisor steal it moves more than any bound allows.
  std::string samples = "{\"ops\": " + std::to_string(m.op_ms.size()) +
                        ", \"op_p90_ms\": " +
                        (m.op_ms.size() >= 100 ? json_number(quantile(m.op_ms, 0.9)) : "null") +
                        ", \"setup_runs\": " + std::to_string(setup_s.size());
  for (const auto& [verb, us] : m.verb_us) {
    samples += ", " + json_string(verb) + ": {\"n\": " + std::to_string(us.size()) +
               ", \"p50_us\": " + json_number(quantile(us, 0.5)) + ", \"p99_us\": " +
               (us.size() >= kP99Samples ? json_number(quantile(us, 0.99)) : "null") + '}';
    std::printf("latency %-10s n=%-7zu p50_us=%-10.2f p99_us=%s\n", verb.c_str(),
                us.size(), quantile(us, 0.5),
                us.size() >= kP99Samples ? json_number(quantile(us, 0.99)).c_str()
                                         : "n/a (fewer than 1000 samples)");
  }
  result.samples = samples + '}';
  std::printf("ops n=%zu p50_ms=%.4f p90_ms=%.4f scenarios=%zu setup_s=[",
              m.op_ms.size(), quantile(m.op_ms, 0.5), quantile(m.op_ms, 0.9),
              m.scenarios);
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(" ]\n");
  return result;
}

run_result run_traced(const run_config& cfg, const std::string& host) {
  run_result result;
  std::unique_ptr<workload> w = make_workload(cfg);
  w->setup();
  result.inputs_digest = w->inputs().hex();

  // The same replay with tracing off and on: their time ratio is the cost
  // of the spans.  Only the traced half's work is counted.  One untimed
  // replay first, so neither half pays for first-touch warm-up.
  std::vector<double> plain_ms, traced_ms;
  replay_counts c, untraced_counts;
  clear_spans();
  result.attempted += 1;
  result.failed += w->replay_op(0, untraced_counts) ? 0 : 1;
  const std::int64_t start = now_ns();
  for (std::uint64_t pair = 0;
       pair < kMaxTracedPairs && (pair == 0 || seconds_since(start) < cfg.seconds);
       ++pair) {
    std::int64_t t0 = now_ns();
    bool ok = w->replay_op(2 * pair + 1, untraced_counts);
    plain_ms.push_back(seconds_since(t0) * 1e3);
    result.attempted += 1;
    result.failed += ok ? 0 : 1;

    set_tracing(true);
    t0 = now_ns();
    ok = w->replay_op(2 * pair + 2, c);
    traced_ms.push_back(seconds_since(t0) * 1e3);
    set_tracing(false);
    result.attempted += 1;
    result.failed += ok ? 0 : 1;
  }
  const std::vector<span_record> spans = collect_spans();
  clear_spans();
  const layer_times times = summarize(spans);

  const std::string trace_path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                                 std::to_string(cfg.seed) + ".trace.json";
  write_chrome_trace(trace_path, spans,
                     "{\"workload\": " + json_string(cfg.workload) +
                         ", \"seed\": " + std::to_string(cfg.seed) +
                         ", \"host\": " + host + '}');
  std::printf("trace_file %s (%zu spans)\n", trace_path.c_str(), spans.size());

  const auto share = [&](const char* layer) {
    const auto it = times.self_ns.find(layer);
    return it == times.self_ns.end() ? 0.0 : ratio(it->second, times.busy_ns);
  };
  const auto total = [&](const char* name) {
    const auto it = times.total_ns.find(name);
    return it == times.total_ns.end() ? 0.0 : it->second;
  };
  const auto count = [](const std::atomic<std::size_t>& v) {
    return static_cast<double>(v.load());
  };
  // Per operation: its wall time and its slowest chunk.
  std::map<std::uint64_t, std::pair<double, double>> per_op;
  double op_ns = 0.0;
  for (const span_record& s : spans) {
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent == 0) {
      op_ns += duration;
      per_op[s.op].first = duration;
    } else if (std::string_view(s.name) == "runner.chunk") {
      per_op[s.op].second = std::max(per_op[s.op].second, duration);
    }
  }
  std::vector<double> slowest_chunk_share;
  for (const auto& [op, wall_and_chunk] : per_op)
    slowest_chunk_share.push_back(ratio(wall_and_chunk.second, wall_and_chunk.first));

  std::vector<metric>& out = result.metrics;
  out = {
      {"core.solve_calls", count(c.solve_calls), "count"},
      {"core.lanes_per_call", ratio(count(c.lanes), count(c.solve_calls)), "count"},
      {"core.busy_share", share("core"), "ratio"},
      {"fit.evals_per_fit", ratio(count(c.fit_evals), count(c.fits)), "count"},
      {"fit.pde_solves_per_fit", ratio(count(c.fit_solves), count(c.fits)), "count"},
      {"fit.hit_ratio", ratio(count(c.fit_hits), count(c.fit_evals)), "ratio"},
      {"calibration.busy_share", ratio(total("calibration.calibrate"), times.busy_ns),
       "ratio"},
      {"calibration.self_share", share("calibration"), "ratio"},
      {"cache.hit_ratio", ratio(count(c.hits), count(c.lookups)), "ratio"},
      {"cache.busy_share", share("cache"), "ratio"},
      {"runner.chunks", count(c.chunks), "count"},
      {"runner.busy_share", share("runner"), "ratio"},
      {"runner.slowest_chunk_share", median(slowest_chunk_share), "ratio"},
      {"pool.busy_ratio",
       ratio(total("runner.chunk"), op_ns * count(c.pool_workers)), "ratio"},
      {"cache_io.busy_share", share("cache_io"), "ratio"},
      {"shard.busy_share", share("shard"), "ratio"},
      {"shard.merge_conflicts", count(c.merge_conflicts), "count"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.op_ms", median(traced_ms), "ms"},
      {"trace.overhead_ratio", ratio(median(traced_ms), median(plain_ms)), "ratio"},
  };

  const std::size_t probe_leaks = run_probe(cfg, w->probe_socket(), out);
  result.attempted += 2;
  if (probe_leaks != 0) ++result.failed;
  if (w->shutdown() != 0) ++result.failed;

  result.samples = "{\"pairs\": " + std::to_string(traced_ms.size()) +
                   ", \"untraced_op_ms\": " + json_number(median(plain_ms)) +
                   ", \"traced_op_ms\": " + json_number(median(traced_ms)) + '}';
  std::printf("pairs=%zu untraced_op_ms=%.4f traced_op_ms=%.4f\n", traced_ms.size(),
              median(plain_ms), median(traced_ms));
  return result;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sweep_solve|sweep_calibrate|serve_mixed|"
               "resume_warm> --seed N --seconds S --trace 0|1 --serve-bin PATH\n"
               "          [--run-dir DIR] [--out-dir DIR] [--commit ID] "
               "[--source-digest HEX] [--corrupt-reference]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  run_config cfg;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      cfg.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--serve-bin") {
      cfg.serve_bin = value;
    } else if (arg == "--run-dir") {
      cfg.run_dir = value;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!make_workload(cfg) || trace < 0 || !(cfg.seconds > 0.0) || cfg.serve_bin.empty())
    return usage(argv[0]);
  cfg.trace = trace == 1;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  if (cfg.run_dir.empty()) cfg.run_dir = ".bench_run/" + std::to_string(::getpid());
  if (cfg.out_dir.empty()) cfg.out_dir = ".bench_out";

  for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGALRM}) ::signal(sig, on_fatal);
  ::signal(SIGPIPE, SIG_IGN);
  ::alarm(kWatchdogSeconds);

  const std::string host = host_block(commit, source_digest);
  run_result result;
  try {
    std::filesystem::create_directories(cfg.run_dir);
    std::filesystem::create_directories(cfg.out_dir);
    result = cfg.trace ? run_traced(cfg, host) : run_untraced(cfg);
  } catch (const std::exception& e) {
    kill_servers_from_signal();
    std::error_code ignored;
    std::filesystem::remove_all(cfg.run_dir, ignored);
    std::fprintf(stderr, "dlm_perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(cfg.run_dir, ignored);

  const bool correct = result.failed == 0;
  const std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(result.attempted) +
                           ", \"failed\": " + std::to_string(result.failed) +
                           ", \"metrics\": " + metrics_json(result.metrics) + '}';
  const std::string result_path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                                  std::to_string(cfg.seed) + "-trace" +
                                  std::to_string(trace) + ".json";
  std::ofstream(result_path) << "{\"workload\": " << json_string(cfg.workload)
                             << ", \"seed\": " << cfg.seed
                             << ", \"seconds\": " << json_number(cfg.seconds)
                             << ", \"trace\": " << trace
                             << ", \"inputs_digest\": " << json_string(result.inputs_digest)
                             << ", \"host\": " << host << ", \"samples\": " << result.samples
                             << ", \"result\": " << line << "}\n";

  std::printf("workload=%s seed=%llu seconds=%g trace=%d inputs_digest=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, trace, result.inputs_digest.c_str());
  std::printf("host %s\n", host.c_str());
  std::printf("result_file %s\n", result_path.c_str());
  std::printf("%s\n", line.c_str());
  return 0;
}
