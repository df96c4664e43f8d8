#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/dl_model.h"
#include "trace.h"

namespace perfbench {

std::uint64_t rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

void digest::add(std::string_view text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  hash_ ^= 0xFF;  // record separator: add("ab") != add("a") + add("b")
  hash_ *= 1099511628211ull;
}

std::string digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

dlm::engine::scenario_context make_context(std::uint64_t seed, digest& inputs) {
  rng r(seed ^ 0x5DEECE66Dull);
  const double d = r.uniform(0.03, 0.09);
  const double k = r.uniform(18.0, 28.0);
  std::vector<double> initial(6);
  double level = r.uniform(1.6, 2.4);
  for (double& v : initial) {
    v = level;
    level *= r.uniform(0.45, 0.9);
  }
  std::string text = "surface d=" + fmt(d) + " k=" + fmt(k) + " phi=";
  for (const double v : initial) text += fmt(v) + ',';
  inputs.add(text);
  return surface_context(d, k, initial);
}

dlm::engine::scenario_context surface_context(double d, double k,
                                              const std::vector<double>& initial) {
  using namespace dlm;
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = d;
  truth.k = k;
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

// ------------------------------------------------------------ dl_serve child

namespace {

constexpr std::size_t kMaxServers = 16;
std::atomic<pid_t> g_servers[kMaxServers];

void register_server(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_servers) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
  throw std::runtime_error("too many server processes");
}

void unregister_server(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_servers) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

}  // namespace

void kill_servers_from_signal() {
  for (std::atomic<pid_t>& slot : g_servers) {
    const pid_t pid = slot.exchange(0);
    if (pid <= 0) continue;
    ::kill(-pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

server_process::server_process(const run_config& cfg, std::string socket,
                               std::vector<std::string> extra_args)
    : socket_(std::move(socket)) {
  std::vector<std::string> args = {cfg.serve_bin, "--socket", socket_,
                                   "--test-surface", "--threads",
                                   std::to_string(cfg.threads)};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = socket_ + ".log";

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Own process group, so one kill(-pgid) reaches anything it spawns.
    ::setpgid(0, 0);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);  // also from the parent: no window without a group
  register_server(pid_);

  const std::int64_t start = now_ns();
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      unregister_server(pid_);
      pid_ = -1;
      throw std::runtime_error("dl_serve exited during startup (see " + log + ")");
    }
    try {
      (void)connect(socket_)->request("ping");
      return;
    } catch (const std::exception&) {
      if (seconds_since(start) > 30.0) {
        stop();
        throw std::runtime_error("dl_serve did not come up on " + socket_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

server_process::~server_process() { stop(); }

double server_process::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double server_process::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  const std::string text((std::istreambuf_iterator<char>(stat)),
                         std::istreambuf_iterator<char>());
  const std::size_t name_end = text.rfind(')');
  if (name_end == std::string::npos) return 0.0;
  // Fields after the parenthesized command name: state is field 3,
  // utime and stime are fields 14 and 15 (clock ticks).
  std::istringstream fields(text.substr(name_end + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::size_t server_process::stop() {
  if (pid_ <= 0) return 0;
  ::kill(-pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  unregister_server(pid_);
  // After the leader is reaped, any member still in the group is a
  // process this run left behind.
  const bool leftover = ::kill(-pid_, 0) == 0;
  if (leftover) ::kill(-pid_, SIGKILL);
  pid_ = -1;
  return leftover ? 1 : 0;
}

std::unique_ptr<dlm::engine::service_client> connect(const std::string& socket) {
  auto c = std::make_unique<dlm::engine::service_client>(socket);
  const timeval timeout{30, 0};
  ::setsockopt(c->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(c->fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  return c;
}

std::size_t stat_field(const std::string& reply, const std::string& key) {
  const std::size_t at = reply.find(' ' + key + '=');
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(reply.c_str() + at + key.size() + 2, nullptr, 10));
}

}  // namespace perfbench
