#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<span_record>>> g_buffers;

struct thread_state {
  std::vector<span_record>* buffer = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t current = 0;
  std::uint64_t op = 0;
};
thread_local thread_state t_state;

std::vector<span_record>& buffer() {
  if (t_state.buffer == nullptr) {
    auto owned = std::make_unique<std::vector<span_record>>();
    owned->reserve(4096);
    t_state.buffer = owned.get();
    t_state.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(owned));
  }
  return *t_state.buffer;
}

void push(const char* name, std::int64_t start, std::int64_t end,
          std::uint64_t id, std::uint64_t parent) {
  std::vector<span_record>& out = buffer();
  out.push_back({name, start, end, id, parent, t_state.op, t_state.tid});
}

std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
std::uint64_t current_span() { return t_state.current; }
std::uint64_t current_op() { return t_state.op; }

span::span(const char* name) : name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.current;
  t_state.current = id_;
  start_ = now_ns();
}

span::~span() {
  if (id_ == 0) return;
  push(name_, start_, now_ns(), id_, parent_);
  t_state.current = parent_;
}

op_span::op_span(const char* name, std::uint64_t op)
    : saved_op_(std::exchange(t_state.op, op)), name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.current;
  t_state.current = id_;
  start_ = now_ns();
}

op_span::~op_span() {
  if (id_ != 0) {
    push(name_, start_, now_ns(), id_, parent_);
    t_state.current = parent_;
  }
  t_state.op = saved_op_;
}

adopt_parent::adopt_parent(std::uint64_t parent, std::uint64_t op)
    : saved_parent_(t_state.current), saved_op_(t_state.op) {
  t_state.current = parent;
  t_state.op = op;
}

adopt_parent::~adopt_parent() {
  t_state.current = saved_parent_;
  t_state.op = saved_op_;
}

void record_span(const char* name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!tracing()) return;
  push(name, start_ns, end_ns, g_next_id.fetch_add(1, std::memory_order_relaxed),
       t_state.current);
}

std::vector<span_record> collect_spans() {
  std::vector<span_record> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buf : g_buffers) all.insert(all.end(), buf->begin(), buf->end());
  std::sort(all.begin(), all.end(), [](const span_record& a, const span_record& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void clear_spans() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buf : g_buffers) buf->clear();
}

layer_times summarize(const std::vector<span_record>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

  layer_times out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const span_record& s : spans) {
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    out.total_ns[s.name] += duration;
    out.durations_ns[s.name].push_back(duration);
    if (s.parent == 0) continue;  // the op root: the benchmark's own frame

    // Union of the children's intervals, clipped to this span.  Children
    // on other threads (pool tasks) may overlap each other.
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end())
      for (const std::size_t c : it->second)
        cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                           std::min(spans[c].end_ns, s.end_ns));
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const double self = duration - static_cast<double>(covered);
    out.self_ns[layer_of(s.name)] += self;
    out.busy_ns += self;
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<span_record>& spans,
                        const std::string& metadata) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr)
    throw std::runtime_error("cannot write trace file '" + path + "'");
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
               metadata.c_str());
  std::fprintf(file, "\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span_record& s = spans[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"op\": %llu}}%s\n",
                 json_escape(s.name).c_str(), json_escape(layer_of(s.name)).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  if (std::fclose(file) != 0)
    throw std::runtime_error("cannot finish trace file '" + path + "'");
}

}  // namespace perfbench
