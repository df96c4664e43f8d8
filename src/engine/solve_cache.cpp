#include "engine/solve_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "engine/format.h"

namespace dlm::engine {
namespace {

/// Bitwise double equality — the determinism contract is about bits,
/// and NaN payloads must compare equal to themselves.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(
      a, b, [](double x, double y) { return bits_equal(x, y); });
}

bool traces_bitwise_equal(const model_trace& a, const model_trace& b) {
  // Interned axes: equal content is usually the same allocation.
  const bool same_axes =
      a.axes() == b.axes() ||
      (std::ranges::equal(a.distances(), b.distances()) &&
       bits_equal(a.times(), b.times()));
  return same_axes && a.domain == b.domain &&
         bits_equal(a.effective_dt, b.effective_dt) &&
         bits_equal(a.values(), b.values());
}

bool same_payload(const std::shared_ptr<const model_trace>& a,
                  const std::shared_ptr<const model_trace>& b) {
  return traces_bitwise_equal(*a, *b);
}

bool same_payload(double a, double b) { return bits_equal(a, b); }

void notify(const solve_cache::write_observer& observer,
            const std::string& key,
            const std::shared_ptr<const model_trace>& trace) {
  observer(key, trace.get(), nullptr);
}

void notify(const solve_cache::write_observer& observer,
            const std::string& key, double value) {
  observer(key, nullptr, &value);
}

}  // namespace

void solve_cache::evict_overflow() {
  if (max_entries_ == 0) return;
  while (traces_.size() + values_.size() > max_entries_ && !lru_.empty()) {
    const auto& [kind, key] = lru_.back();
    if (kind == entry_kind::trace) {
      traces_.erase(key);
    } else {
      values_.erase(key);
    }
    lru_.pop_back();
    ++stats_.evictions;
  }
}

template <class Map>
std::optional<typename Map::mapped_type::payload_type> solve_cache::find(
    Map& map, const std::string& key) {
  const auto counted = [this](bool hit) {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
  };
  if (max_entries_ == 0) {  // fixed at construction: no recency to refresh
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = map.find(key);
    if (!counted(it != map.end())) return std::nullopt;
    return it->second.payload;
  }
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  const auto it = map.find(key);
  if (!counted(it != map.end())) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.recency);  // refresh recency
  return it->second.payload;
}

template <class Map, class Payload>
solve_cache::merge_outcome solve_cache::insert(Map& map, entry_kind kind,
                                               std::string key,
                                               Payload payload, bool merging) {
  std::shared_ptr<const write_observer> observer;
  std::string observed_key;
  {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    // try_emplace leaves key and payload untouched when the key exists.
    const auto [it, inserted] =
        map.try_emplace(std::move(key), std::move(payload));
    if (!inserted) {  // first insert wins
      if (!merging || same_payload(it->second.payload, payload))
        return merge_outcome::duplicate;
      ++stats_.merge_conflicts;
      return merge_outcome::conflict;
    }
    if (merging) ++stats_.merged_entries;
    observer = observer_;
    if (observer != nullptr) {
      // Copied while locked: the cap may evict the entry once we unlock.
      observed_key = it->first;
      payload = it->second.payload;
    }
    if (max_entries_ != 0) {
      lru_.emplace_front(kind, it->first);
      it->second.recency = lru_.begin();
      evict_overflow();
    }
  }
  // Outside the lock (see set_write_observer): even an entry the LRU cap
  // evicted immediately is still observed — journaling it is harmless,
  // replay re-applies the cap.
  if (observer != nullptr) notify(*observer, observed_key, payload);
  return merge_outcome::inserted;
}

std::shared_ptr<const model_trace> solve_cache::find_trace(
    const std::string& key) {
  return find(traces_, key).value_or(nullptr);
}

void solve_cache::store_trace(const std::string& key, model_trace trace) {
  import_trace(key, std::make_shared<const model_trace>(std::move(trace)));
}

void solve_cache::import_trace(std::string key,
                               std::shared_ptr<const model_trace> trace) {
  (void)insert(traces_, entry_kind::trace, std::move(key), std::move(trace),
               false);
}

std::optional<double> solve_cache::find_value(const std::string& key) {
  return find(values_, key);
}

void solve_cache::store_value(const std::string& key, double value) {
  import_value(key, value);
}

void solve_cache::import_value(std::string key, double value) {
  (void)insert(values_, entry_kind::value, std::move(key), value, false);
}

solve_cache::sorted_view solve_cache::sorted_entries() const {
  sorted_view view(mutex_);
  view.traces_.reserve(traces_.size());
  for (const auto& [key, entry] : traces_)
    view.traces_.push_back({key, entry.payload.get()});
  view.values_.reserve(values_.size());
  for (const auto& [key, entry] : values_)
    view.values_.push_back({key, entry.payload});
  std::ranges::sort(view.traces_, {}, &trace_ref::key);
  std::ranges::sort(view.values_, {}, &value_ref::key);
  return view;
}

solve_cache::merge_outcome solve_cache::merge_trace(
    std::string key, std::shared_ptr<const model_trace> trace) {
  return insert(traces_, entry_kind::trace, std::move(key), std::move(trace),
                true);
}

solve_cache::merge_outcome solve_cache::merge_value(std::string key,
                                                    double value) {
  return insert(values_, entry_kind::value, std::move(key), value, true);
}

void solve_cache::set_write_observer(write_observer observer) {
  auto shared =
      observer ? std::make_shared<const write_observer>(std::move(observer))
               : std::shared_ptr<const write_observer>();
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  observer_ = std::move(shared);
}

void solve_cache::count_load_rejected() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  ++stats_.load_rejected;
}

cache_stats solve_cache::stats() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  cache_stats out = stats_;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  return out;
}

std::size_t solve_cache::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return traces_.size() + values_.size();
}

void solve_cache::clear() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  traces_.clear();
  values_.clear();
  lru_.clear();
  stats_ = cache_stats{};
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

std::string resolve_rate_spec(const std::string& spec,
                              social::distance_metric metric) {
  const auto resolve_temporal = [metric](const std::string& body) {
    if (body == "preset")
      return metric == social::distance_metric::friendship_hops
                 ? std::string("paper_hops")
                 : std::string("paper_interest");
    return body;
  };
  if (spec.starts_with("spatial:")) {
    // Canonicalize the base so "spatial:preset|..." on a hop slice and
    // "spatial:paper_hops|..." share one cache entry.
    const std::string body = spec.substr(sizeof("spatial:") - 1);
    const std::size_t bar = body.find('|');
    if (bar == std::string::npos) return spec;  // malformed; make_rate throws
    return "spatial:" + resolve_temporal(body.substr(0, bar)) +
           body.substr(bar);
  }
  if (spec.starts_with("per-hop:")) {
    std::string out = "per-hop:";
    std::string body = spec.substr(sizeof("per-hop:") - 1);
    std::size_t start = 0;
    while (true) {
      const std::size_t at = body.find(';', start);
      out += resolve_temporal(body.substr(
          start, at == std::string::npos ? at : at - start));
      if (at == std::string::npos) break;
      out += ';';
      start = at + 1;
    }
    return out;
  }
  return resolve_temporal(spec);
}

std::string scenario_cache_key(const scenario& sc, const dataset_slice& slice,
                               const diffusion_model& model) {
  // Name + content fingerprint: a colliding slice name in another
  // context must not alias this slice's entries.
  std::string key = "slice=";
  key += slice.name;
  key += '#';
  key += std::to_string(slice.fingerprint);
  key += "|model=";
  key += sc.model;
  key += "|scheme=";
  key += model.uses_scheme() ? core::to_string(sc.scheme) : "-";
  key += "|grid=";
  key += model.uses_grid() ? std::to_string(sc.points_per_unit) : "0";
  key += "|dt=";
  if (model.uses_scheme()) {
    append_full_precision(key, sc.dt);
  } else {
    key += '0';
  }
  key += "|rate=";
  key += model.uses_rate() ? resolve_rate_spec(sc.rate, slice.metric) : "-";
  key += "|t0=";
  append_full_precision(key, sc.t0);
  key += "|t_end=";
  append_full_precision(key, sc.t_end);
  key += "|seed=";
  key += std::to_string(sc.seed);
  // The (d, K) overrides: "-" when unset.
  const auto append_override = [&key](const char* name, double value) {
    key += name;
    if (std::isnan(value)) {
      key += '-';
    } else {
      append_full_precision(key, value);
    }
  };
  append_override("|d=", sc.d_override);
  append_override("|k=", sc.k_override);
  // Canonical domain label, appended only for a non-line domain on a
  // domain-capable model — 1-D keys stay byte-identical to every release
  // before the domain axis existed, so persistent caches keep hitting.
  if (model.supports_domain()) {
    const core::domain dom = make_domain(sc.domain);
    if (!dom.is_line()) {
      key += "|domain=";
      key += dom.label();
    }
  }
  return key;
}

}  // namespace dlm::engine
