#include "engine/diffusion_model.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace dlm::engine {
namespace {

bool same_axes(const trace_axes& axes, std::span<const int> distances,
               std::span<const double> times) {
  return std::ranges::equal(axes.distances, distances) &&
         std::ranges::equal(axes.times, times, [](double a, double b) {
           return std::bit_cast<std::uint64_t>(a) ==
                  std::bit_cast<std::uint64_t>(b);
         });
}

/// FNV-1a 64 over the axes' values (times by their bits).
std::uint64_t hash_axes(std::span<const int> distances,
                        std::span<const double> times) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  };
  mix(distances.size());
  for (const int d : distances) mix(static_cast<std::uint32_t>(d));
  for (const double t : times) mix(std::bit_cast<std::uint64_t>(t));
  return hash;
}

/// The process-wide intern table of trace axes.  It holds weak
/// references only; when an insert finds the table at its sweep
/// threshold, it first drops the expired ones and doubles the threshold
/// past what is still live, so the table stays O(live axes) however
/// many distinct axes a long-running process sees.
class axes_table {
 public:
  std::shared_ptr<const trace_axes> intern(std::span<const int> distances,
                                           std::span<const double> times) {
    const std::uint64_t hash = hash_axes(distances, times);
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [first, last] = table_.equal_range(hash);
    for (auto it = first; it != last; ++it)
      if (std::shared_ptr<const trace_axes> live = it->second.lock();
          live != nullptr && same_axes(*live, distances, times))
        return live;
    if (table_.size() >= sweep_at_) {
      std::erase_if(table_, [](const auto& entry) {
        return entry.second.expired();
      });
      sweep_at_ = std::max(kMinSweep, 2 * table_.size());
    }
    auto axes = std::make_shared<const trace_axes>(trace_axes{
        {distances.begin(), distances.end()}, {times.begin(), times.end()}});
    table_.emplace(hash, axes);
    return axes;
  }

 private:
  static constexpr std::size_t kMinSweep = 64;

  std::mutex mutex_;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const trace_axes>>
      table_;
  std::size_t sweep_at_ = kMinSweep;
};

std::shared_ptr<const trace_axes> intern_axes(std::span<const int> distances,
                                              std::span<const double> times) {
  static axes_table table;
  return table.intern(distances, times);
}

}  // namespace

model_trace::model_trace(const std::vector<int>& distances,
                         const std::vector<double>& times)
    : axes_(intern_axes(distances, times)),
      values_(distances.size() * times.size(), 0.0) {}

}  // namespace dlm::engine
