#include "engine/solve_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache_io.h"

#include "engine/model_registry.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

model_trace sample_trace(double value) {
  model_trace trace({1, 2}, {2.0, 3.0});
  std::ranges::fill(trace.values(), value);
  trace.effective_dt = 0.02;
  return trace;
}

TEST(SolveCache, TraceStoreAndLookupCountsStats) {
  solve_cache cache;
  EXPECT_EQ(cache.find_trace("k"), nullptr);
  cache.store_trace("k", sample_trace(1.5));
  const std::shared_ptr<const model_trace> hit = cache.find_trace("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->predicted(0)[0], 1.5);
  const cache_stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ValueStoreAndLookup) {
  solve_cache cache;
  EXPECT_FALSE(cache.find_value("v").has_value());
  cache.store_value("v", 42.0);
  const std::optional<double> hit = cache.find_value("v");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 42.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SolveCache, FirstInsertWins) {
  solve_cache cache;
  cache.store_trace("k", sample_trace(1.0));
  cache.store_trace("k", sample_trace(2.0));
  EXPECT_DOUBLE_EQ(cache.find_trace("k")->predicted(0)[0], 1.0);
  cache.store_value("v", 1.0);
  cache.store_value("v", 2.0);
  EXPECT_DOUBLE_EQ(*cache.find_value("v"), 1.0);
}

TEST(SolveCache, UnboundedByDefault) {
  solve_cache cache;
  EXPECT_EQ(cache.max_entries(), 0u);
  for (int i = 0; i < 100; ++i)
    cache.store_value("k" + std::to_string(i), static_cast<double>(i));
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolveCache, LruCapEvictsOldestAndCountsEvictions) {
  solve_cache cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  cache.store_value("a", 1.0);
  cache.store_value("b", 2.0);
  cache.store_value("c", 3.0);  // overflows: "a" is least recently used
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.find_value("a").has_value());
  EXPECT_TRUE(cache.find_value("b").has_value());
  EXPECT_TRUE(cache.find_value("c").has_value());
}

TEST(SolveCache, FindRefreshesRecency) {
  solve_cache cache(2);
  cache.store_value("a", 1.0);
  cache.store_value("b", 2.0);
  EXPECT_TRUE(cache.find_value("a").has_value());  // "a" now most recent
  cache.store_value("c", 3.0);                     // evicts "b", not "a"
  EXPECT_TRUE(cache.find_value("a").has_value());
  EXPECT_FALSE(cache.find_value("b").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SolveCache, CapCountsTracesAndValuesTogether) {
  solve_cache cache(2);
  cache.store_trace("t1", sample_trace(1.0));
  cache.store_value("v1", 1.0);
  cache.store_trace("t2", sample_trace(2.0));  // evicts the "t1" trace
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find_trace("t1"), nullptr);
  EXPECT_TRUE(cache.find_value("v1").has_value());
  EXPECT_NE(cache.find_trace("t2"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.max_entries(), 2u);  // the cap survives clear()
}

TEST(ResolveRateSpec, PresetResolvesPerMetricOthersPassThrough) {
  EXPECT_EQ(
      resolve_rate_spec("preset", social::distance_metric::friendship_hops),
      "paper_hops");
  EXPECT_EQ(
      resolve_rate_spec("preset", social::distance_metric::shared_interests),
      "paper_interest");
  EXPECT_EQ(resolve_rate_spec("paper_hops",
                              social::distance_metric::shared_interests),
            "paper_hops");
  EXPECT_EQ(resolve_rate_spec("decay:1.4,1.5,0.25",
                              social::distance_metric::friendship_hops),
            "decay:1.4,1.5,0.25");
  EXPECT_EQ(resolve_rate_spec("-", social::distance_metric::friendship_hops),
            "-");
}

TEST(ScenarioCacheKey, PresetAndExplicitPaperRateShareOneEntry) {
  dataset_slice slice;
  slice.name = "s1/hops";
  slice.metric = social::distance_metric::friendship_hops;
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");

  scenario preset;
  preset.model = "dl";
  scenario explicit_rate = preset;
  explicit_rate.rate = "paper_hops";
  EXPECT_EQ(scenario_cache_key(preset, slice, *dl),
            scenario_cache_key(explicit_rate, slice, *dl));

  scenario other_rate = preset;
  other_rate.rate = "constant:0.5";
  EXPECT_NE(scenario_cache_key(preset, slice, *dl),
            scenario_cache_key(other_rate, slice, *dl));
}

TEST(ScenarioCacheKey, CollapsesAxesTheModelIgnores) {
  dataset_slice slice;
  slice.name = "s1/hops";
  const std::unique_ptr<diffusion_model> heat =
      default_registry().make("heat");

  // Heat has no scheme, dt or rate axis: those fields must not split the
  // cache.
  scenario a;
  a.model = "heat";
  a.scheme = core::dl_scheme::ftcs;
  a.dt = 0.5;
  a.rate = "constant:0.9";
  scenario b;
  b.model = "heat";
  b.scheme = core::dl_scheme::mol_rk4;
  b.dt = 0.001;
  b.rate = "preset";
  EXPECT_EQ(scenario_cache_key(a, slice, *heat),
            scenario_cache_key(b, slice, *heat));

  // But the grid axis (which heat does consume) must.
  scenario c = a;
  c.points_per_unit = 40;
  EXPECT_NE(scenario_cache_key(a, slice, *heat),
            scenario_cache_key(c, slice, *heat));
}

TEST(ScenarioCacheKey, SameNameDifferentContentNeverAliases) {
  // Sharing one cache across contexts is the documented pattern; a slice
  // *name* reused for different data must still split the cache.
  const auto make_ctx = [](double value) {
    std::vector<std::vector<double>> surface{{value, value + 1.0},
                                             {value, value + 0.5}};
    return scenario_context::from_surface(
        "dup", social::distance_metric::friendship_hops, std::move(surface),
        core::dl_parameters::paper_hops(2.0));
  };
  const scenario_context a = make_ctx(1.0);
  const scenario_context b = make_ctx(2.0);
  const scenario_context same_as_a = make_ctx(1.0);
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");
  scenario sc;
  sc.model = "dl";
  EXPECT_NE(scenario_cache_key(sc, a.slice(0), *dl),
            scenario_cache_key(sc, b.slice(0), *dl));
  EXPECT_EQ(scenario_cache_key(sc, a.slice(0), *dl),
            scenario_cache_key(sc, same_as_a.slice(0), *dl));
}

TEST(ScenarioCacheKey, ParameterOverridesSplitTheKey) {
  dataset_slice slice;
  slice.name = "s1/hops";
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");

  // A calibrated solve (fitted d/K overrides + concrete decay rate) must
  // not collide with a plain scenario using the same resolved rate but
  // the slice's base parameters.
  scenario plain;
  plain.model = "dl";
  plain.rate = "decay:1.4,1.5,0.25";
  scenario fitted = plain;
  fitted.d_override = 0.08;
  fitted.k_override = 21.5;
  EXPECT_NE(scenario_cache_key(plain, slice, *dl),
            scenario_cache_key(fitted, slice, *dl));
  scenario refitted = fitted;
  refitted.k_override = 22.0;
  EXPECT_NE(scenario_cache_key(fitted, slice, *dl),
            scenario_cache_key(refitted, slice, *dl));
}

// ------------------------------------------------------- compact traces

TEST(ModelTrace, EqualAxesShareOneAllocation) {
  const model_trace a({1, 2, 3}, {2.0, 3.0});
  const model_trace b({1, 2, 3}, {2.0, 3.0});
  ASSERT_NE(a.axes(), nullptr);
  EXPECT_EQ(a.axes(), b.axes());
  EXPECT_EQ(a.distances().data(), b.distances().data());
  // A copy shares the axes and owns its values.
  const model_trace copy = a;
  EXPECT_EQ(copy.axes(), a.axes());
  EXPECT_NE(copy.values().data(), a.values().data());
  // Times compare by bits: -0 and +0 are different axes.
  EXPECT_NE(model_trace({1, 2, 3}, {2.0, 4.0}).axes(), a.axes());
  EXPECT_NE(model_trace({0}, {0.0}).axes(), model_trace({0}, {-0.0}).axes());
}

TEST(ModelTrace, TheInternTableKeepsNoAxesAlive) {
  std::weak_ptr<const trace_axes> axes;
  {
    const model_trace trace({7, 8, 9}, {1.5, 2.5});
    axes = trace.axes();
    EXPECT_FALSE(axes.expired());
  }
  EXPECT_TRUE(axes.expired());
}

TEST(ModelTrace, RowsAreViewsIntoOneRowMajorBlock) {
  model_trace trace({1, 2}, {2.0, 3.0, 4.0});
  ASSERT_EQ(trace.values().size(), 6u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      trace.predicted(i)[j] = static_cast<double>(10 * i + j);
  EXPECT_EQ(trace.values()[4], 11.0);  // row 1, column 1
  EXPECT_EQ(trace.predicted(1).data(), trace.values().data() + 3);
  const model_trace empty;
  EXPECT_TRUE(empty.distances().empty());
  EXPECT_TRUE(empty.times().empty());
  EXPECT_TRUE(empty.values().empty());
}

// --------------------------------------------- readers, writers, saves
//
// An uncapped find takes the cache's lock shared, a capped one (and
// every insert) exclusively, and a save walks the live entries under the
// shared lock.  Four readers, two writers and ten saves at once, once
// per lock mode; runs under TSan (ctest -L tsan).

void readers_writers_and_saves(std::size_t max_entries) {
  constexpr std::size_t kWarm = 64;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kMaxPerWriter = 4000;
  const auto warm_key = [](const char* kind, std::size_t i) {
    return std::string("warm/") + kind + "/" + std::to_string(i);
  };
  const auto new_key = [](std::size_t writer, std::size_t n) {
    return "writer" + std::to_string(writer) + "/" + std::to_string(n);
  };

  solve_cache cache(max_entries);
  for (std::size_t i = 0; i < kWarm; ++i) {
    cache.store_trace(warm_key("trace", i),
                      sample_trace(static_cast<double>(i)));
    cache.store_value(warm_key("value", i), static_cast<double>(i));
  }
  ASSERT_EQ(cache.stats().hits + cache.stats().misses, 0u);

  std::array<std::atomic<std::size_t>, kReaders> lookups{};
  std::array<std::atomic<std::size_t>, kWriters> stored{};
  std::atomic<bool> wrong_payload{false};
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < kReaders; ++r)
      threads.emplace_back([&, r](const std::stop_token& stop) {
        std::size_t n = 0;
        for (std::size_t i = r; !stop.stop_requested(); ++i) {
          const std::size_t w = i % kWarm;
          const std::shared_ptr<const model_trace> trace =
              cache.find_trace(warm_key("trace", w));
          const std::optional<double> value =
              cache.find_value(warm_key("value", w));
          const bool absent_found = cache.find_value("absent").has_value();
          n += 3;
          const auto expected = static_cast<double>(w);
          if (trace == nullptr || trace->predicted(0)[0] != expected ||
              value != expected || absent_found)
            wrong_payload.store(true);
        }
        lookups[r].store(n, std::memory_order_release);
      });
    for (std::size_t w = 0; w < kWriters; ++w)
      threads.emplace_back([&, w](const std::stop_token& stop) {
        for (std::size_t n = 0; n < kMaxPerWriter && !stop.stop_requested();
             ++n) {
          if (n % 2 == 0) {
            cache.store_trace(new_key(w, n),
                              sample_trace(static_cast<double>(n)));
          } else {
            cache.store_value(new_key(w, n), static_cast<double>(n));
          }
          stored[w].store(n + 1, std::memory_order_release);
        }
      });
    for (const std::atomic<std::size_t>& count : stored)
      while (count.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    for (int save = 0; save < 10; ++save) {
      std::array<std::size_t, kWriters> before{};
      for (std::size_t w = 0; w < kWriters; ++w)
        before[w] = stored[w].load(std::memory_order_acquire);
      const std::string bytes = serialize_cache(cache);

      solve_cache loaded;
      const cache_load_result result = deserialize_cache(loaded, bytes);
      ASSERT_TRUE(result.loaded) << "save " << save << ": " << result.error;
      EXPECT_GE(result.traces, kWarm) << "save " << save;
      EXPECT_GE(result.values, kWarm) << "save " << save;
      for (std::size_t w = 0; w < kWriters; ++w)
        for (std::size_t n = 0; n < before[w]; ++n) {
          const bool held = n % 2 == 0
                                ? loaded.find_trace(new_key(w, n)) != nullptr
                                : loaded.find_value(new_key(w, n)).has_value();
          ASSERT_TRUE(held) << "save " << save << " lost " << new_key(w, n);
        }
    }
  }  // stop and join every thread

  std::size_t total = 0;
  for (const std::atomic<std::size_t>& n : lookups)
    total += n.load(std::memory_order_acquire);
  EXPECT_GT(total, 0u);
  EXPECT_FALSE(wrong_payload.load());
  const cache_stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.misses, total / 3);  // one absent key per round
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SolveCache, UncappedReadersWritersAndSavesAgree) {
  readers_writers_and_saves(0);
}

TEST(SolveCache, CappedReadersWritersAndSavesAgree) {
  // A cap far above what the test stores: the capped lock mode runs
  // (exclusive finds, recency splices) without evicting any entry the
  // snapshots are checked for.
  readers_writers_and_saves(1u << 20);
}

}  // namespace
