#include "engine/model_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "engine/adapters.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

TEST(ModelRegistry, DefaultRegistryHasAllFiveFamilies) {
  const model_registry& registry = default_registry();
  EXPECT_EQ(registry.size(), 5u);
  const std::vector<std::string> expected{
      "dl", "heat", "logistic", "per_distance_logistic", "si"};
  EXPECT_EQ(registry.names(), expected);  // names() is sorted
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name));
    const std::unique_ptr<diffusion_model> model = registry.make(name);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

TEST(ModelRegistry, UnknownModelThrowsListingKnownNames) {
  const model_registry& registry = default_registry();
  EXPECT_FALSE(registry.contains("sir"));
  try {
    (void)registry.make("sir");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sir"), std::string::npos);
    EXPECT_NE(message.find("dl"), std::string::npos)
        << "error should list registered models";
  }
}

TEST(ModelRegistry, RegisterRejectsBadInput) {
  model_registry registry;
  EXPECT_THROW(registry.register_model("", [] {
    return std::make_unique<dl_adapter>();
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.register_model("dl", nullptr), std::invalid_argument);
  registry.register_model("dl", [] { return std::make_unique<dl_adapter>(); });
  EXPECT_THROW(registry.register_model(
                   "dl", [] { return std::make_unique<dl_adapter>(); }),
               std::invalid_argument);
}

TEST(ModelRegistry, CustomModelExtendsBuiltins) {
  class flat_model final : public diffusion_model {
   public:
    [[nodiscard]] std::string name() const override { return "flat"; }
    [[nodiscard]] model_trace solve(
        const scenario& sc, const dataset_slice& slice) const override {
      std::vector<int> distances;
      for (int x = 1; x <= slice.max_distance; ++x) distances.push_back(x);
      model_trace trace(distances, evaluation_times(sc, slice));
      std::ranges::fill(trace.values(), 1.0);
      return trace;
    }
  };
  model_registry registry;
  register_builtin_models(registry);
  registry.register_model("flat", [] { return std::make_unique<flat_model>(); });
  EXPECT_EQ(registry.size(), 6u);
  EXPECT_EQ(registry.make("flat")->name(), "flat");
}

TEST(ModelRegistry, CapabilityFlags) {
  const model_registry& registry = default_registry();
  const auto dl = registry.make("dl");
  EXPECT_TRUE(dl->uses_scheme());
  EXPECT_TRUE(dl->uses_grid());
  EXPECT_TRUE(dl->uses_rate());
  const auto heat = registry.make("heat");
  EXPECT_FALSE(heat->uses_scheme());
  EXPECT_TRUE(heat->uses_grid());
  EXPECT_FALSE(heat->uses_rate());
  const auto si = registry.make("si");
  EXPECT_FALSE(si->uses_scheme());
  EXPECT_FALSE(si->uses_grid());
  EXPECT_FALSE(si->uses_rate());
}

}  // namespace
