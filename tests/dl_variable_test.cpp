#include "core/dl_variable.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "models/logistic.h"

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

TEST(DlVariable, ConstantCoefficientsMatchPlainSolver) {
  const dl_parameters plain = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution reference =
      solve_dl({.params = &plain, .phi = &phi, .t0 = 1.0, .t_end = 6.0});

  const dl_variable_parameters lifted =
      dl_variable_parameters::from_constant(plain);
  const dl_solution variable = solve_dl_variable(lifted, phi, 1.0, 6.0);

  for (int x = 1; x <= 6; ++x) {
    EXPECT_NEAR(variable.at(x, 6.0), reference.at(x, 6.0),
                0.01 * reference.at(x, 6.0) + 0.01)
        << "x=" << x;
  }
}

TEST(DlVariable, SpatiallyVaryingRateSlowsTargetRegion) {
  // r is halved on the right half of the domain: the right side must grow
  // visibly slower than under the uniform rate.
  dl_variable_parameters params =
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0));
  const growth_rate base = growth_rate::paper_hops();
  params.r = [base](double x, double t) {
    return (x > 3.5 ? 0.5 : 1.0) * base(t);
  };
  const initial_condition phi(observed);
  const dl_solution slowed = solve_dl_variable(params, phi, 1.0, 6.0);

  const dl_solution uniform = solve_dl_variable(
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0)),
      phi, 1.0, 6.0);
  EXPECT_LT(slowed.at(5.0, 6.0), 0.8 * uniform.at(5.0, 6.0));
  // The untouched left side barely changes.
  EXPECT_NEAR(slowed.at(1.0, 6.0), uniform.at(1.0, 6.0),
              0.05 * uniform.at(1.0, 6.0));
}

TEST(DlVariable, SpatiallyVaryingCapacityCapsDensity) {
  dl_variable_parameters params =
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0));
  params.k = [](double x) { return x < 3.0 ? 25.0 : 5.0; };
  const initial_condition phi(observed);
  const dl_solution sol = solve_dl_variable(params, phi, 1.0, 40.0);
  // Right half saturates near its local capacity, not the global 25.
  EXPECT_LT(sol.at(5.0, 40.0), 6.5);
  EXPECT_GT(sol.at(1.0, 40.0), 15.0);
}

TEST(DlVariable, ConservativeFluxConservesMassWithVaryingD) {
  // r = 0, d(x) varying: Neumann boundaries must still conserve the mean.
  dl_variable_parameters params =
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0));
  params.r = [](double, double) { return 0.0; };
  params.d = [](double x) { return 0.01 + 0.05 * (x - 1.0); };
  const initial_condition phi(observed);
  dl_variable_options opts;
  opts.dt = 0.004;  // within the explicit stability limit for max d = 0.26
  const dl_solution sol = solve_dl_variable(params, phi, 1.0, 30.0, opts);

  // The flux-form discretization telescopes: with no-flux boundaries the
  // plain nodal sum is the exactly conserved discrete quantity.
  const auto sum_of = [](std::span<const double> v) {
    double acc = 0.0;
    for (double x : v) acc += x;
    return acc;
  };
  EXPECT_NEAR(sum_of(sol.states().back()), sum_of(sol.states().front()),
              1e-8);
}

TEST(DlVariable, ValidationErrors) {
  dl_variable_parameters params;  // all fields empty
  params.x_min = 1.0;
  params.x_max = 5.0;
  const initial_condition phi(observed);
  EXPECT_THROW((void)solve_dl_variable(params, phi, 1.0, 2.0),
               std::invalid_argument);

  dl_variable_parameters bad_k =
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0));
  bad_k.k = [](double) { return -1.0; };
  EXPECT_THROW((void)solve_dl_variable(bad_k, phi, 1.0, 2.0),
               std::invalid_argument);

  dl_variable_parameters bad_domain =
      dl_variable_parameters::from_constant(dl_parameters::paper_hops(6.0));
  bad_domain.x_min = 9.0;
  EXPECT_THROW(bad_domain.validate(), std::invalid_argument);
}

TEST(FitRateProfile, RecoversKnownMultipliers) {
  // Generate per-distance growth with known multipliers via the exact
  // logistic propagator, then recover them.
  const growth_rate base = growth_rate::paper_hops();
  const double k = 25.0;
  const std::vector<double> truth{1.0, 0.9, 1.1, 0.5};
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6};
  std::vector<double> at_t4(4);
  for (std::size_t i = 0; i < 4; ++i) {
    at_t4[i] = dlm::models::logistic_step(
        initial[i], truth[i] * base.integral(1.0, 4.0), k);
  }
  const std::vector<double> fitted =
      fit_rate_profile(initial, at_t4, base, k, 1.0, 4.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(fitted[i], truth[i], 0.08) << "distance " << i + 1;
}

TEST(FitRateProfile, DegenerateObservationsDefaultToUnity) {
  const growth_rate base = growth_rate::paper_hops();
  const std::vector<double> initial{0.0, 2.0};
  const std::vector<double> later{1.0, 1.5};  // no growth for index 1
  const std::vector<double> fitted =
      fit_rate_profile(initial, later, base, 25.0, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(fitted[0], 1.0);
  EXPECT_DOUBLE_EQ(fitted[1], 1.0);
}

TEST(ScaledRateField, InterpolatesMultipliers) {
  const auto field = scaled_rate_field({1.0, 2.0, 4.0},
                                       growth_rate::constant(0.5), 1.0);
  EXPECT_DOUBLE_EQ(field(1.0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(field(2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(field(1.5, 0.0), 0.75);
  EXPECT_DOUBLE_EQ(field(3.0, 0.0), 2.0);
  // Clamped beyond the profile.
  EXPECT_DOUBLE_EQ(field(9.0, 0.0), 2.0);
  EXPECT_THROW((void)scaled_rate_field({}, growth_rate::constant(0.5), 1.0),
               std::invalid_argument);
}

}  // namespace
