// The one full-precision formatter (core/full_precision.h) pinned byte
// for byte to printf's %.17g.  Every identity string — cache keys, CSV
// fields, domain and rate labels — was rendered by snprintf before the
// formatter moved to std::to_chars, so any drift would orphan every
// persisted cache entry and break the CSV byte-diffs.

#include "core/full_precision.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace {

using dlm::core::append_full_precision;
using dlm::core::format_full_precision;
using dlm::core::join_full_precision;

std::string printf_17g(double value) {
  char buffer[64];
  const int written = std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return std::string(buffer, static_cast<std::size_t>(written));
}

/// Formats every value both ways; reports the first few mismatches.
std::size_t count_mismatches(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string expected = printf_17g(v);
    const std::string actual = format_full_precision(v);
    if (actual == expected) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": to_chars '" << actual << "' vs printf '" << expected
                    << "'";
  }
  return mismatches;
}

TEST(FullPrecision, EdgeValuesMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 2.5, -2.5,
      // Where %g switches between fixed and exponent notation.
      1e-4, 1e-5, 9.9999999999999991e-05, 1e16, 1e17, 99999999999999984.0,
      123456789012345678.0, 1e21, 1e22, 9007199254740993.0,
      0.050000000000000003, 0.02, 0.025, 0.03,
      // Range limits, subnormals included.
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, denorm, -denorm,
      std::nextafter(DBL_MIN, 0.0), -std::nextafter(DBL_MIN, 0.0),
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0),
      // Non-finite values: both infinities, NaN of both signs and NaNs
      // with payloads.
      inf, -inf, nan, std::copysign(nan, -1.0),
      std::bit_cast<double>(std::uint64_t{0x7FF0000000000001}),
      std::bit_cast<double>(std::uint64_t{0xFFF8000000000001})};
  EXPECT_EQ(count_mismatches(edges), 0u);
}

TEST(FullPrecision, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 bits(0x5EED17);
  std::vector<double> values(1'000'000);
  for (double& v : values) v = std::bit_cast<double>(bits());
  EXPECT_EQ(count_mismatches(values), 0u);
}

TEST(FullPrecision, RandomEverydayMagnitudesMatchPrintf) {
  // Bit patterns rarely land near 1; identity strings mostly do.
  std::mt19937_64 engine(0xCAFE);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-8, 20);
  std::vector<double> values(200'000);
  for (double& v : values) v = std::ldexp(mantissa(engine), exponent(engine));
  EXPECT_EQ(count_mismatches(values), 0u);
}

TEST(FullPrecision, AppendAndJoinExtendTheirTarget) {
  std::string key = "prefix|v=";
  append_full_precision(key, 0.1);
  EXPECT_EQ(key, "prefix|v=" + printf_17g(0.1));

  const std::vector<double> values = {0.1, -0.0, 1e300, 2.0 / 3.0};
  std::string expected;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) expected += ';';
    expected += printf_17g(values[i]);
  }
  EXPECT_EQ(join_full_precision(values, ';'), expected);
  EXPECT_EQ(join_full_precision({}), "");

  std::string joined = "m=";
  append_full_precision(joined, values);
  EXPECT_EQ(joined, "m=" + join_full_precision(values));
}

}  // namespace
