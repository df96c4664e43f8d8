// Full-precision decimal rendering of doubles: the one %.17g formatter
// behind every identity string — domain and rate labels, cache keys and
// CSV fields.
//
// Cache-key identity and CSV identity must agree byte for byte (a
// calibrated row's resolved_rate is both recorded in the CSV and folded
// into cache keys, and a domain label rides in every non-line key), so
// core and engine format through these helpers only.  std::to_chars with
// chars_format::general and precision 17 is specified as printf's %.17g
// in the "C" locale: the same bytes as snprintf, without its format
// parsing or locale lookup, appended straight into the string being
// built (tests/full_precision_test.cpp pins the equivalence).
#pragma once

#include <charconv>
#include <cstddef>
#include <span>
#include <string>

namespace dlm::core {

/// Appends `value` as %.17g — the shortest decimal form guaranteed to
/// round-trip a double exactly through from_chars.
inline void append_full_precision(std::string& out, double value) {
  // The longest %.17g rendering is 24 characters, e.g.
  // "-2.2250738585072014e-308".
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

/// Appends the values as %.17g, separated by `sep`.
inline void append_full_precision(std::string& out,
                                  std::span<const double> values,
                                  char sep = ',') {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += sep;
    append_full_precision(out, values[i]);
  }
}

[[nodiscard]] inline std::string format_full_precision(double value) {
  std::string out;
  append_full_precision(out, value);
  return out;
}

/// Separator-joined full-precision values: the fit_m CSV field, the
/// multiplier list of a resolved "spatial:..." spec and the list fields
/// of a domain label share this form.
[[nodiscard]] inline std::string join_full_precision(
    std::span<const double> values, char sep = ',') {
  std::string out;
  append_full_precision(out, values, sep);
  return out;
}

}  // namespace dlm::core
