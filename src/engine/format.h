// Full-precision number formatting shared by the engine's identity
// strings.
//
// Cache-key identity and CSV identity must agree byte for byte (a
// calibrated row's resolved_rate is both recorded in the CSV and folded
// into cache keys), so every engine component formats doubles through
// the one formatter in core/full_precision.h, re-exported here.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/full_precision.h"

namespace dlm::engine {

using core::append_full_precision;
using core::format_full_precision;
using core::join_full_precision;

/// Splits `text` on `sep`, keeping empty pieces — callers reject or
/// preserve them deliberately (spec parsers quote the empty piece in
/// their error, the CSV reader must keep empty fields positional).
[[nodiscard]] inline std::vector<std::string> split_keep_empty(
    std::string_view text, char sep) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t at = text.find(sep, start);
    if (at == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, at - start));
    start = at + 1;
  }
}

}  // namespace dlm::engine
