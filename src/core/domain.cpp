#include "core/domain.h"

#include <cmath>
#include <stdexcept>

#include "core/full_precision.h"

namespace dlm::core {
namespace {

/// The single off-diagonal rate of a uniform K×K mixing matrix, or a
/// negative value when the matrix is not uniform.  Diagonal ignored.
double uniform_mixing_rate(const std::vector<double>& mixing, std::size_t k) {
  double rate = -1.0;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t c2 = 0; c2 < k; ++c2) {
      if (c == c2) continue;
      const double m = mixing[c * k + c2];
      if (rate < 0.0) rate = m;
      if (m != rate) return -1.0;
    }
  }
  return rate;
}

}  // namespace

std::string to_string(domain_kind kind) {
  switch (kind) {
    case domain_kind::line: return "line";
    case domain_kind::grid2d: return "grid2d";
    case domain_kind::communities: return "communities";
  }
  return "unknown";
}

std::size_t domain::blocks(std::size_t points_per_unit) const {
  switch (kind) {
    case domain_kind::line: return 1;
    case domain_kind::grid2d: {
      // Same rounding as the x axis (detail::node_count): intervals per
      // unit distance, so integer interest distances land on nodes.
      const double units = y_max - y_min;
      const auto intervals = static_cast<std::size_t>(
          std::lround(units * static_cast<double>(points_per_unit)));
      if (intervals == 0)
        throw std::invalid_argument("domain: y axis shorter than one cell");
      return intervals + 1;
    }
    case domain_kind::communities: return community_count;
  }
  return 1;
}

bool domain::has_mixing() const noexcept {
  if (kind != domain_kind::communities || mixing.empty()) return false;
  const std::size_t k = community_count;
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t c2 = 0; c2 < k; ++c2)
      if (c != c2 && mixing[c * k + c2] != 0.0) return true;
  return false;
}

std::string domain::label() const {
  switch (kind) {
    case domain_kind::line: return "line";
    case domain_kind::grid2d: {
      // Full precision, so a label embedded in a cache key never depends
      // on locale or stream state.
      std::string out = "grid2d:";
      append_full_precision(out, y_min);
      out += ',';
      append_full_precision(out, y_max);
      return out;
    }
    case domain_kind::communities: {
      std::string out = "comm:" + std::to_string(community_count);
      if (has_mixing()) {
        const double rate = uniform_mixing_rate(mixing, community_count);
        out += "|mix=";
        if (rate >= 0.0) {
          append_full_precision(out, rate);
        } else {
          append_full_precision(out, mixing);
        }
      }
      bool scaled = false;
      for (double s : scales)
        if (s != 1.0) scaled = true;
      if (scaled) {
        out += "|scale=";
        append_full_precision(out, scales);
      }
      return out;
    }
  }
  return "unknown";
}

void domain::validate() const {
  switch (kind) {
    case domain_kind::line: return;
    case domain_kind::grid2d:
      if (!std::isfinite(y_min) || !std::isfinite(y_max))
        throw std::invalid_argument("domain: grid2d bounds must be finite");
      if (!(y_min < y_max))
        throw std::invalid_argument("domain: require y_min < y_max");
      return;
    case domain_kind::communities: {
      const std::size_t k = community_count;
      if (k == 0)
        throw std::invalid_argument("domain: need at least one community");
      if (!mixing.empty()) {
        if (mixing.size() != k * k)
          throw std::invalid_argument(
              "domain: mixing matrix must be K*K (" +
              std::to_string(k * k) + " entries for K=" + std::to_string(k) +
              "), got " + std::to_string(mixing.size()));
        for (double m : mixing)
          if (!std::isfinite(m) || m < 0.0)
            throw std::invalid_argument(
                "domain: mixing rates must be finite and >= 0");
      }
      if (!scales.empty()) {
        if (scales.size() != k)
          throw std::invalid_argument(
              "domain: need one scale per community (K=" + std::to_string(k) +
              "), got " + std::to_string(scales.size()));
        for (double s : scales)
          if (!std::isfinite(s) || s < 0.0)
            throw std::invalid_argument(
                "domain: scales must be finite and >= 0");
      }
      return;
    }
  }
}

domain domain::grid(double y_min, double y_max) {
  domain d;
  d.kind = domain_kind::grid2d;
  d.y_min = y_min;
  d.y_max = y_max;
  d.validate();
  return d;
}

domain domain::coupled(std::size_t k, double mix_rate) {
  domain d;
  d.kind = domain_kind::communities;
  d.community_count = k;
  if (mix_rate != 0.0) {
    d.mixing.assign(k * k, mix_rate);
    for (std::size_t c = 0; c < k; ++c) d.mixing[c * k + c] = 0.0;
  }
  d.validate();
  return d;
}

domain domain::coupled(std::size_t k, std::vector<double> mixing,
                       std::vector<double> scales) {
  domain d;
  d.kind = domain_kind::communities;
  d.community_count = k;
  d.mixing = std::move(mixing);
  d.scales = std::move(scales);
  d.validate();
  return d;
}

}  // namespace dlm::core
