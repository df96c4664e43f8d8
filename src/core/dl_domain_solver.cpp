// Non-line domain solvers for the Diffusive Logistic equation.
//
// detail::solve_profile dispatches here for the two non-line domain kinds
// (core/domain.h); the 1-D line keeps its original stepping loops in
// dl_solver.cpp, untouched.
//
//  * grid2d — u(x, y, t) with ∂u/∂t = d(u_xx + u_yy) + r(x, t)u(1 − u/K)
//    and no-flux boundaries on all four edges, advanced by Strang
//    splitting around a Peaceman–Rachford ADI diffusion step:
//        reaction half-step (exact logistic, growth factor per x node)
//        (I − (λx/2)Ax) u*      = (I + (λy/2)Ay) uⁿ    — tridiagonal in x
//        (I − (λy/2)Ay) u^{n+1} = (I + (λx/2)Ax) u*    — tridiagonal in y
//        reaction half-step
//    Both one-axis operators reuse detail::build_cn_matrices and a cached
//    num::tridiagonal_factorization per axis, so each step is two calls
//    of the lane kernel (detail::lane_thomas): ny row lanes for the x
//    solve, nx column lanes for the y solve — no 2-D solve anywhere.
//
//  * communities — K coupled copies of the 1-D line, advanced together as
//    the K lanes of the fused Strang–CN lane kernel
//    (detail::lane_strang_cn: per lane the scalar solver's operation
//    sequence, so a K = 1 run is *bitwise identical* to the plain line),
//    followed by an explicit-Euler cross-community mixing substep that is
//    skipped entirely when K = 1 or the mixing matrix is zero — which is
//    what makes the K = 1 identity exact rather than approximate.
//
// Only dl_scheme::strang_cn is supported on non-line domains; other
// schemes are rejected with the domain's label in the message.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/dl_solver.h"
#include "core/dl_solver_internal.h"
#include "core/dl_workspace.h"
#include "numerics/grid.h"
#include "numerics/tridiagonal.h"

namespace dlm::core::detail {
namespace {

void require_strang(const dl_parameters& params,
                    const dl_solver_options& options) {
  if (options.scheme != dl_scheme::strang_cn)
    throw std::invalid_argument("solve_dl: domain '" + params.dom.label() +
                                "' supports only the strang-cn scheme (got " +
                                to_string(options.scheme) + ")");
}

}  // namespace

std::vector<double> broadcast_profile(const dl_parameters& params,
                                      std::span<const double> x_profile,
                                      const dl_solver_options& options) {
  const domain& dom = params.dom;
  const std::size_t nx = x_profile.size();
  const std::size_t blocks = dom.blocks(options.points_per_unit);
  std::vector<double> full(nx * blocks);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const double scale = (dom.kind == domain_kind::communities &&
                          !dom.scales.empty())
                             ? dom.scales[blk]
                             : 1.0;
    for (std::size_t i = 0; i < nx; ++i)
      full[blk * nx + i] = x_profile[i] * scale;
  }
  return full;
}

dl_solution solve_dl_grid2d(const dl_parameters& params,
                            std::span<const double> phi_samples, double t0,
                            double t_end, const dl_solver_options& options,
                            dl_workspace& ws) {
  require_strang(params, options);
  const std::size_t nx = node_count(params, options);
  const std::size_t ny = params.dom.blocks(options.points_per_unit);
  const std::size_t n = nx * ny;
  if (phi_samples.size() != n)
    throw std::invalid_argument("solve_dl_profile: profile size mismatch");

  const num::uniform_grid grid(params.x_min, params.x_max, nx);
  const num::uniform_grid y_grid(params.dom.y_min, params.dom.y_max, ny);
  const double dx = grid.spacing();
  const double dy = y_grid.spacing();

  const workspace_guard guard(ws.in_use);
  ws.prepare(n);
  ws.lane_scratch.resize(std::max(nx, ny));
  std::vector<double>& u = ws.u;
  std::vector<double>& u_star = ws.u_next;  ///< ADI intermediate u*
  std::vector<double>& y_rhs = ws.rhs;      ///< pass-2 rhs, solved in place
  u.assign(phi_samples.begin(), phi_samples.end());

  // The growth rate lives on the x axis (r(x, t), uniform in y), so rate
  // buffers span nx nodes, not n: one growth factor per x node and
  // substep, shared by all ny rows.
  for (std::size_t i = 0; i < nx; ++i) ws.node_x[i] = grid.x(i);
  const rate_sampler sampler(
      params.r, std::span<const double>(ws.node_x.data(), nx),
      std::span<double>(ws.mod.data(), nx), ws.rate_scratch);
  const std::span<double> g1(ws.growth1.data(), nx);
  const std::span<double> g2(ws.growth2.data(), nx);

  // One tridiagonal operator pair per axis; both LHS factorizations are
  // cached for the whole run (rebuilt only for a short trailing step).
  const auto build_operators = [&](double h) {
    ws.cn_lhs.resize(nx);
    ws.cn_rhs.resize(nx);
    build_cn_matrices(nx, params.d * h / (dx * dx), ws.cn_lhs, ws.cn_rhs);
    ws.cn_factor.factor(ws.cn_lhs);
    ws.cn_lhs_y.resize(ny);
    ws.cn_rhs_y.resize(ny);
    build_cn_matrices(ny, params.d * h / (dy * dy), ws.cn_lhs_y, ws.cn_rhs_y);
    ws.cn_factor_y.factor(ws.cn_lhs_y);
  };
  build_operators(options.dt);

  const double kk = params.k;
  /// Exact-logistic reaction half-step of one grid row, `in` → `out`:
  /// growth[i] is x node i's growth factor, or growth[0] every node's when
  /// the rate is uniform in x.
  const auto react_row = [&](const double* growth, const double* in,
                             double* out) {
    if (sampler.uniform()) {
      const double g = growth[0];
      for (std::size_t i = 0; i < nx; ++i)
        out[i] = logistic_exact_with_growth(in[i], g, kk);
    } else {
      for (std::size_t i = 0; i < nx; ++i)
        out[i] = logistic_exact_with_growth(in[i], growth[i], kk);
    }
  };

  const std::size_t total_steps = static_cast<std::size_t>(
      std::ceil((t_end - t0) / options.dt - 1e-12));
  recorder rec(total_steps, t0, t_end, options, u);

  const num::tridiagonal_matrix& ax = ws.cn_rhs;    // I + (λx/2)Ax
  const num::tridiagonal_matrix& ay = ws.cn_rhs_y;  // I + (λy/2)Ay
  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = t0 + static_cast<double>(step) * options.dt;
    const double h = std::min(options.dt, t_end - t);
    if (h <= 0.0) break;
    if (h != options.dt) build_operators(h);

    sampler.growth_over(t, t + 0.5 * h, g1);
    sampler.growth_over(t + 0.5 * h, t + h, g2);
    for (std::size_t j = 0; j < ny; ++j)
      react_row(g1.data(), u.data() + j * nx, u.data() + j * nx);

    // ADI pass 1: explicit y operator row by row, then every row's
    // implicit x solve at once — ny lanes sharing cn_factor, read through
    // a strided lane view (lane j, node i at u*[j·nx + i]).
    for (std::size_t j = 0; j < ny; ++j) {
      const double* row = u.data() + j * nx;
      const double* below = j > 0 ? row - nx : nullptr;
      const double* above = j + 1 < ny ? row + nx : nullptr;
      double* out = u_star.data() + j * nx;
      for (std::size_t i = 0; i < nx; ++i) {
        double acc = ay.diag[j] * row[i];
        if (below != nullptr) acc += ay.lower[j - 1] * below[i];
        if (above != nullptr) acc += ay.upper[j] * above[i];
        out[i] = acc;
      }
    }
    lane_thomas<0>(nx, ny, u_star.data(), 1, nx, ws.lane_scratch.data(),
                   shared_factor(ws.cn_factor), rhs_in_place,
                   [&](std::size_t i, const double* w) {
                     for (std::size_t j = 0; j < ny; ++j)
                       u_star[j * nx + i] = w[j];
                   });

    // ADI pass 2: explicit x operator row by row, then the implicit y
    // solve over the nx columns (lane-contiguous in row-major storage),
    // with the second reaction half-step applied to each finished row.
    for (std::size_t j = 0; j < ny; ++j)
      ax.multiply_into({u_star.data() + j * nx, nx},
                       {y_rhs.data() + j * nx, nx});
    lane_thomas<0>(ny, nx, y_rhs.data(), nx, 1, ws.lane_scratch.data(),
                   shared_factor(ws.cn_factor_y), rhs_in_place,
                   [&](std::size_t j, const double* w) {
                     react_row(g2.data(), w, u.data() + j * nx);
                   });

    if (rec.due(t + h, step + 1 == total_steps)) rec.append(t + h, u);
  }

  return dl_solution(grid, std::move(rec.times), std::move(rec.trace), ny);
}

dl_solution solve_dl_communities(const dl_parameters& params,
                                 std::span<const double> phi_samples,
                                 double t0, double t_end,
                                 const dl_solver_options& options,
                                 dl_workspace& ws) {
  require_strang(params, options);
  const std::size_t nx = node_count(params, options);
  const std::size_t kc = params.dom.community_count;
  const std::size_t n = nx * kc;
  if (phi_samples.size() != n)
    throw std::invalid_argument("solve_dl_profile: profile size mismatch");

  const num::uniform_grid grid(params.x_min, params.x_max, nx);
  const double dx = grid.spacing();

  const workspace_guard guard(ws.in_use);
  ws.prepare(n);
  ws.lane_scratch.resize(4 * kc);
  // Node-major state u[i·K + c]: node i's K communities are the K lanes of
  // one interleaved Strang–CN sweep.  Mixing and records use the domain's
  // community-major layout (c·nx + i).
  std::vector<double>& u = ws.u;
  std::vector<double>& pre_mix = ws.u_next;
  std::vector<double>& mixed = ws.lap;
  for (std::size_t c = 0; c < kc; ++c)
    for (std::size_t i = 0; i < nx; ++i) u[i * kc + c] = phi_samples[c * nx + i];

  // One growth factor per node and substep, shared by its K lanes.
  for (std::size_t i = 0; i < nx; ++i) ws.node_x[i] = grid.x(i);
  const rate_sampler sampler(
      params.r, std::span<const double>(ws.node_x.data(), nx),
      std::span<double>(ws.mod.data(), nx), ws.rate_scratch);
  const std::span<double> g1(ws.growth1.data(), nx);
  const std::span<double> g2(ws.growth2.data(), nx);

  // One nx-sized Strang–CN operator shared by every community (same d,
  // dx, dt).  For K = 1 this is exactly the line path's matrix build.
  const auto build_operators = [&](double h) {
    ws.cn_lhs.resize(nx);
    ws.cn_rhs.resize(nx);
    build_cn_matrices(nx, params.d * h / (dx * dx), ws.cn_lhs, ws.cn_rhs);
    ws.cn_factor.factor(ws.cn_lhs);
  };
  build_operators(options.dt);

  // The mixing substep is skipped when it cannot change anything — this
  // is what makes a K = 1 run bitwise identical to the plain 1-D line.
  const bool mixing_on = kc > 1 && params.dom.has_mixing();
  const std::vector<double>& mix = params.dom.mixing;

  const std::size_t total_steps = static_cast<std::size_t>(
      std::ceil((t_end - t0) / options.dt - 1e-12));
  recorder rec(total_steps, t0, t_end, options, phi_samples);
  const auto to_community_major = [&](std::vector<double>& out) {
    for (std::size_t c = 0; c < kc; ++c)
      for (std::size_t i = 0; i < nx; ++i) out[c * nx + i] = u[i * kc + c];
  };

  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = t0 + static_cast<double>(step) * options.dt;
    const double h = std::min(options.dt, t_end - t);
    if (h <= 0.0) break;
    if (h != options.dt) build_operators(h);

    sampler.growth_over(t, t + 0.5 * h, g1);
    sampler.growth_over(t + 0.5 * h, t + h, g2);
    dispatch_width<1, 2, 3, 4, 8>(kc, [&]<std::size_t KC>() {
      lane_strang_step<KC>(nx, kc, u.data(), ws.rhs.data(),
                           ws.lane_scratch.data(), ws.cn_rhs, ws.cn_factor,
                           sampler.uniform(), g1.data(), g2.data(), params.k);
    });

    if (mixing_on) {
      // Explicit-Euler exchange against the pre-mixing state, so the
      // update is symmetric in community order (and deterministic).  It
      // runs on community-major copies, where each pair's update is one
      // contiguous loop.
      to_community_major(pre_mix);
      std::copy(pre_mix.begin(), pre_mix.end(), mixed.begin());
      for (std::size_t c = 0; c < kc; ++c) {
        double* dst = mixed.data() + c * nx;
        const double* own = pre_mix.data() + c * nx;
        for (std::size_t c2 = 0; c2 < kc; ++c2) {
          if (c2 == c) continue;
          const double rate = mix[c * kc + c2];
          if (rate == 0.0) continue;
          const double* other = pre_mix.data() + c2 * nx;
          for (std::size_t i = 0; i < nx; ++i)
            dst[i] += h * rate * (other[i] - own[i]);
        }
      }
      for (std::size_t c = 0; c < kc; ++c)
        for (std::size_t i = 0; i < nx; ++i) u[i * kc + c] = mixed[c * nx + i];
    }

    if (rec.due(t + h, step + 1 == total_steps)) {
      to_community_major(mixed);
      rec.append(t + h, mixed);
    }
  }

  return dl_solution(grid, std::move(rec.times), std::move(rec.trace), kc);
}

}  // namespace dlm::core::detail
