// Batched DL solver: advances a span of solve_requests in lockstep.
//
// Compatible requests — same scheme, grid, dt, record cadence, time
// window and, for implicit_newton, stopping rule — form a group whose W
// lanes share one time loop over the structure-of-arrays
// dl_batch_workspace (u[node*W + lane]).  The per-node inner loops then
// run over W contiguous lanes: the Strang–CN and
// implicit-Newton steps are the shared lane kernels
// (detail::lane_strang_cn, detail::lane_newton_step), whose W interleaved
// Thomas chains overlap their divisions, and the reaction substeps
// vectorize across lanes.  Newton lanes iterate in lockstep until each
// has converged; a converged lane keeps its iterate while the others go
// on.
//
// Bitwise identity with the scalar path is the load-bearing contract
// (engine::solve_cache keys, golden fits and CSV output must not depend
// on how requests are grouped).  It holds because every per-lane
// expression below is the scalar solver's expression with `u[i]` spelled
// `u[i*W + l]`: the shared helpers in dl_solver_internal.h supply the
// propagator and matrix entries, each lane's Crank–Nicolson coefficients
// come from the same num::tridiagonal_factorization the scalar path
// solves with, and the accumulation order inside every loop is kept
// verbatim.  Reordering lanes, changing W, or re-running with a reused
// workspace cannot change a single bit of any lane (solver_batch_test).
//
// Not batched (solved per-request on the scalar path instead): requests
// carrying their own dl_workspace (the caller asked for exactly those
// buffers), non-line domains, and groups of one.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/dl_batch_workspace.h"
#include "core/dl_solver.h"
#include "core/dl_solver_internal.h"
#include "core/dl_workspace.h"
#include "core/rate_field.h"
#include "numerics/grid.h"

namespace dlm::core {
namespace {

/// Everything that must match for two requests to share a lockstep time
/// loop.  The diffusion coefficient d is deliberately absent: lanes with
/// different d share the loop and get per-lane Crank–Nicolson
/// factorizations from the workspace cache (and per-lane Jacobians).
struct group_key {
  dl_scheme scheme = dl_scheme::strang_cn;
  std::size_t n = 0;  ///< grid node count
  double x_min = 0.0;
  double x_max = 0.0;
  double dt = 0.0;
  double record_dt = 0.0;  ///< effective (inf for final_state output)
  double t0 = 0.0;
  double t_end = 0.0;
  int newton_max_iter = 0;  ///< implicit_newton only; 0 for other schemes
  double newton_tol = 0.0;  ///< implicit_newton only; 0 for other schemes

  bool operator==(const group_key&) const = default;
};

group_key key_of(const solve_request& request) {
  request.params->validate();
  const dl_solver_options options = detail::effective_options(request);
  group_key key{options.scheme,
                detail::node_count(*request.params, options),
                request.params->x_min,
                request.params->x_max,
                options.dt,
                options.record_dt,
                request.t0,
                request.t_end};
  if (options.scheme == dl_scheme::implicit_newton) {
    key.newton_max_iter = options.newton_max_iter;
    key.newton_tol = options.newton_tol;
  }
  return key;
}

/// Mirrors the scalar path's workspace_guard for the batch workspace.
class batch_guard {
 public:
  explicit batch_guard(dl_batch_workspace& ws) : ws_(ws) { ws_.in_use = true; }
  ~batch_guard() { ws_.in_use = false; }
  batch_guard(const batch_guard&) = delete;
  batch_guard& operator=(const batch_guard&) = delete;

 private:
  dl_batch_workspace& ws_;
};

/// Advances one group of W ≥ 2 compatible requests in lockstep and fills
/// their slots in `solved`.  `members` lists request indices in original
/// request order (grouping is index-stable).
///
/// WC is the lane count for the specialized widths (the default batch
/// width and its halves) and 0 for the runtime-width fallback; the
/// arithmetic is identical in every instantiation.
template <std::size_t WC>
void solve_group(std::span<const solve_request> requests,
                 const group_key& key, std::span<const std::size_t> members,
                 dl_batch_workspace& bws,
                 std::vector<std::optional<dl_solution>>& solved) {
  const std::size_t W = WC == 0 ? members.size() : WC;
  const std::size_t n = key.n;
  const num::uniform_grid grid(key.x_min, key.x_max, n);
  const double dx = grid.spacing();
  bws.prepare(n, W, key.scheme);
  for (std::size_t i = 0; i < n; ++i) bws.node_x[i] = grid.x(i);

  // Per-lane setup: the scalar path's validation (same exceptions),
  // initial data scattered node-major × lane-minor, rate classification.
  std::vector<double> samples;
  for (std::size_t l = 0; l < W; ++l) {
    const solve_request& request = requests[members[l]];
    const dl_parameters& params = *request.params;
    const dl_solver_options options = detail::effective_options(request);
    if (!(request.t_end > request.t0))
      throw std::invalid_argument("solve_dl: t_end must exceed t0");
    if (!(options.dt > 0.0))
      throw std::invalid_argument("solve_dl: dt must be positive");
    if (key.scheme == dl_scheme::ftcs && params.d > 0.0) {
      const double dt_max = dx * dx / (2.0 * params.d);
      if (options.dt > dt_max)
        throw std::invalid_argument(
            "solve_dl: FTCS unstable for dt > dx^2/(2d) = " +
            std::to_string(dt_max));
    }
    if (request.phi != nullptr) {
      samples = request.phi->sample(params.x_min, params.x_max, n);
      // Same clip as the scalar initial-condition overload: densities are
      // non-negative, cubic interpolants may undershoot between knots.
      for (double& v : samples) v = std::max(v, 0.0);
    } else {
      if (request.phi_samples.empty())
        throw std::invalid_argument(
            "solve_dl: request needs phi or phi_samples");
      if (request.phi_samples.size() != n)
        throw std::invalid_argument(
            "solve_dl_profile: profile size mismatch");
      samples.assign(request.phi_samples.begin(), request.phi_samples.end());
    }
    for (std::size_t i = 0; i < n; ++i) bws.u[i * W + l] = samples[i];

    bws.lane_d[l] = params.d;
    bws.lane_k[l] = params.k;
    const rate_field& rate = params.r;
    bws.lane_factored[l] = rate.separable_form() ? 1 : 0;
    bws.lane_uniform[l] = rate.spatial() ? 0 : 1;
    if (bws.lane_factored[l])
      for (std::size_t i = 0; i < n; ++i)
        bws.mod_rows[l * n + i] = rate.modulation(bws.node_x[i]);
  }

  // Lane-major rate rows: rate_field::profile writes one contiguous span
  // per lane, and separable-form lanes hoist the spatial profile exactly
  // like the scalar path (one base evaluation + n multiplies).
  const auto lane_row = [&](std::vector<double>& rows, std::size_t l) {
    return std::span<double>(rows.data() + l * n, n);
  };
  const auto rates_lane = [&](std::size_t l, double t, std::span<double> out) {
    const rate_field& rate = requests[members[l]].params->r;
    if (bws.lane_factored[l]) {
      const double base = rate.base()(t);
      const double* mod = bws.mod_rows.data() + l * n;
      for (std::size_t i = 0; i < n; ++i) out[i] = mod[i] * base;
    } else {
      rate.profile(t, bws.node_x, out, bws.rate_scratch);
    }
  };
  // The Strang substep's growth factors e^∫r over [from, to]: the scalar
  // rate_sampler::growth_over per lane — one exp per node, or one into
  // out[0] for an x-uniform lane, whose nodes all share it.
  const auto growth_lane = [&](std::size_t l, double from, double to,
                               std::span<double> out) {
    const rate_field& rate = requests[members[l]].params->r;
    if (bws.lane_uniform[l]) {
      out[0] = std::exp(bws.mod_rows[l * n] * rate.base().integral(from, to));
      return;
    }
    if (bws.lane_factored[l]) {
      const double base = rate.base().integral(from, to);
      const double* mod = bws.mod_rows.data() + l * n;
      for (std::size_t i = 0; i < n; ++i) out[i] = mod[i] * base;
    } else {
      rate.integral_profile(from, to, bws.node_x, out, bws.rate_scratch);
    }
    for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(out[i]);
  };

  // Per-lane Crank–Nicolson coefficients: one elimination per distinct
  // λ = d·h/dx² (lanes probing the same d share it), scattered into the
  // SoA arrays the interleaved Thomas sweep reads lane-contiguously.
  const auto build_cn = [&](double h) {
    std::size_t used = 0;
    auto& cache = bws.cn_cache;
    for (std::size_t l = 0; l < W; ++l) {
      const double lambda = bws.lane_d[l] * h / (dx * dx);
      std::size_t e = used;
      for (std::size_t j = 0; j < used; ++j) {
        if (cache[j].lambda == lambda) {
          e = j;
          break;
        }
      }
      if (e == used) {
        if (used == cache.size()) cache.emplace_back();
        dl_batch_workspace::cn_entry& entry = cache[used];
        entry.lambda = lambda;
        entry.rhs_m.resize(n);
        bws.cn_lhs.resize(n);
        detail::build_cn_matrices(n, lambda, bws.cn_lhs, entry.rhs_m);
        entry.factor.factor(bws.cn_lhs);
        ++used;
      }
      const dl_batch_workspace::cn_entry& entry = cache[e];
      for (std::size_t i = 0; i < n; ++i) {
        bws.cn_dm[i * W + l] = entry.rhs_m.diag[i];
        bws.cn_fp[i * W + l] = entry.factor.pivots()[i];
      }
      for (std::size_t i = 0; i + 1 < n; ++i) {
        bws.cn_lm[i * W + l] = entry.rhs_m.lower[i];
        bws.cn_um[i * W + l] = entry.rhs_m.upper[i];
        bws.cn_fl[i * W + l] = entry.factor.lower()[i];
        bws.cn_fc[i * W + l] = entry.factor.c_star()[i];
      }
    }
  };
  if (key.scheme == dl_scheme::strang_cn) build_cn(key.dt);

  // SoA mirror-ghost Laplacian: neumann_laplacian's expressions per lane.
  // (__restrict on the hot-path pointers: the SoA buffers never alias, and
  // telling the compiler so is what lets the W-lane inner loops vectorize.)
  const auto soa_laplacian = [&](const double* __restrict y,
                                 double* __restrict out) {
    const double inv = 1.0 / (dx * dx);
    for (std::size_t l = 0; l < W; ++l)
      out[l] = 2.0 * (y[W + l] - y[l]) * inv;
    for (std::size_t i = 1; i + 1 < n; ++i)
      for (std::size_t l = 0; l < W; ++l)
        out[i * W + l] =
            (y[(i - 1) * W + l] - 2.0 * y[i * W + l] + y[(i + 1) * W + l]) *
            inv;
    for (std::size_t l = 0; l < W; ++l)
      out[(n - 1) * W + l] =
          2.0 * (y[(n - 2) * W + l] - y[(n - 1) * W + l]) * inv;
  };

  const auto step_ftcs = [&](double t, double h) {
    double* __restrict u = bws.u.data();
    double* __restrict lap = bws.lap.data();
    soa_laplacian(u, lap);
    for (std::size_t l = 0; l < W; ++l)
      rates_lane(l, t, lane_row(bws.rt_rows, l));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < W; ++l) {
        const double ui = u[i * W + l];
        u[i * W + l] =
            ui + h * (bws.lane_d[l] * lap[i * W + l] +
                      bws.rt_rows[l * n + i] * ui * (1.0 - ui / bws.lane_k[l]));
      }
  };

  const auto step_strang = [&](double t, double h) {
    double* g1 = bws.growth1.data();
    double* g2 = bws.growth2.data();
    for (std::size_t l = 0; l < W; ++l) {
      growth_lane(l, t, t + 0.5 * h, lane_row(bws.growth1_rows, l));
      growth_lane(l, t + 0.5 * h, t + h, lane_row(bws.growth2_rows, l));
      // An x-uniform lane's one factor, where the lane loops read it
      // contiguously.
      g1[l] = bws.growth1_rows[l * n];
      g2[l] = bws.growth2_rows[l * n];
    }
    // Coefficients were scattered for key.dt; rebuild for a short
    // trailing step (the scalar path does the same).
    if (h != key.dt) build_cn(h);

    // Each lane reads its own scattered Crank–Nicolson coefficients.
    const detail::lane_matrix<detail::lane_rows> m{
        {bws.cn_lm.data(), W}, {bws.cn_dm.data(), W}, {bws.cn_um.data(), W}};
    const detail::lane_factor<detail::lane_rows> f{
        {bws.cn_fl.data(), W}, {bws.cn_fp.data(), W}, {bws.cn_fc.data(), W}};
    const auto fused = [&](auto&& react1, auto&& react2) {
      detail::lane_strang_cn<WC>(n, W, bws.u.data(), bws.rhs.data(),
                                 bws.lane_scratch.data(), m, f, react1, react2);
    };

    bool all_uniform = true;
    for (std::size_t l = 0; l < W; ++l)
      if (!bws.lane_uniform[l]) all_uniform = false;
    const double* kk = bws.lane_k.data();
    if (all_uniform) {
      // Branch-free lane loops for the common all-temporal-rate group.
      fused(
          [&](double v, std::size_t, std::size_t l) {
            return detail::logistic_exact_with_growth(v, g1[l], kk[l]);
          },
          [&](double v, std::size_t, std::size_t l) {
            return detail::logistic_exact_with_growth(v, g2[l], kk[l]);
          });
    } else {
      // Mixed uniformity: each lane selects its shared or per-node factor.
      const std::uint8_t* uniform = bws.lane_uniform.data();
      const double* rows1 = bws.growth1_rows.data();
      const double* rows2 = bws.growth2_rows.data();
      fused(
          [&](double v, std::size_t i, std::size_t l) {
            return detail::logistic_exact_with_growth(
                v, uniform[l] ? g1[l] : rows1[l * n + i], kk[l]);
          },
          [&](double v, std::size_t i, std::size_t l) {
            return detail::logistic_exact_with_growth(
                v, uniform[l] ? g2[l] : rows2[l * n + i], kk[l]);
          });
    }
  };

  // Backward Euler by lockstep Newton: the scalar scheme's rates at
  // t + h, turned node-major for the lane kernel.
  const auto step_newton = [&](double t, double h) {
    for (std::size_t l = 0; l < W; ++l)
      rates_lane(l, t + h, lane_row(bws.rt_rows, l));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < W; ++l)
        bws.rt_nodes[i * W + l] = bws.rt_rows[l * n + i];
    detail::lane_newton_step<WC>(
        n, W, bws.u.data(), bws.u_next.data(), bws.rhs.data(),
        bws.newton_c.data(), bws.lane_scratch.data(), bws.rt_nodes.data(),
        bws.lane_d.data(), bws.lane_k.data(), h, dx, key.newton_tol,
        key.newton_max_iter);
    bws.u.swap(bws.u_next);
  };

  // Method of lines: num::rk4_step's stage expressions element-wise over
  // the SoA state, with the scalar reaction term per lane.
  const auto reaction = [&](double ts, const double* __restrict y,
                            double* __restrict dydt) {
    soa_laplacian(y, dydt);
    for (std::size_t l = 0; l < W; ++l)
      rates_lane(l, ts, lane_row(bws.rt_rows, l));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < W; ++l)
        dydt[i * W + l] =
            bws.lane_d[l] * dydt[i * W + l] +
            bws.rt_rows[l * n + i] * y[i * W + l] *
                (1.0 - y[i * W + l] / bws.lane_k[l]);
  };
  const auto step_rk4 = [&](double t, double h) {
    const std::size_t m = n * W;
    double* __restrict u = bws.u.data();
    double* __restrict u_next = bws.u_next.data();
    double* __restrict k1 = bws.k1.data();
    double* __restrict k2 = bws.k2.data();
    double* __restrict k3 = bws.k3.data();
    double* __restrict k4 = bws.k4.data();
    double* __restrict tmp = bws.tmp.data();
    reaction(t, u, k1);
    for (std::size_t j = 0; j < m; ++j) tmp[j] = u[j] + 0.5 * h * k1[j];
    reaction(t + 0.5 * h, tmp, k2);
    for (std::size_t j = 0; j < m; ++j) tmp[j] = u[j] + 0.5 * h * k2[j];
    reaction(t + 0.5 * h, tmp, k3);
    for (std::size_t j = 0; j < m; ++j) tmp[j] = u[j] + h * k3[j];
    reaction(t + h, tmp, k4);
    for (std::size_t j = 0; j < m; ++j)
      u_next[j] = u[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
    bws.u.swap(bws.u_next);
  };

  // Shared record bookkeeping — the scalar path's, once for all lanes.
  const std::size_t total_steps = static_cast<std::size_t>(
      std::ceil((key.t_end - key.t0) / key.dt - 1e-12));
  std::size_t max_records = total_steps;
  if (key.record_dt > 0.0) {
    const double est = (key.t_end - key.t0) / key.record_dt;
    if (est < static_cast<double>(total_steps))
      max_records = static_cast<std::size_t>(est) + 1;
  }
  std::vector<double> times;
  times.reserve(max_records + 2);
  std::vector<trace_storage> traces;
  traces.reserve(W);
  for (std::size_t l = 0; l < W; ++l) {
    traces.emplace_back(n);
    traces.back().reserve(max_records + 2);
  }
  const auto record = [&]() {
    for (std::size_t l = 0; l < W; ++l) {
      for (std::size_t i = 0; i < n; ++i) bws.row[i] = bws.u[i * W + l];
      traces[l].append_row(bws.row);
    }
  };
  times.push_back(key.t0);
  record();
  double next_record = key.t0 + key.record_dt;

  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = key.t0 + static_cast<double>(step) * key.dt;
    const double h = std::min(key.dt, key.t_end - t);
    if (h <= 0.0) break;
    switch (key.scheme) {
      case dl_scheme::ftcs:
        step_ftcs(t, h);
        break;
      case dl_scheme::strang_cn:
        step_strang(t, h);
        break;
      case dl_scheme::mol_rk4:
        step_rk4(t, h);
        break;
      case dl_scheme::implicit_newton:
        step_newton(t, h);
        break;
    }
    const double t_new = t + h;
    if (t_new + 1e-12 >= next_record || step + 1 == total_steps) {
      times.push_back(t_new);
      record();
      while (next_record <= t_new + 1e-12) next_record += key.record_dt;
    }
  }

  for (std::size_t l = 0; l < W; ++l)
    solved[members[l]] = dl_solution(grid, times, std::move(traces[l]));
}

}  // namespace

std::vector<dl_solution> solve_dl(std::span<const solve_request> requests,
                                  dl_batch_workspace& workspace) {
  const batch_guard guard(workspace);
  std::vector<std::optional<dl_solution>> solved(requests.size());

  // Index-stable grouping: groups form in first-occurrence order and
  // list members in request order, so results (and any exception) never
  // depend on how the caller interleaved compatible requests.
  struct group {
    group_key key;
    std::vector<std::size_t> members;
  };
  std::vector<group> groups;
  std::vector<std::size_t> scalar_lanes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const solve_request& request = requests[i];
    if (request.params == nullptr)
      throw std::invalid_argument("solve_dl: request has no parameters");
    if (request.workspace != nullptr || !request.params->dom.is_line()) {
      // Non-line domains (2-D ADI, coupled communities) have their own
      // stepping loops; they run scalar rather than in SoA lockstep.
      scalar_lanes.push_back(i);
      continue;
    }
    const group_key key = key_of(request);
    const auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const group& g) { return g.key == key; });
    if (it == groups.end())
      groups.push_back({key, {i}});
    else
      it->members.push_back(i);
  }

  for (const group& g : groups) {
    if (g.members.size() == 1) {
      solved[g.members.front()] = detail::solve_request_scalar(
          requests[g.members.front()], workspace.scalar);
      continue;
    }
    detail::dispatch_width<2, 4, 8>(g.members.size(), [&]<std::size_t W>() {
      solve_group<W>(requests, g.key, g.members, workspace, solved);
    });
  }
  for (const std::size_t i : scalar_lanes) {
    const solve_request& request = requests[i];
    solved[i] = detail::solve_request_scalar(
        request,
        request.workspace != nullptr ? *request.workspace : workspace.scalar);
  }

  std::vector<dl_solution> out;
  out.reserve(requests.size());
  for (std::optional<dl_solution>& s : solved) out.push_back(std::move(*s));
  return out;
}

std::vector<dl_solution> solve_dl(std::span<const solve_request> requests) {
  dl_batch_workspace& shared = thread_batch_workspace();
  if (shared.in_use) {
    // Reentrant batched solve (e.g. a custom rate field that itself runs
    // the solver): don't clobber the outer batch's live lanes.
    dl_batch_workspace local;
    return solve_dl(requests, local);
  }
  return solve_dl(requests, shared);
}

}  // namespace dlm::core
