// Shared internals of the scalar, batched and domain DL solvers.
//
// The batched SoA solver (dl_batch_solver.cpp) must be *bitwise identical*
// per lane to the scalar path (dl_solver.cpp), and the coupled-community
// domain solver (dl_domain_solver.cpp) must be bitwise identical to the
// plain 1-D line at K = 1: every per-node expression — the exact logistic
// propagator, the Crank–Nicolson matrix entries, the lane kernel's fused
// Strang–CN sweep and Newton step, the per-node rate evaluation, the
// node-count rounding — has to be the same IEEE operation sequence in
// every translation unit.
// Keeping them as shared inline helpers makes that a structural property
// instead of a copy-paste invariant.
//
// Not part of the public API: include only from src/core solver sources
// (and white-box tests).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dl_parameters.h"
#include "core/dl_solver.h"
#include "numerics/tridiagonal.h"

namespace dlm::core {

struct dl_workspace;

namespace detail {

/// Request options with the output mode folded in (final_state becomes an
/// infinite record_dt).  Defined in dl_solver.cpp.
[[nodiscard]] dl_solver_options effective_options(const solve_request& request);

/// Solves one request on the scalar path with the given workspace —
/// exactly what solve_dl(request) does after choosing scratch, and what
/// the batched solver uses for its non-batchable lanes.
[[nodiscard]] dl_solution solve_request_scalar(const solve_request& request,
                                               dl_workspace& ws);

/// The scalar solver proper: every scheme on the line, dispatching the
/// non-line domains to their solvers below.  `phi_samples` is the full
/// initial state on the domain's grid.  Defined in dl_solver.cpp.
[[nodiscard]] dl_solution solve_profile(const dl_parameters& params,
                                        std::span<const double> phi_samples,
                                        double t0, double t_end,
                                        const dl_solver_options& options,
                                        dl_workspace& ws);

/// Exact logistic propagator: N ← K·N·g / (K + N·(g − 1)) where g = e^R is
/// the growth factor of the integrated rate R over the step.  Maps [0, K]
/// into [0, K] for R ≥ 0.  Callers exponentiate once per node and substep
/// (rate_sampler::growth_over) and share g with every lane reading that
/// node, so no lane loop calls exp.  Spelled as a select rather than an
/// early return so the W-lane loops stay if-convertible (and therefore
/// vectorizable); for n ≤ 0 the speculative IEEE division is well-defined
/// and discarded.
inline double logistic_exact_with_growth(double n, double growth, double k) {
  const double propagated = k * n * growth / (k + n * (growth - 1.0));
  return n <= 0.0 ? n : propagated;
}

/// Grid node count implied by the domain and resolution.
inline std::size_t node_count(const dl_parameters& params,
                              const dl_solver_options& options) {
  const double units = params.x_max - params.x_min;
  const auto intervals = static_cast<std::size_t>(
      std::lround(units * static_cast<double>(options.points_per_unit)));
  if (intervals == 0)
    throw std::invalid_argument("dl_solver: domain shorter than one cell");
  return intervals + 1;
}

/// CN diffusion matrices: lhs = I − (λ/2)A, rhs-matrix = I + (λ/2)A with
/// the mirror-ghost Neumann Laplacian A (dx² folded into λ).
inline void build_cn_matrices(std::size_t n, double lambda,
                              num::tridiagonal_matrix& lhs,
                              num::tridiagonal_matrix& rhs) {
  for (std::size_t i = 0; i < n; ++i) {
    double off_l = 1.0, off_r = 1.0;
    if (i == 0) off_r = 2.0;
    if (i + 1 == n) off_l = 2.0;
    lhs.diag[i] = 1.0 + lambda;
    rhs.diag[i] = 1.0 - lambda;
    if (i + 1 < n) {
      lhs.upper[i] = -0.5 * lambda * off_r;
      rhs.upper[i] = 0.5 * lambda * off_r;
    }
    if (i > 0) {
      lhs.lower[i - 1] = -0.5 * lambda * off_l;
      rhs.lower[i - 1] = 0.5 * lambda * off_l;
    }
  }
}

/// Marks a workspace busy for the duration of a solve, so the
/// thread-local wrapper can detect reentrancy and fall back to a private
/// workspace instead of clobbering live buffers.
class workspace_guard {
 public:
  explicit workspace_guard(bool& in_use) : in_use_(in_use) { in_use_ = true; }
  ~workspace_guard() { in_use_ = false; }
  workspace_guard(const workspace_guard&) = delete;
  workspace_guard& operator=(const workspace_guard&) = delete;

 private:
  bool& in_use_;
};

/// Per-node growth-rate evaluation with the separable-form hoist.  The
/// scalar solver's time loop and the domain solvers all sample r(x_i, t)
/// and ∫ r(x_i, s) ds through this one struct, so a K = 1 community run
/// evaluates exactly the operation sequence of the plain 1-D path.
class rate_sampler {
 public:
  /// `node_x` are the x coordinates to sample at; `mod` is caller scratch
  /// of the same size (the hoisted spatial profile m(x_i) of a
  /// separable-form field); `scratch` backs the per-group family's table.
  rate_sampler(const rate_field& rate, std::span<const double> node_x,
               std::span<double> mod, std::vector<double>& scratch)
      : rate_(rate),
        node_x_(node_x),
        mod_(mod),
        scratch_(scratch),
        factored_(rate.separable_form()),
        uniform_(!rate.spatial()) {
    if (factored_) {
      for (std::size_t i = 0; i < node_x_.size(); ++i)
        mod_[i] = rate_.modulation(node_x_[i]);
    }
  }

  /// True when every node shares one rate (the temporal family), so the
  /// Strang logistic substep computes a single exp per substep.
  [[nodiscard]] bool uniform() const noexcept { return uniform_; }

  /// r(x_i, t) for every node into `out`.
  void rates_at(double t, std::span<double> out) const {
    if (factored_) {
      const double base = rate_.base()(t);
      for (std::size_t i = 0; i < node_x_.size(); ++i) out[i] = mod_[i] * base;
    } else {
      rate_.profile(t, node_x_, out, scratch_);
    }
  }

  /// The Strang logistic substep's growth factors e^{∫ r(x_i, s) ds} over
  /// [from, to]: one exp per node into `out`, or, when the rate is uniform
  /// in x, one exp into out[0], which every node shares.
  void growth_over(double from, double to, std::span<double> out) const {
    if (uniform_) {
      out[0] = std::exp(mod_[0] * rate_.base().integral(from, to));
      return;
    }
    if (factored_) {
      const double base = rate_.base().integral(from, to);
      for (std::size_t i = 0; i < node_x_.size(); ++i) out[i] = mod_[i] * base;
    } else {
      rate_.integral_profile(from, to, node_x_, out, scratch_);
    }
    for (std::size_t i = 0; i < node_x_.size(); ++i) out[i] = std::exp(out[i]);
  }

 private:
  const rate_field& rate_;
  std::span<const double> node_x_;
  std::span<double> mod_;
  std::vector<double>& scratch_;
  bool factored_ = false;
  bool uniform_ = false;
};

/// Snapshot recording shared by the solvers: the initial row at t0, then
/// a row whenever a step crosses the next record_dt multiple (and after
/// the last step), into buffers reserved for the exact record count.
struct recorder {
  std::vector<double> times;
  trace_storage trace;
  double next_record;
  double record_dt;

  recorder(std::size_t total_steps, double t0, double t_end,
           const dl_solver_options& options, std::span<const double> initial)
      : trace(initial.size()),
        next_record(t0 + options.record_dt),
        record_dt(options.record_dt) {
    std::size_t max_records = total_steps;
    if (options.record_dt > 0.0) {
      const double est = (t_end - t0) / options.record_dt;
      if (est < static_cast<double>(total_steps))
        max_records = static_cast<std::size_t>(est) + 1;
    }
    times.reserve(max_records + 2);
    trace.reserve(max_records + 2);
    times.push_back(t0);
    trace.append_row(initial);
  }

  /// True when the step ending at t_new must be recorded.
  [[nodiscard]] bool due(double t_new, bool last_step) const {
    return t_new + 1e-12 >= next_record || last_step;
  }
  void append(double t_new, std::span<const double> state) {
    times.push_back(t_new);
    trace.append_row(state);
    while (next_record <= t_new + 1e-12) next_record += record_dt;
  }
};

// The lane kernel: W independent tridiagonal solves advanced node by node
// with the lanes innermost, so their serial division chains overlap (and,
// for contiguous lanes, vectorize).  It runs the line (W = 1), the batch
// (W requests), both ADI passes (one lane per grid line) and the K
// communities; its Newton step runs the line's and the batch's
// implicit_newton lanes.

/// Row i of a coefficient array as node i's lanes read it: one value for
/// every lane (`shared_rows`: a matrix or factorization serving the whole
/// batch) or per-lane values scattered at [i·width + l] (`lane_rows`).
struct shared_rows {
  const double* p;
  [[nodiscard]] double row(std::size_t i) const { return p[i]; }
};
struct lane_rows {
  const double* p;
  std::size_t width;
  [[nodiscard]] const double* row(std::size_t i) const { return p + i * width; }
};
inline double lane_value(double shared, std::size_t) { return shared; }
inline double lane_value(const double* lanes, std::size_t l) { return lanes[l]; }

/// A Thomas factorization (tridiagonal_factorization's three arrays) and a
/// tridiagonal matrix, seen through row views.
template <class Rows>
struct lane_factor {
  Rows lower, pivot, c_star;
};
template <class Rows>
struct lane_matrix {
  Rows lower, diag, upper;
};
inline lane_factor<shared_rows> shared_factor(
    const num::tridiagonal_factorization& f) {
  return {{f.lower().data()}, {f.pivots().data()}, {f.c_star().data()}};
}
inline lane_matrix<shared_rows> shared_matrix(const num::tridiagonal_matrix& m) {
  return {{m.lower.data()}, {m.diag.data()}, {m.upper.data()}};
}

/// lane_thomas's rhs hook when x already holds the right-hand side.
inline constexpr auto rhs_in_place = [](std::size_t) {
  return [](std::size_t, double b) { return b; };
};

// One node across the lanes: lane l at row[l·ls], its recurrence carry at
// w[l].  Separate functions so the __restrict qualifiers reach the
// vectorizer after inlining; WC is the compile-time lane count or 0.
template <std::size_t WC, bool First, class R, class Rhs>
inline void lane_forward(std::size_t width, std::size_t ls,
                         double* __restrict row, double* __restrict w,
                         R lower, R pivot, Rhs&& rhs) {
  for (std::size_t l = 0; l < (WC == 0 ? width : WC); ++l) {
    double b = rhs(l, row[l * ls]);
    if constexpr (!First) b = b - lane_value(lower, l) * w[l];
    w[l] = b / lane_value(pivot, l);
    row[l * ls] = w[l];
  }
}
template <std::size_t WC, class R>
inline void lane_backward(std::size_t width, std::size_t ls,
                          const double* __restrict row, double* __restrict w,
                          R c_star) {
  for (std::size_t l = 0; l < (WC == 0 ? width : WC); ++l)
    w[l] = row[l * ls] - lane_value(c_star, l) * w[l];
}
template <std::size_t WC, class React>
inline void lane_react(std::size_t width, std::size_t i,
                       double* __restrict out, const double* __restrict in,
                       React& react) {
  for (std::size_t l = 0; l < (WC == 0 ? width : WC); ++l)
    out[l] = react(in[l], i, l);
}

/// Solves `width` tridiagonal systems of n ≥ 2 unknowns; lane l of node i
/// is x[i·ns + l·ls] (the ADI x-pass reads its grid rows through a strided
/// view, ns = 1 and ls = nx; everything else has contiguous lanes).  Each
/// lane runs tridiagonal_factorization::solve_in_place's operation
/// sequence exactly — x₀ ← b₀/d'₀, xᵢ ← (bᵢ − lᵢ₋₁·xᵢ₋₁)/d'ᵢ, then
/// xᵢ ← xᵢ − c*ᵢ·xᵢ₊₁ — so its result is bitwise the scalar solve's.
///  * rhs(i) runs before node i is eliminated and returns node i's
///    right-hand side as (l, value stored in x) → bᵢ;
///  * post(i, w) receives node i's finished lanes during back substitution
///    (i = n−1 … 0); x holds the forward sweep, and post may overwrite
///    node i of it, which is no longer read.
/// The carry lives in registers for a compile-time width and in `w`
/// (`width` doubles of scratch) otherwise.
template <std::size_t WC, class Rows, class Rhs, class Post>
inline void lane_thomas(std::size_t n, std::size_t width, double* x,
                        std::size_t ns, std::size_t ls, double* w,
                        const lane_factor<Rows>& f, Rhs&& rhs, Post&& post) {
  double local[WC == 0 ? 1 : WC];
  if constexpr (WC != 0) w = local;
  lane_forward<WC, true>(width, ls, x, w, f.pivot.row(0), f.pivot.row(0),
                         rhs(std::size_t{0}));
  for (std::size_t i = 1; i + 1 < n; ++i)
    lane_forward<WC, false>(width, ls, x + i * ns, w, f.lower.row(i - 1),
                            f.pivot.row(i), rhs(i));
  lane_forward<WC, false>(width, ls, x + (n - 1) * ns, w, f.lower.row(n - 2),
                          f.pivot.row(n - 1), rhs(n - 1));
  post(n - 1, static_cast<const double*>(w));
  for (std::size_t i = n - 1; i-- > 0;) {
    lane_backward<WC>(width, ls, x + i * ns, w, f.c_star.row(i));
    post(i, static_cast<const double*>(w));
  }
}

/// One fused Strang–CN step on W contiguous lanes, u[i·W + l]: react1,
/// Crank–Nicolson diffusion (rhs matrix m, factorization f), react2, in
/// two sweeps.  react1 runs one node ahead into three rolling rows, node
/// i's rhs is dm·vᵢ, += lm·vᵢ₋₁, += um·vᵢ₊₁, and react2 is applied as back
/// substitution finishes each node — the unfused substeps' operation
/// sequence throughout.  x is n·W scratch, `scratch` 4·W; react(v, i, l).
template <std::size_t WC, class Rows, class React1, class React2>
inline void lane_strang_cn(std::size_t n, std::size_t width, double* u,
                           double* x, double* scratch,
                           const lane_matrix<Rows>& m,
                           const lane_factor<Rows>& f, React1&& react1,
                           React2&& react2) {
  const std::size_t W = WC == 0 ? width : WC;
  double* vp = scratch + W;
  double* vc = vp + W;
  double* vn = vc + W;
  lane_react<WC>(W, 0, vc, u, react1);
  lane_react<WC>(W, 1, vn, u + W, react1);
  lane_thomas<WC>(
      n, W, x, W, 1, scratch, f,
      [&](std::size_t i) {
        if (i > 0) {
          std::swap(vp, vc);
          std::swap(vc, vn);
          if (i + 1 < n) lane_react<WC>(W, i + 1, vn, u + (i + 1) * W, react1);
        }
        const auto dm = m.diag.row(i);
        const auto lm = m.lower.row(i > 0 ? i - 1 : 0);
        const auto um = m.upper.row(i + 1 < n ? i : 0);
        return [=, p = vp, c = vc, q = vn](std::size_t l, double) {
          double acc = lane_value(dm, l) * c[l];
          if (i > 0) acc += lane_value(lm, l) * p[l];
          if (i + 1 < n) acc += lane_value(um, l) * q[l];
          return acc;
        };
      },
      [&](std::size_t i, const double* w) {
        lane_react<WC>(W, i, u + i * W, w, react2);
      });
}

/// lane_strang_cn for lanes sharing one operator and one rate profile —
/// the line (W = 1) and the communities.  `g1` / `g2` are the first /
/// second half-step's growth factors (rate_sampler::growth_over): one per
/// node, read by all of that node's lanes, or only [0] when `uniform`.
template <std::size_t WC>
inline void lane_strang_step(std::size_t n, std::size_t width, double* u,
                             double* x, double* scratch,
                             const num::tridiagonal_matrix& rhs_m,
                             const num::tridiagonal_factorization& factor,
                             bool uniform, const double* g1, const double* g2,
                             double kk) {
  const auto step = [&](auto&& react1, auto&& react2) {
    lane_strang_cn<WC>(n, width, u, x, scratch, shared_matrix(rhs_m),
                       shared_factor(factor), react1, react2);
  };
  if (uniform) {
    const double growth1 = g1[0];
    const double growth2 = g2[0];
    step([&](double v, std::size_t, std::size_t) {
           return logistic_exact_with_growth(v, growth1, kk);
         },
         [&](double v, std::size_t, std::size_t) {
           return logistic_exact_with_growth(v, growth2, kk);
         });
  } else {
    step([&](double v, std::size_t i, std::size_t) {
           return logistic_exact_with_growth(v, g1[i], kk);
         },
         [&](double v, std::size_t i, std::size_t) {
           return logistic_exact_with_growth(v, g2[i], kk);
         });
  }
}

// Lockstep Newton: one backward-Euler step, v − u − h·(d·A·v +
// r·v·(1 − v/K)) = 0 for the new state v, on W contiguous lanes.  The
// lanes keep W doubles per row below: a local array for a compile-time
// width, caller scratch otherwise.
enum lane_newton_row : std::size_t {
  nw_d,       ///< diffusion coefficient d
  nw_k,       ///< carrying capacity K
  nw_diag,    ///< 1 + 2·mu (mu = h·d/dx²): the Jacobian diagonal's base
  nw_off1,    ///< −mu·1: the interior off-diagonals
  nw_off2,    ///< −mu·2: the mirror-ghost boundary off-diagonals
  nw_norm,    ///< the iteration's max |residual|
  nw_pivot,   ///< the iteration's min |pivot| (0 iff a pivot was zero)
  nw_c,       ///< carried c*ᵢ₋₁
  nw_x,       ///< carried xᵢ₋₁ (forward) / xᵢ₊₁ (backward)
  nw_active,  ///< 1 while the lane iterates, 0 once it has converged
  lane_newton_rows
};

// Node i of one Newton iteration across the lanes (Node: 0 first,
// 1 interior, 2 last).  v, u and r are node i's rows of the iterate, the
// old state and the rates; v ± W are the iterate's neighbours.  Computes
// neumann_laplacian's Laplacian, the residual and its max-norm, the
// Jacobian row I − h·(d·A + diag(r·(1 − 2v/K))), and
// num::solve_tridiagonal_in_place's elimination of that row: the pivot,
// c* into c and the forward rhs into x.  The lane loops stay rolled: GCC
// unrolls a 2- or 4-lane loop completely and then leaves it scalar, but
// vectorizes it as a loop (at W = 4, 2.5× the single lane's throughput
// instead of 1.4×).
template <std::size_t WC, int Node>
inline void lane_newton_forward(std::size_t width, double h, double inv,
                                const double* __restrict v,
                                const double* __restrict u,
                                const double* __restrict r,
                                double* __restrict s, double* __restrict c,
                                double* __restrict x) {
  const std::size_t W = WC == 0 ? width : WC;
#pragma GCC unroll 1
  for (std::size_t l = 0; l < W; ++l) {
    const double vc = v[l];
    double lap;
    if constexpr (Node == 0)
      lap = 2.0 * ((v + W)[l] - vc) * inv;
    else if constexpr (Node == 2)
      lap = 2.0 * ((v - W)[l] - vc) * inv;
    else
      lap = ((v - W)[l] - 2.0 * vc + (v + W)[l]) * inv;
    const double k = s[nw_k * W + l];
    const double g =
        vc - u[l] -
        h * (s[nw_d * W + l] * lap + r[l] * vc * (1.0 - vc / k));
    s[nw_norm * W + l] = std::max(s[nw_norm * W + l], std::abs(g));
    const double diag = s[nw_diag * W + l] - h * r[l] * (1.0 - 2.0 * vc / k);
    double pivot = diag;
    double b = g;
    if constexpr (Node != 0) {
      const double lower = s[(Node == 2 ? nw_off2 : nw_off1) * W + l];
      pivot = diag - lower * s[nw_c * W + l];
      b = g - lower * s[nw_x * W + l];
    }
    s[nw_pivot * W + l] = std::min(s[nw_pivot * W + l], std::abs(pivot));
    if constexpr (Node != 2) {
      const double upper = s[(Node == 0 ? nw_off2 : nw_off1) * W + l];
      c[l] = upper / pivot;
      s[nw_c * W + l] = c[l];
    }
    x[l] = b / pivot;
    s[nw_x * W + l] = x[l];
  }
}

// Node i of the back substitution, xᵢ ← xᵢ − c*ᵢ·xᵢ₊₁ (just xᵢ at the last
// node), and the update vᵢ ← vᵢ − xᵢ — skipped, when Masked, for lanes
// that have converged.
template <std::size_t WC, bool Last, bool Masked>
inline void lane_newton_backward(std::size_t width, const double* __restrict c,
                                 const double* __restrict x,
                                 double* __restrict v, double* __restrict s) {
  const std::size_t W = WC == 0 ? width : WC;
#pragma GCC unroll 1
  for (std::size_t l = 0; l < W; ++l) {
    double xi = x[l];
    if constexpr (!Last) xi = xi - c[l] * s[nw_x * W + l];
    s[nw_x * W + l] = xi;
    const double updated = v[l] - xi;
    v[l] = Masked && s[nw_active * W + l] == 0.0 ? v[l] : updated;
  }
}

/// One backward-Euler step on W contiguous lanes, solved by Newton's
/// method exactly as the scalar scheme solves it, lane by lane.  u is the
/// old state and v receives the new one, both u[i·W + l]; rt holds
/// r(x_i, t + h) node-major; d and K are per lane.  The iterate starts at
/// u, and every iteration is one forward pass over the nodes (Laplacian,
/// residual and its max-norm, Jacobian row and the Thomas elimination of
/// num::solve_tridiagonal_in_place, whose c* and forward rhs go to c and
/// x, n·W each) and, unless every lane has converged, one backward pass
/// (back substitution and v −= x).  A lane whose max-norm is ≤ tol
/// converges and keeps its iterate while the others go on; up to
/// max_iter iterations run, and a lane that never converges keeps its
/// last iterate.  A zero pivot throws the scalar path's
/// std::domain_error, but only in a lane still iterating: the others'
/// eliminations are never used.  `scratch` holds lane_newton_rows·W
/// doubles for a runtime width.
template <std::size_t WC>
inline void lane_newton_step(std::size_t n, std::size_t width, const double* u,
                             double* v, double* x, double* c, double* scratch,
                             const double* rt, const double* d, const double* k,
                             double h, double dx, double tol, int max_iter) {
  const std::size_t W = WC == 0 ? width : WC;
  double local[WC == 0 ? 1 : lane_newton_rows * WC];
  double* s = scratch;
  if constexpr (WC != 0) s = local;
  for (std::size_t l = 0; l < W; ++l) {
    const double mu = h * d[l] / (dx * dx);
    s[nw_d * W + l] = d[l];
    s[nw_k * W + l] = k[l];
    s[nw_diag * W + l] = 1.0 + 2.0 * mu;
    s[nw_off1 * W + l] = -mu * 1.0;
    s[nw_off2 * W + l] = -mu * 2.0;
    s[nw_active * W + l] = 1.0;
  }
  std::copy(u, u + n * W, v);
  const double inv = 1.0 / (dx * dx);
  for (int it = 0; it < max_iter; ++it) {
    for (std::size_t l = 0; l < W; ++l) {
      s[nw_norm * W + l] = 0.0;
      s[nw_pivot * W + l] = std::numeric_limits<double>::infinity();
    }
    lane_newton_forward<WC, 0>(W, h, inv, v, u, rt, s, c, x);
    for (std::size_t i = 1; i + 1 < n; ++i)
      lane_newton_forward<WC, 1>(W, h, inv, v + i * W, u + i * W, rt + i * W,
                                 s, c + i * W, x + i * W);
    const std::size_t last = (n - 1) * W;
    lane_newton_forward<WC, 2>(W, h, inv, v + last, u + last, rt + last, s,
                               c + last, x + last);

    bool any_active = false;
    bool all_active = true;
    for (std::size_t l = 0; l < W; ++l) {
      if (s[nw_active * W + l] != 0.0 && s[nw_norm * W + l] <= tol)
        s[nw_active * W + l] = 0.0;
      if (s[nw_active * W + l] == 0.0) {
        all_active = false;
        continue;
      }
      if (s[nw_pivot * W + l] == 0.0)
        throw std::domain_error("solve_tridiagonal: zero pivot");
      any_active = true;
    }
    if (!any_active) break;

    const auto backward = [&]<bool Masked>() {
      lane_newton_backward<WC, true, Masked>(W, c + last, x + last, v + last,
                                             s);
      for (std::size_t i = n - 1; i-- > 0;)
        lane_newton_backward<WC, false, Masked>(W, c + i * W, x + i * W,
                                                v + i * W, s);
    };
    if (all_active)
      backward.template operator()<false>();
    else
      backward.template operator()<true>();
  }
}

/// Calls f.template operator()<W>() with W the first of Widths equal to
/// `width`, or with W = 0 (the runtime-width kernel) when none is.
template <std::size_t... Widths, class F>
inline void dispatch_width(std::size_t width, F&& f) {
  if (!((width == Widths ? (f.template operator()<Widths>(), true) : false) ||
        ...))
    f.template operator()<0>();
}

/// Non-line domain solvers (dl_domain_solver.cpp): Peaceman–Rachford ADI
/// on the 2-D grid, the fused Strang–CN lane kernel over the communities
/// plus the explicit mixing substep.  Dispatched to by solve_profile;
/// both accept only dl_scheme::strang_cn.
[[nodiscard]] dl_solution solve_dl_grid2d(const dl_parameters& params,
                                          std::span<const double> phi_samples,
                                          double t0, double t_end,
                                          const dl_solver_options& options,
                                          dl_workspace& ws);
[[nodiscard]] dl_solution solve_dl_communities(
    const dl_parameters& params, std::span<const double> phi_samples,
    double t0, double t_end, const dl_solver_options& options,
    dl_workspace& ws);

/// Broadcasts a sampled x-profile across a non-line domain's blocks:
/// replicated per grid2d row, scaled per community (clipped at zero).
[[nodiscard]] std::vector<double> broadcast_profile(
    const dl_parameters& params, std::span<const double> x_profile,
    const dl_solver_options& options);

}  // namespace detail
}  // namespace dlm::core
