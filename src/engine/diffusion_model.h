// The unified diffusion-model interface of the batch engine.
//
// Every predictor in the repo — the paper's DL reaction-diffusion model
// and all baselines (heat equation, global logistic, per-distance
// logistic, SI epidemic) — is wrapped behind this one polymorphic
// interface so sweeps can treat "a model" as data: look it up by name in
// the registry, hand it a scenario + dataset slice, get back a predicted
// density trace scored uniformly by the runner.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/scenario.h"

namespace dlm::engine {

/// The axes of a predicted surface, immutable and shared between traces.
struct trace_axes {
  std::vector<int> distances;  ///< 1..max_distance of the slice
  std::vector<double> times;   ///< evaluated hours (t0+1 .. t_end)
};

/// A model's predicted density surface over integer distances × hours.
///
/// The values live in one row-major allocation, and the axes are
/// interned by content (times by their bits), so every trace of one
/// slice and evaluation window shares one trace_axes: a resident trace
/// costs one block for its values plus a share of its axes.  The intern
/// table holds weak references and drops expired ones as it grows, so it
/// never keeps axes alive by itself.  Copying a trace copies the values
/// and shares the axes.
class model_trace {
 public:
  /// An empty trace: no distances, no times.
  model_trace() = default;
  /// A zero-filled surface over the interned axes (thread-safe).
  model_trace(const std::vector<int>& distances,
              const std::vector<double>& times);

  [[nodiscard]] std::span<const int> distances() const noexcept {
    return axes_ ? std::span<const int>(axes_->distances)
                 : std::span<const int>();
  }
  [[nodiscard]] std::span<const double> times() const noexcept {
    return axes_ ? std::span<const double>(axes_->times)
                 : std::span<const double>();
  }
  /// predicted(i)[j]: predicted density at distances()[i], times()[j].
  [[nodiscard]] std::span<const double> predicted(
      std::size_t i) const noexcept {
    const std::size_t cols = times().size();
    return {values_.data() + i * cols, cols};
  }
  [[nodiscard]] std::span<double> predicted(std::size_t i) noexcept {
    const std::size_t cols = times().size();
    return {values_.data() + i * cols, cols};
  }
  /// Every value, row-major: distances().size() rows of times().size().
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<double> values() noexcept { return values_; }
  /// The shared axes; null for an empty default-constructed trace.
  [[nodiscard]] const std::shared_ptr<const trace_axes>& axes() const noexcept {
    return axes_;
  }

  /// Time step the solver actually used — differs from scenario.dt when a
  /// scheme clamps for stability (FTCS).  0 for models without a dt.
  double effective_dt = 0.0;
  /// Canonical label of the domain the model solved on ("line" unless the
  /// model supports domains and the scenario asked for another one).
  std::string domain = "line";

 private:
  std::shared_ptr<const trace_axes> axes_;
  std::vector<double> values_;
};

/// Abstract diffusion predictor.  Implementations must be stateless and
/// const-thread-safe: `solve` runs concurrently from the pool workers.
class diffusion_model {
 public:
  virtual ~diffusion_model() = default;

  /// Registry key / display name.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Which sweep axes the model consumes; `expand_sweep` collapses the
  /// others so a sweep never enqueues duplicate work.
  [[nodiscard]] virtual bool uses_scheme() const { return false; }
  [[nodiscard]] virtual bool uses_grid() const { return false; }
  [[nodiscard]] virtual bool uses_rate() const { return false; }

  /// Whether spatial rate specs ("spatial:...", "per-hop:...",
  /// "calibrate-spatial") are meaningful: the model evaluates the rate
  /// per distance.  Rate-using models that return false have a spatial
  /// spec collapsed to its temporal base by `expand_sweep` (the
  /// space-free global logistic cannot honour r(x, t)).
  [[nodiscard]] virtual bool supports_spatial_rate() const { return false; }

  /// Whether "calibrate" rate specs apply: the runner fits (d, K[, r])
  /// on the slice's early window before solving.  Only meaningful for
  /// models that honour scenario d/k overrides and the fitted rate —
  /// the DL adapter.  Rate-using models that return false run their
  /// preset rate when a sweep lists a calibrate spec.
  [[nodiscard]] virtual bool supports_calibration() const { return false; }

  /// Whether non-line domain specs ("grid2d:...", "comm:...") are
  /// meaningful: the model solves on the requested core::domain.
  /// `expand_sweep` collapses the domain axis to {"line"} for models that
  /// return false, and non-line domains only pair with the strang-cn
  /// scheme (the only one the domain solvers implement).
  [[nodiscard]] virtual bool supports_domain() const { return false; }

  /// Solves the scenario on the slice and returns the predicted trace at
  /// integer distances 1..slice.max_distance and integer hours
  /// floor(t0)+1 .. min(floor(t_end), slice.horizon_hours).
  [[nodiscard]] virtual model_trace solve(const scenario& sc,
                                          const dataset_slice& slice) const = 0;

  /// Whether solve_batch advances multiple scenarios in one pass (the DL
  /// adapter's lockstep SoA solve).  The runner only groups scenarios of
  /// models that return true; for everything else batching would just
  /// serialize independent solves onto one worker.
  [[nodiscard]] virtual bool supports_batch() const { return false; }

  /// Solves several scenarios of this model against one slice, returning
  /// traces in scenario order.  Every trace is bitwise identical to the
  /// corresponding solve() — batch-capable models dispatch to a lockstep
  /// solver with that exact contract; the default implementation simply
  /// loops solve().  All scenarios must reference the given slice.
  [[nodiscard]] virtual std::vector<model_trace> solve_batch(
      std::span<const scenario> scenarios, const dataset_slice& slice) const;

  /// The evaluation hours shared by every adapter (see `solve`).
  [[nodiscard]] static std::vector<double> evaluation_times(
      const scenario& sc, const dataset_slice& slice);
};

}  // namespace dlm::engine
