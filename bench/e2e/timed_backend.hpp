// timed_backend.hpp — a tea::Backend decorator that times every call it
// forwards, so the benchmark can split a TeaDriver run into kernels from the
// outside.  Every virtual the driver or solvers call is forwarded as the
// same virtual on the inner backend — fused entries (apply_operator_dot and
// all exchange_*) included — so a distributed inner backend keeps its
// overlapped split-phase path and results stay bitwise identical.
//
// Bytes per call are the minimum traffic of the operation from the
// tea::ref::kCost* table times the local interior cells, independent of how
// or where the inner backend charges its own counters.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/backend.hpp"
#include "trace.hpp"

namespace e2e {

/// Kernel buckets of the per-layer `kernel.<name>.*` metrics.  Fused
/// exchange_* calls land in the bucket of their kernel (the halo exchange
/// inside them is not separable from outside).  `other` holds the per-step
/// kernels, copies, Jacobi sweeps, the jac_diag preconditioner (only
/// preconditioned CG applies it, and no workload runs that) and stand-alone
/// update_halo calls (the solvers refresh halos only through exchange_*).
enum class Kernel : int {
  kApplyOperatorDot,
  kApplyOperator,
  kDot,
  kAxpy,
  kZaxpy,
  kSmoothUpdate,
  kComputeResidual,
  kOther,
  kCount,
};
inline constexpr int kNumKernels = static_cast<int>(Kernel::kCount);
extern const std::array<const char*, kNumKernels> kKernelNames;

struct KernelTotals {
  long calls = 0;
  double seconds = 0.0;
  double bytes = 0.0;
};

/// Everything one TimedBackend saw, summed over the runs it served.
struct BackendTimes {
  std::array<KernelTotals, kNumKernels> kernels{};
  double setup_seconds = 0.0;  // Backend::setup: allocation and painting
  /// Seconds in calls that carry a halo exchange (exchange_* and
  /// update_halo); on a decomposed backend this bounds the exposed halo time.
  double halo_seconds = 0.0;

  double kernel_seconds() const;
};

class TimedBackend final : public tea::Backend {
 public:
  /// `inner` must outlive this object.  Spans go to `trace` (may be null)
  /// on track `tid`, tagged with `op`.
  TimedBackend(tea::Backend& inner, BackendTimes& times, TraceLog* trace,
               int tid, long op);

  std::string id() const override { return inner_.id(); }
  void setup(const tl::ProblemConfig& cfg) override;

  void compute_coefficients(tl::CoefficientKind kind) override;
  void init_u_u0() override;
  void apply_operator(tea::FieldId in, tea::FieldId out) override;
  double apply_operator_dot(tea::FieldId in, tea::FieldId out) override;
  void compute_residual() override;
  void exchange_apply_operator(tea::FieldId in, tea::FieldId out) override;
  double exchange_apply_operator_dot(tea::FieldId in,
                                     tea::FieldId out) override;
  void exchange_compute_residual() override;
  double exchange_jacobi_iterate() override;
  void copy_field(tea::FieldId src, tea::FieldId dst) override;
  void scale_copy(tea::FieldId dst, tea::FieldId src, double s) override;
  double dot(tea::FieldId a, tea::FieldId b) override;
  void axpy(tea::FieldId y, double a, tea::FieldId x) override;
  void zaxpy(tea::FieldId p, double beta, tea::FieldId z) override;
  void precondition(tea::FieldId dst, tea::FieldId src) override;
  void smooth_update(tea::FieldId acc, tea::FieldId res, tea::FieldId w,
                     tea::FieldId sd, double alpha, double beta) override;
  double jacobi_iterate() override;
  tea::FieldSummary field_summary() override;
  void update_halo(std::initializer_list<tea::FieldId> fields,
                   int depth) override;
  void finalise() override;
  std::int64_t working_set_bytes() const override {
    return inner_.working_set_bytes();
  }
  bool counts_globally() const override { return inner_.counts_globally(); }
  LocalExtent local_extent() const override { return inner_.local_extent(); }
  void read_field(tea::FieldId f, tl::span<double> out) override {
    inner_.read_field(f, out);
  }

 private:
  /// Push the driver's per-step scalars (set on this object) into the inner
  /// backend, then time `call` into bucket `kernel`.
  template <typename Call>
  auto timed(Kernel kernel, double bytes, bool exchanges, Call&& call);

  tea::Backend& inner_;
  BackendTimes& times_;
  TraceLog* trace_;
  int tid_;
  long op_;
  double cells_ = 0.0;      // local interior cells
  double perimeter_ = 0.0;  // local interior boundary cells, 2 (nx + ny)
};

}  // namespace e2e
