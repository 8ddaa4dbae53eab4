#include "timed_backend.hpp"

#include <type_traits>

#include "core/backends/ref_kernels.hpp"

namespace e2e {

using tea::FieldId;
namespace ref = tea::ref;

const std::array<const char*, kNumKernels> kKernelNames = {
    "apply_operator_dot",
    "apply_operator",
    "dot",
    "axpy",
    "zaxpy",
    "smooth_update",
    "compute_residual",
    "other",
};

double BackendTimes::kernel_seconds() const {
  double total = 0.0;
  for (const KernelTotals& k : kernels) total += k.seconds;
  return total;
}

namespace {

double traffic(const ref::KernelCost& cost, double cells) {
  return 8.0 * (cost.reads + cost.writes) * cells;
}

}  // namespace

TimedBackend::TimedBackend(tea::Backend& inner, BackendTimes& times,
                           TraceLog* trace, int tid, long op)
    : inner_(inner), times_(times), trace_(trace), tid_(tid), op_(op) {}

template <typename Call>
auto TimedBackend::timed(Kernel kernel, double bytes, bool exchanges,
                         Call&& call) {
  // set_rx_ry and set_fused_operator_dot are not virtual: the driver sets
  // them on this object, and the inner backend needs them per call.
  inner_.set_rx_ry(rx(), ry());
  inner_.set_fused_operator_dot(fused_operator_dot());
  const auto record = [&](Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    const double seconds = seconds_between(start, end);
    KernelTotals& totals = times_.kernels[static_cast<int>(kernel)];
    ++totals.calls;
    totals.seconds += seconds;
    totals.bytes += bytes;
    if (exchanges) times_.halo_seconds += seconds;
    if (trace_ != nullptr) {
      trace_->add(kKernelNames[static_cast<int>(kernel)], tid_, op_, start,
                  end);
    }
  };
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    record(start);
  } else {
    const auto result = call();
    record(start);
    return result;
  }
}

void TimedBackend::setup(const tl::ProblemConfig& cfg) {
  const Clock::time_point start = Clock::now();
  inner_.setup(cfg);
  const Clock::time_point end = Clock::now();
  times_.setup_seconds += seconds_between(start, end);
  if (trace_ != nullptr) trace_->add("setup", tid_, op_, start, end);
  const LocalExtent extent = inner_.local_extent();
  cells_ = static_cast<double>(extent.nx) * extent.ny;
  perimeter_ = 2.0 * (extent.nx + extent.ny);
}

void TimedBackend::compute_coefficients(tl::CoefficientKind kind) {
  timed(Kernel::kOther, traffic(ref::kCostCoefficients, cells_), false,
        [&] { inner_.compute_coefficients(kind); });
}

void TimedBackend::init_u_u0() {
  timed(Kernel::kOther, traffic(ref::kCostInitU, cells_), false,
        [&] { inner_.init_u_u0(); });
}

void TimedBackend::apply_operator(FieldId in, FieldId out) {
  timed(Kernel::kApplyOperator, traffic(ref::kCostOperator, cells_), false,
        [&] { inner_.apply_operator(in, out); });
}

double TimedBackend::apply_operator_dot(FieldId in, FieldId out) {
  return timed(Kernel::kApplyOperatorDot,
               traffic(ref::kCostOperatorDot, cells_), false,
               [&] { return inner_.apply_operator_dot(in, out); });
}

void TimedBackend::compute_residual() {
  timed(Kernel::kComputeResidual, traffic(ref::kCostResidual, cells_), false,
        [&] { inner_.compute_residual(); });
}

void TimedBackend::exchange_apply_operator(FieldId in, FieldId out) {
  timed(Kernel::kApplyOperator, traffic(ref::kCostOperator, cells_), true,
        [&] { inner_.exchange_apply_operator(in, out); });
}

double TimedBackend::exchange_apply_operator_dot(FieldId in, FieldId out) {
  return timed(Kernel::kApplyOperatorDot,
               traffic(ref::kCostOperatorDot, cells_), true,
               [&] { return inner_.exchange_apply_operator_dot(in, out); });
}

void TimedBackend::exchange_compute_residual() {
  timed(Kernel::kComputeResidual, traffic(ref::kCostResidual, cells_), true,
        [&] { inner_.exchange_compute_residual(); });
}

double TimedBackend::exchange_jacobi_iterate() {
  return timed(Kernel::kOther,
               traffic(ref::kCostJacobi, cells_) +
                   traffic(ref::kCostDot, cells_),
               true, [&] { return inner_.exchange_jacobi_iterate(); });
}

void TimedBackend::copy_field(FieldId src, FieldId dst) {
  timed(Kernel::kOther, traffic(ref::kCostCopy, cells_), false,
        [&] { inner_.copy_field(src, dst); });
}

void TimedBackend::scale_copy(FieldId dst, FieldId src, double s) {
  timed(Kernel::kOther, traffic(ref::kCostScaleCopy, cells_), false,
        [&] { inner_.scale_copy(dst, src, s); });
}

double TimedBackend::dot(FieldId a, FieldId b) {
  return timed(Kernel::kDot, traffic(ref::kCostDot, cells_), false,
               [&] { return inner_.dot(a, b); });
}

void TimedBackend::axpy(FieldId y, double a, FieldId x) {
  timed(Kernel::kAxpy, traffic(ref::kCostAxpy, cells_), false,
        [&] { inner_.axpy(y, a, x); });
}

void TimedBackend::zaxpy(FieldId p, double beta, FieldId z) {
  timed(Kernel::kZaxpy, traffic(ref::kCostZaxpy, cells_), false,
        [&] { inner_.zaxpy(p, beta, z); });
}

void TimedBackend::precondition(FieldId dst, FieldId src) {
  // The cost table has no preconditioner row; the backends charge the
  // operator's footprint (it reads the same coefficient faces).
  timed(Kernel::kOther, traffic(ref::kCostOperator, cells_), false,
        [&] { inner_.precondition(dst, src); });
}

void TimedBackend::smooth_update(FieldId acc, FieldId res, FieldId w,
                                 FieldId sd, double alpha, double beta) {
  timed(Kernel::kSmoothUpdate, traffic(ref::kCostSmooth, cells_), false,
        [&] { inner_.smooth_update(acc, res, w, sd, alpha, beta); });
}

double TimedBackend::jacobi_iterate() {
  return timed(Kernel::kOther,
               traffic(ref::kCostJacobi, cells_) +
                   traffic(ref::kCostDot, cells_),
               false, [&] { return inner_.jacobi_iterate(); });
}

tea::FieldSummary TimedBackend::field_summary() {
  return timed(Kernel::kOther, traffic(ref::kCostSummary, cells_), false,
               [&] { return inner_.field_summary(); });
}

void TimedBackend::update_halo(std::initializer_list<FieldId> fields,
                               int depth) {
  // Each refreshed halo layer reads and writes one value per boundary cell.
  const double bytes =
      16.0 * static_cast<double>(fields.size()) * depth * perimeter_;
  timed(Kernel::kOther, bytes, true,
        [&] { inner_.update_halo(fields, depth); });
}

void TimedBackend::finalise() {
  timed(Kernel::kOther, traffic(ref::kCostFinalise, cells_), false,
        [&] { inner_.finalise(); });
}

}  // namespace e2e
