#include "core/backends/manual_host.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/simd.hpp"
#include "core/backends/ref_kernels.hpp"
#include "core/halo.hpp"
#include "core/problem.hpp"
#include "machine/instrumentation.hpp"
#include "threading/barrier.hpp"

namespace tea {

namespace {
machine::Instrumentation& instr() { return machine::Instrumentation::global(); }

// --- band kernels ------------------------------------------------------------
//
// Each hot kernel runs as a free function over a row band [j0, j1), shifting
// the view origins so the shared ref_kernels row loops do the math (one
// source of truth for the arithmetic).  The functions carry TL_TARGET_CLONES:
// the default -O3 build stays portable x86-64 while AVX2 hosts dispatch to
// 4-wide versions at runtime.  Clones exclude FMA ISAs, so every version
// computes bitwise-identical results (see common/simd.hpp).

inline CellView shifted(CellView v, int j0) {
  return CellView{ref::row(v, j0), v.stride};
}
inline ConstCellView shifted(ConstCellView v, int j0) {
  return ConstCellView{ref::row(v, j0), v.stride};
}

// Column shift: `xshift(v, i0)(i, j)` == `v(i0 + i, j)` — lets the row-band
// kernels run over a column sub-range (the overlapped interior/boundary
// split) without new loop bodies.
inline CellView xshift(CellView v, int i0) {
  return CellView{v.origin + i0, v.stride};
}
inline ConstCellView xshift(ConstCellView v, int i0) {
  return ConstCellView{v.origin + i0, v.stride};
}

TL_TARGET_CLONES void op_band(ConstCellView in, CellView out, ConstCellView kx,
                              ConstCellView ky, double rx, double ry, int nx,
                              int j0, int j1) {
  ref::apply_operator(shifted(in, j0), shifted(out, j0), shifted(kx, j0),
                      shifted(ky, j0), rx, ry, nx, j1 - j0);
}

TL_TARGET_CLONES double opdot_band(ConstCellView in, CellView out,
                                   ConstCellView kx, ConstCellView ky,
                                   double rx, double ry, int nx, int j0,
                                   int j1) {
  return ref::apply_operator_dot(shifted(in, j0), shifted(out, j0),
                                 shifted(kx, j0), shifted(ky, j0), rx, ry, nx,
                                 j1 - j0);
}

TL_TARGET_CLONES void residual_band(ConstCellView u, ConstCellView u0,
                                    CellView r, ConstCellView kx,
                                    ConstCellView ky, double rx, double ry,
                                    int nx, int j0, int j1) {
  ref::compute_residual(shifted(u, j0), shifted(u0, j0), shifted(r, j0),
                        shifted(kx, j0), shifted(ky, j0), rx, ry, nx, j1 - j0);
}

TL_TARGET_CLONES double dot_band(ConstCellView a, ConstCellView b, int nx,
                                 int j0, int j1) {
  return ref::dot(shifted(a, j0), shifted(b, j0), nx, j1 - j0);
}

TL_TARGET_CLONES void copy_band(ConstCellView src, CellView dst, int nx,
                                int j0, int j1) {
  ref::copy_field(shifted(src, j0), shifted(dst, j0), nx, j1 - j0);
}

TL_TARGET_CLONES void scale_band(CellView dst, ConstCellView src, double s,
                                 int nx, int j0, int j1) {
  ref::scale_copy(shifted(dst, j0), shifted(src, j0), s, nx, j1 - j0);
}

TL_TARGET_CLONES void axpy_band(CellView y, double a, ConstCellView x, int nx,
                                int j0, int j1) {
  ref::axpy(shifted(y, j0), a, shifted(x, j0), nx, j1 - j0);
}

TL_TARGET_CLONES void zaxpy_band(CellView p, double beta, ConstCellView z,
                                 int nx, int j0, int j1) {
  ref::zaxpy(shifted(p, j0), beta, shifted(z, j0), nx, j1 - j0);
}

TL_TARGET_CLONES void init_u_band(ConstCellView density, ConstCellView energy,
                                  CellView u, CellView u0, int nx, int j0,
                                  int j1) {
  ref::init_u_u0(shifted(density, j0), shifted(energy, j0), shifted(u, j0),
                 shifted(u0, j0), nx, j1 - j0);
}

TL_TARGET_CLONES void smooth_band(CellView acc, CellView res, ConstCellView w,
                                  CellView sd, double alpha, double beta,
                                  int nx, int j0, int j1) {
  ref::smooth_update(shifted(acc, j0), shifted(res, j0), shifted(w, j0),
                     shifted(sd, j0), alpha, beta, nx, j1 - j0);
}

TL_TARGET_CLONES double jacobi_band(ConstCellView uold, ConstCellView u0,
                                    CellView u, ConstCellView kx,
                                    ConstCellView ky, double rx, double ry,
                                    int nx, int j0, int j1) {
  return ref::jacobi_sweep(shifted(uold, j0), shifted(u0, j0), shifted(u, j0),
                           shifted(kx, j0), shifted(ky, j0), rx, ry, nx,
                           j1 - j0);
}

/// Sum |a - b| over a row band, reduced exactly like dot_band.  This is the
/// overlapped Jacobi error pass: w holds each unew bitwise, so re-reading
/// |w - u_old| reproduces the fused sweep's |unew - uold| terms through the
/// same per-row row_reduce4 association.
TL_TARGET_CLONES double absdiff_band(ConstCellView a, ConstCellView b, int nx,
                                     int j0, int j1) {
  const ConstCellView as = shifted(a, j0);
  const ConstCellView bs = shifted(b, j0);
  double acc = 0.0;
  for (int j = 0; j < j1 - j0; ++j) {
    const double* TL_RESTRICT ar = ref::row(as, j);
    const double* TL_RESTRICT br = ref::row(bs, j);
    acc += ref::row_reduce4(nx,
                            [&](int i) { return std::fabs(ar[i] - br[i]); });
  }
  return acc;
}

TL_TARGET_CLONES void precondition_band(CellView d, ConstCellView s,
                                        ConstCellView kx, ConstCellView ky,
                                        double rx, double ry, int nx, int j0,
                                        int j1) {
  for (int j = j0; j < j1; ++j) {
    const double* TL_RESTRICT sr = ref::row(s, j);
    const double* TL_RESTRICT kxr = ref::row(kx, j);
    const double* TL_RESTRICT kyc = ref::row(ky, j);
    const double* TL_RESTRICT kyn = ref::row(ky, j + 1);
    double* TL_RESTRICT dr = ref::row(d, j);
    for (int i = 0; i < nx; ++i) {
      const double diag =
          1.0 + rx * (kxr[i + 1] + kxr[i]) + ry * (kyn[i] + kyc[i]);
      dr[i] = sr[i] / diag;
    }
  }
}

TL_TARGET_CLONES void finalise_band(ConstCellView u, ConstCellView density,
                                    CellView energy, int nx, int j0, int j1) {
  ref::finalise(shifted(u, j0), shifted(density, j0), shifted(energy, j0), nx,
                j1 - j0);
}

/// One-layer reflective halo fill of rows [j0, j1) of an undecomposed
/// field: each row's two x-halo cells, plus the y-halo row beside row 0 or
/// ny-1 when the band owns that row.  ref::reflect_halo fills a row's x-halo
/// before copying it out, so the corners match the whole-field fill.  Bands
/// must be non-empty: an empty band at j0 == ny would rewrite row ny while
/// the owner of row ny-1 is still refreshing it.
void reflect_band(CellView f, int nx, int ny, int j0, int j1) {
  ref::reflect_halo(shifted(f, j0), nx, j1 - j0, /*depth=*/1, true, true,
                    j0 == 0, j1 == ny);
}

/// Coefficient band over face rows [j0, j1) of the (ny+1)-row face loop:
/// branch-free split — kx rows exist for j < ny, ky rows for j <= ny.
TL_TARGET_CLONES void coefficients_band(ConstCellView density, CellView kx,
                                        CellView ky, int nx, int ny,
                                        tl::CoefficientKind kind, int j0,
                                        int j1) {
  for (int j = j0; j < std::min(j1, ny); ++j) {
    const double* TL_RESTRICT dc = ref::row(density, j);
    double* TL_RESTRICT kxr = ref::row(kx, j);
    for (int i = 0; i <= nx; ++i) {
      const double wc = ref::conduction(dc[i], kind);
      const double wl = ref::conduction(dc[i - 1], kind);
      kxr[i] = (wl + wc) / (2.0 * wl * wc);
    }
  }
  for (int j = j0; j < j1; ++j) {
    const double* TL_RESTRICT dc = ref::row(density, j);
    const double* TL_RESTRICT dd = ref::row(density, j - 1);
    double* TL_RESTRICT kyr = ref::row(ky, j);
    for (int i = 0; i < nx; ++i) {
      const double wc = ref::conduction(dc[i], kind);
      const double wd = ref::conduction(dd[i], kind);
      kyr[i] = (wd + wc) / (2.0 * wd * wc);
    }
  }
}

/// Four simultaneous summary reductions folded through one pass.
struct SummaryQuad {
  double vol = 0.0, mass = 0.0, ie = 0.0, temp = 0.0;
};

TL_TARGET_CLONES SummaryQuad summary_band(ConstCellView density,
                                          ConstCellView energy,
                                          ConstCellView u, double vol_cell,
                                          int nx, int j0, int j1) {
  const FieldSummary s =
      ref::field_summary(shifted(density, j0), shifted(energy, j0),
                         shifted(u, j0), vol_cell, nx, j1 - j0);
  return SummaryQuad{s.vol, s.mass, s.ie, s.temp};
}

/// Charge one kernel's footprint: local traffic always (per-rank sums give
/// the global bytes), dispatch counted once per logical kernel.
void charge_kernel(const PartitionGeom& g, const ref::KernelCost& c,
                   minimpi::Comm* comm, bool is_reduction = false) {
  const std::int64_t cells = g.cells();
  instr().add_traffic(cells * 8 * c.reads, cells * 8 * c.writes,
                      cells * c.flops);
  if (comm == nullptr || comm->rank() == 0) {
    instr().add_launch();
    if (is_reduction) instr().add_reduction();
  }
}

}  // namespace

ManualHostBackend::ManualHostBackend(std::string id, tlp::ThreadPool* pool,
                                     minimpi::Comm* comm, FieldArena* arena)
    : id_(std::move(id)), pool_(pool), comm_(comm), arena_(arena) {
  if (comm_ != nullptr) {
    cart_ = std::make_unique<minimpi::Cart2D>(*comm_);
  }
}

ManualHostBackend::~ManualHostBackend() {
  if (arena_ != nullptr) arena_->release(std::move(store_));
}

void ManualHostBackend::setup(const tl::ProblemConfig& cfg) {
  PartitionGeom geom;
  geom.gnx = cfg.x_cells;
  geom.gny = cfg.y_cells;
  geom.halo = cfg.halo_depth;
  if (cart_ != nullptr) {
    const auto [cx, cy] = cart_->coords();
    const auto [x0, x1] = minimpi::block_range(geom.gnx, cart_->px(), cx);
    const auto [y0, y1] = minimpi::block_range(geom.gny, cart_->py(), cy);
    geom.x0 = x0;
    geom.y0 = y0;
    geom.nx = x1 - x0;
    geom.ny = y1 - y0;
  } else {
    geom.nx = geom.gnx;
    geom.ny = geom.gny;
  }
  // First-touch through the pool: each worker pages in the rows it will
  // later compute, so on NUMA hosts field rows live on the worker's node.
  // With an arena the slab is leased instead — already mapped (and NUMA-
  // placed) by an earlier solve with this geometry, re-zeroed to the same
  // state a fresh allocation would have.
  store_ = arena_ != nullptr ? arena_->acquire(geom, pool_)
                             : std::make_unique<FieldStore>(geom, pool_);

  const StateSampler sampler(cfg);
  cell_volume_ = sampler.cell_volume();
  CellView density = store_->view(FieldId::kDensity);
  CellView energy0 = store_->view(FieldId::kEnergy0);
  CellView energy1 = store_->view(FieldId::kEnergy1);
  // Paint owned cells (global indexing through the sampler keeps all
  // variants bit-identical); halos come from the first update_halo.
  for (int j = 0; j < geom.ny; ++j) {
    for (int i = 0; i < geom.nx; ++i) {
      const int gi = geom.x0 + i;
      const int gj = geom.y0 + j;
      density(i, j) = sampler.density_at(gi, gj);
      energy0(i, j) = sampler.energy_at(gi, gj);
      energy1(i, j) = energy0(i, j);
    }
  }
  update_halo({FieldId::kDensity, FieldId::kEnergy0, FieldId::kEnergy1},
              geom.halo);
}

template <typename RowFn>
void ManualHostBackend::rows(const RowFn& fn) {
  const int ny = geom().ny;
  if (pool_ != nullptr) {
    pool_->parallel_for(0, ny, [&](long lo, long hi) {
      fn(static_cast<int>(lo), static_cast<int>(hi));
    });
  } else {
    fn(0, ny);
  }
}

template <typename MapFn>
double ManualHostBackend::reduce_rows(const MapFn& fn) {
  const int ny = geom().ny;
  double local = 0.0;
  if (pool_ != nullptr) {
    local = pool_->parallel_reduce<double>(
        0, ny, 0.0,
        [&](long lo, long hi) {
          return fn(static_cast<int>(lo), static_cast<int>(hi));
        },
        [](double a, double b) { return a + b; });
  } else {
    local = fn(0, ny);
  }
  if (comm_ != nullptr) {
    local = comm_->allreduce(local, minimpi::ReduceOp::kSum);
  }
  return local;
}

void ManualHostBackend::compute_coefficients(tl::CoefficientKind kind) {
  // Row-split of the (ny+1)-row face loop.
  ConstCellView density = store_->cview(FieldId::kDensity);
  CellView kx = store_->view(FieldId::kKx);
  CellView ky = store_->view(FieldId::kKy);
  const int nx = geom().nx;
  const int ny = geom().ny;
  const auto band = [&](int j0, int j1) {
    coefficients_band(density, kx, ky, nx, ny, kind, j0, j1);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(0, ny + 1, [&](long lo, long hi) {
      band(static_cast<int>(lo), static_cast<int>(hi));
    });
  } else {
    band(0, ny + 1);
  }
  charge_kernel(geom(), ref::kCostCoefficients, comm_);
}

void ManualHostBackend::init_u_u0() {
  ConstCellView density = store_->cview(FieldId::kDensity);
  ConstCellView energy = store_->cview(FieldId::kEnergy1);
  CellView u = store_->view(FieldId::kU);
  CellView u0 = store_->view(FieldId::kU0);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { init_u_band(density, energy, u, u0, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostInitU, comm_);
}

void ManualHostBackend::apply_operator(FieldId in, FieldId out) {
  ConstCellView vin = store_->cview(in);
  CellView vout = store_->view(out);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  rows([&](int j0, int j1) {
    op_band(vin, vout, kx, ky, rx_, ry_, nx, j0, j1);
  });
  charge_kernel(geom(), ref::kCostOperator, comm_);
}

double ManualHostBackend::apply_operator_dot(FieldId in, FieldId out) {
  if (!fused_operator_dot()) return Backend::apply_operator_dot(in, out);
  ConstCellView vin = store_->cview(in);
  CellView vout = store_->view(out);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  const double result = reduce_rows([&](int j0, int j1) {
    return opdot_band(vin, vout, kx, ky, rx_, ry_, nx, j0, j1);
  });
  charge_kernel(geom(), ref::kCostOperatorDot, comm_, /*is_reduction=*/true);
  return result;
}

void ManualHostBackend::compute_residual() {
  ConstCellView u = store_->cview(FieldId::kU);
  ConstCellView u0 = store_->cview(FieldId::kU0);
  CellView r = store_->view(FieldId::kR);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  rows([&](int j0, int j1) {
    residual_band(u, u0, r, kx, ky, rx_, ry_, nx, j0, j1);
  });
  charge_kernel(geom(), ref::kCostResidual, comm_);
}

template <typename BandFn>
std::optional<double> ManualHostBackend::exchange_stencil(
    FieldId exchanged, const BandFn& band) {
  const int nx = geom().nx;
  const int ny = geom().ny;
  if (comm_ == nullptr) {
    // Each row band mirrors its own rows' halo inside the stencil's parallel
    // region: the 5-point stencil of row j reads only row j's x-halo, and
    // the y-halo rows only from the band that owns row 0 or ny-1, so no
    // band waits on another.  Partials fold exactly as reduce_rows folds.
    CellView f = store_->view(exchanged);
    const double local = reduce_rows([&](int j0, int j1) {
      reflect_band(f, nx, ny, j0, j1);
      return band(0, nx, j0, j1);
    });
    instr().add_halo_exchange();
    return local;
  }
  HaloExchange hx(store_->view(exchanged), geom(), comm_, cart_.get(),
                  /*depth=*/1);
  hx.begin();
  if (nx >= 3 && ny >= 3) {
    // Interior cells read no halo value, so they compute while the strips
    // are in flight; the one-cell boundary ring waits for the receives.
    if (pool_ != nullptr) {
      pool_->parallel_for(1, ny - 1, [&](long lo, long hi) {
        band(1, nx - 2, static_cast<int>(lo), static_cast<int>(hi));
      });
    } else {
      band(1, nx - 2, 1, ny - 1);
    }
    hx.finish();
    band(0, nx, 0, 1);
    band(0, nx, ny - 1, ny);
    band(0, 1, 1, ny - 1);
    band(nx - 1, 1, 1, ny - 1);
  } else {
    // Degenerate block: every cell touches the halo; no interior to overlap.
    hx.finish();
    rows([&](int j0, int j1) { band(0, nx, j0, j1); });
  }
  return std::nullopt;
}

void ManualHostBackend::exchange_apply_operator(FieldId in, FieldId out) {
  ConstCellView vin = store_->cview(in);
  CellView vout = store_->view(out);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  exchange_stencil(in, [&](int i0, int bnx, int j0, int j1) {
    op_band(xshift(vin, i0), xshift(vout, i0), xshift(kx, i0), xshift(ky, i0),
            rx_, ry_, bnx, j0, j1);
    return 0.0;
  });
  charge_kernel(geom(), ref::kCostOperator, comm_);
}

double ManualHostBackend::exchange_apply_operator_dot(FieldId in, FieldId out) {
  if (comm_ != nullptr || !fused_operator_dot()) {
    // Exchange and operator, then the canonical dot pass: its per-row
    // row_reduce4(in * out) is exactly the association the fused kernel
    // folds its reduction through, so the value matches bitwise.
    exchange_apply_operator(in, out);
    return dot(in, out);
  }
  ConstCellView vin = store_->cview(in);
  CellView vout = store_->view(out);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  // Undecomposed, so the bands are whole rows and their partials are the
  // fused kernel's reduction.
  const std::optional<double> result =
      exchange_stencil(in, [&](int i0, int bnx, int j0, int j1) {
        return opdot_band(xshift(vin, i0), xshift(vout, i0), xshift(kx, i0),
                          xshift(ky, i0), rx_, ry_, bnx, j0, j1);
      });
  charge_kernel(geom(), ref::kCostOperatorDot, comm_, /*is_reduction=*/true);
  return *result;
}

void ManualHostBackend::exchange_compute_residual() {
  ConstCellView u = store_->cview(FieldId::kU);
  ConstCellView u0 = store_->cview(FieldId::kU0);
  CellView r = store_->view(FieldId::kR);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  exchange_stencil(FieldId::kU, [&](int i0, int bnx, int j0, int j1) {
    residual_band(xshift(u, i0), xshift(u0, i0), xshift(r, i0), xshift(kx, i0),
                  xshift(ky, i0), rx_, ry_, bnx, j0, j1);
    return 0.0;
  });
  charge_kernel(geom(), ref::kCostResidual, comm_);
}

double ManualHostBackend::exchange_jacobi_iterate() {
  ConstCellView uold = store_->cview(FieldId::kU);
  ConstCellView u0 = store_->cview(FieldId::kU0);
  CellView w = store_->view(FieldId::kW);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  std::optional<double> err =
      exchange_stencil(FieldId::kU, [&](int i0, int bnx, int j0, int j1) {
        return jacobi_band(xshift(uold, i0), xshift(u0, i0), xshift(w, i0),
                           xshift(kx, i0), xshift(ky, i0), rx_, ry_, bnx, j0,
                           j1);
      });
  if (err.has_value()) {
    charge_kernel(geom(), ref::kCostJacobi, comm_, /*is_reduction=*/true);
  } else {
    // The overlapped sweep split rows, which changes the error partials'
    // association: re-read the error through the canonical pass.
    ConstCellView wc = store_->cview(FieldId::kW);
    const int nx = geom().nx;
    err = reduce_rows(
        [&](int j0, int j1) { return absdiff_band(wc, uold, nx, j0, j1); });
    charge_kernel(geom(), ref::kCostJacobi, comm_);
    charge_kernel(geom(), ref::kCostDot, comm_, /*is_reduction=*/true);
  }
  store_->swap_fields(FieldId::kW, FieldId::kU);
  return *err;
}

void ManualHostBackend::copy_field(FieldId src, FieldId dst) {
  ConstCellView s = store_->cview(src);
  CellView d = store_->view(dst);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { copy_band(s, d, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostCopy, comm_);
}

void ManualHostBackend::scale_copy(FieldId dst, FieldId src, double sc) {
  ConstCellView s = store_->cview(src);
  CellView d = store_->view(dst);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { scale_band(d, s, sc, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostScaleCopy, comm_);
}

double ManualHostBackend::dot(FieldId a, FieldId b) {
  ConstCellView va = store_->cview(a);
  ConstCellView vb = store_->cview(b);
  const int nx = geom().nx;
  const double result = reduce_rows(
      [&](int j0, int j1) { return dot_band(va, vb, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostDot, comm_, /*is_reduction=*/true);
  return result;
}

void ManualHostBackend::axpy(FieldId y, double a, FieldId x) {
  CellView vy = store_->view(y);
  ConstCellView vx = store_->cview(x);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { axpy_band(vy, a, vx, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostAxpy, comm_);
}

void ManualHostBackend::zaxpy(FieldId p, double beta, FieldId z) {
  CellView vp = store_->view(p);
  ConstCellView vz = store_->cview(z);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { zaxpy_band(vp, beta, vz, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostZaxpy, comm_);
}

void ManualHostBackend::precondition(FieldId dst, FieldId src) {
  CellView d = store_->view(dst);
  ConstCellView s = store_->cview(src);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  rows([&](int j0, int j1) {
    precondition_band(d, s, kx, ky, rx_, ry_, nx, j0, j1);
  });
  charge_kernel(geom(), ref::kCostOperator, comm_);
}

void ManualHostBackend::smooth_update(FieldId acc, FieldId res, FieldId w,
                                      FieldId sd, double alpha, double beta) {
  CellView vacc = store_->view(acc);
  CellView vres = store_->view(res);
  ConstCellView vw = store_->cview(w);
  CellView vsd = store_->view(sd);
  const int nx = geom().nx;
  rows([&](int j0, int j1) {
    smooth_band(vacc, vres, vw, vsd, alpha, beta, nx, j0, j1);
  });
  charge_kernel(geom(), ref::kCostSmooth, comm_);
}

void ManualHostBackend::ppcg_inner(int steps, double theta, double delta,
                                   double sigma) {
  if (comm_ != nullptr) return Backend::ppcg_inner(steps, theta, delta, sigma);
  ConstCellView r = store_->cview(FieldId::kR);
  CellView rinner = store_->view(FieldId::kRInner);
  CellView z = store_->view(FieldId::kZ);
  CellView sd = store_->view(FieldId::kSd);
  CellView w = store_->view(FieldId::kW);
  ConstCellView rinner_in = store_->cview(FieldId::kRInner);
  ConstCellView sd_in = store_->cview(FieldId::kSd);
  ConstCellView w_in = store_->cview(FieldId::kW);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  const int ny = geom().ny;
  // The default's kernels, run by each thread on its own row band inside one
  // region.  Every kernel but the operator reads only its own band's cells;
  // the operator also reads the sd rows beside the band, so two barriers
  // per step order it after every band's previous sd write and before any
  // band's next one.  Per-cell arithmetic is unchanged, so z, rinner, sd
  // and w come out bitwise identical to the default.
  tlp::Barrier barrier(pool_ != nullptr ? pool_->size() : 1);
  const auto body = [&](int tid, int nthreads) {
    const tlp::StaticRange band = tlp::static_partition(0, ny, tid, nthreads);
    const int j0 = static_cast<int>(band.begin);
    const int j1 = static_cast<int>(band.end);
    const bool owns_rows = j0 < j1;
    if (owns_rows) {
      copy_band(r, rinner, nx, j0, j1);
      scale_band(z, rinner_in, 0.0, nx, j0, j1);
      scale_band(sd, rinner_in, 1.0 / theta, nx, j0, j1);
    }
    double rho_old = 1.0 / sigma;
    for (int k = 0; k < steps; ++k) {
      const double rho_new = 1.0 / (2.0 * sigma - rho_old);
      barrier.arrive_and_wait();
      if (owns_rows) {
        reflect_band(sd, nx, ny, j0, j1);
        op_band(sd_in, w, kx, ky, rx_, ry_, nx, j0, j1);
      }
      barrier.arrive_and_wait();
      if (owns_rows) {
        smooth_band(z, rinner, w_in, sd, rho_new * rho_old,
                    2.0 * rho_new / delta, nx, j0, j1);
      }
      rho_old = rho_new;
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_region(body);
  } else {
    body(0, 1);
  }
  charge_kernel(geom(), ref::kCostCopy, comm_);
  charge_kernel(geom(), ref::kCostScaleCopy, comm_);
  charge_kernel(geom(), ref::kCostScaleCopy, comm_);
  for (int k = 0; k < steps; ++k) {
    instr().add_halo_exchange();
    charge_kernel(geom(), ref::kCostOperator, comm_);
    charge_kernel(geom(), ref::kCostSmooth, comm_);
  }
}

double ManualHostBackend::jacobi_iterate() {
  // Sweep from u (whose halo the solver just refreshed) into w, then commit
  // by swapping the two slabs instead of paying a copy-back pass.  The
  // solver refreshes u's halo before every read, so the stale halo the swap
  // leaves on the new u is never observed.
  ConstCellView uold = store_->cview(FieldId::kU);
  ConstCellView u0 = store_->cview(FieldId::kU0);
  CellView w = store_->view(FieldId::kW);
  ConstCellView kx = store_->cview(FieldId::kKx);
  ConstCellView ky = store_->cview(FieldId::kKy);
  const int nx = geom().nx;
  const double err = reduce_rows([&](int j0, int j1) {
    return jacobi_band(uold, u0, w, kx, ky, rx_, ry_, nx, j0, j1);
  });
  store_->swap_fields(FieldId::kW, FieldId::kU);
  charge_kernel(geom(), ref::kCostJacobi, comm_, /*is_reduction=*/true);
  return err;
}

FieldSummary ManualHostBackend::field_summary() {
  ConstCellView density = store_->cview(FieldId::kDensity);
  ConstCellView energy = store_->cview(FieldId::kEnergy0);
  ConstCellView u = store_->cview(FieldId::kU);
  const int nx = geom().nx;
  const int ny = geom().ny;
  const double vol_cell = cell_volume_;

  SummaryQuad total;
  if (pool_ != nullptr) {
    // Per-thread partials combined in thread order (deterministic), same as
    // every other reduction here — no mutex on the accumulation path.
    total = pool_->parallel_reduce<SummaryQuad>(
        0, ny, SummaryQuad{},
        [&](long lo, long hi) {
          return summary_band(density, energy, u, vol_cell, nx,
                              static_cast<int>(lo), static_cast<int>(hi));
        },
        [](SummaryQuad a, const SummaryQuad& b) {
          a.vol += b.vol;
          a.mass += b.mass;
          a.ie += b.ie;
          a.temp += b.temp;
          return a;
        });
  } else {
    total = summary_band(density, energy, u, vol_cell, nx, 0, ny);
  }
  FieldSummary s{total.vol, total.mass, total.ie, total.temp};
  if (comm_ != nullptr) {
    double vals[4] = {s.vol, s.mass, s.ie, s.temp};
    comm_->allreduce(tl::span<double>(vals), minimpi::ReduceOp::kSum);
    s = FieldSummary{vals[0], vals[1], vals[2], vals[3]};
  }
  charge_kernel(geom(), ref::kCostSummary, comm_, /*is_reduction=*/true);
  return s;
}

void ManualHostBackend::update_halo(std::initializer_list<FieldId> fields,
                                    int depth) {
  for (const FieldId f : fields) {
    exchange_and_reflect(store_->view(f), geom(), comm_, cart_.get(), depth);
  }
}

void ManualHostBackend::counter_fence(CounterFence phase) {
  if (comm_ != nullptr) tea::counter_fence(*comm_, phase);
}

void ManualHostBackend::finalise() {
  ConstCellView u = store_->cview(FieldId::kU);
  ConstCellView density = store_->cview(FieldId::kDensity);
  CellView energy = store_->view(FieldId::kEnergy1);
  const int nx = geom().nx;
  rows([&](int j0, int j1) { finalise_band(u, density, energy, nx, j0, j1); });
  charge_kernel(geom(), ref::kCostFinalise, comm_);
}

tea::Backend::LocalExtent ManualHostBackend::local_extent() const {
  const PartitionGeom& g = geom();
  return LocalExtent{g.x0, g.y0, g.nx, g.ny, g.gnx, g.gny};
}

void ManualHostBackend::read_field(FieldId f, tl::span<double> out) {
  const PartitionGeom& g = geom();
  TL_REQUIRE(out.size() >= static_cast<std::size_t>(g.cells()),
             "read_field buffer too small");
  ConstCellView v = store_->cview(f);
  for (int j = 0; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      out[static_cast<std::size_t>(j) * g.nx + i] = v(i, j);
    }
  }
}

std::int64_t ManualHostBackend::working_set_bytes() const {
  std::int64_t local = store_->working_set_bytes();
  // Global working set: all ranks' slabs.
  if (comm_ != nullptr) {
    local = static_cast<std::int64_t>(local) * comm_->size();
  }
  return local;
}

}  // namespace tea
