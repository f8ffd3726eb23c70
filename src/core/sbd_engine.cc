#include "core/sbd_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/env_gate.h"
#include "common/parallel.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"

namespace kshape::core {

namespace {

// Checkpoint cadence of the spectral-bound suffix arrays; must match the
// abs_product_partial_sums kernel contract (16 elements per band).
constexpr std::size_t kBoundCheckpoint = 16;

// Fills one weighted magnitude plane mag[k] = sqrt(w_k |X_k|^2) over the
// packed bins (w = 2 on interior bins whose conjugate mirror was folded in,
// 1 on DC and — for even fft_len — Nyquist), then the checkpointed suffix
// norms tail[c] = sqrt(Σ_{k >= 16c} mag[k]^2). Sequential per series, so the
// plane contents are a fixed arithmetic sequence regardless of thread count.
// `bin(k)` returns the packed bin (re, im).
template <typename BinFn>
void FillBoundPlane(std::size_t fft_len, std::size_t bins, std::size_t ntail,
                    BinFn bin, double* mag, double* tail) {
  const bool has_nyquist = (fft_len % 2 == 0) && bins >= 2;
  for (std::size_t k = 0; k < bins; ++k) {
    const auto [br, bi] = bin(k);
    const double w = (k == 0 || (has_nyquist && k == bins - 1)) ? 1.0 : 2.0;
    mag[k] = std::sqrt(w * (br * br + bi * bi));
  }
  double energy = 0.0;
  std::size_t k = bins;
  for (std::size_t c = ntail; c-- > 0;) {
    const std::size_t lo = kBoundCheckpoint * c;
    for (; k > lo; --k) energy += mag[k - 1] * mag[k - 1];
    tail[c] = std::sqrt(energy);
  }
}

// Lag telemetry in per-thread cells: each cell sits on its own cache line
// and only its owning thread writes it (a relaxed load + store, no contended
// read-modify-write), while PeakScanStats() sums every cell. A thread takes
// a free cell on its first count and frees it at exit; the cell keeps its
// count for the sum and for the next thread that takes it, so the total is
// exact and the cell count stays bounded by the live threads.
struct alignas(64) LagCell {
  std::atomic<long long> scanned{0};
  bool in_use = false;  // guarded by LagCells::mu
};

struct LagCells {
  std::mutex mu;
  std::vector<std::unique_ptr<LagCell>> cells;
};

// Never destroyed: thread exits (and their cell releases) can run after
// static destruction begins.
LagCells& Cells() {
  static auto* cells = new LagCells();
  return *cells;
}

class LagCellLease {
 public:
  LagCellLease() {
    LagCells& all = Cells();
    std::lock_guard<std::mutex> lock(all.mu);
    for (const auto& c : all.cells) {
      if (!c->in_use) {
        cell_ = c.get();
        break;
      }
    }
    if (cell_ == nullptr) {
      all.cells.push_back(std::make_unique<LagCell>());
      cell_ = all.cells.back().get();
    }
    cell_->in_use = true;
  }
  ~LagCellLease() {
    std::lock_guard<std::mutex> lock(Cells().mu);
    cell_->in_use = false;
  }
  LagCellLease(const LagCellLease&) = delete;
  LagCellLease& operator=(const LagCellLease&) = delete;

  void Add(std::size_t lags) {
    std::atomic<long long>& c = cell_->scanned;
    c.store(c.load(std::memory_order_relaxed) + static_cast<long long>(lags),
            std::memory_order_relaxed);
  }

 private:
  LagCell* cell_ = nullptr;
};

// Peak of one lag buffer: a single dispatched scan over all 2m-1 lags.
simd::Peak ScanLags(const std::vector<double>& cc) {
  static thread_local LagCellLease lease;
  lease.Add(cc.size());
  return simd::PeakScan(cc);
}

// Peak of the raw cross-correlation of two cached full-complex spectra. The
// cc buffer is thread_local so concurrent per-pair evaluations write
// disjoint scratch.
simd::Peak PeakFromSpectra(const std::vector<fft::Complex>& x_spectrum,
                           const std::vector<fft::Complex>& y_spectrum,
                           std::size_t m) {
  static thread_local std::vector<double> cc;
  fft::CrossCorrelationFromSpectra(x_spectrum, y_spectrum, m, &cc);
  return ScanLags(cc);
}

// Half-spectrum counterpart: SoA multiply-conjugate + one inverse real
// transform on the caller-supplied (batch-amortized) plan.
simd::Peak PeakFromRfft(const fft::RfftPlan& plan, const fft::RfftView& x,
                        const fft::RfftView& y, std::size_t m) {
  static thread_local std::vector<double> cc;
  fft::CrossCorrelationFromRfft(plan, x, y, m, &cc);
  return ScanLags(cc);
}

common::EnvGate g_pruning{"KSHAPE_PRUNE"};

}  // namespace

bool PruningEnabled() { return g_pruning.enabled(); }

void SetPruningEnabledForTesting(bool enabled) {
  g_pruning.SetForTesting(enabled);
}

PeakScanTelemetry PeakScanStats() {
  LagCells& all = Cells();
  std::lock_guard<std::mutex> lock(all.mu);
  PeakScanTelemetry t;
  for (const auto& c : all.cells) {
    t.lags_scanned += c->scanned.load(std::memory_order_relaxed);
  }
  return t;
}

void ResetPeakScanStatsForTesting() {
  LagCells& all = Cells();
  std::lock_guard<std::mutex> lock(all.mu);
  for (const auto& c : all.cells) {
    c->scanned.store(0, std::memory_order_relaxed);
  }
}

SbdEngine::SbdEngine(const tseries::SeriesBatch& series,
                     CrossCorrelationImpl impl, bool use_half_spectrum,
                     bool build_bound_planes) {
  Allocate(series, impl, use_half_spectrum, build_bound_planes);
  const RowState full = has_bound_planes() ? kPlanes : kSpectrum;
  series_ = series;
  // Same per-row arithmetic as BuildRows, over every row.
  common::ParallelFor(0, size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) BuildRow(i, full);
  });
  std::fill(built_.begin(), built_.end(), full);
  series_ = tseries::SeriesBatch();
}

SbdEngine::SbdEngine(const tseries::SeriesBatch& series, DeferRows,
                     CrossCorrelationImpl impl, bool use_half_spectrum,
                     bool build_bound_planes)
    : series_(series) {
  Allocate(series, impl, use_half_spectrum, build_bound_planes);
}

void SbdEngine::Allocate(const tseries::SeriesBatch& series,
                         CrossCorrelationImpl impl, bool use_half_spectrum,
                         bool build_bound_planes) {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK_MSG(impl != CrossCorrelationImpl::kNaive,
                   "SbdEngine caches spectra; the naive path has none");
  m_ = series.length();
  KSHAPE_CHECK(m_ >= 1);
  fft_len_ = impl == CrossCorrelationImpl::kFft
                 ? fft::NextPowerOfTwo(2 * m_ - 1)
                 : 2 * m_ - 1;
  half_ = use_half_spectrum;

  const std::size_t n = series.size();
  norms_.resize(n);
  built_.assign(n, kUnbuilt);
  if (half_) {
    // One plan lookup for the whole batch, one contiguous SoA pool for all
    // spectra: row builds only run transforms into disjoint slots.
    batch_.emplace(n, fft_len_);
  } else {
    spectra_.resize(n);
  }
  if (build_bound_planes) {
    bound_bins_ = fft::RfftBins(fft_len_);
    bound_tails_ = bound_bins_ / kBoundCheckpoint + 1;
    mags_ = std::make_unique_for_overwrite<double[]>(n * bound_bins_);
    tails_ = std::make_unique_for_overwrite<double[]>(n * bound_tails_);
  }
}

void SbdEngine::BuildRow(std::size_t i, RowState target) {
  const tseries::SeriesView row = series_[i];
  if (built_[i] == kUnbuilt) {
    if (half_) {
      batch_->Transform(i, row);
    } else {
      spectra_[i] = fft::Spectrum(row, fft_len_);
    }
    norms_[i] = linalg::Norm(row);
  }
  if (target != kPlanes) return;
  double* mag = mags_.get() + i * bound_bins_;
  double* tail = tails_.get() + i * bound_tails_;
  if (half_) {
    const fft::RfftView v = batch_->view(i);
    FillBoundPlane(
        fft_len_, bound_bins_, bound_tails_,
        [&](std::size_t k) { return std::pair(v.re[k], v.im[k]); }, mag,
        tail);
  } else {
    const std::vector<fft::Complex>& s = spectra_[i];
    FillBoundPlane(
        fft_len_, bound_bins_, bound_tails_,
        [&](std::size_t k) { return std::pair(s[k].real(), s[k].imag()); },
        mag, tail);
  }
}

void SbdEngine::BuildRows(std::span<const std::size_t> rows,
                          std::span<const std::size_t> plane_rows) {
  const RowState full = has_bound_planes() ? kPlanes : kSpectrum;
  // The rows to build, and the state each is built up to.
  std::vector<std::size_t> todo;
  std::vector<RowState> target(size(), kUnbuilt);
  const auto want = [&](std::size_t i, RowState state) {
    KSHAPE_CHECK(i < size());
    if (built_[i] >= state || target[i] >= state) return;
    if (target[i] == kUnbuilt) todo.push_back(i);
    target[i] = state;
  };
  for (const std::size_t i : plane_rows) want(i, full);
  for (const std::size_t i : rows) want(i, kSpectrum);
  if (todo.empty()) return;
  // Each row writes only its own spectrum/norm/plane slots, and each
  // per-row FFT is a fixed arithmetic sequence, so the cache contents are
  // bit-identical at every thread count and whichever rows are built first.
  common::ParallelFor(0, todo.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      BuildRow(todo[t], target[todo[t]]);
    }
  });
  for (const std::size_t i : todo) built_[i] = target[i];
}

void SbdEngine::CheckBuilt(std::size_t i, RowState state) const {
  KSHAPE_CHECK(i < size());
  KSHAPE_CHECK_MSG(built_[i] >= state, "engine row read before it was built");
}

SbdEngine::Query SbdEngine::MakeQuery(tseries::SeriesView q) const {
  return MakeQueryFor(q, m_, fft_len_, half_, has_bound_planes());
}

SbdEngine::Query SbdEngine::MakeQueryFor(tseries::SeriesView q, std::size_t m,
                                         std::size_t fft_len,
                                         bool use_half_spectrum,
                                         bool build_bound_planes) {
  KSHAPE_CHECK_MSG(q.size() == m, "query length mismatch");
  KSHAPE_CHECK(fft_len >= 2 * m - 1);
  Query query;
  if (use_half_spectrum) {
    query.rspectrum = fft::RfftForward(q, fft_len);
  } else {
    query.spectrum = fft::Spectrum(q, fft_len);
  }
  query.norm = linalg::Norm(q);
  if (build_bound_planes) {
    // Same derived plane geometry as the engine constructor.
    const std::size_t bins = fft::RfftBins(fft_len);
    const std::size_t ntail = bins / kBoundCheckpoint + 1;
    query.mag.resize(bins);
    query.tail.resize(ntail);
    if (use_half_spectrum) {
      const fft::RfftView v = query.rspectrum.view();
      FillBoundPlane(
          fft_len, bins, ntail,
          [&](std::size_t k) { return std::pair(v.re[k], v.im[k]); },
          query.mag.data(), query.tail.data());
    } else {
      const std::vector<fft::Complex>& s = query.spectrum;
      FillBoundPlane(
          fft_len, bins, ntail,
          [&](std::size_t k) { return std::pair(s[k].real(), s[k].imag()); },
          query.mag.data(), query.tail.data());
    }
  }
  return query;
}

simd::Peak SbdEngine::RawPeak(std::size_t i, std::size_t j) const {
  if (half_) {
    return PeakFromRfft(batch_->plan(), batch_->view(i), batch_->view(j), m_);
  }
  return PeakFromSpectra(spectra_[i], spectra_[j], m_);
}

simd::Peak SbdEngine::RawPeak(const Query& q, std::size_t i) const {
  if (half_) {
    KSHAPE_CHECK_MSG(q.rspectrum.fft_len == fft_len_,
                     "query minted by a different engine configuration");
    return PeakFromRfft(batch_->plan(), q.rspectrum.view(), batch_->view(i),
                        m_);
  }
  KSHAPE_CHECK_MSG(q.spectrum.size() == fft_len_,
                   "query minted by a different engine configuration");
  return PeakFromSpectra(q.spectrum, spectra_[i], m_);
}

double SbdEngine::Distance(std::size_t i, std::size_t j) const {
  CheckBuilt(i, kSpectrum);
  CheckBuilt(j, kSpectrum);
  const double den = norms_[i] * norms_[j];
  if (den == 0.0) return 1.0;
  return 1.0 - RawPeak(i, j).value * (1.0 / den);
}

double SbdEngine::Distance(const Query& q, std::size_t i) const {
  CheckBuilt(i, kSpectrum);
  const double den = q.norm * norms_[i];
  if (den == 0.0) return 1.0;
  return 1.0 - RawPeak(q, i).value * (1.0 / den);
}

NccPeak SbdEngine::MaxNcc(const Query& q, std::size_t i) const {
  CheckBuilt(i, kSpectrum);
  NccPeak peak;
  const double den = q.norm * norms_[i];
  // Zero-norm pair: NCCc is identically zero, so no shift is preferable —
  // value 0 at shift 0, the convention of Sbd() and MaxNcc().
  if (den == 0.0) return peak;
  const simd::Peak raw = RawPeak(q, i);
  peak.value = raw.value * (1.0 / den);
  peak.shift = static_cast<int>(raw.index) - static_cast<int>(m_ - 1);
  return peak;
}

void SbdEngine::DistanceToAll(const Query& q, std::vector<double>* out) const {
  const std::size_t n = size();
  out->resize(n);
  common::ParallelFor(0, n, 16, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      (*out)[i] = Distance(q, i);
    }
  });
}

std::vector<double> SbdEngine::DistanceToAll(tseries::SeriesView query) const {
  std::vector<double> out;
  DistanceToAll(MakeQuery(query), &out);
  return out;
}

linalg::Matrix SbdEngine::PairwiseMatrix() const {
  const std::size_t n = size();
  linalg::Matrix d(n, n);
  // Same disjoint-write row pattern (and therefore the same bitwise
  // thread-count invariance) as the generic PairwiseDistanceMatrix builder.
  common::ParallelFor(0, n, 1, [&](std::size_t row_begin,
                                   std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = Distance(i, j);
        d(i, j) = dist;
        d(j, i) = dist;
      }
    }
  });
  return d;
}

double SbdEngine::NccUpperBound(const Query& q, std::size_t i) const {
  KSHAPE_CHECK_MSG(has_bound_planes() && !q.mag.empty(),
                   "spectral bound requires bound planes on engine and query");
  CheckBuilt(i, kPlanes);
  const double den = q.norm * norms_[i];
  if (den == 0.0) return 0.0;
  const double s =
      simd::Active().dot(q.mag.data(), mags_.get() + i * bound_bins_,
                         bound_bins_);
  return s / (static_cast<double>(fft_len_) * den);
}

double SbdEngine::DistanceWithAbandon(const Query& q, std::size_t i,
                                      double cutoff, bool* abandoned) const {
  KSHAPE_CHECK_MSG(has_bound_planes() && !q.mag.empty(),
                   "spectral bound requires bound planes on engine and query");
  CheckBuilt(i, kPlanes);
  *abandoned = false;
  const double den = q.norm * norms_[i];
  if (den == 0.0) return 1.0;  // Sbd() zero-norm convention, exact.
  // SBD > cutoff  ⟺  peak NCC < 1 - cutoff  ⟸  Σ w|Q||X| < (1-cutoff)·N·den.
  const double n_den = static_cast<double>(fft_len_) * den;
  const double threshold = (1.0 - cutoff) * n_den;
  const double s = simd::Active().abs_product_partial_sums(
      q.mag.data(), mags_.get() + i * bound_bins_, q.tail.data(),
      tails_.get() + i * bound_tails_, bound_bins_, threshold);
  if (s < threshold) {
    // s is an upper bound on the full magnitude sum, so 1 - s/(N·den) is a
    // valid lower bound on the distance, and it exceeds cutoff.
    *abandoned = true;
    return 1.0 - s / n_den;
  }
  return Distance(q, i);
}

void SbdEngine::PairwiseFlat(std::vector<double>* flat) const {
  const std::size_t n = size();
  flat->assign(n * n, 0.0);
  common::ParallelFor(0, n, 1, [&](std::size_t row_begin,
                                   std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = Distance(i, j);
        (*flat)[i * n + j] = dist;
        (*flat)[j * n + i] = dist;
      }
    }
  });
}

}  // namespace kshape::core
