#include "linalg/eigen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace kshape::linalg {

namespace {

// Sorts (eigenvalue, eigenvector-column) pairs ascending by eigenvalue.
void SortAscending(EigenDecomposition* decomp) {
  const std::size_t n = decomp->eigenvalues.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return decomp->eigenvalues[a] < decomp->eigenvalues[b];
  });
  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = decomp->eigenvalues[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted_vectors(i, j) = decomp->eigenvectors(i, order[j]);
    }
  }
  decomp->eigenvalues = std::move(sorted_values);
  decomp->eigenvectors = std::move(sorted_vectors);
}

}  // namespace

EigenDecomposition JacobiEigen(const Matrix& a, int max_sweeps, double tol) {
  KSHAPE_CHECK_MSG(a.IsSymmetric(1e-8), "JacobiEigen requires symmetry");
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);
  const double frob = m.FrobeniusNorm();
  const double threshold = tol * (frob > 0 ? frob : 1.0);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    }
    if (std::sqrt(2.0 * off) <= threshold) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= threshold / static_cast<double>(n * n)) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t =
            (theta >= 0 ? 1.0 : -1.0) /
            (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Rotate rows/columns p and q of m.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        // Accumulate the rotation into the eigenvector matrix.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  EigenDecomposition decomp;
  decomp.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) decomp.eigenvalues[i] = m(i, i);
  decomp.eigenvectors = std::move(v);
  SortAscending(&decomp);
  return decomp;
}

namespace {

// Householder reduction of a symmetric matrix to tridiagonal form with
// accumulated transformations. Public-domain EISPACK tred2 as translated in
// JAMA. On exit `v` holds the orthogonal transform, `d` the diagonal and `e`
// the subdiagonal (e[0] unused).
void Tred2(Matrix* v_ptr, std::vector<double>* d_ptr,
           std::vector<double>* e_ptr) {
  Matrix& v = *v_ptr;
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  const int n = static_cast<int>(v.rows());

  for (int j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;

      for (int j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (int k = j; k <= i - 1; ++k) {
          v(k, j) -= (f * e[k] + g * d[k]);
        }
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  for (int i = 0; i < n - 1; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (int j = 0; j <= i; ++j) {
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (int k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal form produced by Tred2,
// updating the accumulated transform in `v`. Public-domain EISPACK tql2.
void Tql2(Matrix* v_ptr, std::vector<double>* d_ptr,
          std::vector<double>* e_ptr) {
  Matrix& v = *v_ptr;
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  const int n = static_cast<int>(v.rows());

  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::pow(2.0, -52.0);
  for (int l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int m = l;
    while (m < n) {
      if (std::fabs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        KSHAPE_CHECK_MSG(iter <= 80, "tql2 failed to converge");
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (int k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

EigenDecomposition SymmetricEigen(const Matrix& a) {
  KSHAPE_CHECK_MSG(a.IsSymmetric(1e-8), "SymmetricEigen requires symmetry");
  const std::size_t n = a.rows();
  KSHAPE_CHECK(n >= 1);

  EigenDecomposition decomp;
  decomp.eigenvectors = a;
  decomp.eigenvalues.assign(n, 0.0);
  std::vector<double> e(n, 0.0);

  if (n == 1) {
    decomp.eigenvalues[0] = a(0, 0);
    decomp.eigenvectors = Matrix::Identity(1);
    return decomp;
  }

  Tred2(&decomp.eigenvectors, &decomp.eigenvalues, &e);
  Tql2(&decomp.eigenvectors, &decomp.eigenvalues, &e);
  SortAscending(&decomp);
  return decomp;
}

namespace {

// How many times DominantEigenvector has fallen all the way through to the
// O(m^3) SymmetricEigen path; tests pin stall fixes by asserting it stays 0.
std::atomic<long long> g_full_fallbacks{0};

// Residual acceptance threshold of a stalled iterate, relative to
// max(|lambda|, 1): when ||A v - lambda v|| is this small, v is an
// eigenvector to far better accuracy than shape extraction needs, even
// though the successive-iterate test never fired (near-tied top eigenpairs
// keep the iterate rotating inside the top eigenspace forever — any vector
// in that eigenspace maximizes the Rayleigh quotient equally well).
constexpr double kResidualAcceptTol = 1e-8;

// Shifted restarts attempted before conceding to SymmetricEigen. Each costs
// at most max_iters O(m^2) products — noise next to the O(m^3) it avoids.
constexpr int kMaxShiftedRestarts = 2;

enum class PowerStatus { kConverged, kAnnihilated, kStalled };

// Power iteration on A + shift*I (sharing eigenvectors with A, eigenvalues
// translated by shift), converging when successive normalized iterates agree
// up to sign within tol. shift == 0.0 skips the axpy entirely so the
// unshifted first phase is arithmetic-for-arithmetic the historical loop.
// A is only touched through `matvec`, which fully overwrites its output.
PowerStatus RunPowerIteration(const MatVecFn& matvec, double shift,
                              int max_iters, double tol,
                              std::vector<double>* v_ptr) {
  std::vector<double>& v = *v_ptr;
  const std::size_t n = v.size();
  std::vector<double> w(n);
  for (int iter = 0; iter < max_iters; ++iter) {
    matvec(v, &w);
    if (shift != 0.0) {
      for (std::size_t i = 0; i < n; ++i) w[i] += shift * v[i];
    }
    if (NormalizeInPlace(&w) == 0.0) return PowerStatus::kAnnihilated;
    double diff_minus = 0.0;
    double diff_plus = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff_minus += (w[i] - v[i]) * (w[i] - v[i]);
      diff_plus += (w[i] + v[i]) * (w[i] + v[i]);
    }
    std::swap(v, w);
    if (std::min(std::sqrt(diff_minus), std::sqrt(diff_plus)) < tol) {
      return PowerStatus::kConverged;
    }
  }
  return PowerStatus::kStalled;
}

// ||A v - lambda v|| for unit-norm v.
double EigenResidual(const MatVecFn& matvec, const std::vector<double>& v,
                     double lambda) {
  std::vector<double> av(v.size());
  matvec(v, &av);
  double r2 = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double r = av[i] - lambda * v[i];
    r2 += r * r;
  }
  return std::sqrt(r2);
}

// Rayleigh quotient through the operator, sharing the arithmetic of the
// Matrix overload below (denominator first, then one matvec, then the dot).
double RayleighQuotientOp(const MatVecFn& matvec,
                          const std::vector<double>& v) {
  const double denom = Dot(v, v);
  KSHAPE_CHECK_MSG(denom > 0.0, "Rayleigh quotient of the zero vector");
  std::vector<double> av(v.size());
  matvec(v, &av);
  return Dot(v, av) / denom;
}

}  // namespace

long long DominantEigenvectorFallbackCountForTesting() {
  return g_full_fallbacks.load(std::memory_order_relaxed);
}

void ResetDominantEigenvectorFallbackCountForTesting() {
  g_full_fallbacks.store(0, std::memory_order_relaxed);
}

std::vector<double> DominantEigenvectorOp(
    std::size_t n, const MatVecFn& matvec, const MaterializeFn& materialize,
    common::Rng* rng, int max_iters, double tol, double* eigenvalue,
    const std::vector<double>* initial) {
  KSHAPE_CHECK(n >= 1);

  std::vector<double> v;
  bool warm = false;
  if (initial != nullptr && initial->size() == n) {
    v = *initial;
    warm = NormalizeInPlace(&v) > 0.0;
  }
  if (!warm) {
    // Cold start: random direction (almost surely non-orthogonal to the
    // dominant eigenvector).
    KSHAPE_CHECK_MSG(rng != nullptr, "cold start without an rng");
    v.resize(n);
    for (auto& x : v) x = rng->Gaussian();
    NormalizeInPlace(&v);
  }

  PowerStatus status = RunPowerIteration(matvec, 0.0, max_iters, tol, &v);
  if (status == PowerStatus::kAnnihilated) {
    // The operator annihilated v: it is (numerically) zero on this subspace;
    // any unit vector is a valid answer for a zero operator.
    if (eigenvalue != nullptr) *eigenvalue = 0.0;
    return v;
  }
  if (status == PowerStatus::kConverged) {
    if (eigenvalue != nullptr) *eigenvalue = RayleighQuotientOp(matvec, v);
    return v;
  }

  // Stalled: the top eigenpairs are nearly tied (in magnitude). Two cheap
  // escapes run before the O(m^3) full decomposition:
  //  1. Residual acceptance — when the top eigenVALUES tie (the PSD shape-
  //     extraction case: e.g. a uniformly-phase-shifted corpus whose sin/cos
  //     pair is degenerate), the iterate stops moving *between* eigenvectors
  //     but keeps rotating *within* the top eigenspace; its residual is tiny
  //     and any such vector is an equally valid maximizer.
  //  2. Shifted restarts — when a tie is in magnitude only (lambda_min ~
  //     -lambda_max), iterating on A + shift*I with shift ~ |lambda| breaks
  //     the sign oscillation: the negative end maps near zero while the
  //     dominant end doubles.
  double lambda = RayleighQuotientOp(matvec, v);
  if (EigenResidual(matvec, v, lambda) <=
      kResidualAcceptTol * std::max(std::fabs(lambda), 1.0)) {
    if (eigenvalue != nullptr) *eigenvalue = lambda;
    return v;
  }
  for (int restart = 0; restart < kMaxShiftedRestarts; ++restart) {
    const double shift = std::max(std::fabs(lambda), 1.0);
    status = RunPowerIteration(matvec, shift, max_iters, tol, &v);
    if (status == PowerStatus::kAnnihilated) break;
    lambda = RayleighQuotientOp(matvec, v);
    if (status == PowerStatus::kConverged ||
        EigenResidual(matvec, v, lambda) <=
            kResidualAcceptTol * std::max(std::fabs(lambda), 1.0)) {
      if (eigenvalue != nullptr) *eigenvalue = lambda;
      return v;
    }
  }

  // Last resort: the deterministic full decomposition, on the lazily
  // materialized dense form — the only point in the call that touches it.
  g_full_fallbacks.fetch_add(1, std::memory_order_relaxed);
  EigenDecomposition decomp = SymmetricEigen(materialize());
  std::size_t best = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (std::fabs(decomp.eigenvalues[j]) >
        std::fabs(decomp.eigenvalues[best])) {
      best = j;
    }
  }
  if (eigenvalue != nullptr) *eigenvalue = decomp.eigenvalues[best];
  return decomp.eigenvectors.ColVector(best);
}

std::vector<double> DominantEigenvector(const Matrix& a, common::Rng* rng,
                                        int max_iters, double tol,
                                        double* eigenvalue,
                                        const std::vector<double>* initial) {
  KSHAPE_CHECK(a.rows() == a.cols());
  // The dense path is the operator path with MultiplyVector as the matvec:
  // identical kernel calls in identical order, so results (and every stall
  // decision) are bit-identical to iterating on the matrix directly.
  const MatVecFn matvec = [&a](const std::vector<double>& v,
                               std::vector<double>* out) {
    *out = a.MultiplyVector(v);
  };
  return DominantEigenvectorOp(
      a.rows(), matvec, [&a] { return a; }, rng, max_iters, tol, eigenvalue,
      initial);
}

double RayleighQuotient(const Matrix& a, const std::vector<double>& v) {
  const double denom = Dot(v, v);
  KSHAPE_CHECK_MSG(denom > 0.0, "Rayleigh quotient of the zero vector");
  return Dot(v, a.MultiplyVector(v)) / denom;
}

}  // namespace kshape::linalg
