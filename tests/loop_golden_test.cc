// Golden outputs of the two shape-based clusterers that are not k-Shape:
// KSC (cluster/ksc.h) and multivariate k-Shape (core/multivariate.h). Each
// case hashes one seeded fit — final labels, centroid bits, iterations,
// converged, empty-cluster reseeds, degenerate centroids and the caller's
// next rng draw — so any change to either loop's arithmetic or draw order
// shows up as a changed hash.
//
// KSC must match every hash exactly. Multivariate k-Shape may differ only at
// a certified near-tie: a case whose hash moved must, somewhere along its
// trajectory, hold an assignment whose two best mSBD distances, or a member
// alignment whose two best summed-NCC lags, lie within 1e-9 of each other —
// the decisions two roundings of the same cross-correlation may legitimately
// resolve differently. The trajectory is replayed by refitting with
// max_iterations = 1, 2, ..., and the gaps are measured with a naive
// time-domain cross-correlation, independent of every FFT path. The count of
// near-tie cases is printed, not hidden.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/algorithm.h"
#include "cluster/ksc.h"
#include "common/random.h"
#include "core/multivariate.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;
constexpr double kNearTie = 1e-9;

// FNV-1a over the raw bytes of each value.
class Hasher {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(h));
  return buf;
}

// Looks `name` up in `golden`; prints the computed hash either way so a
// deliberate change can be re-pinned from the log.
bool MatchesGolden(const std::map<std::string, std::uint64_t>& golden,
                   const std::string& name, std::uint64_t hash) {
  std::cout << "  {\"" << name << "\", " << Hex(hash) << "},\n";
  const auto it = golden.find(name);
  return it != golden.end() && it->second == hash;
}

// ---------------------------------------------------------------------------
// KSC
// ---------------------------------------------------------------------------

// Three classes of scaled, shifted sines plus noise (KSC is scale-invariant,
// so the rows are left raw).
std::vector<Series> ScaledShapes(std::size_t n, std::size_t m,
                                 common::Rng* rng) {
  std::vector<Series> rows(n, Series(m));
  for (std::size_t i = 0; i < n; ++i) {
    const double cycles = 1.0 + static_cast<double>(i % 3);
    const double scale = rng->Uniform(0.5, 3.0);
    const double phase = rng->Uniform(0.0, 2.0 * kPi);
    for (std::size_t t = 0; t < m; ++t) {
      rows[i][t] = scale * std::sin(2.0 * kPi * cycles * t / m + phase) +
                   rng->Gaussian(0.0, 0.1);
    }
  }
  return rows;
}

// Values in {-1, 0, 1}: exact shift ties are common.
std::vector<Series> Ternary(std::size_t n, std::size_t m, common::Rng* rng) {
  std::vector<Series> rows(n, Series(m));
  for (Series& row : rows) {
    for (double& v : row) v = rng->UniformInt(3) - 1;
  }
  return rows;
}

// ScaledShapes with three all-zero rows.
std::vector<Series> WithZeroRows(std::size_t n, std::size_t m,
                                 common::Rng* rng) {
  std::vector<Series> rows = ScaledShapes(n, m, rng);
  for (const std::size_t i : {0u, 5u, 11u}) {
    std::fill(rows[i].begin(), rows[i].end(), 0.0);
  }
  return rows;
}

std::uint64_t HashResult(const cluster::ClusteringResult& r,
                         common::Rng* rng) {
  Hasher h;
  for (const int a : r.assignments) h.Add(a);
  for (const Series& c : r.centroids) {
    for (const double v : c) h.Add(v);
  }
  h.Add(r.iterations);
  h.Add(r.converged);
  h.Add(r.empty_cluster_reseeds);
  h.Add(r.degenerate_centroids);
  h.Add(rng->NextUint64());
  return h.value();
}

const std::map<std::string, std::uint64_t>& KscGolden() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"ksc/shapes/m16/k1", 0x6db70238791725fdULL},
      {"ksc/shapes/m16/k2", 0xb6fa0180919fb898ULL},
      {"ksc/shapes/m16/k3", 0x13cafeb6b4a93810ULL},
      {"ksc/shapes/m16/k8", 0x90d62d47ec356419ULL},
      {"ksc/shapes/m32/k1", 0xc47c95577dce0f17ULL},
      {"ksc/shapes/m32/k2", 0x014c243484470702ULL},
      {"ksc/shapes/m32/k3", 0x9c32d3913af3400cULL},
      {"ksc/shapes/m32/k8", 0x895726f8f1b848eaULL},
      {"ksc/shapes/m64/k1", 0x0dfc8304ba682f4dULL},
      {"ksc/shapes/m64/k2", 0x94e9830d2e03dc6fULL},
      {"ksc/shapes/m64/k3", 0x69928b488c7b6fa8ULL},
      {"ksc/shapes/m64/k8", 0x27213775f3c3b063ULL},
      {"ksc/shapes/m129/k1", 0xa2010ddd383e897aULL},
      {"ksc/shapes/m129/k2", 0xc43ae66b70660b5bULL},
      {"ksc/shapes/m129/k3", 0x31c8cd425d299deaULL},
      {"ksc/shapes/m129/k8", 0xd13f58c404aa96e4ULL},
      {"ksc/ternary/m16/k1", 0x274bcd5de84b8595ULL},
      {"ksc/ternary/m16/k2", 0x41a2766e3b80bab8ULL},
      {"ksc/ternary/m16/k3", 0x4187eac46b8c68daULL},
      {"ksc/ternary/m16/k8", 0xa07218440bd308d6ULL},
      {"ksc/ternary/m32/k1", 0x7a5b5ca8d0adbe90ULL},
      {"ksc/ternary/m32/k2", 0x2f288e62ce1215dcULL},
      {"ksc/ternary/m32/k3", 0x997319248b6d72bcULL},
      {"ksc/ternary/m32/k8", 0x5a771cd401927fdcULL},
      {"ksc/ternary/m64/k1", 0x9c07dd3e0570f6a6ULL},
      {"ksc/ternary/m64/k2", 0xd57069c07aa860d9ULL},
      {"ksc/ternary/m64/k3", 0x22f3ae3d5b2f885fULL},
      {"ksc/ternary/m64/k8", 0x9e9d4a980b858b4dULL},
      {"ksc/ternary/m129/k1", 0x295000c3b0cec2deULL},
      {"ksc/ternary/m129/k2", 0x163e7091f2548cc9ULL},
      {"ksc/ternary/m129/k3", 0x1358cd4ab34a0cabULL},
      {"ksc/ternary/m129/k8", 0x4dbe00d2f08cf8ceULL},
      {"ksc/zeros/m16/k1", 0x9507020a4a0076b3ULL},
      {"ksc/zeros/m16/k2", 0xcd2c4c47c625d750ULL},
      {"ksc/zeros/m16/k3", 0x3bf7276f7b69217dULL},
      {"ksc/zeros/m16/k8", 0x2632052245a43cafULL},
      {"ksc/zeros/m32/k1", 0x8bbdb130a3317e30ULL},
      {"ksc/zeros/m32/k2", 0x9e3186c0e4d6f747ULL},
      {"ksc/zeros/m32/k3", 0xfd7c747ec9fb486fULL},
      {"ksc/zeros/m32/k8", 0xd46cb293d403499cULL},
      {"ksc/zeros/m64/k1", 0x8f54a3f2c015c121ULL},
      {"ksc/zeros/m64/k2", 0xd4bca3d28f695120ULL},
      {"ksc/zeros/m64/k3", 0x58f38e5e5bd18459ULL},
      {"ksc/zeros/m64/k8", 0x673112b19a865fd6ULL},
      {"ksc/zeros/m129/k1", 0x1b7c76b61625ba8aULL},
      {"ksc/zeros/m129/k2", 0x7299fca8ab249af7ULL},
      {"ksc/zeros/m129/k3", 0xaab275d03040810dULL},
      {"ksc/zeros/m129/k8", 0xe6a85d928f0bc70dULL},
  };
  return golden;
}

TEST(LoopGoldenTest, KscMatchesGoldenBitwise) {
  using Corpus = std::vector<Series> (*)(std::size_t, std::size_t,
                                         common::Rng*);
  const std::pair<const char*, Corpus> corpora[] = {
      {"shapes", ScaledShapes}, {"ternary", Ternary}, {"zeros", WithZeroRows}};
  const cluster::Ksc ksc;
  int mismatches = 0;
  int cases = 0;
  std::uint64_t seed = 1;
  for (const auto& [corpus_name, corpus] : corpora) {
    for (const std::size_t m : {16u, 32u, 64u, 129u}) {
      for (const int k : {1, 2, 3, 8}) {
        common::Rng corpus_rng(seed);
        const std::vector<Series> rows = corpus(24, m, &corpus_rng);
        common::Rng rng(seed + 1000);
        const cluster::ClusteringResult result = ksc.Cluster(rows, k, &rng);
        const std::string name = std::string("ksc/") + corpus_name + "/m" +
                                 std::to_string(m) + "/k" + std::to_string(k);
        ++cases;
        if (!MatchesGolden(KscGolden(), name, HashResult(result, &rng))) {
          ++mismatches;
          ADD_FAILURE() << name << " differs from its golden hash";
        }
        ++seed;
      }
    }
  }
  std::cout << "KSC golden: " << cases - mismatches << "/" << cases
            << " cases bitwise\n";
}

// ---------------------------------------------------------------------------
// Multivariate k-Shape
// ---------------------------------------------------------------------------

using core::MultivariateSeries;

// Three classes; channel c of class q is a sine of q + 1 + c cycles, every
// channel delayed by one common random phase, z-normalized per channel.
std::vector<MultivariateSeries> MvShapes(std::size_t n, std::size_t d,
                                         std::size_t m, common::Rng* rng) {
  std::vector<MultivariateSeries> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = rng->Uniform(0.0, 2.0 * kPi);
    out[i].channels.assign(d, Series(m));
    for (std::size_t c = 0; c < d; ++c) {
      const double cycles = 1.0 + static_cast<double>(i % 3 + c);
      for (std::size_t t = 0; t < m; ++t) {
        out[i].channels[c][t] =
            std::sin(2.0 * kPi * cycles * t / m + phase) +
            rng->Gaussian(0.0, 0.1);
      }
    }
    core::ZNormalizeMultivariate(&out[i]);
  }
  return out;
}

// MvShapes with raw constant data and one all-zero series: for d >= 2 the
// last channel of every series is a raw constant (so the common shift must
// still move it once the rest of the centroid is nonzero); for d = 1 every
// fourth series is. Series 0 is zero in every channel.
std::vector<MultivariateSeries> MvRawConstant(std::size_t n, std::size_t d,
                                              std::size_t m,
                                              common::Rng* rng) {
  std::vector<MultivariateSeries> out = MvShapes(n, d, m, rng);
  for (std::size_t i = 0; i < n; ++i) {
    if (d == 1 && i % 4 != 1) continue;
    const double level = 1.0 + static_cast<double>(i % 3);
    std::fill(out[i].channels[d - 1].begin(), out[i].channels[d - 1].end(),
              level);
  }
  for (Series& channel : out[0].channels) {
    std::fill(channel.begin(), channel.end(), 0.0);
  }
  return out;
}

std::uint64_t HashResult(const core::MultivariateClusteringResult& r,
                         common::Rng* rng) {
  Hasher h;
  for (const int a : r.assignments) h.Add(a);
  for (const MultivariateSeries& c : r.centroids) {
    for (const Series& channel : c.channels) {
      for (const double v : channel) h.Add(v);
    }
  }
  h.Add(r.iterations);
  h.Add(r.converged);
  h.Add(r.empty_cluster_reseeds);
  h.Add(r.degenerate_centroids);
  h.Add(rng->NextUint64());
  return h.value();
}

double Energy(const MultivariateSeries& s) {
  double e = 0.0;
  for (const Series& channel : s.channels) {
    for (const double v : channel) e += v * v;
  }
  return e;
}

// The summed, normalized cross-correlation of x and y at every lag, naive
// O(d·m²) in the time domain. Requires nonzero energies.
std::vector<double> SummedNcc(const MultivariateSeries& x,
                              const MultivariateSeries& y) {
  const int m = static_cast<int>(x.length());
  std::vector<double> ncc(2 * m - 1, 0.0);
  for (std::size_t c = 0; c < x.num_channels(); ++c) {
    for (int s = -(m - 1); s <= m - 1; ++s) {
      double sum = 0.0;
      for (int t = std::max(0, s); t < std::min(m, m + s); ++t) {
        sum += x.channels[c][t] * y.channels[c][t - s];
      }
      ncc[s + m - 1] += sum;
    }
  }
  const double den = std::sqrt(Energy(x) * Energy(y));
  for (double& v : ncc) v /= den;
  return ncc;
}

// Gap between the largest and second-largest values (infinity for fewer
// than two).
double TopTwoGap(std::vector<double> values, bool largest) {
  if (values.size() < 2) return std::numeric_limits<double>::infinity();
  if (!largest) {
    for (double& v : values) v = -v;
  }
  std::partial_sort(values.begin(), values.begin() + 2, values.end(),
                    std::greater<double>());
  return values[0] - values[1];
}

// The smallest decision gap along a fit's trajectory: at every iteration t,
// each series' two best mSBD distances to t's centroids, and each member's
// two best summed-NCC lags toward the centroid t+1 refines it against.
// Zero-energy series and centroids are left out: their distance is exactly
// 1 and their shift exactly 0 on every path, so they never part two paths.
double MinDecisionGap(const std::vector<MultivariateSeries>& series, int k,
                      std::uint64_t seed, int iterations) {
  double gap = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= iterations; ++t) {
    core::MultivariateKShapeOptions options;
    options.max_iterations = t;
    common::Rng rng(seed);
    const core::MultivariateClusteringResult state =
        core::MultivariateKShape(options).Cluster(series, k, &rng);
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (Energy(series[i]) == 0.0) continue;
      std::vector<double> distances;
      for (int j = 0; j < k; ++j) {
        const MultivariateSeries& centroid = state.centroids[j];
        if (Energy(centroid) == 0.0) continue;
        const std::vector<double> ncc = SummedNcc(centroid, series[i]);
        distances.push_back(1.0 - *std::max_element(ncc.begin(), ncc.end()));
        if (j == state.assignments[i] && t < iterations) {
          gap = std::min(gap, TopTwoGap(ncc, /*largest=*/true));
        }
      }
      gap = std::min(gap, TopTwoGap(distances, /*largest=*/false));
    }
  }
  return gap;
}

const std::map<std::string, std::uint64_t>& MultivariateGolden() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"mv/shapes/d1/m32/k1", 0xb0a06920978a0405ULL},
      {"mv/shapes/d1/m32/k2", 0xbb08d0257a64b164ULL},
      {"mv/shapes/d1/m32/k4", 0x6604a1f64566d5fcULL},
      {"mv/shapes/d1/m65/k1", 0x8bf44ec71f583aa9ULL},
      {"mv/shapes/d1/m65/k2", 0xf48d741c2c71a055ULL},
      {"mv/shapes/d1/m65/k4", 0x92e60ea16c2fee49ULL},
      {"mv/shapes/d2/m32/k1", 0xdb6b11ae7b14bdadULL},
      {"mv/shapes/d2/m32/k2", 0x6df071053360862eULL},
      {"mv/shapes/d2/m32/k4", 0x107e5a8bc0b4efb3ULL},
      {"mv/shapes/d2/m65/k1", 0xc82bbc5d17da6413ULL},
      {"mv/shapes/d2/m65/k2", 0x21af8e74b49a6465ULL},
      {"mv/shapes/d2/m65/k4", 0x611c704fcddfd4feULL},
      {"mv/shapes/d3/m32/k1", 0x0ade84c845967f7dULL},
      {"mv/shapes/d3/m32/k2", 0x0937178fa12c87f2ULL},
      {"mv/shapes/d3/m32/k4", 0xca5d5d876ac58e07ULL},
      {"mv/shapes/d3/m65/k1", 0x32c104e790b4afc2ULL},
      {"mv/shapes/d3/m65/k2", 0x5de5df7e6a2e3302ULL},
      {"mv/shapes/d3/m65/k4", 0x2dac46e846768d96ULL},
      {"mv/rawconst/d1/m32/k1", 0xd07537200186c00dULL},
      {"mv/rawconst/d1/m32/k2", 0xbf52d2ef68748708ULL},
      {"mv/rawconst/d1/m32/k4", 0x95ca10989cb1d7c4ULL},
      {"mv/rawconst/d1/m65/k1", 0x0501f087529280aaULL},
      {"mv/rawconst/d1/m65/k2", 0xac3516012840a074ULL},
      {"mv/rawconst/d1/m65/k4", 0xa616d15e4c8e03a4ULL},
      {"mv/rawconst/d2/m32/k1", 0x7b5328df0ef5e963ULL},
      {"mv/rawconst/d2/m32/k2", 0x3a256e8f6ba7751aULL},
      {"mv/rawconst/d2/m32/k4", 0x5cff87c030c532acULL},
      {"mv/rawconst/d2/m65/k1", 0xdfefa099d9567f88ULL},
      {"mv/rawconst/d2/m65/k2", 0x6ffd5281a46afd26ULL},
      {"mv/rawconst/d2/m65/k4", 0x860615f9a3fb3a18ULL},
      {"mv/rawconst/d3/m32/k1", 0xec807dfd84dba3c0ULL},
      {"mv/rawconst/d3/m32/k2", 0xb60e8e87f6229360ULL},
      {"mv/rawconst/d3/m32/k4", 0x305aed15e3f03fb7ULL},
      {"mv/rawconst/d3/m65/k1", 0x9f99d3f9e81862aeULL},
      {"mv/rawconst/d3/m65/k2", 0x7d9dc83f8291c58aULL},
      {"mv/rawconst/d3/m65/k4", 0xe735d25aacc3ebecULL},
  };
  return golden;
}

TEST(LoopGoldenTest, MultivariateMatchesGoldenUpToCertifiedNearTies) {
  using Corpus = std::vector<MultivariateSeries> (*)(
      std::size_t, std::size_t, std::size_t, common::Rng*);
  const std::pair<const char*, Corpus> corpora[] = {
      {"shapes", MvShapes}, {"rawconst", MvRawConstant}};
  const core::MultivariateKShape mkshape;
  int cases = 0;
  int exact = 0;
  int near_tie_cases = 0;
  int certified = 0;
  std::uint64_t seed = 1;
  for (const auto& [corpus_name, corpus] : corpora) {
    for (const std::size_t d : {1u, 2u, 3u}) {
      for (const std::size_t m : {32u, 65u}) {
        for (const int k : {1, 2, 4}) {
          common::Rng corpus_rng(seed);
          const std::vector<MultivariateSeries> series =
              corpus(20, d, m, &corpus_rng);
          common::Rng rng(seed + 1000);
          const core::MultivariateClusteringResult result =
              mkshape.Cluster(series, k, &rng);
          const std::string name =
              std::string("mv/") + corpus_name + "/d" + std::to_string(d) +
              "/m" + std::to_string(m) + "/k" + std::to_string(k);
          ++cases;
          const double gap =
              MinDecisionGap(series, k, seed + 1000, result.iterations);
          const bool near_tie = gap < kNearTie;
          near_tie_cases += near_tie;
          if (MatchesGolden(MultivariateGolden(), name,
                            HashResult(result, &rng))) {
            ++exact;
          } else if (near_tie) {
            ++certified;
            std::cout << name << ": differs at a certified near-tie (gap "
                      << gap << ")\n";
          } else {
            ADD_FAILURE() << name << " differs from its golden hash with no "
                          << "near-tie on its trajectory (smallest gap "
                          << gap << ")";
          }
          ++seed;
        }
      }
    }
  }
  std::cout << "multivariate golden: " << exact << "/" << cases
            << " cases bitwise, " << certified
            << " differ at certified near-ties; " << near_tie_cases
            << " cases hold a near-tie\n";
}

}  // namespace
}  // namespace kshape
