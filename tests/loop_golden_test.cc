// Golden outputs of the shape-based clusterers that run the k-Shape driver
// without the in-memory KShape facade: KSC (cluster/ksc.h), multivariate
// k-Shape (core/multivariate.h) and the sharded MiniBatchKShape
// (cluster/minibatch_kshape.h). Each case hashes one seeded fit — final
// labels, centroid bits, iterations, converged, empty-cluster reseeds,
// degenerate centroids and the caller's next rng draw — so any change to a
// loop's arithmetic or draw order shows up as a changed hash.
//
// The MiniBatchKShape sweep also hashes what only a store-backed fit has:
// the sampled-series count, shard loads and evictions, and every iteration's
// assignment telemetry. It sets the pruning and spectrum-layout gates per
// case, so it pins both pruning configurations whatever the environment says.
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
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/algorithm.h"
#include "cluster/ksc.h"
#include "cluster/minibatch_kshape.h"
#include "common/check.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/multivariate.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "fft/rfft.h"
#include "store/sharded_store.h"
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

// ---------------------------------------------------------------------------
// Sharded mini-batch k-Shape
// ---------------------------------------------------------------------------

// Z-normalized CBF rows, classes in rotation.
std::vector<Series> CbfCorpus(std::size_t n, std::size_t m,
                              common::Rng* rng) {
  std::vector<Series> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, rng)));
  }
  return rows;
}

std::uint64_t HashShardedResult(const cluster::ClusteringResult& r,
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
  h.Add(r.sampled_series);
  h.Add(r.shards_loaded);
  h.Add(r.shard_evictions);
  h.Add(r.assignment_stats.size());
  for (const cluster::AssignmentIterationStats& s : r.assignment_stats) {
    h.Add(s.computed);
    h.Add(s.pruned_bounds);
    h.Add(s.abandoned_partial);
  }
  h.Add(rng->NextUint64());
  return h.value();
}

// Spills `rows` into a fresh store with the options' geometry and fits it.
cluster::ClusteringResult FitSharded(const core::KShapeOptions& options,
                                     const std::vector<Series>& rows, int k,
                                     common::Rng* rng) {
  const std::string dir =
      ::testing::TempDir() + "/kshape_loop_golden_minibatch";
  std::filesystem::remove_all(dir);
  common::StatusOr<store::ShardedSeriesStore> created =
      cluster::MiniBatchKShape::ShardBatch(rows, dir, options);
  KSHAPE_CHECK_OK(created.status());
  store::ShardedSeriesStore store = std::move(created).value();
  cluster::ClusteringResult result =
      cluster::MiniBatchKShape(options).Cluster(&store, k, rng);
  std::filesystem::remove_all(dir);
  return result;
}

// Pins the pruning and spectrum-layout gates for one case and restores the
// defaults after it.
class GateGuard {
 public:
  explicit GateGuard(bool pruning) {
    core::SetPruningEnabledForTesting(pruning);
    fft::SetHalfSpectrumEnabledForTesting(true);
  }
  ~GateGuard() { core::SetPruningEnabledForTesting(true); }
};

const std::map<std::string, std::uint64_t>& MiniBatchGolden() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"mb/prune/rows5/res1/b0/r1/k2/rand", 0x035687d049962746ULL},
      {"mb/prune/rows5/res1/b0/r1/k2/pp", 0x7dfbc7af707bb02eULL},
      {"mb/prune/rows5/res1/b0/r1/k3/rand", 0x0f4dc1a7bc56b28aULL},
      {"mb/prune/rows5/res1/b0/r1/k3/pp", 0x37b4ccb6072300d5ULL},
      {"mb/prune/rows5/res1/b0/r3/k2/rand", 0x04b46fa738b0f802ULL},
      {"mb/prune/rows5/res1/b0/r3/k2/pp", 0x62e87bc15c35ce2fULL},
      {"mb/prune/rows5/res1/b0/r3/k3/rand", 0x6a2095cc832b7df4ULL},
      {"mb/prune/rows5/res1/b0/r3/k3/pp", 0x2b2b9fb3f1571a69ULL},
      {"mb/prune/rows5/res1/b11/r1/k2/rand", 0x52141a3a5b1afca8ULL},
      {"mb/prune/rows5/res1/b11/r1/k2/pp", 0x865efcbbcb7ae970ULL},
      {"mb/prune/rows5/res1/b11/r1/k3/rand", 0xf0e10cd520ede45eULL},
      {"mb/prune/rows5/res1/b11/r1/k3/pp", 0x480ef26cc33b65afULL},
      {"mb/prune/rows5/res1/b11/r3/k2/rand", 0xc77925fd3147743bULL},
      {"mb/prune/rows5/res1/b11/r3/k2/pp", 0x6fad44d2f25edd82ULL},
      {"mb/prune/rows5/res1/b11/r3/k3/rand", 0x754472c88d86039aULL},
      {"mb/prune/rows5/res1/b11/r3/k3/pp", 0xf8ce9c9c151053c1ULL},
      {"mb/prune/rows5/res2/b0/r1/k2/rand", 0x93dec7613f568b2eULL},
      {"mb/prune/rows5/res2/b0/r1/k2/pp", 0x4aeb83e3bfe47ef3ULL},
      {"mb/prune/rows5/res2/b0/r1/k3/rand", 0x98661e3221d9d0f9ULL},
      {"mb/prune/rows5/res2/b0/r1/k3/pp", 0x53cf7f41a5e9ec06ULL},
      {"mb/prune/rows5/res2/b0/r3/k2/rand", 0x81b64b8c76aeb498ULL},
      {"mb/prune/rows5/res2/b0/r3/k2/pp", 0x7ae63b115c004446ULL},
      {"mb/prune/rows5/res2/b0/r3/k3/rand", 0xa785dc180dc57031ULL},
      {"mb/prune/rows5/res2/b0/r3/k3/pp", 0x45fb0c41a613029bULL},
      {"mb/prune/rows5/res2/b11/r1/k2/rand", 0xca13c63a175099e4ULL},
      {"mb/prune/rows5/res2/b11/r1/k2/pp", 0x30154cbd1aa40ef1ULL},
      {"mb/prune/rows5/res2/b11/r1/k3/rand", 0x86b633b573f7728dULL},
      {"mb/prune/rows5/res2/b11/r1/k3/pp", 0x4fb1fba01ddca007ULL},
      {"mb/prune/rows5/res2/b11/r3/k2/rand", 0x462cf99ab4110cb9ULL},
      {"mb/prune/rows5/res2/b11/r3/k2/pp", 0xb51eedebd43e3bb9ULL},
      {"mb/prune/rows5/res2/b11/r3/k3/rand", 0x782d27770de9e8b5ULL},
      {"mb/prune/rows5/res2/b11/r3/k3/pp", 0x751e878595b0f19eULL},
      {"mb/prune/rows5/res100/b0/r1/k2/rand", 0x276d7e75e02f088aULL},
      {"mb/prune/rows5/res100/b0/r1/k2/pp", 0xd20f0381475c3c3bULL},
      {"mb/prune/rows5/res100/b0/r1/k3/rand", 0xec82c15db35f3c50ULL},
      {"mb/prune/rows5/res100/b0/r1/k3/pp", 0xc8a8300be9af8124ULL},
      {"mb/prune/rows5/res100/b0/r3/k2/rand", 0x10ae9fc0d9b378bbULL},
      {"mb/prune/rows5/res100/b0/r3/k2/pp", 0x4c377686ca958e3bULL},
      {"mb/prune/rows5/res100/b0/r3/k3/rand", 0x641eaa58b5b0c363ULL},
      {"mb/prune/rows5/res100/b0/r3/k3/pp", 0xf17a6e73e437c0abULL},
      {"mb/prune/rows5/res100/b11/r1/k2/rand", 0x18f192bf05e9e559ULL},
      {"mb/prune/rows5/res100/b11/r1/k2/pp", 0xee7c25f7e785aaa6ULL},
      {"mb/prune/rows5/res100/b11/r1/k3/rand", 0xac15cde4b8df165dULL},
      {"mb/prune/rows5/res100/b11/r1/k3/pp", 0xe0a1b37eb92c80e7ULL},
      {"mb/prune/rows5/res100/b11/r3/k2/rand", 0xed99b9357fc91486ULL},
      {"mb/prune/rows5/res100/b11/r3/k2/pp", 0x9bbdd2c7084e8b6dULL},
      {"mb/prune/rows5/res100/b11/r3/k3/rand", 0x48cc1506369c56a2ULL},
      {"mb/prune/rows5/res100/b11/r3/k3/pp", 0x477dc95ac1efd9dfULL},
      {"mb/prune/rows64/res1/b0/r1/k2/rand", 0xcc8bd6c91eeecafbULL},
      {"mb/prune/rows64/res1/b0/r1/k2/pp", 0x21493a6b04333f6cULL},
      {"mb/prune/rows64/res1/b0/r1/k3/rand", 0xa306168f44e8260bULL},
      {"mb/prune/rows64/res1/b0/r1/k3/pp", 0x37d7be61b7f9c8c8ULL},
      {"mb/prune/rows64/res1/b0/r3/k2/rand", 0xa6ee805bdbfe1c29ULL},
      {"mb/prune/rows64/res1/b0/r3/k2/pp", 0x56a29446710cd003ULL},
      {"mb/prune/rows64/res1/b0/r3/k3/rand", 0x1ace389662a30f65ULL},
      {"mb/prune/rows64/res1/b0/r3/k3/pp", 0x2d923a199f86160aULL},
      {"mb/prune/rows64/res1/b11/r1/k2/rand", 0x7ee27c21b9f0a5a7ULL},
      {"mb/prune/rows64/res1/b11/r1/k2/pp", 0x52c587acc607c021ULL},
      {"mb/prune/rows64/res1/b11/r1/k3/rand", 0x4a6cab26a4e4ad7bULL},
      {"mb/prune/rows64/res1/b11/r1/k3/pp", 0xb59b9f1f77d1cb0dULL},
      {"mb/prune/rows64/res1/b11/r3/k2/rand", 0x87e45a133dfeb202ULL},
      {"mb/prune/rows64/res1/b11/r3/k2/pp", 0x639e16e51c2256aeULL},
      {"mb/prune/rows64/res1/b11/r3/k3/rand", 0x60aa250dc89ded4aULL},
      {"mb/prune/rows64/res1/b11/r3/k3/pp", 0x84470add5a0b9419ULL},
      {"mb/prune/rows64/res2/b0/r1/k2/rand", 0xd1185b3e21ce1529ULL},
      {"mb/prune/rows64/res2/b0/r1/k2/pp", 0x91640f37b058febaULL},
      {"mb/prune/rows64/res2/b0/r1/k3/rand", 0xb93690351ec88741ULL},
      {"mb/prune/rows64/res2/b0/r1/k3/pp", 0x3e3133918206965fULL},
      {"mb/prune/rows64/res2/b0/r3/k2/rand", 0x2786682cc3503ac8ULL},
      {"mb/prune/rows64/res2/b0/r3/k2/pp", 0x162fa2b10e534d53ULL},
      {"mb/prune/rows64/res2/b0/r3/k3/rand", 0x3e5981b38c926433ULL},
      {"mb/prune/rows64/res2/b0/r3/k3/pp", 0xac63c78a2d1c6df4ULL},
      {"mb/prune/rows64/res2/b11/r1/k2/rand", 0x525047fe0dc2c29aULL},
      {"mb/prune/rows64/res2/b11/r1/k2/pp", 0x2643ffd12fac377eULL},
      {"mb/prune/rows64/res2/b11/r1/k3/rand", 0x71efa5f3817999e4ULL},
      {"mb/prune/rows64/res2/b11/r1/k3/pp", 0xcf97f2eea398ff3eULL},
      {"mb/prune/rows64/res2/b11/r3/k2/rand", 0xf4ece7356eacc281ULL},
      {"mb/prune/rows64/res2/b11/r3/k2/pp", 0x4bde5a259015f3faULL},
      {"mb/prune/rows64/res2/b11/r3/k3/rand", 0xfce46975417b8d03ULL},
      {"mb/prune/rows64/res2/b11/r3/k3/pp", 0xf86b4faf0e0ac550ULL},
      {"mb/prune/rows64/res100/b0/r1/k2/rand", 0x2313d49dc2556d9bULL},
      {"mb/prune/rows64/res100/b0/r1/k2/pp", 0x4acc9f6190897e03ULL},
      {"mb/prune/rows64/res100/b0/r1/k3/rand", 0x22fa7f5bbd995dfeULL},
      {"mb/prune/rows64/res100/b0/r1/k3/pp", 0x47f8e77f9f0ac0c0ULL},
      {"mb/prune/rows64/res100/b0/r3/k2/rand", 0x91a3ab509cb837f1ULL},
      {"mb/prune/rows64/res100/b0/r3/k2/pp", 0xeea0505532768dbaULL},
      {"mb/prune/rows64/res100/b0/r3/k3/rand", 0xe8e02baa7a43045cULL},
      {"mb/prune/rows64/res100/b0/r3/k3/pp", 0x2d85c54f3fcc191aULL},
      {"mb/prune/rows64/res100/b11/r1/k2/rand", 0x7bc253cf5a3c38bcULL},
      {"mb/prune/rows64/res100/b11/r1/k2/pp", 0x97ff326aca8794b4ULL},
      {"mb/prune/rows64/res100/b11/r1/k3/rand", 0x353be99e404c46afULL},
      {"mb/prune/rows64/res100/b11/r1/k3/pp", 0x7d2df9ffbdf9d550ULL},
      {"mb/prune/rows64/res100/b11/r3/k2/rand", 0x713a81fafc7edcaeULL},
      {"mb/prune/rows64/res100/b11/r3/k2/pp", 0x6d752ced830fc771ULL},
      {"mb/prune/rows64/res100/b11/r3/k3/rand", 0x24bba24aba5cf371ULL},
      {"mb/prune/rows64/res100/b11/r3/k3/pp", 0x3983a10cbb0e115eULL},
      {"mb/exact/rows5/res1/b0/r1/k2/rand", 0x9c6cb39611b8d8d0ULL},
      {"mb/exact/rows5/res1/b0/r1/k2/pp", 0xa7fcbe882b495700ULL},
      {"mb/exact/rows5/res1/b0/r1/k3/rand", 0xf25b725d891f53a2ULL},
      {"mb/exact/rows5/res1/b0/r1/k3/pp", 0x81b2250015dc3fb4ULL},
      {"mb/exact/rows5/res1/b0/r3/k2/rand", 0xbf8db3a66a933693ULL},
      {"mb/exact/rows5/res1/b0/r3/k2/pp", 0xa18f9d5b2ff03c8eULL},
      {"mb/exact/rows5/res1/b0/r3/k3/rand", 0x847b215f396f79bcULL},
      {"mb/exact/rows5/res1/b0/r3/k3/pp", 0x4656991c88848e9eULL},
      {"mb/exact/rows5/res1/b11/r1/k2/rand", 0x6d3e8b695a31f3a5ULL},
      {"mb/exact/rows5/res1/b11/r1/k2/pp", 0x1ad1bf6ff4b4adf4ULL},
      {"mb/exact/rows5/res1/b11/r1/k3/rand", 0xad4e0d954d4ca8b3ULL},
      {"mb/exact/rows5/res1/b11/r1/k3/pp", 0xec743b4b26f3bbc2ULL},
      {"mb/exact/rows5/res1/b11/r3/k2/rand", 0xd5fd00feb365929bULL},
      {"mb/exact/rows5/res1/b11/r3/k2/pp", 0xee47c7fb5e3272abULL},
      {"mb/exact/rows5/res1/b11/r3/k3/rand", 0x2cdc328e5eb61cacULL},
      {"mb/exact/rows5/res1/b11/r3/k3/pp", 0x3123e91d9f73b1efULL},
      {"mb/exact/rows5/res2/b0/r1/k2/rand", 0xf2602133a71f9dd0ULL},
      {"mb/exact/rows5/res2/b0/r1/k2/pp", 0x1e9a0061f748c315ULL},
      {"mb/exact/rows5/res2/b0/r1/k3/rand", 0xa1eeb32b012ba967ULL},
      {"mb/exact/rows5/res2/b0/r1/k3/pp", 0x5c3dc16ace3586c7ULL},
      {"mb/exact/rows5/res2/b0/r3/k2/rand", 0x670ebcecada9ef7cULL},
      {"mb/exact/rows5/res2/b0/r3/k2/pp", 0x87b4300bc9bcea13ULL},
      {"mb/exact/rows5/res2/b0/r3/k3/rand", 0x12abbe62d9016eebULL},
      {"mb/exact/rows5/res2/b0/r3/k3/pp", 0x285bcd3ad0c7e430ULL},
      {"mb/exact/rows5/res2/b11/r1/k2/rand", 0x05458ef7a2f32e9eULL},
      {"mb/exact/rows5/res2/b11/r1/k2/pp", 0x25a2a297ec3cf1afULL},
      {"mb/exact/rows5/res2/b11/r1/k3/rand", 0x9f45134df1b16b69ULL},
      {"mb/exact/rows5/res2/b11/r1/k3/pp", 0xf97bfbdb4ddf8d69ULL},
      {"mb/exact/rows5/res2/b11/r3/k2/rand", 0xa8005afa16470b97ULL},
      {"mb/exact/rows5/res2/b11/r3/k2/pp", 0x003e5e097dc170edULL},
      {"mb/exact/rows5/res2/b11/r3/k3/rand", 0x515e5a52e311f236ULL},
      {"mb/exact/rows5/res2/b11/r3/k3/pp", 0x9267780ce3c0b6e6ULL},
      {"mb/exact/rows5/res100/b0/r1/k2/rand", 0xf724630ed0f08883ULL},
      {"mb/exact/rows5/res100/b0/r1/k2/pp", 0x8bdbe31fbf822e01ULL},
      {"mb/exact/rows5/res100/b0/r1/k3/rand", 0xb9ca5475f14e2cacULL},
      {"mb/exact/rows5/res100/b0/r1/k3/pp", 0xd29a069922274030ULL},
      {"mb/exact/rows5/res100/b0/r3/k2/rand", 0xab7ba04f27d4faf2ULL},
      {"mb/exact/rows5/res100/b0/r3/k2/pp", 0x14542c8889706a6bULL},
      {"mb/exact/rows5/res100/b0/r3/k3/rand", 0x5960248acff96484ULL},
      {"mb/exact/rows5/res100/b0/r3/k3/pp", 0x9f5c91d836ddb8a0ULL},
      {"mb/exact/rows5/res100/b11/r1/k2/rand", 0x47697e446285f19cULL},
      {"mb/exact/rows5/res100/b11/r1/k2/pp", 0xe4c95b6dd206b345ULL},
      {"mb/exact/rows5/res100/b11/r1/k3/rand", 0x02d536149e04fd45ULL},
      {"mb/exact/rows5/res100/b11/r1/k3/pp", 0x776a0de0aa0411acULL},
      {"mb/exact/rows5/res100/b11/r3/k2/rand", 0xe000cb42ac07a7b2ULL},
      {"mb/exact/rows5/res100/b11/r3/k2/pp", 0xf63de45450ce58bbULL},
      {"mb/exact/rows5/res100/b11/r3/k3/rand", 0x2ea2a139c62698bfULL},
      {"mb/exact/rows5/res100/b11/r3/k3/pp", 0xfebbe387a321f433ULL},
      {"mb/exact/rows64/res1/b0/r1/k2/rand", 0x872f004c8fd44976ULL},
      {"mb/exact/rows64/res1/b0/r1/k2/pp", 0x4037207d48354440ULL},
      {"mb/exact/rows64/res1/b0/r1/k3/rand", 0x7a713649a1efa886ULL},
      {"mb/exact/rows64/res1/b0/r1/k3/pp", 0x65324c99c062976cULL},
      {"mb/exact/rows64/res1/b0/r3/k2/rand", 0x5621260b46869594ULL},
      {"mb/exact/rows64/res1/b0/r3/k2/pp", 0x33fff61ba4cc82d9ULL},
      {"mb/exact/rows64/res1/b0/r3/k3/rand", 0x7c4dbcf5c288ec52ULL},
      {"mb/exact/rows64/res1/b0/r3/k3/pp", 0x3a0fc112fae29856ULL},
      {"mb/exact/rows64/res1/b11/r1/k2/rand", 0x83f2be39a0b86a3eULL},
      {"mb/exact/rows64/res1/b11/r1/k2/pp", 0x8a04c78d94fdb207ULL},
      {"mb/exact/rows64/res1/b11/r1/k3/rand", 0xc03cb568df7d965aULL},
      {"mb/exact/rows64/res1/b11/r1/k3/pp", 0x84f1443d91576667ULL},
      {"mb/exact/rows64/res1/b11/r3/k2/rand", 0x91d3ff11dc6f23a3ULL},
      {"mb/exact/rows64/res1/b11/r3/k2/pp", 0x2bd4ec9bd41a40d1ULL},
      {"mb/exact/rows64/res1/b11/r3/k3/rand", 0x8866edbdff06b62dULL},
      {"mb/exact/rows64/res1/b11/r3/k3/pp", 0xfaefbfba1a453e0cULL},
      {"mb/exact/rows64/res2/b0/r1/k2/rand", 0x00ebd52ed896186cULL},
      {"mb/exact/rows64/res2/b0/r1/k2/pp", 0x078e28c66960ca4dULL},
      {"mb/exact/rows64/res2/b0/r1/k3/rand", 0x37050dd2ab6a8e8aULL},
      {"mb/exact/rows64/res2/b0/r1/k3/pp", 0xc7d29adc2d8bffc7ULL},
      {"mb/exact/rows64/res2/b0/r3/k2/rand", 0x6987f8e44bcb0295ULL},
      {"mb/exact/rows64/res2/b0/r3/k2/pp", 0x8e986f21a235e3bcULL},
      {"mb/exact/rows64/res2/b0/r3/k3/rand", 0xce6870ca5e94b449ULL},
      {"mb/exact/rows64/res2/b0/r3/k3/pp", 0xaa3000151535d59bULL},
      {"mb/exact/rows64/res2/b11/r1/k2/rand", 0x5d015df4701fcf75ULL},
      {"mb/exact/rows64/res2/b11/r1/k2/pp", 0x92d42085a1eb1a08ULL},
      {"mb/exact/rows64/res2/b11/r1/k3/rand", 0xa762f46733015ebeULL},
      {"mb/exact/rows64/res2/b11/r1/k3/pp", 0xa2569ecafd7e6ea6ULL},
      {"mb/exact/rows64/res2/b11/r3/k2/rand", 0x3001c6336d7ae1e4ULL},
      {"mb/exact/rows64/res2/b11/r3/k2/pp", 0x7f3637e492e2c581ULL},
      {"mb/exact/rows64/res2/b11/r3/k3/rand", 0xfbdf225eae5a2032ULL},
      {"mb/exact/rows64/res2/b11/r3/k3/pp", 0xbb71235aa8da6ebdULL},
      {"mb/exact/rows64/res100/b0/r1/k2/rand", 0x3a065688d37b5f97ULL},
      {"mb/exact/rows64/res100/b0/r1/k2/pp", 0x039703e7d12cd90eULL},
      {"mb/exact/rows64/res100/b0/r1/k3/rand", 0x45ba5745513ef38bULL},
      {"mb/exact/rows64/res100/b0/r1/k3/pp", 0xb44f3437196d8461ULL},
      {"mb/exact/rows64/res100/b0/r3/k2/rand", 0x47ffbfd496977909ULL},
      {"mb/exact/rows64/res100/b0/r3/k2/pp", 0x8e08139af3fcc76cULL},
      {"mb/exact/rows64/res100/b0/r3/k3/rand", 0x5c8ed7894bcc2a2fULL},
      {"mb/exact/rows64/res100/b0/r3/k3/pp", 0xaeca2541d9e8d9e9ULL},
      {"mb/exact/rows64/res100/b11/r1/k2/rand", 0xf77529268f4a6404ULL},
      {"mb/exact/rows64/res100/b11/r1/k2/pp", 0x9de5a52200ad5d21ULL},
      {"mb/exact/rows64/res100/b11/r1/k3/rand", 0x92da7a87cacc4ecbULL},
      {"mb/exact/rows64/res100/b11/r1/k3/pp", 0x20942de60c964004ULL},
      {"mb/exact/rows64/res100/b11/r3/k2/rand", 0xd826a6ffedc8306cULL},
      {"mb/exact/rows64/res100/b11/r3/k2/pp", 0x934bc188a8046c23ULL},
      {"mb/exact/rows64/res100/b11/r3/k3/rand", 0xe099dab51c2c40a2ULL},
      {"mb/exact/rows64/res100/b11/r3/k3/pp", 0xfd5681dcae3185cfULL},
      {"mb/repair", 0xa91f151eafd3b36bULL},
  };
  return golden;
}

TEST(LoopGoldenTest, MiniBatchKShapeMatchesGoldenBitwise) {
  constexpr std::size_t kRows = 150;
  constexpr std::size_t kLength = 40;
  common::Rng corpus_rng(7);
  const std::vector<Series> rows = CbfCorpus(kRows, kLength, &corpus_rng);
  int mismatches = 0;
  int cases = 0;
  std::uint64_t seed = 1;
  for (const bool pruning : {true, false}) {
    for (const std::size_t shard_rows : {5u, 64u}) {
      for (const std::size_t resident : {1u, 2u, 100u}) {
        for (const std::size_t batch : {0u, 11u}) {
          for (const int refresh : {1, 3}) {
            for (const int k : {2, 3}) {
              for (const core::KShapeInit init :
                   {core::KShapeInit::kRandomAssignment,
                    core::KShapeInit::kPlusPlusSeeding}) {
                const GateGuard gates(pruning);
                core::KShapeOptions options;
                options.shard_rows = shard_rows;
                options.max_resident_shards = resident;
                options.minibatch_size = batch;
                options.refresh_period = refresh;
                options.max_iterations = 12;
                options.init = init;
                common::Rng rng(seed);
                const cluster::ClusteringResult result =
                    FitSharded(options, rows, k, &rng);
                const std::string name =
                    std::string("mb/") + (pruning ? "prune" : "exact") +
                    "/rows" + std::to_string(shard_rows) + "/res" +
                    std::to_string(resident) + "/b" + std::to_string(batch) +
                    "/r" + std::to_string(refresh) + "/k" +
                    std::to_string(k) +
                    (init == core::KShapeInit::kPlusPlusSeeding ? "/pp"
                                                                : "/rand");
                ++cases;
                if (!MatchesGolden(MiniBatchGolden(), name,
                                   HashShardedResult(result, &rng))) {
                  ++mismatches;
                  ADD_FAILURE() << name << " differs from its golden hash";
                }
                ++seed;
              }
            }
          }
        }
      }
    }
  }
  std::cout << "MiniBatchKShape golden: " << cases - mismatches << "/"
            << cases << " cases bitwise\n";
}

// k near n empties clusters, so the repair scan reseeds under eviction, and
// the reseed discards the walk's fused fills.
TEST(LoopGoldenTest, MiniBatchKShapeRepairMatchesGoldenBitwise) {
  const GateGuard gates(/*pruning=*/true);
  common::Rng corpus_rng(11);
  const std::vector<Series> rows = CbfCorpus(12, 31, &corpus_rng);
  core::KShapeOptions options;
  options.shard_rows = 5;
  options.max_resident_shards = 1;
  options.minibatch_size = 6;
  options.refresh_period = 2;
  options.max_iterations = 12;
  common::Rng rng(3);
  const cluster::ClusteringResult result = FitSharded(options, rows, 8, &rng);
  EXPECT_GT(result.empty_cluster_reseeds, 0);
  EXPECT_TRUE(MatchesGolden(MiniBatchGolden(), "mb/repair",
                            HashShardedResult(result, &rng)));
}

}  // namespace
}  // namespace kshape
