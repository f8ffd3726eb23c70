// kbench: the end-to-end benchmark binary behind perfbench/run.py.
//
//   kbench --workload <fit_m128|shard_m512|serve_m128> --seed <n>
//          --seconds <s> --trace <0|1> --threads <t> --out <dir>
//
// Every input is generated from --seed (z-normalised CBF corpora); the
// library receives only the generated series. The run measures for about
// --seconds, checks every output it times, and prints one JSON object on its
// last stdout line: the configuration, the output checks, the operation
// counts, and either the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1), each with its unit and sample count. README.md defines
// the workloads and every metric; run.py builds, runs and formats.
//
//   fit_m128    core::KShape::Cluster, n=1200 m=128 k=3, random init
//   shard_m512  cluster::MiniBatchKShape over a store::ShardedSeriesStore,
//               n=8000 m=512 k=3, 8 shards of 1024 rows, 2 resident
//   serve_m128  model::Predict and model::OnlineScorer against a k=8 model
//               fitted, saved and loaded in set-up
//
// The traced run records spans here, around the public calls, on a replay
// of the workload's computation, and checks the replay against the library's
// own result.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/algorithm.h"
#include "cluster/minibatch_kshape.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "model/assigner.h"
#include "model/fitted_model.h"
#include "simd/dispatch.h"
#include "store/sharded_store.h"
#include "trace.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

extern char** environ;

namespace perfbench {
namespace {

using kshape::cluster::ClusteringResult;
using kshape::common::Rng;
using kshape::common::Stopwatch;
using kshape::core::SbdEngine;
using kshape::model::FittedModel;
using kshape::tseries::Series;
using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;

// Traced set-ups per traced run (store and model I/O are timed in set-up).
constexpr int kSetupReps = 3;
// Share of --seconds given to the timed loop; the rest covers the checks
// after it and an operation that overruns its slice.
constexpr double kLoopShare = 0.8;
// A percentile is reported only with at least this many samples beyond it.
constexpr double kTailSamples = 10.0;
// Top-2 SBD gap below which a direct-Sbd argmin disagreement is a certified
// near-tie (reported, not counted as a failure).
constexpr double kNearTieGap = 1e-9;
// Scored series per run checked against the direct-Sbd argmin.
constexpr std::size_t kArgminSample = 64;
// Operations whose spans go into the Chrome trace file.
constexpr int kTraceFileOps = 8;

// Gates that select a code path inside the library. A comparison between two
// commits must run the same paths, so the benchmark refuses to run when any
// of them is set.
constexpr const char* kPathGates[] = {
    "KSHAPE_HALF_SPECTRUM", "KSHAPE_PRUNE", "KSHAPE_MATFREE",
    "KSHAPE_SHARDS",        "KSHAPE_SIMD",  "KSHAPE_MODEL_V"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 2;
  std::string out_dir = ".";
};

// ----------------------------------------------------------------- output

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Insertion-ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Int(const std::string& key, long long v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& String(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --------------------------------------------------------------- statistics

// Linear-interpolation quantile (the usual "type 7"); NaN when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The percentile q is meaningful only with kTailSamples samples beyond it.
bool TailResolved(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= kTailSamples - 1e-9;
}

// A named metric with its unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  long long samples = 0;
  std::string note;  // why a value is missing, or the base of a ratio
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           long long samples, const std::string& note = "") {
    if (!metrics_.count(name)) order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples, note};
  }

  // Percentile of `samples` (scaled), or null with the reason when the tail
  // holds fewer than kTailSamples samples.
  void SetPercentile(const std::string& name, const std::vector<double>& v,
                     double q, double scale, const std::string& unit) {
    if (!TailResolved(v.size(), q)) {
      Set(name, std::nan(""), unit, static_cast<long long>(v.size()),
          "fewer than " + std::to_string(static_cast<int>(kTailSamples)) +
              " samples beyond the percentile");
      return;
    }
    Set(name, Quantile(v, q) * scale, unit, static_cast<long long>(v.size()));
  }

  std::string Json() const {
    JsonObject out;
    for (const std::string& name : order_) {
      const Metric& m = metrics_.at(name);
      JsonObject entry;
      entry.Number("value", m.value).String("unit", m.unit).Int("samples",
                                                                m.samples);
      if (!m.note.empty()) entry.String("note", m.note);
      out.Raw(name, entry.str());
    }
    return out.str();
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

// Named output checks. An operation fails when any check made on its output
// fails; near-ties are counted separately and do not fail anything.
class Checks {
 public:
  // Records one check of operation `op`'s output.
  void Check(const std::string& name, bool passed, const std::string& detail) {
    Tally& t = tallies_[name];
    ++(passed ? t.passed : t.failed);
    if (!passed) {
      current_failed_ = true;
      if (t.first_failure.empty()) t.first_failure = detail;
    }
  }
  void NearTies(const std::string& name, long long count) {
    tallies_[name].near_ties += count;
  }
  // Closes one operation.
  void EndOp() {
    ++attempted_;
    if (current_failed_) ++failed_;
    current_failed_ = false;
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

  std::string Json() const {
    JsonObject out;
    for (const auto& [name, t] : tallies_) {
      JsonObject entry;
      entry.Int("passed", t.passed).Int("failed", t.failed);
      entry.Int("near_ties", t.near_ties);
      if (!t.first_failure.empty()) {
        entry.String("first_failure", t.first_failure);
      }
      out.Raw(name, entry.str());
    }
    return out.str();
  }

 private:
  struct Tally {
    long long passed = 0;
    long long failed = 0;
    long long near_ties = 0;
    std::string first_failure;
  };
  std::map<std::string, Tally> tallies_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool current_failed_ = false;
};

// Peak resident set of the process (VmHWM). getrusage's ru_maxrss would
// also count the image the process replaced at exec, i.e. the Python driver.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

// ------------------------------------------------------------------ inputs

// Independent stream per purpose, so adding a stream never shifts another.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t {
  kCorpusStream = 1,
  kProbeStream = 2,
  kFitStream = 3,
  kFinishStream = 4,
};

// z-normalised CBF series with their generating class.
struct Corpus {
  SeriesStore store;
  std::vector<int> labels;
  SeriesBatch batch() const { return SeriesBatch(store); }
};

Series CbfRow(Rng* rng, std::size_t m, int* klass) {
  *klass = rng->UniformInt(3);
  return kshape::tseries::ZNormalized(kshape::data::MakeCbf(*klass, m, rng));
}

Corpus MakeCorpus(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  c.store.Reserve(n, m);
  c.labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int klass = 0;
    c.store.Append(CbfRow(&rng, m, &klass));
    c.labels.push_back(klass);
  }
  return c;
}

bool SameBits(const Series& a, const Series& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Labels, iteration count and centroids, bit for bit.
bool SameFit(const ClusteringResult& a, const ClusteringResult& b,
             std::string* why) {
  if (a.iterations != b.iterations) {
    *why = "iterations " + std::to_string(a.iterations) + " vs " +
           std::to_string(b.iterations);
    return false;
  }
  if (a.assignments != b.assignments) {
    *why = "labels differ";
    return false;
  }
  if (a.centroids.size() != b.centroids.size()) {
    *why = "centroid count differs";
    return false;
  }
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    if (!SameBits(a.centroids[j], b.centroids[j])) {
      *why = "centroid " + std::to_string(j) + " differs";
      return false;
    }
  }
  return true;
}

// Keeps the results of timed loops observable, so the calls are not elided.
volatile double g_sink = 0.0;

// --------------------------------------------------------- reference speed
//
// The benchmark runs on shared machines where other tenants' load changes
// the speed of every core by tens of percent within seconds, and holds for
// minutes: far more than the changes the benchmark must resolve. So between
// operations a run times a fixed reference kernel that never calls the
// library (a 256-point radix-2 complex FFT, repeated), and the gated timings
// are stated at reference speed:
//   value_ref = value_wall x kReferenceKernelMs / (kernel time around the op)
// Library changes cannot move the kernel; the machine's load moves both
// alike. Wall-clock values are reported next to them, ungated.
constexpr double kReferenceKernelMs = 1.5;

double ReferenceKernelSeconds() {
  using Complex = std::complex<double>;
  constexpr std::size_t kN = 256;
  constexpr int kRepeats = 200;
  std::vector<Complex> a(kN);
  double sink = 0.0;
  Stopwatch clock;
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = Complex(std::sin(0.1 * static_cast<double>(i) + r), 0.0);
    }
    for (std::size_t i = 1, j = 0; i < kN; ++i) {
      std::size_t bit = kN >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= kN; len <<= 1) {
      const double angle = -2.0 * M_PI / static_cast<double>(len);
      const Complex step(std::cos(angle), std::sin(angle));
      for (std::size_t i = 0; i < kN; i += len) {
        Complex w(1.0, 0.0);
        for (std::size_t j = 0; j < len / 2; ++j) {
          const Complex u = a[i + j];
          const Complex v = a[i + j + len / 2] * w;
          a[i + j] = u + v;
          a[i + j + len / 2] = u - v;
          w *= step;
        }
      }
    }
    sink += a[3].real();
  }
  const double seconds = clock.ElapsedSeconds();
  g_sink = sink;
  return seconds;
}

// Times the reference kernel between operations and converts the wall time
// of the operation that just ended to reference speed.
class ReferenceSpeed {
 public:
  ReferenceSpeed() : last_s_(ReferenceKernelSeconds()) {
    kernel_s_.push_back(last_s_);
  }

  // Factor by which to multiply the wall time of the operation that ran
  // since the previous call (the kernel is timed on both sides of it).
  double FactorForLastOp() {
    const double now_s = ReferenceKernelSeconds();
    kernel_s_.push_back(now_s);
    const double factor = kReferenceKernelMs * 1e-3 / (0.5 * (last_s_ + now_s));
    last_s_ = now_s;
    return factor;
  }

  const std::vector<double>& kernel_s() const { return kernel_s_; }

 private:
  double last_s_;
  std::vector<double> kernel_s_;
};

struct ServeSamples {
  // Wall clock.
  std::vector<double> predict_s;      // one per batched Predict call
  std::vector<double> predict_rates;  // series per second, per call
  std::vector<double> ingest_s;       // one per ingested series
  // The same samples at reference speed.
  std::vector<double> predict_s_ref, predict_rates_ref, ingest_s_ref;

  // Converts the samples added since the last call with `factor`.
  void AtReferenceSpeed(double factor) {
    for (std::size_t i = predict_s_ref.size(); i < predict_s.size(); ++i) {
      predict_s_ref.push_back(predict_s[i] * factor);
      predict_rates_ref.push_back(predict_rates[i] / factor);
    }
    for (std::size_t i = ingest_s_ref.size(); i < ingest_s.size(); ++i) {
      ingest_s_ref.push_back(ingest_s[i] * factor);
    }
  }
};

// ---------------------------------------------------- serving and checking

// One closed-loop serving round: a batched Predict over `batch`, then
// `ingests` series of the batch, from row `first` on (wrapping), scored one
// at a time by a fresh OnlineScorer. Checks that every ingest label equals
// the Predict label.
kshape::model::PredictResult ServeRound(const FittedModel& model,
                                        const SeriesBatch& batch,
                                        std::size_t first,
                                        std::size_t ingests,
                                        ServeSamples* samples,
                                        Checks* checks) {
  Stopwatch clock;
  kshape::model::PredictResult predicted = kshape::model::Predict(model,
                                                                  batch);
  const double seconds = clock.ElapsedSeconds();
  samples->predict_s.push_back(seconds);
  samples->predict_rates.push_back(static_cast<double>(batch.size()) /
                                   seconds);

  kshape::model::OnlineScorer scorer(&model);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < ingests; ++j) {
    const std::size_t i = (first + j) % batch.size();
    clock.Reset();
    const kshape::model::OnlineScorer::Ingested got = scorer.Ingest(batch[i]);
    samples->ingest_s.push_back(clock.ElapsedSeconds());
    if (got.label != predicted.labels[i]) ++mismatches;
  }
  checks->Check("ingest_equals_predict", mismatches == 0,
                std::to_string(mismatches) + " ingest labels differ");
  return predicted;
}

// On a fixed sample of scored series, the label must be the argmin of the
// direct Sbd() to each centroid (the centroid in the x role, as Predict uses
// it). A different label whose direct distance is within kNearTieGap of the
// minimum is a certified near-tie: counted and reported, not failed.
void CheckArgmin(const FittedModel& model, const SeriesBatch& batch,
                 const std::vector<int>& labels, Checks* checks) {
  const std::size_t stride = std::max<std::size_t>(1, batch.size() /
                                                          kArgminSample);
  long long mismatches = 0;
  long long near_ties = 0;
  std::vector<double> d(model.k());
  for (std::size_t i = 0; i < batch.size(); i += stride) {
    for (std::size_t j = 0; j < model.k(); ++j) {
      d[j] = kshape::core::Sbd(model.centroid(j), batch[i]).distance;
    }
    const std::size_t arg = static_cast<std::size_t>(
        std::min_element(d.begin(), d.end()) - d.begin());
    if (static_cast<int>(arg) == labels[i]) continue;
    if (d[labels[i]] - d[arg] < kNearTieGap) {
      ++near_ties;
    } else {
      ++mismatches;
    }
  }
  checks->Check("label_is_sbd_argmin", mismatches == 0,
                std::to_string(mismatches) +
                    " sampled labels are not the direct-Sbd argmin");
  checks->NearTies("label_is_sbd_argmin", near_ties);
}

// -------------------------------------------------------- per-layer counts

// Work counts of one traced operation. All are exact functions of the
// inputs, so they repeat across runs and thread counts.
struct Counts {
  long long members_added = 0;
  long long members_aligned = 0;
  long long matrix_free_clusters = 0;
  long long queries_minted = 0;
  long long pairs_computed = 0;
  long long pairs_pruned_bounds = 0;
  long long pairs_abandoned = 0;
  long long pairs_total = 0;
  long long repair_distances = 0;
  long long reseeds = 0;
  long long spectra_built = 0;
  long long lags_scanned = 0;
  long long lags_skipped = 0;
  long long eigen_fallbacks = 0;
  // Direct Sbd() per aligned member: two forward transforms and one inverse
  // (fft::RfftCrossCorrelation). Engine: one forward per cached series and
  // per minted query, one inverse per exact distance.
  long long ForwardTransforms() const {
    return spectra_built + queries_minted + 2 * members_aligned;
  }
  long long InverseTransforms() const {
    return pairs_computed + repair_distances + members_aligned;
  }
};

// Snapshot of the process-wide library counters; deltas bracket one op.
struct GlobalCounters {
  long long lags_scanned;
  long long lags_skipped;
  long long eigen_fallbacks;
  static GlobalCounters Now() {
    const kshape::core::PeakScanTelemetry p = kshape::core::PeakScanStats();
    return GlobalCounters{
        p.lags_scanned, p.lags_skipped,
        kshape::linalg::DominantEigenvectorFallbackCountForTesting()};
  }
  void AddDeltaTo(const GlobalCounters& before, Counts* c) const {
    c->lags_scanned += lags_scanned - before.lags_scanned;
    c->lags_skipped += lags_skipped - before.lags_skipped;
    c->eigen_fallbacks += eigen_fallbacks - before.eigen_fallbacks;
  }
};

void AddStats(const kshape::model::AssignmentIterationStats& s, Counts* c) {
  c->pairs_computed += s.computed;
  c->pairs_pruned_bounds += s.pruned_bounds;
  c->pairs_abandoned += s.abandoned_partial;
}

// -------------------------------------------------- fit_m128: the replay

// The alignment work of one iteration, kept to time the direct Sbd() over
// the same (reference, member) pairs outside the replay's timeline.
struct AlignmentRecord {
  std::vector<Series> references;
  std::vector<std::vector<std::size_t>> members;
};

// Algorithm 3 as KShape::Cluster runs it (default options, random
// assignment), rebuilt from public calls with a span around each.
ClusteringResult ReplayKShape(const SeriesBatch& series, int k,
                              std::uint64_t rng_seed, Tracer* tracer,
                              Counts* counts,
                              std::vector<AlignmentRecord>* alignment) {
  namespace core = kshape::core;
  namespace cluster = kshape::cluster;
  const core::KShapeOptions options;
  const std::size_t n = series.size();
  const std::size_t m = series.length();
  const bool pruning = options.use_pruning && core::PruningEnabled();
  const bool half = options.use_half_spectrum &&
                    kshape::fft::HalfSpectrumEnabled();
  const GlobalCounters before = GlobalCounters::Now();
  Rng rng(rng_seed);

  ScopedSpan op_span(tracer, "fit");
  std::optional<SbdEngine> engine;
  {
    ScopedSpan s(tracer, "SbdEngine");
    engine.emplace(series, core::CrossCorrelationImpl::kFft, half, pruning);
  }
  counts->spectra_built += static_cast<long long>(n);

  ClusteringResult result;
  {
    ScopedSpan s(tracer, "RandomAssignments");
    result.assignments = cluster::RandomAssignments(n, k, &rng);
  }
  result.centroids.assign(k, Series(m, 0.0));

  kshape::model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.fft_len = engine->fft_length();
  assigner_options.use_half_spectrum = engine->half_spectrum();
  assigner_options.use_pruning = pruning;
  assigner_options.use_movement_bounds = pruning;
  assigner_options.prune_margin = options.prune_margin;
  kshape::model::Assigner assigner(assigner_options);

  std::atomic<long long> repair_distances{0};
  const auto repair_distance = [&](int j, std::size_t i) {
    repair_distances.fetch_add(1, std::memory_order_relaxed);
    return engine->Distance(assigner.queries()[j], i);
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ScopedSpan iteration_span(tracer, "iteration");
    const std::vector<int> previous = result.assignments;
    {
      ScopedSpan s(tracer, "Assigner::SnapshotCentroids");
      assigner.SnapshotCentroids(result.centroids);
    }
    const std::vector<std::vector<std::size_t>> groups =
        cluster::GroupByCluster(result.assignments, k);
    if (alignment != nullptr) {
      alignment->push_back(AlignmentRecord{result.centroids, groups});
    }
    result.degenerate_centroids = 0;
    for (int j = 0; j < k; ++j) {
      if (groups[j].empty()) {
        // ExtractShapeIndexedFlagged's empty-set result: the flagged zero
        // centroid, no eigenproblem and no rng draw.
        result.centroids[j] = Series(m, 0.0);
        continue;
      }
      const bool aligns = kshape::linalg::Norm(result.centroids[j]) > 0.0;
      std::optional<core::ShapeAccumulator> accumulator;
      {
        ScopedSpan s(tracer, "ShapeAccumulator::Add");
        accumulator.emplace(result.centroids[j], options.shape_options);
        for (const std::size_t i : groups[j]) accumulator->Add(series[i]);
      }
      counts->members_added += static_cast<long long>(groups[j].size());
      if (aligns) {
        counts->members_aligned += static_cast<long long>(groups[j].size());
      }
      if (accumulator->matrix_free_active()) ++counts->matrix_free_clusters;
      core::ExtractedShape extracted;
      {
        ScopedSpan s(tracer, "ShapeAccumulator::Finish");
        extracted = accumulator->Finish(&rng, options.shape_options);
      }
      result.centroids[j] = std::move(extracted.centroid);
      if (extracted.degenerate) ++result.degenerate_centroids;
    }
    {
      ScopedSpan s(tracer, "Assigner::BeginIteration");
      assigner.BeginIteration(result.centroids);
    }
    counts->queries_minted += k;
    {
      ScopedSpan s(tracer, "Assigner::AssignBlock");
      assigner.AssignBlock(*engine, 0, &result.assignments);
    }
    AddStats(assigner.iteration_stats(), counts);
    counts->pairs_total += static_cast<long long>(n) * k;
    int reseeds = 0;
    {
      ScopedSpan s(tracer, "RepairEmptyClusters");
      reseeds = cluster::RepairEmptyClusters(k, &result.assignments,
                                             repair_distance);
    }
    result.empty_cluster_reseeds += reseeds;
    counts->reseeds += reseeds;
    {
      ScopedSpan s(tracer, "Assigner::FinishIteration");
      assigner.FinishIteration(reseeds);
    }
    result.iterations = iter + 1;
    if (result.assignments == previous) {
      result.converged = true;
      break;
    }
  }
  counts->repair_distances += repair_distances.load();
  GlobalCounters::Now().AddDeltaTo(before, counts);
  return result;
}

// Seconds of direct Sbd(reference, member) over every aligned pair the
// replay recorded: the alignment share of extraction, timed apart.
double AlignProbeSeconds(const SeriesBatch& series,
                         const std::vector<AlignmentRecord>& alignment) {
  Stopwatch clock;
  double sink = 0.0;
  for (const AlignmentRecord& record : alignment) {
    for (std::size_t j = 0; j < record.references.size(); ++j) {
      if (!(kshape::linalg::Norm(record.references[j]) > 0.0)) continue;
      for (const std::size_t i : record.members[j]) {
        sink += kshape::core::Sbd(record.references[j], series[i]).distance;
      }
    }
  }
  const double seconds = clock.ElapsedSeconds();
  g_sink = sink;
  return seconds;
}

// The same probe over one streamed pass: each member against the centroid
// it was assigned to (shard loads are outside the timed part).
double ShardAlignProbeSeconds(kshape::store::ShardedSeriesStore* store,
                              const FittedModel& model,
                              const std::vector<int>& labels) {
  double seconds = 0.0;
  double sink = 0.0;
  for (std::size_t s = 0; s < store->num_shards(); ++s) {
    const kshape::store::ShardView view = store->Acquire(s);
    const SeriesBatch batch = view.batch();
    Stopwatch clock;
    for (std::size_t r = 0; r < view.rows(); ++r) {
      const int label = labels[view.global_begin() + r];
      sink += kshape::core::Sbd(model.centroid(label), batch[r]).distance;
    }
    seconds += clock.ElapsedSeconds();
  }
  g_sink = sink;
  return seconds;
}

// ---------------------------------------- shard_m512: one streamed pass

struct PassOutput {
  std::vector<int> labels;
  std::vector<Series> centroids;
};

// One pass over the sharded store against frozen centroids, as the streamed
// driver runs a full pass: per shard Acquire, engine build, AssignBlock, then
// the members' Add into their cluster's accumulator; Finish per cluster.
PassOutput StreamedPass(kshape::store::ShardedSeriesStore* store,
                        const FittedModel& model, std::uint64_t rng_seed,
                        Tracer* tracer, Counts* counts) {
  namespace core = kshape::core;
  const core::KShapeOptions options;
  const int k = static_cast<int>(model.k());
  const std::size_t n = store->size();
  const std::size_t m = store->length();
  const bool half = options.use_half_spectrum &&
                    kshape::fft::HalfSpectrumEnabled();
  const bool pruning = options.use_pruning && core::PruningEnabled();
  store->EvictAll();
  const GlobalCounters before = GlobalCounters::Now();
  Rng rng(rng_seed);

  ScopedSpan op_span(tracer, "pass");
  kshape::model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.fft_len = kshape::fft::NextPowerOfTwo(2 * m - 1);
  assigner_options.use_half_spectrum = half;
  assigner_options.use_pruning = pruning;
  kshape::model::Assigner assigner(assigner_options);
  {
    ScopedSpan s(tracer, "Assigner::BeginIteration");
    assigner.BeginIteration(model.centroids());
  }
  counts->queries_minted += k;

  std::vector<core::ShapeAccumulator> accumulators;
  accumulators.reserve(k);
  for (int j = 0; j < k; ++j) {
    accumulators.emplace_back(model.centroid(j), options.shape_options);
  }
  PassOutput out;
  out.labels.assign(n, 0);
  for (std::size_t s = 0; s < store->num_shards(); ++s) {
    kshape::store::ShardView view;
    {
      ScopedSpan span(tracer, "ShardedSeriesStore::Acquire");
      view = store->Acquire(s);
    }
    const SeriesBatch batch = view.batch();
    const std::size_t base = view.global_begin();
    std::optional<SbdEngine> engine;
    {
      ScopedSpan span(tracer, "SbdEngine");
      engine.emplace(batch, core::CrossCorrelationImpl::kFft, half, pruning);
    }
    counts->spectra_built += static_cast<long long>(view.rows());
    {
      ScopedSpan span(tracer, "Assigner::AssignBlock");
      assigner.AssignBlock(*engine, base, &out.labels);
    }
    {
      ScopedSpan span(tracer, "ShapeAccumulator::Add");
      for (std::size_t r = 0; r < view.rows(); ++r) {
        accumulators[out.labels[base + r]].Add(batch[r]);
      }
    }
  }
  AddStats(assigner.iteration_stats(), counts);
  counts->pairs_total += static_cast<long long>(n) * k;
  counts->members_added += static_cast<long long>(n);
  counts->members_aligned += static_cast<long long>(n);
  for (int j = 0; j < k; ++j) {
    if (accumulators[j].members_added() == 0) {
      out.centroids.push_back(Series(model.centroid(j).begin(),
                                     model.centroid(j).end()));
      continue;
    }
    if (accumulators[j].matrix_free_active()) ++counts->matrix_free_clusters;
    ScopedSpan span(tracer, "ShapeAccumulator::Finish");
    out.centroids.push_back(
        accumulators[j].Finish(&rng, options.shape_options).centroid);
  }
  GlobalCounters::Now().AddDeltaTo(before, counts);
  return out;
}

// --------------------------------------------- serve_m128: the predict pass

kshape::model::PredictResult PredictPass(const FittedModel& model,
                                         const SeriesBatch& batch,
                                         Tracer* tracer, Counts* counts) {
  namespace core = kshape::core;
  const bool half = kshape::fft::HalfSpectrumEnabled();
  const bool pruning = core::PruningEnabled();
  const GlobalCounters before = GlobalCounters::Now();
  kshape::model::PredictResult result;
  {
    ScopedSpan op_span(tracer, "predict");
    std::optional<SbdEngine> engine;
    {
      ScopedSpan s(tracer, "SbdEngine");
      engine.emplace(batch, core::CrossCorrelationImpl::kFft, half, pruning);
    }
    kshape::model::AssignerOptions options;
    options.k = static_cast<int>(model.k());
    options.num_series = batch.size();
    options.m = model.m();
    options.fft_len = engine->fft_length();
    options.use_half_spectrum = half;
    options.use_pruning = pruning;
    kshape::model::Assigner assigner(options);
    {
      ScopedSpan s(tracer, "Assigner::BeginIteration");
      assigner.BeginIteration(model.centroids());
    }
    result.labels.assign(batch.size(), 0);
    result.distances.assign(batch.size(), 0.0);
    {
      ScopedSpan s(tracer, "Assigner::AssignBlock");
      assigner.AssignBlock(*engine, 0, &result.labels, &result.distances);
    }
    result.stats = assigner.iteration_stats();
  }
  {
    // Outside the predict span: Predict mints its queries inside
    // BeginIteration; this times the model's own minting entry point.
    ScopedSpan s(tracer, "FittedModel::CentroidQueries");
    g_sink = static_cast<double>(model.CentroidQueries(half, pruning).size());
  }
  counts->spectra_built += static_cast<long long>(batch.size());
  counts->queries_minted += static_cast<long long>(model.k()) * 2;
  counts->pairs_total += static_cast<long long>(batch.size() * model.k());
  AddStats(result.stats, counts);
  GlobalCounters::Now().AddDeltaTo(before, counts);
  return result;
}

// ------------------------------------------------------------ the workloads

struct RunOutput {
  Metrics e2e;
  Metrics layers;
  Checks checks;
  // VmHWM once the run's first set-up and first operation are done: the
  // working set of the workload. Read later, the peak also holds heap
  // fragmentation that grows with the number of operations, i.e. with the
  // machine's speed during the run.
  double peak_rss_mib = std::nan("");
  void NoteFirstOp() {
    if (std::isnan(peak_rss_mib)) peak_rss_mib = PeakRssMib();
  }
  std::vector<std::string> notes;
};

// Span self seconds by span name, one map per traced operation (or set-up).
using SelfTimes = std::vector<std::map<std::string, double>>;

// Median over the operations of one span name's self time (0 when absent).
double MedianSelf(const SelfTimes& times, const std::string& span) {
  std::vector<double> v;
  for (const auto& by_name : times) {
    const auto it = by_name.find(span);
    v.push_back(it == by_name.end() ? 0.0 : it->second);
  }
  return v.empty() ? 0.0 : Median(v);
}

struct LayerTimes {
  SelfTimes ops;     // traced operations
  SelfTimes setups;  // traced set-ups
  double OpMedian(const std::string& span) const {
    return MedianSelf(ops, span);
  }
  double SetupMedian(const std::string& span) const {
    return MedianSelf(setups, span);
  }
};

void CollectLayerTimes(const Tracer& tracer, LayerTimes* times) {
  for (const auto& [op, by_name] : tracer.SelfSecondsByOp()) {
    if (op >= 0) {
      times->ops.push_back(by_name);
    } else if (op < -1) {
      times->setups.push_back(by_name);
    }
  }
}

// Set-up r of a traced run records its spans under op id -(r + 2).
int SetupOpId(int r) { return -(r + 2); }

// Every workload reports every per-layer metric, zero where it does not load
// that layer. `fit` is the workload's fit (for serve_m128 the set-up fit of
// the served model): the program's own telemetry of it is reported per fit.
void ReportLayers(const LayerTimes& t, const Counts& c, long long traced_ops,
                  double align_probe_s, const std::vector<double>& untraced_s,
                  const std::vector<double>& traced_s,
                  const ClusteringResult& fit, std::size_t shard_bytes,
                  RunOutput* out) {
  Metrics& L = out->layers;
  const long long ops = std::max<long long>(traced_ops, 1);
  // Counts are accumulated over all traced operations, which are identical
  // repeats; report them per operation.
  const auto per_op = [&](long long total) {
    return static_cast<double>(total / ops);
  };
  const long long samples = static_cast<long long>(t.ops.size());
  const long long setups = static_cast<long long>(t.setups.size());
  L.Set("shape_extraction.add_s", t.OpMedian("ShapeAccumulator::Add"), "s",
        samples);
  L.Set("shape_extraction.finish_s", t.OpMedian("ShapeAccumulator::Finish"),
        "s", samples);
  L.Set("shape_extraction.members_added", per_op(c.members_added), "count",
        samples);
  L.Set("shape_extraction.matrix_free_clusters",
        per_op(c.matrix_free_clusters), "count", samples);
  L.Set("shape_extraction.align_probe_s", align_probe_s, "s", samples);
  L.Set("assigner.begin_s", t.OpMedian("Assigner::BeginIteration"), "s",
        samples);
  L.Set("assigner.scan_s", t.OpMedian("Assigner::AssignBlock"), "s",
        samples);
  L.Set("assigner.pairs_computed", per_op(c.pairs_computed), "count",
        samples);
  L.Set("assigner.pairs_pruned_bounds", per_op(c.pairs_pruned_bounds),
        "count", samples);
  L.Set("assigner.pairs_abandoned", per_op(c.pairs_abandoned), "count",
        samples);
  const double pairs = per_op(c.pairs_total);
  L.Set("assigner.skip_ratio",
        pairs > 0 ? (per_op(c.pairs_pruned_bounds) +
                     per_op(c.pairs_abandoned)) / pairs
                  : 0.0,
        "ratio", samples,
        "(pruned_bounds + abandoned) / " + Num(pairs) + " pairs");
  L.Set("sbd_engine.build_s", t.OpMedian("SbdEngine"), "s", samples);
  L.Set("sbd_engine.spectra_built", per_op(c.spectra_built), "count",
        samples);
  L.Set("sbd_engine.lags_scanned", per_op(c.lags_scanned), "count", samples);
  L.Set("sbd_engine.lags_skipped", per_op(c.lags_skipped), "count", samples);
  L.Set("store.append_s", t.SetupMedian("ShardedSeriesStore::Append"), "s",
        setups);
  L.Set("store.seal_s", t.SetupMedian("ShardedSeriesStore::Seal"), "s",
        setups);
  L.Set("store.acquire_s", t.OpMedian("ShardedSeriesStore::Acquire"), "s",
        samples);
  L.Set("store.shards_loaded", static_cast<double>(fit.shards_loaded),
        "count", 1, "per fit");
  L.Set("store.shard_evictions", static_cast<double>(fit.shard_evictions),
        "count", 1, "per fit");
  L.Set("store.bytes_read_computed",
        static_cast<double>(fit.shards_loaded) *
            static_cast<double>(shard_bytes),
        "bytes", 1, "shards_loaded x shard bytes, per fit");
  L.Set("driver.extraction_s", fit.extraction_seconds, "s", 1,
        "ClusteringResult::extraction_seconds");
  L.Set("driver.assignment_s", fit.assignment_seconds, "s", 1,
        "ClusteringResult::assignment_seconds");
  L.Set("driver.sampled_series", static_cast<double>(fit.sampled_series),
        "count", 1, "ClusteringResult::sampled_series");
  L.Set("driver.iterations", static_cast<double>(fit.iterations), "count", 1,
        "ClusteringResult::iterations");
  L.Set("linalg.eigen_fallbacks", per_op(c.eigen_fallbacks), "count",
        samples);
  L.Set("cluster.repair_s", t.OpMedian("RepairEmptyClusters"), "s", samples);
  L.Set("cluster.reseeds", per_op(c.reseeds), "count", samples);
  L.Set("fitted_model.save_s", t.SetupMedian("FittedModel::Save"), "s",
        setups);
  L.Set("fitted_model.load_s", t.SetupMedian("FittedModel::Load"), "s",
        setups);
  L.Set("fitted_model.queries_s",
        t.OpMedian("FittedModel::CentroidQueries"), "s", samples);
  L.Set("fft.forward_transforms", per_op(c.ForwardTransforms()), "count",
        samples, "spectra_built + queries minted + 2 x aligned members");
  L.Set("fft.inverse_transforms", per_op(c.InverseTransforms()), "count",
        samples, "pairs_computed + repair distances + aligned members");
  const double base = Median(untraced_s);
  L.Set("trace.overhead_frac",
        untraced_s.empty() || traced_s.empty() ? 0.0
                                               : Median(traced_s) / base - 1.0,
        "ratio", static_cast<long long>(traced_s.size()),
        "traced median / untraced median (" + Num(base) + " s over " +
            std::to_string(untraced_s.size()) + " untraced ops) - 1");
}

void ReportServe(const ServeSamples& serve, RunOutput* out) {
  const auto n = [](const std::vector<double>& v) {
    return static_cast<long long>(v.size());
  };
  out->e2e.Set("ingest_us_p50_ref", Median(serve.ingest_s_ref) * 1e6, "us",
               n(serve.ingest_s_ref));
  out->e2e.SetPercentile("ingest_us_p90_ref", serve.ingest_s_ref, 0.9, 1e6,
                         "us");
  out->e2e.SetPercentile("ingest_us_p99_ref", serve.ingest_s_ref, 0.99, 1e6,
                         "us");
  out->e2e.Set("predict_series_per_s_ref", Median(serve.predict_rates_ref),
               "1/s", n(serve.predict_rates_ref));
  out->e2e.Set("ingest_us_p50", Median(serve.ingest_s) * 1e6, "us",
               n(serve.ingest_s), "wall clock");
  out->e2e.SetPercentile("ingest_us_p99", serve.ingest_s, 0.99, 1e6, "us");
  out->e2e.Set("predict_series_per_s", Median(serve.predict_rates), "1/s",
               n(serve.predict_rates), "wall clock");
}

// setup_s is gated at reference speed, like the other timings.
void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& setup_s_ref, RunOutput* out) {
  out->e2e.Set("setup_s", Median(setup_s_ref), "s",
               static_cast<long long>(setup_s_ref.size()),
               "at reference speed");
  out->e2e.Set("setup_s_wall", Median(setup_s), "s",
               static_cast<long long>(setup_s.size()), "wall clock");
}

void ReportSpeed(const ReferenceSpeed& speed, RunOutput* out) {
  out->e2e.Set("reference_kernel_ms_p50", Median(speed.kernel_s()) * 1e3,
               "ms", static_cast<long long>(speed.kernel_s().size()),
               "machine speed during the run; " +
                   Num(kReferenceKernelMs) + " ms is reference speed");
}

// Mean over the run's input sets.
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? std::nan("") : sum / static_cast<double>(v.size());
}

void ReportFits(const std::vector<double>& fit_s,
                const std::vector<double>& pass_s,
                const std::vector<double>& pass_s_ref,
                const std::vector<double>& iterations,
                const std::vector<double>& ari, RunOutput* out) {
  out->e2e.Set("pass_ms_p50_ref", Median(pass_s_ref) * 1e3, "ms",
               static_cast<long long>(pass_s_ref.size()));
  out->e2e.Set("pass_ms_p50", Median(pass_s) * 1e3, "ms",
               static_cast<long long>(pass_s.size()), "wall clock");
  out->e2e.Set("fit_s_p50", Median(fit_s), "s",
               static_cast<long long>(fit_s.size()), "wall clock");
  out->e2e.SetPercentile("fit_s_p90", fit_s, 0.9, 1.0, "s");
  out->e2e.Set("fit_iters", Mean(iterations), "count",
               static_cast<long long>(iterations.size()),
               "mean over the input sets");
  out->e2e.Set("ari", Mean(ari), "ratio", static_cast<long long>(ari.size()),
               "mean over the input sets, vs the generator's class labels");
}

// The timed part of an untraced run is cut into kSlices equal slices, each
// starting with a fresh set-up of its inputs, so set-up and operation
// timings are sampled across the whole run rather than at one moment of a
// shared machine's load. The slices cycle through kInputSets input sets
// drawn from the seed: per-pass cost depends on the corpus, so a run's
// figures average over several, while each set is still fitted more than
// once (the repeat checks compare fits of the same set).
constexpr int kSlices = 6;
constexpr int kInputSets = 3;

// The seed of one input stream of the slice's input set.
std::uint64_t InputSeed(const Args& args, int slice, Stream stream) {
  return Derive(Derive(args.seed, stream),
                static_cast<std::uint64_t>(slice % kInputSets));
}

class Slices {
 public:
  explicit Slices(double seconds) : loop_seconds_(seconds * kLoopShare) {}
  // True while the run clock is inside slice s.
  bool Inside(int s) const {
    return clock_.ElapsedSeconds() < loop_seconds_ * (s + 1) / kSlices;
  }
  // True until the timed loop's time is up.
  bool Running() const { return clock_.ElapsedSeconds() < loop_seconds_; }

 private:
  Stopwatch clock_;
  double loop_seconds_;
};

// Probe series generated per slice for the fit workloads' serving rounds.
constexpr std::size_t kProbePerSlice = 400;

// The untraced loop of the fit workloads. Each slice starts with
// set_up(slice) (timed as setup_s together with the slice's probe series);
// operations then run until the slice ends. One operation is a timed
// fit(slice), checked against the run's first fit of the same input set,
// followed by a serving round against the model it produced: a batched
// Predict of the probe series, then `ingests` of them scored one at a time.
// `labels` (filled by set_up) are the generator's classes of the corpus.
template <typename SetUp, typename Fit>
void RunFitLoop(const Args& args, std::size_t m, std::size_t ingests,
                const SetUp& set_up, const Fit& fit,
                const std::vector<int>& labels, RunOutput* out) {
  const Slices slices(args.seconds);
  std::vector<double> setup_s, setup_s_ref, fit_s, pass_s, pass_s_ref;
  std::vector<double> iterations, ari;
  std::vector<std::optional<ClusteringResult>> references(kInputSets);
  ServeSamples serve;
  ReferenceSpeed speed;
  for (int s = 0; s < kSlices; ++s) {
    speed.FactorForLastOp();  // a kernel sample right before the set-up
    Stopwatch clock;
    set_up(s);
    const Corpus probe = MakeCorpus(
        kProbePerSlice, m, Derive(InputSeed(args, s, kProbeStream), s));
    setup_s.push_back(clock.ElapsedSeconds());
    setup_s_ref.push_back(setup_s.back() * speed.FactorForLastOp());
    std::optional<ClusteringResult>& reference = references[s % kInputSets];
    std::size_t cursor = 0;
    kshape::model::PredictResult served;
    do {
      clock.Reset();
      ClusteringResult result = fit(s);
      const double seconds = clock.ElapsedSeconds();
      fit_s.push_back(seconds);
      pass_s.push_back(seconds / result.iterations);
      pass_s_ref.push_back(pass_s.back() * speed.FactorForLastOp());
      std::string why;
      if (reference) {
        out->checks.Check("fit_repeat_bit_identical",
                          SameFit(result, *reference, &why), why);
      }
      served = ServeRound(result.model, probe.batch(), cursor, ingests,
                          &serve, &out->checks);
      serve.AtReferenceSpeed(speed.FactorForLastOp());
      cursor += ingests;
      out->NoteFirstOp();
      if (!reference) {
        iterations.push_back(result.iterations);
        ari.push_back(
            kshape::eval::AdjustedRandIndex(labels, result.assignments));
        reference = std::move(result);
      }
      out->checks.EndOp();
    } while (slices.Inside(s));
    CheckArgmin(reference->model, probe.batch(), served.labels,
                &out->checks);
    out->checks.EndOp();
  }
  ReportSetup(setup_s, setup_s_ref, out);
  ReportFits(fit_s, pass_s, pass_s_ref, iterations, ari, out);
  ReportServe(serve, out);
  ReportSpeed(speed, out);
}

// ---- fit_m128

constexpr std::size_t kFitN = 1200;
constexpr std::size_t kFitM = 128;
constexpr int kFitK = 3;

void TraceFitM128(const Args& args, RunOutput* out) {
  const Corpus corpus =
      MakeCorpus(kFitN, kFitM, InputSeed(args, 0, kCorpusStream));
  const SeriesBatch batch = corpus.batch();
  const std::uint64_t fit_seed = InputSeed(args, 0, kFitStream);
  const kshape::core::KShape kshape_fit;
  // Untraced KShape::Cluster and traced replays alternate.
  const Slices slices(args.seconds);
  Tracer tracer;
  Counts counts;
  std::optional<ClusteringResult> reference;
  std::vector<double> untraced_s, traced_s, align_s;
  long long traced_ops = 0;
  while (traced_ops < 3 || slices.Running()) {
    Rng rng(fit_seed);
    Stopwatch clock;
    ClusteringResult fit = kshape_fit.Cluster(batch, kFitK, &rng);
    untraced_s.push_back(clock.ElapsedSeconds());
    if (!reference) reference = std::move(fit);
    out->checks.EndOp();

    tracer.set_op(static_cast<int>(traced_ops));
    std::vector<AlignmentRecord> alignment;
    clock.Reset();
    const ClusteringResult replay =
        ReplayKShape(batch, kFitK, fit_seed, &tracer, &counts, &alignment);
    traced_s.push_back(clock.ElapsedSeconds());
    tracer.set_op(-1);
    std::string why;
    out->checks.Check("replay_equals_cluster",
                      SameFit(replay, *reference, &why), why);
    align_s.push_back(AlignProbeSeconds(batch, alignment));
    out->checks.EndOp();
    ++traced_ops;
  }
  LayerTimes times;
  CollectLayerTimes(tracer, &times);
  ReportLayers(times, counts, traced_ops, Median(align_s), untraced_s,
               traced_s, *reference, 0, out);
  const std::string path = args.out_dir + "/trace_fit_m128.json";
  if (!tracer.WriteChromeTrace(path, kTraceFileOps)) {
    out->notes.push_back("could not write " + path);
  }
}

// Ingests per fit: spread over the run's ~100 fits, they sample its whole
// length.
constexpr std::size_t kFitIngests = 20;

void RunFitM128(const Args& args, RunOutput* out) {
  if (args.trace) return TraceFitM128(args, out);
  const kshape::core::KShape kshape_fit;
  Corpus corpus;
  RunFitLoop(
      args, kFitM, kFitIngests,
      [&](int slice) {
        corpus = Corpus();
        corpus = MakeCorpus(kFitN, kFitM,
                            InputSeed(args, slice, kCorpusStream));
      },
      [&](int slice) {
        Rng rng(InputSeed(args, slice, kFitStream));
        return kshape_fit.Cluster(corpus.batch(), kFitK, &rng);
      },
      corpus.labels, out);
}

// ---- shard_m512

constexpr std::size_t kShardN = 8000;
constexpr std::size_t kShardM = 512;
constexpr int kShardK = 3;
constexpr std::size_t kShardRows = 1024;
constexpr std::size_t kResidentShards = 2;
// Ingests per fit: a run has only ~5 fits of several seconds each.
constexpr std::size_t kShardIngests = 400;

kshape::core::KShapeOptions ShardFitOptions() {
  kshape::core::KShapeOptions options;
  options.minibatch_size = 2048;
  options.refresh_period = 5;
  options.max_iterations = 15;
  options.shard_rows = kShardRows;
  options.max_resident_shards = kResidentShards;
  return options;
}

// Writes the corpus through the store's Append/Seal, one shard's worth of
// generated rows at a time, so the process never holds the whole corpus.
kshape::store::ShardedSeriesStore WriteShardedCorpus(
    const std::string& dir, std::uint64_t seed, std::vector<int>* labels,
    Tracer* tracer) {
  namespace store = kshape::store;
  std::filesystem::remove_all(dir);
  store::ShardedStoreOptions options;
  options.shard_rows = kShardRows;
  options.max_resident_shards = kResidentShards;
  kshape::common::StatusOr<store::ShardedSeriesStore> created =
      store::ShardedSeriesStore::Create(dir, options);
  if (!created.ok()) {
    std::fprintf(stderr, "kbench: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  store::ShardedSeriesStore sharded = std::move(created).value();
  Rng rng(seed);
  labels->clear();
  for (std::size_t begin = 0; begin < kShardN; begin += kShardRows) {
    const std::size_t rows = std::min(kShardRows, kShardN - begin);
    SeriesStore chunk;
    chunk.Reserve(rows, kShardM);
    for (std::size_t r = 0; r < rows; ++r) {
      int klass = 0;
      chunk.Append(CbfRow(&rng, kShardM, &klass));
      labels->push_back(klass);
    }
    ScopedSpan span(tracer, "ShardedSeriesStore::Append");
    for (std::size_t r = 0; r < rows; ++r) sharded.Append(chunk[r]);
  }
  kshape::common::Status sealed;
  {
    ScopedSpan span(tracer, "ShardedSeriesStore::Seal");
    sealed = sharded.Seal();
  }
  if (!sealed.ok()) {
    std::fprintf(stderr, "kbench: %s\n", sealed.ToString().c_str());
    std::exit(1);
  }
  return sharded;
}

// One fit over the store. Every fit starts from an empty residency set, so
// its shard traffic is a function of the inputs alone.
ClusteringResult FitSharded(kshape::store::ShardedSeriesStore* sharded,
                            std::uint64_t fit_seed) {
  sharded->EvictAll();
  Rng rng(fit_seed);
  return kshape::cluster::MiniBatchKShape(ShardFitOptions())
      .Cluster(sharded, kShardK, &rng);
}

void TraceShardM512(const Args& args, const std::string& dir,
                    RunOutput* out) {
  Tracer tracer;
  kshape::store::ShardedSeriesStore sharded;
  std::vector<int> labels;
  for (int r = 0; r < kSetupReps; ++r) {
    tracer.set_op(SetupOpId(r));
    sharded = kshape::store::ShardedSeriesStore();
    sharded = WriteShardedCorpus(dir, InputSeed(args, 0, kCorpusStream),
                                 &labels, &tracer);
  }
  tracer.set_op(-1);
  // One fit supplies the centroids and the driver's own telemetry; then
  // untraced and traced streamed passes alternate.
  const Slices slices(args.seconds);
  const ClusteringResult fit =
      FitSharded(&sharded, InputSeed(args, 0, kFitStream));
  out->checks.EndOp();
  const FittedModel& model = fit.model;
  Counts counts, untraced_counts;  // the latter only sinks the plain pass
  std::vector<double> untraced_s, traced_s, align_s;
  long long traced_ops = 0;
  const std::uint64_t finish_seed = Derive(args.seed, kFinishStream);
  std::optional<PassOutput> first_pass;
  while (traced_ops < 3 || slices.Running()) {
    Stopwatch clock;
    const PassOutput plain =
        StreamedPass(&sharded, model, finish_seed, nullptr, &untraced_counts);
    untraced_s.push_back(clock.ElapsedSeconds());
    out->checks.EndOp();

    tracer.set_op(static_cast<int>(traced_ops));
    clock.Reset();
    PassOutput traced =
        StreamedPass(&sharded, model, finish_seed, &tracer, &counts);
    traced_s.push_back(clock.ElapsedSeconds());
    tracer.set_op(-1);
    bool same = traced.labels == plain.labels;
    for (int j = 0; same && j < kShardK; ++j) {
      same = SameBits(traced.centroids[j], plain.centroids[j]);
    }
    out->checks.Check("traced_pass_equals_untraced", same,
                      "traced pass output differs");
    align_s.push_back(ShardAlignProbeSeconds(&sharded, model, traced.labels));
    if (!first_pass) first_pass = std::move(traced);
    out->checks.EndOp();
    ++traced_ops;
  }
  // The pass's labels must be Predict's, shard by shard.
  std::size_t mismatched_shards = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const kshape::store::ShardView view = sharded.Acquire(s);
    const kshape::model::PredictResult predicted =
        kshape::model::Predict(model, view.batch());
    if (!std::equal(predicted.labels.begin(), predicted.labels.end(),
                    first_pass->labels.begin() + view.global_begin())) {
      ++mismatched_shards;
    }
  }
  out->checks.Check("pass_equals_predict", mismatched_shards == 0,
                    std::to_string(mismatched_shards) + " shards differ");
  out->checks.EndOp();

  LayerTimes times;
  CollectLayerTimes(tracer, &times);
  ReportLayers(times, counts, traced_ops, Median(align_s), untraced_s,
               traced_s, fit, kShardRows * kShardM * sizeof(double), out);
  const std::string path = args.out_dir + "/trace_shard_m512.json";
  if (!tracer.WriteChromeTrace(path, kTraceFileOps)) {
    out->notes.push_back("could not write " + path);
  }
}

void RunShardM512(const Args& args, RunOutput* out) {
  const std::string dir = args.out_dir + "/shard_m512_store";
  if (args.trace) {
    TraceShardM512(args, dir, out);
    std::filesystem::remove_all(dir);
    return;
  }
  kshape::store::ShardedSeriesStore sharded;
  std::vector<int> labels;
  RunFitLoop(
      args, kShardM, kShardIngests,
      [&](int slice) {
        sharded = kshape::store::ShardedSeriesStore();
        sharded = WriteShardedCorpus(
            dir, InputSeed(args, slice, kCorpusStream), &labels, nullptr);
      },
      [&](int slice) {
        return FitSharded(&sharded, InputSeed(args, slice, kFitStream));
      },
      labels, out);
  std::filesystem::remove_all(dir);
}

// ---- serve_m128

constexpr std::size_t kServeFitN = 1200;
constexpr std::size_t kServeM = 128;
constexpr int kServeK = 8;
constexpr std::size_t kServeBatches = 4;
constexpr std::size_t kServeBatchN = 1024;
constexpr std::size_t kIngestsPerRound = 256;
// Iteration cap of the served model's fit: most k=8 fits need 15-30
// iterations to converge, so the cap makes set-up cost the same whatever the
// seed.
constexpr int kServeFitIterations = 10;

struct ServeSetup {
  Corpus traffic;  // kServeBatches batches of kServeBatchN series
  ClusteringResult fit;
  FittedModel model;  // fit.model after a save -> load round trip

  SeriesBatch Batch(std::size_t r) const {
    return SeriesBatch(traffic.store.data() +
                           (r % kServeBatches) * kServeBatchN * kServeM,
                       kServeBatchN, kServeM);
  }
};

// Fits the served model, saves and loads it, and checks that the loaded
// model predicts bit-identically to the in-memory one.
ServeSetup SetUpServe(const Args& args, int slice, const std::string& path,
                      Tracer* tracer, Checks* checks) {
  ServeSetup setup;
  const Corpus corpus = MakeCorpus(kServeFitN, kServeM,
                                   InputSeed(args, slice, kCorpusStream));
  setup.traffic = MakeCorpus(kServeBatches * kServeBatchN, kServeM,
                             InputSeed(args, slice, kProbeStream));
  Rng rng(InputSeed(args, slice, kFitStream));
  kshape::core::KShapeOptions options;
  options.max_iterations = kServeFitIterations;
  setup.fit =
      kshape::core::KShape(options).Cluster(corpus.batch(), kServeK, &rng);
  kshape::common::Status saved;
  {
    ScopedSpan span(tracer, "FittedModel::Save");
    saved = setup.fit.model.Save(path);
  }
  kshape::common::StatusOr<FittedModel> loaded = saved;
  if (saved.ok()) {
    ScopedSpan span(tracer, "FittedModel::Load");
    loaded = FittedModel::Load(path);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "kbench: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  setup.model = std::move(loaded).value();
  const kshape::model::PredictResult a =
      kshape::model::Predict(setup.fit.model, setup.Batch(0));
  const kshape::model::PredictResult b =
      kshape::model::Predict(setup.model, setup.Batch(0));
  checks->Check("kmodel_roundtrip_bit_identical",
                a.labels == b.labels &&
                    std::memcmp(a.distances.data(), b.distances.data(),
                                a.distances.size() * sizeof(double)) == 0,
                "loaded model predicts differently");
  checks->EndOp();
  return setup;
}

void TraceServeM128(const Args& args, const std::string& path,
                    RunOutput* out) {
  Tracer tracer;
  std::optional<ServeSetup> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    tracer.set_op(SetupOpId(r));
    setup = SetUpServe(args, 0, path, &tracer, &out->checks);
  }
  tracer.set_op(-1);
  // Untraced Predict calls and traced predict passes alternate, on one
  // batch so that every traced operation does the same work.
  const Slices slices(args.seconds);
  const SeriesBatch batch = setup->Batch(0);
  Counts counts;
  std::vector<double> untraced_s, traced_s;
  long long traced_ops = 0;
  while (traced_ops < 3 || slices.Running()) {
    Stopwatch clock;
    const kshape::model::PredictResult plain =
        kshape::model::Predict(setup->model, batch);
    untraced_s.push_back(clock.ElapsedSeconds());
    out->checks.EndOp();

    tracer.set_op(static_cast<int>(traced_ops));
    clock.Reset();
    const kshape::model::PredictResult traced =
        PredictPass(setup->model, batch, &tracer, &counts);
    traced_s.push_back(clock.ElapsedSeconds());
    tracer.set_op(-1);
    out->checks.Check(
        "traced_pass_equals_predict",
        traced.labels == plain.labels &&
            std::memcmp(traced.distances.data(), plain.distances.data(),
                        plain.distances.size() * sizeof(double)) == 0,
        "traced predict pass differs from Predict");
    out->checks.EndOp();
    ++traced_ops;
  }
  LayerTimes times;
  CollectLayerTimes(tracer, &times);
  ReportLayers(times, counts, traced_ops, 0.0, untraced_s, traced_s,
               setup->fit, 0, out);
  const std::string trace_path = args.out_dir + "/trace_serve_m128.json";
  if (!tracer.WriteChromeTrace(trace_path, kTraceFileOps)) {
    out->notes.push_back("could not write " + trace_path);
  }
}

void RunServeM128(const Args& args, RunOutput* out) {
  const std::string path = args.out_dir + "/serve_m128.kmodel";
  if (args.trace) {
    TraceServeM128(args, path, out);
    std::filesystem::remove(path);
    return;
  }
  const Slices slices(args.seconds);
  std::vector<double> setup_s;
  std::optional<ServeSetup> setup;
  std::vector<std::optional<FittedModel>> first_models(kInputSets);
  std::vector<double> iterations, ari, setup_s_ref;
  ServeSamples serve;
  ReferenceSpeed speed;
  std::size_t round = 0;
  for (int s = 0; s < kSlices; ++s) {
    setup.reset();
    speed.FactorForLastOp();  // a kernel sample right before the set-up
    Stopwatch clock;
    setup = SetUpServe(args, s, path, nullptr, &out->checks);
    setup_s.push_back(clock.ElapsedSeconds());
    setup_s_ref.push_back(setup_s.back() * speed.FactorForLastOp());
    std::optional<FittedModel>& first_model = first_models[s % kInputSets];
    if (!first_model) {
      first_model = setup->model;
      iterations.push_back(setup->fit.iterations);
      ari.push_back(kshape::eval::AdjustedRandIndex(
          setup->traffic.labels,
          kshape::model::Predict(setup->model, setup->traffic.batch())
              .labels));
    } else {
      bool same = first_model->k() == setup->model.k();
      for (std::size_t j = 0; same && j < setup->model.k(); ++j) {
        same = std::equal(first_model->centroid(j).begin(),
                          first_model->centroid(j).end(),
                          setup->model.centroid(j).begin());
      }
      out->checks.Check("model_repeat_identical", same,
                        "a repeated set-up fitted another model");
    }
    const std::size_t first_round = round;
    std::vector<int> first_labels;
    do {
      const kshape::model::PredictResult predicted = ServeRound(
          setup->model, setup->Batch(round),
          round / kServeBatches * kIngestsPerRound, kIngestsPerRound, &serve,
          &out->checks);
      if (first_labels.empty()) first_labels = predicted.labels;
      serve.AtReferenceSpeed(speed.FactorForLastOp());
      out->NoteFirstOp();
      out->checks.EndOp();
      ++round;
    } while (slices.Inside(s));
    CheckArgmin(setup->model, setup->Batch(first_round), first_labels,
                &out->checks);
    out->checks.EndOp();
  }
  std::filesystem::remove(path);
  ReportSetup(setup_s, setup_s_ref, out);
  out->e2e.Set("pass_ms_p50_ref", Median(serve.predict_s_ref) * 1e3, "ms",
               static_cast<long long>(serve.predict_s_ref.size()));
  out->e2e.Set("pass_ms_p50", Median(serve.predict_s) * 1e3, "ms",
               static_cast<long long>(serve.predict_s.size()), "wall clock");
  ReportServe(serve, out);
  ReportSpeed(speed, out);
  out->e2e.Set("fit_iters", Mean(iterations), "count",
               static_cast<long long>(iterations.size()),
               "set-up fits of the served models, mean over the input sets");
  out->e2e.Set("ari", Mean(ari), "ratio", static_cast<long long>(ari.size()),
               "served labels vs the generator's classes, mean over the "
               "input sets");
}

// ----------------------------------------------------------------- main

std::string ConfigJson(const Args& args) {
  JsonObject env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("KSHAPE_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    env.String(entry.substr(0, eq),
               eq == std::string::npos ? "" : entry.substr(eq + 1));
  }
  JsonObject config;
  config.String("workload", args.workload)
      .Int("seed", static_cast<long long>(args.seed))
      .Number("seconds", args.seconds)
      .Int("trace", args.trace ? 1 : 0)
      .String("simd_backend", kshape::simd::ActiveBackendName())
      .Int("threads", kshape::common::ThreadCount())
      .Int("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .Raw("kshape_env", env.str());
  return config.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "kbench: %s\nusage: kbench --workload "
               "<fit_m128|shard_m512|serve_m128> --seed <n> --seconds <s> "
               "--trace <0|1> --threads <t> --out <dir>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (key == "--threads") {
      args.threads = std::atoi(value);
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (!(args.seconds > 0.0) || args.threads < 1) {
    return Usage("--seconds and --threads must be positive");
  }
  for (const char* gate : kPathGates) {
    const char* value = std::getenv(gate);
    if (value != nullptr && *value != '\0') {
      std::fprintf(stderr,
                   "kbench: refusing to run with %s=%s set: it selects a "
                   "library code path, so results would not compare across "
                   "commits. Unset it.\n",
                   gate, value);
      return 3;
    }
  }
  kshape::common::SetThreadCount(args.threads);
  std::filesystem::create_directories(args.out_dir);

  RunOutput out;
  if (args.workload == "fit_m128") {
    RunFitM128(args, &out);
  } else if (args.workload == "shard_m512") {
    RunShardM512(args, &out);
  } else if (args.workload == "serve_m128") {
    RunServeM128(args, &out);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) {
    out.e2e.Set("peak_rss_mib", out.peak_rss_mib, "MiB", 1,
                "after the first set-up and operation");
    out.e2e.Set("peak_rss_mib_run", PeakRssMib(), "MiB", 1,
                "over the whole run");
    const double attempted = static_cast<double>(out.checks.attempted());
    out.e2e.Set("failed_frac",
                static_cast<double>(out.checks.failed()) / attempted,
                "ratio", out.checks.attempted(),
                "failed / " + std::to_string(out.checks.attempted()) +
                    " operations attempted");
  }
  std::string notes = "[";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    notes += (i ? "," : "") + Quote(out.notes[i]);
  }
  notes += "]";
  JsonObject report;
  report.Raw("config", ConfigJson(args))
      .Int("attempted", out.checks.attempted())
      .Int("failed", out.checks.failed())
      .Raw("checks", out.checks.Json())
      .Raw("metrics", args.trace ? out.layers.Json() : out.e2e.Json())
      .Raw("notes", notes);
  std::printf("%s\n", report.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
