#include "core/kshape_driver.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/sbd.h"
#include "core/shape_extraction.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "model/assigner.h"

namespace kshape::core {

namespace {

// The per-index work of a ++ scan is one distance; grain 16 amortizes
// chunk-claiming over it. Chunking does not affect results (disjoint writes
// of pure per-index values), so any block cut lands on the same bits.
constexpr std::size_t kScanGrain = 16;

// Copies global row i (the copy owns its samples, so a later Block() call
// that evicts the row's block cannot invalidate it).
tseries::Series CopyRow(BlockSource* source, std::size_t i) {
  const SeriesBlock block =
      source->Block(source->BlockOfRow(i), EngineReads{});
  const tseries::SeriesView row = block.batch[i - block.base];
  return tseries::Series(row.begin(), row.end());
}

// k-means++-style seeding under SBD: D² sampling of k seed series, then a
// nearest-seed initial assignment. Each seed's spectrum is minted once
// (MakeQueryFor) and streamed against every block engine; without engines
// each distance is a direct Sbd(). The distance scans run on the pool with
// disjoint writes; the rng-driven sampling between scans stays on the
// coordinating thread and `total` is reduced over d2 in index order, so the
// seeding consumes the same random stream and picks the same seeds at every
// thread count and block cut.
std::vector<int> PlusPlusSeeding(BlockSource* source, int k, common::Rng* rng,
                                 bool engines, std::size_t fft_len,
                                 bool half) {
  const std::size_t n = source->size();
  const std::size_t m = source->length();
  std::vector<double> d2(n);  // squared SBD to the nearest chosen seed
  std::vector<int> nearest(n, 0);

  const auto scan = [&](std::size_t seed, int seed_index) {
    const tseries::Series seed_row = CopyRow(source, seed);
    SbdEngine::Query q;
    if (engines) {
      q = SbdEngine::MakeQueryFor(seed_row, m, fft_len, half,
                                  /*build_bound_planes=*/false);
    }
    EngineReads reads;
    reads.spectra.all = engines;
    for (std::size_t b = 0; b < source->num_blocks(); ++b) {
      const SeriesBlock block = source->Block(b, reads);
      common::ParallelFor(0, block.batch.size(), kScanGrain,
                          [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const double d = engines ? block.engine->Distance(q, r)
                                   : Sbd(seed_row, block.batch[r]).distance;
          const std::size_t i = block.base + r;
          if (seed_index == 0) {
            d2[i] = d * d;
          } else if (d * d < d2[i]) {
            d2[i] = d * d;
            nearest[i] = seed_index;
          }
        }
      });
    }
  };

  scan(static_cast<std::size_t>(rng->UniformInt(static_cast<int>(n))), 0);
  for (int seed_index = 1; seed_index < k; ++seed_index) {
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t pick = 0;
    if (total <= 0.0) {
      // All series coincide with a seed; any unused index works.
      pick = static_cast<std::size_t>(rng->UniformInt(static_cast<int>(n)));
    } else {
      double threshold = rng->Uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        threshold -= d2[i];
        if (threshold <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    scan(pick, seed_index);
  }
  return nearest;
}

// Floyd's uniform sample of `b` distinct indices from [0, n), returned
// sorted ascending. Consumes exactly b UniformInt draws on the calling
// (coordinating) thread, so the sample — and everything downstream of it —
// is a pure function of the rng state, independent of thread count.
std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                  std::size_t b,
                                                  common::Rng* rng) {
  KSHAPE_CHECK(b <= n);
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(b * 2);
  for (std::size_t t = n - b; t < n; ++t) {
    const std::size_t r = static_cast<std::size_t>(
        rng->UniformInt(static_cast<int>(t + 1)));
    chosen.insert(chosen.count(r) ? t : r);
  }
  std::vector<std::size_t> sample(chosen.begin(), chosen.end());
  std::sort(sample.begin(), sample.end());
  return sample;
}

// The rows one walk over the blocks visits for one purpose: every row (a
// full pass), or a sorted sample (possibly empty: nothing).
struct RowSet {
  bool all = false;
  std::vector<std::size_t> sample;
};

// A RowSet's rows inside one block: every row of the block when the set is
// all, else sample[pos, pos + count). row(t) is the t-th one, block-local;
// it and the count of an all set are known once Locate has seen the block.
struct BlockRows {
  const RowSet* set = nullptr;
  std::size_t base = 0;
  std::size_t pos = 0;
  std::size_t count = 0;
  std::size_t row(std::size_t t) const {
    return set->all ? t : set->sample[pos + t] - base;
  }
  RowRun run() const {
    if (set->all) return RowRun{true, {}};
    return RowRun{false, std::span(set->sample).subspan(pos, count)};
  }
  void Locate(const SeriesBlock& block) {
    base = block.base;
    if (set->all) count = block.batch.size();
  }
};

// The rows of `set` inside block b, taken before the block is acquired so
// the source can ready them. Blocks are taken in ascending order; *pos is
// the first sample position no earlier block took.
BlockRows TakeRows(const BlockSource& source, const RowSet& set,
                   std::size_t b, std::size_t* pos) {
  BlockRows rows{&set, 0, *pos, 0};
  if (!set.all) {
    while (*pos < set.sample.size() &&
           source.BlockOfRow(set.sample[*pos]) == b) {
      ++*pos;
    }
    rows.count = *pos - rows.pos;
  }
  return rows;
}

// The blocks holding a row of `a` or `b`, ascending.
std::vector<std::size_t> BlocksOf(const BlockSource& source, const RowSet& a,
                                  const RowSet& b) {
  std::vector<std::size_t> blocks;
  if (a.all || b.all) {
    blocks.resize(source.num_blocks());
    for (std::size_t i = 0; i < blocks.size(); ++i) blocks[i] = i;
    return blocks;
  }
  for (const RowSet* set : {&a, &b}) {
    for (const std::size_t i : set->sample) {
      blocks.push_back(source.BlockOfRow(i));
    }
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  return blocks;
}

}  // namespace

EngineConfig EngineConfigFor(const KShapeOptions& options) {
  EngineConfig config;
  config.half_spectrum =
      options.use_half_spectrum && fft::HalfSpectrumEnabled();
  config.bound_planes = options.use_pruning && PruningEnabled();
  return config;
}

cluster::ClusteringResult RunKShapeDriver(
    BlockSource* source, int k, common::Rng* rng,
    const KShapeOptions& options, bool minibatch, CentroidPolicy* policy) {
  KSHAPE_CHECK(source != nullptr && rng != nullptr);
  const std::size_t n = source->size();
  const std::size_t m = source->length();
  KSHAPE_CHECK(n >= 1 && m >= 1);
  // ++ seeding and the mini-batch sample draw row indices through
  // Rng::UniformInt, whose range is an int.
  KSHAPE_CHECK_MSG(n <= static_cast<std::size_t>(
                            std::numeric_limits<int>::max()),
                   "corpus exceeds INT_MAX series");
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= n);
  const bool engines = policy == nullptr;
  // Row channels: cluster j's channel c is accumulator j·d + c, solved over
  // the row slice [c·cm, (c+1)·cm).
  const std::size_t d = engines ? 1 : policy->channels();
  KSHAPE_CHECK(d >= 1 && m % d == 0);
  const std::size_t cm = m / d;
  const CentroidSolve solve = engines ? CentroidSolve::kShape
                                      : policy->solve();
  const EngineConfig config = EngineConfigFor(options);
  const bool half = engines && config.half_spectrum;
  const bool pruning = engines && config.bound_planes;
  const std::size_t fft_len = engines ? fft::NextPowerOfTwo(2 * m - 1) : 0;
  const bool sampling = minibatch && options.minibatch_size > 0 &&
                        options.minibatch_size < n;
  KSHAPE_CHECK_MSG(engines || !sampling,
                   "mini-batch sampling needs the spectrum-cache path");
  KSHAPE_CHECK_MSG(d == 1 || options.init == KShapeInit::kRandomAssignment,
                   "++ seeding needs single-channel rows");

  cluster::ClusteringResult result;
  result.assignments =
      options.init == KShapeInit::kPlusPlusSeeding
          ? PlusPlusSeeding(source, k, rng, engines, fft_len, half)
          : cluster::RandomAssignments(n, k, rng);
  result.centroids.assign(k, tseries::Series(m, 0.0));

  // Hamerly movement bounds run only on all-full-pass schedules: their
  // per-series state assumes every series sees every centroid update, which
  // sampled iterations violate. The stateless spectral early-abandon layer
  // stays on whenever pruning is.
  const bool bounds = pruning && !sampling;
  model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.fft_len = fft_len;
  assigner_options.use_half_spectrum = half;
  assigner_options.use_pruning = pruning;
  assigner_options.use_movement_bounds = bounds;
  assigner_options.prune_margin = options.prune_margin;
  assigner_options.verify = bounds && options.verify_pruning;
  model::Assigner assigner(assigner_options);

  // Distance of global series i to centroid j, for the repair scan (which
  // visits rows in ascending order, so a store-backed source loads each
  // block at most once per empty cluster). The scan reads row i alone.
  const auto repair_distance = [&](int j, std::size_t i) {
    EngineReads reads;
    reads.spectra.rows = std::span(&i, 1);
    const SeriesBlock block = source->Block(source->BlockOfRow(i), reads);
    const std::size_t r = i - block.base;
    return engines ? block.engine->Distance(assigner.queries()[j], r)
                   : policy->Distance(j, i, block.batch[r]);
  };

  // The rows iteration `iter` visits: every row on a full pass, else a
  // sample drawn from `draw` on the coordinating thread.
  const auto rows_of = [&](int iter, common::Rng* draw) {
    RowSet rows;
    rows.all = !sampling || (iter + 1) % options.refresh_period == 0 ||
               iter + 1 == options.max_iterations;
    if (!rows.all) {
      rows.sample = SampleWithoutReplacement(n, options.minibatch_size, draw);
    }
    return rows;
  };

  // Refinement (Algorithm 3, lines 5-10): one ShapeAccumulator per cluster
  // and channel, referenced at the current centroid, which its members align
  // toward.
  // Each block's members take one fused pass: counted per cluster, given a
  // slot in global index order, and staged (the pool grows once per block);
  // then a single ParallelFor builds every member's aligned, normalized row
  // straight into its slot, and Commit folds the slots in slot order — the
  // bits of feeding Add(member, shift) in global index order. With block
  // engines a member's alignment shift is the engine's cached NCC peak
  // against its cluster's query (one inverse, no forwards; equal to the
  // direct Sbd() shift of Add(member) except at near-tie lags): the queries
  // BeginIteration minted from exactly these references, since repair and
  // sampled passes leave result.centroids alone; without engines it is the
  // policy's, prepared with the same centroids. The accumulators take the
  // caller's shape options verbatim.
  std::vector<ShapeAccumulator> accumulators;
  const auto reset_accumulators = [&] {
    accumulators.clear();
    for (int j = 0; j < k; ++j) {
      const tseries::SeriesView centroid = result.centroids[j];
      const bool align = linalg::Norm(centroid) > 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        accumulators.emplace_back(centroid.subspan(c * cm, cm),
                                  options.shape_options, solve, align);
      }
    }
  };
  // Members align once BeginIteration (and Prepare) have seen solved
  // centroids; before that every reference is the all-zero centroid.
  bool aligned = false;
  std::vector<std::size_t> slot;
  std::vector<std::size_t> members(k);
  const auto fill = [&](const SeriesBlock& block, const BlockRows& rows) {
    if (rows.count == 0) return;
    slot.resize(rows.count);
    std::fill(members.begin(), members.end(), 0);
    for (std::size_t t = 0; t < rows.count; ++t) {
      slot[t] = members[result.assignments[block.base + rows.row(t)]]++;
    }
    for (std::size_t a = 0; a < accumulators.size(); ++a) {
      accumulators[a].Stage(members[a / d]);
    }
    common::ParallelFor(0, rows.count, kScanGrain,
                        [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const std::size_t r = rows.row(t);
        const std::size_t i = block.base + r;
        const int label = result.assignments[i];
        const tseries::SeriesView row = block.batch[r];
        int shift = 0;
        if (aligned) {
          shift = engines
                      ? block.engine->MaxNcc(assigner.queries()[label], r).shift
                      : policy->Shift(label, i, row);
        }
        for (std::size_t c = 0; c < d; ++c) {
          accumulators[label * d + c].Fill(slot[t], row.subspan(c * cm, cm),
                                           shift);
        }
      }
    });
    for (ShapeAccumulator& accumulator : accumulators) accumulator.Commit();
  };

  // Assignment (Algorithm 3, lines 11-17) of one block's rows, delegated to
  // the Assigner: rows fan out on the pool with disjoint writes. Without
  // engines the policy supplies the distance.
  const auto assign = [&](const SeriesBlock& block, const BlockRows& rows) {
    assigner.AssignRows(
        block.engine,
        [&](int j, std::size_t i) {
          return policy->Distance(j, i, block.batch[i - block.base]);
        },
        block.base, rows.count, rows.run().rows, &result.assignments);
  };

  // One walk over the blocks holding a row of `to_assign` or `to_fill`, in
  // ascending order (the order the Assigner's telemetry reduction and the
  // accumulator commits require): each block is acquired once, its
  // `to_assign` rows are assigned, then its `to_fill` rows are fed to the
  // accumulators. A block's fill reads only labels of its own rows, which
  // its assignment has already settled. The block is asked for exactly the
  // engine rows the two read: planes for the assigned rows, spectra for the
  // filled rows once fills align. With `defer_last` the last block's fill is
  // returned instead of run; fill time is added to `fill_seconds`.
  struct DeferredFill {
    std::size_t block = 0;
    BlockRows rows;
  };
  const auto walk = [&](const RowSet& to_assign, const RowSet& to_fill,
                        bool defer_last, double* fill_seconds) {
    const std::vector<std::size_t> blocks =
        BlocksOf(*source, to_assign, to_fill);
    std::size_t assign_pos = 0;
    std::size_t fill_pos = 0;
    DeferredFill deferred;
    for (std::size_t v = 0; v < blocks.size(); ++v) {
      BlockRows assign_rows =
          TakeRows(*source, to_assign, blocks[v], &assign_pos);
      BlockRows rows = TakeRows(*source, to_fill, blocks[v], &fill_pos);
      EngineReads reads;
      reads.planes = assign_rows.run();
      if (aligned) reads.spectra = rows.run();
      const SeriesBlock block = source->Block(blocks[v], reads);
      assign_rows.Locate(block);
      rows.Locate(block);
      assign(block, assign_rows);
      if (defer_last && v + 1 == blocks.size()) {
        deferred = {blocks[v], rows};
      } else {
        const common::Stopwatch fill_clock;
        fill(block, rows);
        *fill_seconds += fill_clock.ElapsedSeconds();
      }
    }
    return deferred;
  };

  // Iteration t's assignment walk also fills iteration t+1's accumulators
  // (referenced at the centroids t just solved, aligned with t's queries,
  // over the labels t just wrote), so each block is acquired once per
  // iteration. Only the first iteration, and one whose repair reseeded a
  // cluster (repair rewrites labels the fused fills already read), run a
  // walk that fills alone.
  RowSet rows = rows_of(0, rng);
  bool filled = false;  // `accumulators` already hold `rows`' members
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;
    if (!rows.all) {
      result.sampled_series += static_cast<long long>(rows.sample.size());
    }

    assigner.SnapshotCentroids(result.centroids);

    common::Stopwatch phase_clock;
    double fill_seconds = 0.0;
    if (!filled) {
      reset_accumulators();
      walk(RowSet{}, rows, /*defer_last=*/false, &fill_seconds);
    }

    // The solves run side by side: the coordinating thread draws every
    // cold start in accumulator order (the draws Finish(rng) would take, one
    // accumulator after another), and the eigenproblems run one per pool
    // task, each matrix-free matvec fanning out inline on its fixed chunks
    // (a lone accumulator keeps the pool-wide fan-out). A degenerate
    // extraction (all members zero-norm in every channel) keeps the zero
    // centroid as its documented representative and is surfaced via the
    // result flag.
    {
      // No sampled member is not evidence the cluster is empty: such a
      // cluster keeps its previous centroid instead of being
      // degenerate-zeroed, and solves nothing (so draws nothing).
      const std::size_t count = accumulators.size();
      std::vector<char> solved(k);
      std::vector<std::vector<double>> cold_starts(count);
      for (std::size_t a = 0; a < count; ++a) {
        solved[a / d] = rows.all || accumulators[a].members_added() > 0;
        if (solved[a / d]) {
          cold_starts[a] =
              accumulators[a].DrawColdStart(rng, options.shape_options);
        }
      }
      std::vector<ExtractedShape> extracted(count);
      common::ParallelFor(0, count, 1,
                          [&](std::size_t begin, std::size_t end) {
        for (std::size_t a = begin; a < end; ++a) {
          if (!solved[a / d]) continue;
          extracted[a] =
              accumulators[a].Finish(cold_starts[a], options.shape_options);
        }
      });
      result.degenerate_centroids = 0;
      for (int j = 0; j < k; ++j) {
        if (!solved[j]) continue;
        bool degenerate = accumulators[j * d].members_added() > 0;
        for (std::size_t c = 0; c < d; ++c) {
          const ExtractedShape& shape = extracted[j * d + c];
          std::copy(shape.centroid.begin(), shape.centroid.end(),
                    result.centroids[j].begin() + c * cm);
          degenerate = degenerate && shape.degenerate;
        }
        result.degenerate_centroids += degenerate;
      }
    }
    // Free the solved member pools before the walk stages the next ones.
    accumulators.clear();
    result.extraction_seconds += phase_clock.ElapsedSeconds();
    phase_clock.Reset();

    // BeginIteration mints this iteration's centroid queries once (shared
    // by every block engine) and derives the movement-bound shifts. The
    // next iteration's sample is drawn from a copy of the rng, committed
    // only if that iteration runs: repair draws nothing, so the stream is
    // the one drawing it at the next iteration's start would see. The last
    // block's fill waits for the convergence check, with the block still
    // resident, so a one-block run fills nothing it does not solve.
    assigner.BeginIteration(result.centroids);
    if (!engines) policy->Prepare(result.centroids);
    aligned = true;
    const bool next_may_run = iter + 1 < options.max_iterations;
    common::Rng next_rng = *rng;
    RowSet next;
    if (next_may_run) {
      next = rows_of(iter + 1, &next_rng);
      reset_accumulators();
    }
    fill_seconds = 0.0;
    const DeferredFill deferred =
        walk(rows, next, /*defer_last=*/true, &fill_seconds);
    const cluster::AssignmentIterationStats stats =
        assigner.iteration_stats();
    result.pruned_label_mismatches += assigner.iteration_verify_mismatches();
    result.assignment_stats.push_back(stats);
    result.distances_computed += stats.computed;
    result.distances_pruned_bounds += stats.pruned_bounds;
    result.distances_abandoned_partial += stats.abandoned_partial;

    // Re-seed clusters that lost all members with the series farthest from
    // its current centroid (shared policy — see RepairEmptyClusters for the
    // tie-break contract). Sizes are counted first, so a run with no empty
    // cluster costs no block traffic here.
    const int reseeds =
        cluster::RepairEmptyClusters(k, &result.assignments, repair_distance);
    result.empty_cluster_reseeds += reseeds;
    assigner.FinishIteration(reseeds);
    result.assignment_seconds += phase_clock.ElapsedSeconds() - fill_seconds;
    result.extraction_seconds += fill_seconds;

    result.iterations = iter + 1;
    // Convergence is declared on full passes only: a sampled iteration
    // leaves most assignments untouched, so assignment equality there says
    // nothing about a corpus-wide fixed point.
    if (rows.all && result.assignments == previous) {
      result.converged = true;
      break;
    }
    if (!next_may_run) break;
    *rng = next_rng;
    filled = reseeds == 0;
    if (filled && deferred.rows.count > 0) {
      phase_clock.Reset();
      EngineReads reads;
      reads.spectra = deferred.rows.run();
      fill(source->Block(deferred.block, reads), deferred.rows);
      result.extraction_seconds += phase_clock.ElapsedSeconds();
    }
    rows = std::move(next);
  }
  return result;
}

}  // namespace kshape::core
