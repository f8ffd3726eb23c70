// The k-Shape iteration protocol (Algorithm 3), written once for every
// shape-based clusterer.
//
// Four facades run on RunKShapeDriver. KShape (one in-memory block) and
// MiniBatchKShape (one block per shard of a ShardedSeriesStore) differ only
// in the BlockSource they present; both measure SBD through the blocks'
// cached-spectrum engines. KShape with a custom assignment distance, KSC
// (cluster/ksc.h) and multivariate k-Shape
// (core/multivariate.h) run the no-engine configuration instead, where one
// CentroidPolicy supplies the distance, the member alignment and the
// centroid solve. The driver owns everything else —
// initialization (random assignment or ++ D² seeding), the per-iteration
// Assigner protocol (SnapshotCentroids → solve → BeginIteration → one walk
// over the blocks → RepairEmptyClusters → FinishIteration), shape
// refinement through one ShapeAccumulator per cluster and channel (each
// block's members aligned and normalized in one parallel pass, committed in
// global index order; the eigenproblems solved side by side), and the
// mini-batch schedule. A shape-based variant is one more policy, not one
// more loop.
//
// Iteration t's walk visits, in ascending order, every block holding a row
// that t assigns or t+1 refines, and acquires each once: it assigns the
// block's rows (one Assigner::AssignRows call: whole block or sample slice),
// then fills iteration t+1's accumulators with the same block's members —
// referenced at the centroids t just solved, aligned with t's queries (or
// the policy prepared with those centroids), over the labels t just wrote.
// Before acquiring a block the walk tells the source which engine rows it
// will read (EngineReads), so a source that builds rows on request builds
// only those. The last block's fill waits for the convergence check, while
// that block is still resident. t+1's sample is drawn before
// the walk from a copy of the rng that is committed only if t+1 runs. Only
// iteration 0, and an iteration after a repair that reseeded (repair
// rewrites labels the fills read; those fills are discarded), run a walk
// that fills alone. Without reseeds and with random initialization a fit
// therefore acquires every block of its walks once per iteration, plus once
// for iteration 0's fill.
//
// Every order-sensitive reduction (the ++ D² totals, accumulator commits,
// cold-start draws, telemetry, repair) runs in a fixed order on the
// coordinating thread, and every engine of a run
// shares one configuration (see EngineConfigFor), so the result does not
// depend on how the corpus is cut into blocks: a store of any shard geometry
// reproduces the single-block run bit for bit.

#ifndef KSHAPE_CORE_KSHAPE_DRIVER_H_
#define KSHAPE_CORE_KSHAPE_DRIVER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/algorithm.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// One contiguous run of the corpus as the driver sees it.
struct SeriesBlock {
  /// The block's rows; row r is global series `base + r`.
  tseries::SeriesBatch batch;
  std::size_t base = 0;
  /// Cached spectra of `batch`, or null in the no-engine configuration.
  const SbdEngine* engine = nullptr;
};

/// Global rows of one block: every row of it, or an ascending run of global
/// indices inside it.
struct RowRun {
  bool all = false;
  std::span<const std::size_t> rows;
};

/// What a caller reads through a block's engine until its next Block()
/// call.
struct EngineReads {
  /// Rows whose spectrum, norm and bound planes are read (the assignment
  /// scan's rows; planes matter only when the engine keeps them).
  RowRun planes;
  /// Rows whose spectrum and norm alone are read.
  RowRun spectra;
};

/// The corpus, cut into blocks of ascending global base. Called from the
/// coordinating thread only.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Number of series n and their common length m.
  virtual std::size_t size() const = 0;
  virtual std::size_t length() const = 0;

  virtual std::size_t num_blocks() const = 0;

  /// Block b, whose engine (if any) is ready for `reads`: the caller reads
  /// those rows and no others through it until the next Block() call. An
  /// eager engine has every row; a source whose engines build rows on
  /// request builds the missing ones here, before the caller fans out, and
  /// the rows it built stay built while the block stays resident. The
  /// returned views stay valid until the next Block() call (a store-backed
  /// source may evict the previous block to load this one). Within a walk
  /// the driver asks for blocks in ascending order; after it, it may ask
  /// again for the walk's last block, which a source that kept it resident
  /// serves without a reload.
  virtual SeriesBlock Block(std::size_t b, const EngineReads& reads) = 0;

  /// The block holding global row i.
  virtual std::size_t BlockOfRow(std::size_t i) const = 0;
};

/// An in-memory batch as one always-resident block, with an optional eager
/// engine over it (so it ignores the reads it is asked for). Both are views:
/// they must outlive the source.
class InMemoryBlockSource : public BlockSource {
 public:
  InMemoryBlockSource(const tseries::SeriesBatch& series,
                      const SbdEngine* engine)
      : series_(series), engine_(engine) {}

  std::size_t size() const override { return series_.size(); }
  std::size_t length() const override { return series_.length(); }
  std::size_t num_blocks() const override { return 1; }
  SeriesBlock Block(std::size_t, const EngineReads&) override {
    return SeriesBlock{series_, 0, engine_};
  }
  std::size_t BlockOfRow(std::size_t) const override { return 0; }

 private:
  tseries::SeriesBatch series_;
  const SbdEngine* engine_;
};

/// The no-engine configuration: how a centroid measures and aligns a row,
/// and which centroid solve refines it.
///
/// A row may hold several channels of one series: channels() = d cuts a row
/// of length d·m into d channel-major slices of m. Each cluster then has one
/// ShapeAccumulator per channel (cluster j, channel c at j·d + c, so cold
/// starts are drawn cluster by cluster, channel by channel); every channel
/// of a member takes the member's one shift, and a member aligns whenever
/// its cluster's whole centroid row is nonzero.
///
/// Distance and Shift are called concurrently from pool tasks; Prepare runs
/// on the coordinating thread, with no other call in flight.
class CentroidPolicy {
 public:
  virtual ~CentroidPolicy() = default;

  /// Channels per row; must divide the row length.
  virtual std::size_t channels() const { return 1; }

  /// The solve every cluster's accumulators run.
  virtual CentroidSolve solve() const { return CentroidSolve::kShape; }

  /// Called once per iteration with the centroids just solved, before any
  /// Distance or Shift call against them, so a policy can cache what it
  /// reads of them.
  virtual void Prepare(const std::vector<tseries::Series>& centroids) = 0;

  /// Distance from centroid j to global row i, whose samples are `row`.
  virtual double Distance(int j, std::size_t i,
                          tseries::SeriesView row) const = 0;

  /// The shift aligning global row i (samples `row`) toward centroid j,
  /// |shift| < m. Ignored when centroid j is zero-norm.
  virtual int Shift(int j, std::size_t i, tseries::SeriesView row) const = 0;
};

/// The engine configuration every block engine of one run must share, so the
/// centroid queries the Assigner mints once per iteration are valid against
/// every block (the SbdEngine::MakeQueryFor interchange contract).
struct EngineConfig {
  bool half_spectrum = true;
  /// Bound planes for pruning; set exactly when pruning is on.
  bool bound_planes = true;
};

/// Resolves the options against the process-wide spectrum-layout and
/// pruning gates.
EngineConfig EngineConfigFor(const KShapeOptions& options);

/// Runs Algorithm 3 over `source`.
///
/// `policy` selects the configuration: null means SBD through the block
/// engines (which must all be non-null, built with EngineConfigFor(options));
/// non-null means every assignment and repair distance, every member shift
/// and every centroid solve come from the policy, blocks carry no engines,
/// pruning is off, and ++ seeding (single-channel rows only) uses the direct
/// Sbd().
///
/// `minibatch` enables the sampled schedule of KShapeOptions::minibatch_size
/// (engine configuration only); when false the four mini-batch options are
/// ignored and every iteration is a full pass.
///
/// The result carries no fitted model; the facade attaches it.
cluster::ClusteringResult RunKShapeDriver(
    BlockSource* source, int k, common::Rng* rng,
    const KShapeOptions& options, bool minibatch, CentroidPolicy* policy);

}  // namespace kshape::core

#endif  // KSHAPE_CORE_KSHAPE_DRIVER_H_
