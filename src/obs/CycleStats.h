//===- obs/CycleStats.h - Per-cycle and per-run GC statistics ---*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every quantity the paper's evaluation section reports, collected per
/// collection cycle and aggregated per run.  The statistics vocabulary
/// lives in obs/ (the observability subsystem) so that the metrics
/// snapshot, the observer API and the exporters can speak it without
/// depending on the collector layer.
///
///   Figure 10: cycle counts per kind, percent of time GC is active.
///   Figure 11: objects scanned (trace) and old objects scanned for
///              inter-generational pointers (card scan).
///   Figure 12: percentage of objects/bytes freed per cycle kind.
///   Figure 13: average elapsed time of cycles.
///   Figure 14: average objects/space freed per cycle.
///   Figure 15: pages touched by the collector.
///   Figures 22/23: dirty-card percentage and card-scan area.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_OBS_CYCLESTATS_H
#define GENGC_OBS_CYCLESTATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gengc {

/// The kind of a completed collection cycle.
enum class CycleKind : uint8_t {
  /// Young-generation collection by the generational collector.
  Partial,
  /// Whole-heap collection by the generational collector.
  Full,
  /// Whole-heap collection by the non-generational DLG baseline.
  NonGenerational,
};

/// Returns a printable name for \p Kind.
const char *cycleKindName(CycleKind Kind);

/// Measurements of one collection cycle.
struct CycleStats {
  CycleKind Kind = CycleKind::NonGenerational;
  uint64_t DurationNanos = 0;

  // Phase breakdown (clear covers InitFullCollection + first handshake;
  // mark covers ClearCards, the toggle and the remaining handshakes).
  uint64_t ClearNanos = 0;
  uint64_t MarkNanos = 0;
  uint64_t TraceNanos = 0;
  uint64_t SweepNanos = 0;
  /// Portion of MarkNanos spent inside the card-scan sharding itself
  /// (ClearCards proper, without the toggle or handshakes).
  uint64_t CardScanNanos = 0;
  /// SweepResidue phase (lazy policy): draining the blocks the *previous*
  /// cycle published that no mutator claimed.  0 under the eager policy.
  uint64_t ResidueNanos = 0;

  // Parallel engine accounting.
  /// Lanes the cycle's parallel phases ran on (CollectorConfig::GcThreads).
  uint32_t GcWorkers = 1;
  /// Segments stolen between trace lanes (0 with one lane).
  uint64_t TraceSteals = 0;
  /// Segments lanes offloaded to the shared work list (0 with one lane).
  uint64_t TraceOffloads = 0;
  /// Trace-segment pool acquires during the trace phase (packet churn).
  uint64_t TraceSegmentsAcquired = 0;
  /// Portion of TraceNanos spent inside the termination verification scans
  /// of the color table (sharded across lanes when GcThreads > 1).
  uint64_t TraceTermScanNanos = 0;
  /// Wall time each lane spent inside the trace phase, indexed by lane.
  std::vector<uint64_t> TraceWorkerNanos;
  /// Wall time each lane spent inside the sweep phase, indexed by lane.
  std::vector<uint64_t> SweepWorkerNanos;

  // Trace.
  uint64_t ObjectsTraced = 0;
  uint64_t BytesTraced = 0;
  /// Objects shaded from the clear color (collector + mutators): the young
  /// objects that survived this cycle.
  uint64_t YoungSurvivors = 0;
  uint64_t YoungSurvivorBytes = 0;

  // Card scanning (partial collections only).
  uint64_t DirtyCardsAtStart = 0;
  uint64_t AllocatedCards = 0;
  uint64_t OldObjectsScanned = 0;
  uint64_t CardScanAreaBytes = 0;
  uint64_t CardsRemarked = 0;
  /// Dirty summary chunks the two-level card scan actually opened (0 on
  /// the linear fallback, which has no summary level).
  uint64_t SummaryChunksScanned = 0;
  /// Cards the two-level scan never examined individually: cards outside
  /// allocated block ranges plus cards under clean summary chunks (0 on
  /// the linear fallback).  Pure cost accounting — the skipped cards are
  /// provably clean, so semantic counters are unaffected.
  uint64_t CardsSkippedBySummary = 0;

  // Sweep.
  uint64_t ObjectsFreed = 0;
  uint64_t BytesFreed = 0;
  uint64_t LiveObjectsAfter = 0;
  uint64_t LiveBytesAfter = 0;
  /// Lazy policy: size-class blocks this cycle's PublishSweep deferred, and
  /// residue blocks its SweepResidue phase swept (published by the
  /// *previous* cycle).  Both 0 under the eager policy.  Note the freed /
  /// live-after counters above cover only what this cycle itself swept —
  /// under the lazy policy that is large runs plus the previous publish's
  /// harvest, one cycle late.
  uint64_t LazyBlocksPublished = 0;
  uint64_t LazyBlocksResidueSwept = 0;

  // Cycle recovery (DESIGN.md §19).
  /// This cycle was aborted mid-flight and unwound to pre-cycle state: its
  /// phase counters cover only the work done before the abort and it freed
  /// nothing.
  bool Aborted = false;
  /// This cycle ran as the cooperating-STW degraded fallback.
  bool Degraded = false;
  /// Mutators whose handshake response or STW root scan had to be forced
  /// (escalation force-adopt, degraded-cycle force-shade).
  uint64_t ForcedMutators = 0;

  // Collector page residency (Figure 15).
  uint64_t PagesTouched = 0;

  /// The collector's estimate of the true live set (excluding objects
  /// created during the cycle); drives the trigger's heap growth.
  uint64_t LiveEstimateBytes = 0;
};

/// All cycles of one run plus run-level accounting.
struct GcRunStats {
  std::vector<CycleStats> Cycles;
  /// Total time a cycle was in progress (the collector's stopwatch).
  uint64_t GcActiveNanos = 0;

  /// Number of cycles of kind \p Kind.
  size_t count(CycleKind Kind) const;

  /// Sum of \p Field over cycles of kind \p Kind.
  uint64_t total(CycleKind Kind, uint64_t CycleStats::*Field) const;

  /// Sum of \p Field over all cycles.
  uint64_t totalAll(uint64_t CycleStats::*Field) const;

  /// Mean of \p Field over cycles of kind \p Kind (0 when none ran).
  double mean(CycleKind Kind, uint64_t CycleStats::*Field) const;

  /// GC-active time as a percentage of \p ElapsedNanos (Figure 10).
  double percentActive(uint64_t ElapsedNanos) const;

  /// Percentage of young objects freed in partial collections:
  /// freed / (freed + young survivors), aggregated (Figure 12).
  double percentFreedPartialObjects() const;
  /// Same, in bytes.
  double percentFreedPartialBytes() const;
  /// Percentage of allocated objects freed in cycles of kind \p Kind:
  /// freed / (freed + live-after), aggregated (Figure 12, full &
  /// non-generational columns).
  double percentFreedWholeHeap(CycleKind Kind) const;
};

} // namespace gengc

#endif // GENGC_OBS_CYCLESTATS_H
