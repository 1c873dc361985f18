//===- gc/ParallelTrace.h - Work-stealing parallel trace --------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace stage, the one driver for every lane count.  Each
/// GcWorkerPool lane runs its own Tracer engine over a private segmented
/// gray stack; surplus work moves between lanes as whole TraceSegments
/// through a shared TraceWorkList (steal = pop one segment pointer).  All
/// mutator-facing machinery is untouched: mutators shade through the same
/// write barriers into the same shared gray buffer, and every color
/// transition funnels through Heap::casColor.  Termination follows the
/// paper: drain, wait out in-flight shades, drain the gray buffer, then
/// run verification scans of the color side-table until one finds no gray
/// object.  The verification scan is sharded across the pool lanes over
/// the allocated block ranges (DESIGN.md §17 sketches why that finds every
/// gray a whole-table scan would).
///
/// One lane is a pool of one: the same loop, run on the collector thread
/// with no hand-off, whose drain never offloads work to itself.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_PARALLELTRACE_H
#define GENGC_GC_PARALLELTRACE_H

#include <memory>
#include <mutex>
#include <vector>

#include "gc/TraceSegment.h"
#include "gc/Tracer.h"
#include "gc/WorkerPool.h"
#include "obs/ObsRegistry.h"

namespace gengc {

/// Shared stack of gray-segment pointers; the unit of work stealing.  Push
/// and steal are O(1) pointer swaps — no ref is ever copied — and a plain
/// mutex is plenty: lanes touch the list once per TraceSegment::Capacity
/// objects traced, so contention is bounded by construction.  The
/// statistics counters are atomics, so steals() never takes the list mutex
/// mid-cycle.
class TraceWorkList {
public:
  /// Deposits one segment for stealing; the list takes ownership of the
  /// pointer until a thief attaches it to its own stack.
  void push(TraceSegment *S) {
    GENGC_ASSERT(S != nullptr && S->Count > 0,
                 "work list holds only non-empty segments");
    std::scoped_lock Locked(Mutex);
    S->Below = TopSegment;
    S->Above = nullptr;
    TopSegment = S;
    NumSegments.fetch_add(1, std::memory_order_release);
  }

  /// Pops one segment, or returns null when the list is empty.
  TraceSegment *steal() {
    std::scoped_lock Locked(Mutex);
    TraceSegment *S = TopSegment;
    if (S == nullptr)
      return nullptr;
    TopSegment = S->Below;
    S->Below = nullptr;
    NumSegments.fetch_sub(1, std::memory_order_release);
    Steals.fetch_add(1, std::memory_order_relaxed);
    return S;
  }

  /// Racy emptiness hint for idle-lane spinning (misses are resolved by the
  /// steal's mutex, and ultimately by the tracer's verification scan).
  bool empty() const {
    return NumSegments.load(std::memory_order_acquire) == 0;
  }

  /// Current number of deposited segments (offload throttling hint).
  size_t approxSegments() const {
    return NumSegments.load(std::memory_order_relaxed);
  }

  /// Number of successful steals so far.  Lock-free: statistics snapshots
  /// taken mid-cycle never contend with the lanes' push/steal traffic.
  uint64_t steals() const { return Steals.load(std::memory_order_relaxed); }

private:
  mutable std::mutex Mutex;
  /// Intrusive stack through TraceSegment::Below.
  TraceSegment *TopSegment = nullptr;
  std::atomic<size_t> NumSegments{0};
  std::atomic<uint64_t> Steals{0};
};

/// The parallel trace driver; owned by a collector, reused across cycles.
class ParallelTracer {
public:
  struct Result {
    /// Number of MarkBlack executions, summed over lanes.
    uint64_t ObjectsTraced = 0;
    /// Their storage footprint.
    uint64_t BytesTraced = 0;
    /// Number of color-table verification passes until the clean pass.
    uint64_t Passes = 0;
    /// Segments stolen between lanes (0 with one lane).
    uint64_t Steals = 0;
    /// Segments offloaded to the shared list (0 with one lane).
    uint64_t Offloads = 0;
    /// Segment-pool acquires during this trace (packet churn gauge).
    uint64_t SegmentsAcquired = 0;
    /// Wall time inside the termination verification scans.
    uint64_t TermScanNanos = 0;
    /// Wall time each lane spent inside the trace, indexed by lane.
    std::vector<uint64_t> WorkerNanos;
  };

  ParallelTracer(Heap &H, CollectorState &S, GcWorkerPool &Pool);

  /// See Tracer::setAgingThreshold; forwarded to every lane engine.
  void setAgingThreshold(uint8_t OldestAge);

  /// See Tracer::setPrefetchDepth; forwarded to every lane engine.
  void setPrefetchDepth(unsigned Depth);

  /// Routes per-lane trace events (TraceSpan, TraceSteal) to \p Registry's
  /// lane rings.  Called once at collector construction.
  void setObs(ObsRegistry *Registry);

  /// Traces to completion.  \p BlackColor marks a fully traced object (see
  /// Tracer::drainShared); shades of sons from the clear color are counted
  /// in \p Counters.
  Result trace(Color BlackColor, GrayCounters &Counters);

  /// The collector-wide segment pool (metrics gauges).
  const TraceSegmentPool &segmentPool() const { return SegPool; }

private:
  Heap &H;
  CollectorState &State;
  GcWorkerPool &Pool;
  ObsRegistry *Obs = nullptr;
  /// Segment pool shared by every lane engine; declared before Engines so
  /// their stacks release segments into a live pool on destruction.
  TraceSegmentPool SegPool;
  /// One engine per lane; unique_ptr keeps them stable and non-movable.
  std::vector<std::unique_ptr<Tracer>> Engines;
};

} // namespace gengc

#endif // GENGC_GC_PARALLELTRACE_H
