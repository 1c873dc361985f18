//===- gc/Tracer.h - Concurrent tri-color trace -----------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-lane engine of the trace stage: "While there is a gray object:
/// pick a gray object x; MarkBlack(x)" (Figure 2).  The paper leaves the
/// mechanism for finding gray objects unspecified ("we do not present
/// details of the mechanism for keeping track of the objects remaining to
/// be traced"); ours combines collector-private mark stacks for objects
/// the collector shades itself with the shared gray buffer that mutator
/// write barriers feed, and a verification scan of the color side-table
/// that proves no gray object is left.  ParallelTrace.h drives the
/// protocol; this file is what each lane runs inside it.
///
/// The hot path is packet-structured (DESIGN.md §17): the mark stack is a
/// chain of pooled TraceSegments, work moves between lanes as O(1) segment
/// swaps, shade accounting batches into lane-local counters flushed once
/// per segment, and a bounded prefetch window warms the color byte and
/// header line of upcoming gray refs while the current one is traced.  A
/// window of one (depth 0 or 1) traces in plain LIFO pop order.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TRACER_H
#define GENGC_GC_TRACER_H

#include <atomic>
#include <vector>

#include "gc/TraceSegment.h"
#include "heap/Heap.h"
#include "obs/EventRing.h"
#include "runtime/CollectorState.h"
#include "runtime/WriteBarrier.h"

namespace gengc {

class TraceWorkList;

/// One lane's trace engine: each GcWorkerPool lane drives its own Tracer
/// with a private segmented gray stack, coordinating with its siblings
/// only through the shared TraceWorkList (segment-granularity work
/// stealing) and the color side-table CASes.  ParallelTracer owns the
/// lanes and the termination protocol.  Cache-line aligned: the lanes'
/// engines are allocated side by side and their stack and counters are
/// written on every mark.
class alignas(64) Tracer {
public:
  /// Upper bound on the prefetch window (a power of two: the window ring
  /// masks with it).  Also the RuntimeConfig::validate bound.
  static constexpr unsigned MaxPrefetchDepth = 64;

  struct Result {
    /// Number of MarkBlack executions ("objects scanned" of Figure 11).
    uint64_t ObjectsTraced = 0;
    /// Their storage footprint.
    uint64_t BytesTraced = 0;
    /// Segments this lane offloaded to the shared work list.
    uint64_t Offloads = 0;
  };

  /// \p Pool is the collector-wide segment pool (ParallelTracer's).
  Tracer(Heap &H, CollectorState &S, TraceSegmentPool &Pool)
      : H(H), State(S), Stack(Pool) {}

  /// Enables aging-mode card maintenance during the trace: when MarkBlack
  /// blackens an object whose age equals \p OldestAge (it will be tenured
  /// by the coming sweep), the cards of its still-young sons are marked.
  ///
  /// This closes a hole in the paper's Figure 6: ClearCards clears the
  /// dirty mark of a card whose objects are young — correct at that
  /// moment — but the same cycle can then tenure the parent while the
  /// sweep demotes its son back to the young generation, leaving an
  /// old->young pointer on a clean card; the following partial collection
  /// would reclaim the live son.  Section 6's requirement that
  /// "inter-generational pointers are recorded correctly during the
  /// collection cycle" demands exactly this maintenance.  Pass 0 to
  /// disable (simple promotion and the DLG baseline).
  void setAgingThreshold(uint8_t OldestAge) { AgingOldestAge = OldestAge; }

  /// Routes this engine's TraceSteal events to \p Ring (its lane's event
  /// ring; null disables emission).
  void setObsRing(EventRing *Ring) { Obs = Ring; }

  /// Sets the prefetch window depth: up to \p Depth gray refs are popped
  /// ahead and their color byte + header line prefetched before they are
  /// traced.  Clamped to [1, MaxPrefetchDepth] (a window of one traces
  /// each ref as it is popped); forced to one in builds without
  /// GENGC_PREFETCH.
  void setPrefetchDepth(unsigned Depth);

  /// Puts \p S on top of this lane's stack.  Only between traces or from
  /// the lane itself: the stack is lane-private.
  void attachSegment(TraceSegment *S) { Stack.attachSegment(S); }

  /// One lane's drain: blackens everything on this engine's stack,
  /// offloading surplus segments to \p Shared when siblings are hungry and
  /// stealing segments from it when the local stack runs dry.  Returns
  /// once all \p Lanes engines are idle with the shared list empty (the
  /// \p NumIdle counter implements the termination consensus).  With one
  /// lane there is no sibling, so nothing is offloaded.  \p BlackColor is
  /// the color that marks a fully traced object: Color::Black for the
  /// generational collectors, the current allocation color for the
  /// non-generational ones (black and white toggle, Remark 5.1).  Shades
  /// of the sons from the clear color are recorded in \p Counters; this
  /// lane's counts are stored to \p Out on return.
  void drainShared(TraceWorkList &Shared, std::atomic<unsigned> &NumIdle,
                   unsigned Lanes, Color BlackColor, GrayCounters &Counters,
                   Result &Out);

private:
  /// MarkBlack (Figure 3): shades all sons of \p Ref gray, then colors
  /// \p Ref with \p BlackColor.
  void markBlack(ObjectRef Ref, Color BlackColor, GrayCounters &Counters,
                 Result &R);

  /// Blackens everything on the local stack (and, with \p Shared non-null,
  /// offloads surplus bottom segments while ahead).  Leaves the batched
  /// shade counters flushed.
  void drainLocal(TraceWorkList *Shared, unsigned Lanes, Color BlackColor,
                  GrayCounters &Counters, Result &R);

  /// Publishes the batched FromClear counts into \p Counters.  Batching is
  /// statistics-only: termination never reads these counters, so deferring
  /// the atomics to segment boundaries is safe (DESIGN.md §17).
  void flushCounters(GrayCounters &Counters) {
    if (PendingFromClear != 0) {
      Counters.FromClear.fetch_add(PendingFromClear,
                                   std::memory_order_relaxed);
      Counters.FromClearBytes.fetch_add(PendingFromClearBytes,
                                        std::memory_order_relaxed);
      PendingFromClear = 0;
      PendingFromClearBytes = 0;
    }
    MarksSinceFlush = 0;
  }

  Heap &H;
  CollectorState &State;
  EventRing *Obs = nullptr;
  SegmentedGrayStack Stack;
  unsigned PrefetchDepth = 1;
  /// Shade accounting batched per segment (see flushCounters).
  uint64_t PendingFromClear = 0;
  uint64_t PendingFromClearBytes = 0;
  uint32_t MarksSinceFlush = 0;
  uint8_t AgingOldestAge = 0;
};

} // namespace gengc

#endif // GENGC_GC_TRACER_H
