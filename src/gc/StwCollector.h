//===- gc/StwCollector.h - Stop-the-world comparator ------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic stop-the-world mark-and-sweep collector, as a comparator for
/// the paper's motivation: "it is not desirable to stop the program and
/// perform the collection … as this leads both to long pause times and
/// poor processor utilization" (Section 1).  It is NOT part of the paper's
/// evaluation; the ablation bench `ablation_pauses` uses it to demonstrate
/// what the on-the-fly design buys — every mutator records its
/// collector-induced stalls (Mutator::pauseStats), and under this
/// collector the maximum stall equals a whole collection, while the
/// on-the-fly collectors' stalls are zero (modulo allocation throttling).
///
/// Protocol: raise StopWorld; each mutator shades its own roots at its
/// next cooperate() and parks; blocked mutators' roots are shaded by the
/// collector; once everyone is accounted for, toggle colors, then trace
/// and sweep with the world stopped; lower StopWorld.  The cycle is
/// Collector::runStopTheWorldCycle — the same body the on-the-fly
/// collectors fall back to in degraded mode — with the same trace and
/// sweep phases and the Remark 5.1 color toggle as the DLG baseline, so
/// the comparison isolates concurrency itself.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_STWCOLLECTOR_H
#define GENGC_GC_STWCOLLECTOR_H

#include "gc/Collector.h"

namespace gengc {

/// Stop-the-world mark-sweep.  Every cycle collects the whole heap.
class StwCollector : public Collector {
public:
  StwCollector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
               GlobalRoots &Roots, const CollectorConfig &Config);

protected:
  /// Every cycle is the whole-heap stop-the-world body; the kind asked
  /// for does not matter.
  CycleStats runCycle(CycleRequest) override {
    return runStopTheWorldCycle(/*Degraded=*/false);
  }
};

} // namespace gengc

#endif // GENGC_GC_STWCOLLECTOR_H
