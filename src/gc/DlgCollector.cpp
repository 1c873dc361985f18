//===- gc/DlgCollector.cpp - Non-generational DLG baseline -----------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/DlgCollector.h"

#include "gc/CyclePhase.h"

using namespace gengc;

DlgCollector::DlgCollector(Heap &H, CollectorState &S,
                           MutatorRegistry &Registry, GlobalRoots &Roots,
                           const CollectorConfig &Config)
    : Collector(H, S, Registry, Roots, Config) {
  GENGC_ASSERT(!Config.Aging, "the DLG baseline has no aging mechanism");
  State.Barrier.store(BarrierKind::NonGenerational,
                      std::memory_order_release);
  // The baseline never runs partial collections; its trigger is the
  // "heap almost full" rule alone (Section 8: the full-collection trigger
  // is identical with and without generations).
  GENGC_ASSERT(!Config.Trigger.Generational,
               "DLG baseline must not use the young-generation trigger");
  initSweepPlan(SweepMode::NonGenerational);
  // The on-the-fly cycle knows how to abort (WatchdogPolicy::Escalate and
  // the TraceAbort/SweepAbort fault sites; DESIGN.md §19).
  AbortableCycles = true;
}

CycleStats DlgCollector::runCycle(CycleRequest Kind) {
  (void)Kind; // Every DLG cycle collects the whole heap.
  CycleStats Cycle = newCycleStats(/*WholeHeap=*/true);

  runCyclePhases(
      State,
      withResiduePhase({
          // clear stage: first handshake — write barriers become active.
          {GcPhase::Clear, &CycleStats::ClearNanos,
           [this](CycleStats &) {
             handshakeOrAbort(HandshakeStatus::Sync1);
           }},

          // mark stage: second handshake brackets the color toggle; the
          // third handshake makes every mutator shade its own roots.  An
          // escalated wait aborts the cycle: return promptly, the
          // pipeline's AbortCheck hands control to abortCycle.
          {GcPhase::Mark, &CycleStats::MarkNanos,
           [this](CycleStats &) {
             Handshakes.post(HandshakeStatus::Sync2);
             State.switchAllocationClearColors();
             if (!waitOrAbort())
               return;

             Handshakes.post(HandshakeStatus::Async);
             Roots.markAll(CollectorGrays);
             waitOrAbort();
           }},

          // trace: "black" is the allocation color (Remark 5.1 toggle).
          tracePhase(),

          // reclamation: eager whole-heap sweep, or lazy publish.
          sweepPhase(),
      }),
      Cycle, Obs.laneRing(0), verifyHook(/*FullCycle=*/true),
      [this] { return abortPending(); });
  return Cycle;
}
