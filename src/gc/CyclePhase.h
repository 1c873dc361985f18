//===- gc/CyclePhase.h - Phase-driven cycle pipeline ------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection cycle as an explicit pipeline of phases.  Every collector
/// (DLG baseline, generational, stop-the-world comparator) expresses its
/// runCycle as an ordered list of CyclePhase entries; the pipeline runner
/// publishes each phase to the shared CollectorState (the write barrier's
/// "Collector is tracing" test reads it), runs the phase body, and records
/// its wall time into the per-cycle statistics slot the phase names.
///
/// The pipeline changes *how the cycle is organized*, not *what it does*:
/// phase order, the handshake points inside the bodies, and the color
/// toggle's position are exactly the paper's.  What the pipeline buys is a
/// single place where phases are timed and where phase bodies can fan work
/// out to the GcWorkerPool.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_CYCLEPHASE_H
#define GENGC_GC_CYCLEPHASE_H

#include <functional>
#include <vector>

#include "obs/CycleStats.h"
#include "obs/EventRing.h"
#include "runtime/CollectorState.h"
#include "support/Timer.h"

namespace gengc {

/// One stage of a collection cycle.
struct CyclePhase {
  /// Published to CollectorState::Phase before the body runs.
  GcPhase Phase;
  /// Where the phase's wall time lands in the cycle's statistics.
  uint64_t CycleStats::*DurationField;
  /// The phase body.
  std::function<void(CycleStats &)> Run;
};

/// Executes \p Phases in order against \p Cycle: for each phase, publishes
/// its GcPhase, runs the body, and accumulates its duration.  Publishes
/// GcPhase::Idle after the last phase.  With \p Obs set (the collector's
/// event ring; tracing enabled), each phase is additionally emitted as a
/// Phase span — reusing the timestamps the pipeline already takes, so
/// tracing adds no clock reads here.  \p AfterPhase (when non-empty) runs
/// after each phase body, outside its timed span, with the completed phase
/// still published in CollectorState — the heap-verifier hook relies on the
/// phase still being visible to the write barrier while it checks.
///
/// \p AbortCheck (when non-empty) is consulted after each phase body: if it
/// returns true the pipeline stops — the remaining phases are skipped, the
/// aborting phase's AfterPhase hook does NOT run (the heap is mid-unwind by
/// definition, so a verifier pass there would check half-done state), Idle
/// is NOT published (Collector::abortCycle owns the state machine from
/// here), and the runner returns false.  Returns true when every phase ran.
inline bool runCyclePhases(CollectorState &State,
                           const std::vector<CyclePhase> &Phases,
                           CycleStats &Cycle, EventRing *Obs = nullptr,
                           const std::function<void(GcPhase)> &AfterPhase = {},
                           const std::function<bool()> &AbortCheck = {}) {
  for (const CyclePhase &P : Phases) {
    State.Phase.store(P.Phase, std::memory_order_release);
    uint64_t Start = nowNanos();
    P.Run(Cycle);
    uint64_t Duration = nowNanos() - Start;
    Cycle.*(P.DurationField) += Duration;
    if (Obs)
      Obs->emit(ObsEventKind::Phase, Start, Duration, uint64_t(P.Phase));
    if (AbortCheck && AbortCheck())
      return false;
    if (AfterPhase)
      AfterPhase(P.Phase);
  }
  State.Phase.store(GcPhase::Idle, std::memory_order_release);
  return true;
}

} // namespace gengc

#endif // GENGC_GC_CYCLEPHASE_H
