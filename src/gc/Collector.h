//===- gc/Collector.h - Collector thread and cycle driver -------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector base class: one dedicated thread that waits for a trigger
/// (or an explicit request), runs a collection cycle concurrently with the
/// mutators, and records statistics.  Subclasses implement the cycle itself:
/// DlgCollector (the non-generational baseline of Section 2, with the
/// Remark 5.1 color toggle) and GenerationalCollector (Sections 3-7).
///
/// The collector also implements the allocation back-pressure hook: a
/// mutator that finds the heap exhausted calls waitForMemory(), which
/// requests a full collection and cooperates with handshakes while waiting,
/// so the collection it is waiting for can actually make progress.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_COLLECTOR_H
#define GENGC_GC_COLLECTOR_H

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "gc/CyclePhase.h"
#include "gc/HeapVerifier.h"
#include "gc/ParallelTrace.h"
#include "obs/CycleStats.h"
#include "obs/GcObserver.h"
#include "obs/ObsRegistry.h"
#include "gc/Sweeper.h"
#include "gc/Trigger.h"
#include "gc/WorkerPool.h"
#include "heap/Heap.h"
#include "runtime/Handshake.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"
#include "runtime/Roots.h"
#include "support/FaultInjector.h"

namespace gengc {

/// Static collector configuration.
struct CollectorConfig {
  TriggerPolicy Trigger;

  /// Use the Section 6 aging mechanism (GenerationalCollector only).
  bool Aging = false;

  /// Track inter-generational pointers with remembered sets instead of
  /// card marking — the Section 3.1 alternative the paper rejected.
  /// GenerationalCollector, simple promotion only.
  bool RememberedSets = false;

  /// Tenuring threshold for aging mode; objects are allocated with age 1
  /// and promoted when their age reaches this value.  The paper evaluates
  /// 2, 4, 6, 8 and 10 (Figures 18-20).
  uint8_t OldestAge = 2;

  /// How often the collector thread re-evaluates the trigger.
  uint32_t PollMicros = 200;

  /// Drive the partial-collection card scan through the two-level summary
  /// table and the allocated-block filter (GenerationalCollector).  Off
  /// forces the historical linear walk of [0, numCards) — same cards
  /// visited in the same order, strictly more bytes read; exists so tests
  /// can prove the filter changes cost, not outcomes.
  bool CardSummaryScan = true;

  /// Number of GC worker lanes for the parallel cycle phases (card scan,
  /// trace, sweep).  1 (the default) spawns no pool threads: the phases
  /// run their one algorithm as a pool of one, on the collector thread;
  /// N > 1 spawns N - 1 persistent pool threads that assist the collector
  /// thread.  Mutator-facing machinery (handshakes, write barrier, color
  /// toggle) is unaffected by this knob.
  unsigned GcThreads = 1;

  /// Trace prefetch window depth: each trace lane pops up to this many
  /// gray refs ahead and software-prefetches their color byte and header
  /// line before tracing the current one, overlapping the mark loop's
  /// cache misses (see DESIGN.md §17).  0 and 1 trace each ref as it is
  /// popped, in LIFO order.  Validated to at most Tracer::MaxPrefetchDepth
  /// (64); forced to 0 in builds where the GENGC_PREFETCH probe failed.
  /// The traced set is fixed by the color CAS and all trace statistics
  /// are order-independent, so any depth produces identical CycleStats.
  unsigned PrefetchDepth = 4;

  /// Observability subsystem configuration (see obs/Event.h).  Metrics are
  /// always on; Obs.Tracing additionally records events into per-actor
  /// rings.
  ObsConfig Obs;

  /// Stall watchdog: deadlines for handshake waits and whole cycles, plus
  /// the expiry policy (see runtime/Watchdog.h).  Disabled by default.
  WatchdogConfig Watchdog;

  /// Run the heap-invariant verifier (gc/HeapVerifier.h) at every phase
  /// boundary, aborting on a confirmed violation.  Also enabled by the
  /// GENGC_VERIFY_HEAP environment variable; for debugging and the
  /// hardening tests — each boundary pass scans the whole heap.
  bool VerifyHeap = false;

  /// When reclamation happens (gc/SweepPolicy.h): Eager keeps the
  /// whole-heap Sweep phase; Lazy ends the cycle by publishing
  /// blocks needs-sweep, letting mutators sweep on demand and the
  /// collector drain the residue.  Combined with the collector's mode and
  /// OldestAge into the single SweepPlan built by Collector::initSweepPlan
  /// — the one place a sweep configuration is constructed.
  SweepPolicy Sweep = SweepPolicy::Eager;
};

class LazySweepEngine;

/// Base class of both collectors.
class Collector : public MemoryWaiter {
public:
  Collector(Heap &H, CollectorState &S, MutatorRegistry &Registry,
            GlobalRoots &Roots, const CollectorConfig &Config);
  ~Collector() override;

  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  /// Spawns the collector thread.
  void start();

  /// Finishes any in-progress cycle and joins the thread.  Idempotent.
  void stop();

  /// Asks for a cycle of (at least) \p Kind; returns immediately.
  void requestCycle(CycleRequest Kind);

  /// Requests a cycle and blocks until a cycle that began after the
  /// request, and is at least \p Kind (Full: a whole-heap cycle), completed.
  /// An aborted cycle completes too (CycleStats::Aborted; it forces its
  /// successor Full).  Must be called from a thread that is NOT a
  /// registered mutator (e.g. a test driver); mutator threads use
  /// collectSyncCooperating instead.
  void collectSync(CycleRequest Kind);

  /// collectSync, cooperating with handshakes on behalf of \p M while it
  /// waits (safe to call from a mutator thread).
  void collectSyncCooperating(CycleRequest Kind, Mutator &M);

  /// MemoryWaiter: a mutator ran out of memory.
  void waitForMemory(Mutator &M) override;

  /// Copy of the statistics so far.  Taken under the cycle-publication
  /// lock, so a caller that observed completedCycles() >= N is guaranteed a
  /// snapshot containing at least N fully-formed cycles (including their
  /// per-lane worker-time vectors).
  GcRunStats statsSnapshot() const;

  /// Resets the accumulated statistics (between benchmark phases).
  void resetStats();

  /// Number of completed cycles.
  uint64_t completedCycles() const {
    return CyclesDone.load(std::memory_order_acquire);
  }

  /// Number of times a mutator had to wait for memory (allocation found
  /// the heap exhausted) — should stay 0 in healthy configurations.
  uint64_t memoryWaits() const {
    return MemoryWaits.load(std::memory_order_relaxed);
  }

  /// Number of watchdog deadline expirations (handshake or cycle) so far.
  uint64_t watchdogFires() const {
    return State.WatchdogFires.load(std::memory_order_relaxed);
  }

  const Trigger &trigger() const { return Trig; }
  CollectorState &state() { return State; }

  /// The trace engine (segment-pool gauges for Runtime::metrics()).
  const ParallelTracer &traceEngine() const { return TraceEngine; }

  /// The observability registry (event rings + histograms) of this
  /// collector's runtime.
  ObsRegistry &obs() { return Obs; }
  const ObsRegistry &obs() const { return Obs; }

  /// Registers \p Observer for per-cycle callbacks (see obs/GcObserver.h
  /// for the callback contract).  The observer must outlive the collector
  /// or be removed first; thread-safe.
  void addObserver(GcObserver &Observer);

  /// Deregisters \p Observer; no callback is running or will start after
  /// this returns (callbacks are serialized with registration).
  void removeObserver(GcObserver &Observer);

protected:
  /// Runs one cycle; implemented by subclasses.
  virtual CycleStats runCycle(CycleRequest Kind) = 0;

  //===--------------------------------------------------------------------===
  // Cycle recovery (WatchdogPolicy::Escalate; DESIGN.md §19).
  //===--------------------------------------------------------------------===

  /// post + wait with escalation support: a wait() that escalated (every
  /// laggard force-adopted) flips the cycle into the aborting state and
  /// returns false — the phase body must return promptly so abortCycle can
  /// unwind.  Plain pass-throughs when no escalation happens.
  bool handshakeOrAbort(HandshakeStatus Status);
  bool waitOrAbort();

  /// Consults an abort fault site at a phase entry: returns true when the
  /// phase body must be skipped, either because the cycle is already
  /// aborting or because \p Site (TraceAbort / SweepAbort) fired.  Inert
  /// while a cycle that cannot abort runs (STW comparator, the degraded
  /// fallback) so an armed site can never silently skip a sweep it has no
  /// unwind for.
  bool abortPhaseEntry(FaultSite Site, GcPhase Phase);

  /// True once this cycle decided to abort (the pipeline's AbortCheck).
  bool abortPending() const { return AbortCycleFlag; }

  /// Unwinds an aborted cycle to a consistent state — quiesce barrier
  /// shading, finish the handshake protocol back to Async, discard the
  /// gray work, drain lazy-sweep residue, restore every allocated cell to
  /// a traced-looking color (abortRecolor), force the next cycle Full —
  /// and certifies the result with a verifier pass.  The mid-cycle color
  /// toggle (if it happened) is deliberately KEPT, not reverted: racing
  /// allocations stamp the current allocation color, so reverting would
  /// reopen the very create/sweep race the toggle closed; recoloring
  /// forward under the current assignment is race-free.  Collector thread
  /// only, with the phase pipeline already stopped.
  void abortCycle(CycleStats &Cycle);

  /// Collector-specific color restoration for abortCycle: the base
  /// version returns every non-blue cell to the current allocation color
  /// (no Black generation exists for DLG/STW — the next Full cycle's
  /// toggle makes all of it clear and re-traces from roots);
  /// GenerationalCollector overrides to keep the old generation black.
  virtual void abortRecolor();

  /// One whole-heap cycle with the world stopped: whole-heap set-up
  /// (initWholeHeapCycle), toggle, stop the world, mark global roots,
  /// trace, sweep, resume.  Every cycle of the STW comparator, and with
  /// \p Degraded set, every cycle of the cooperating-STW fallback of the
  /// on-the-fly collectors.  What differs between collectors comes from
  /// the hooks: tracedBlackColor(), initWholeHeapCycle() and the sweep
  /// plan's mode (generational()).
  CycleStats runStopTheWorldCycle(bool Degraded);

  /// Blocks until every registered mutator is parked-and-shaded for stop
  /// \p Epoch or blocked (with its roots shaded either way).  Bounded when
  /// \p Degraded or under WatchdogPolicy::Escalate: mutators that fail to
  /// park within roughly DeadlineNanos x EscalateAfterFires are
  /// force-shaded (Mutator::forceShadeForStw) and counted stopped.
  /// Returns the number forced — 0 means every thread parked voluntarily,
  /// the signal that handshakes work again and on-the-fly collection can
  /// resume.
  uint64_t waitWorldStoppedBounded(uint64_t Epoch, bool Degraded);

  /// Visits every size-class cell and large-object start in the heap (a
  /// single-threaded block-table walk; only the abort unwind's recolor
  /// passes use it — not a hot path).
  template <typename Fn> void forEachHeapCell(Fn Visit) {
    for (size_t BlockIdx = 0; BlockIdx < H.numBlocks(); ++BlockIdx) {
      const BlockDescriptor &Desc = H.block(BlockIdx);
      uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;
      if (Desc.State == BlockState::LargeStart) {
        Visit(ObjectRef(Base));
        continue;
      }
      if (Desc.State != BlockState::SizeClass)
        continue;
      for (uint32_t Cell = 0; Cell < Desc.NumCells; ++Cell)
        Visit(ObjectRef(Base + uint64_t(Cell) * Desc.CellBytes));
    }
  }

  /// Set by DlgCollector/GenerationalCollector: their on-the-fly cycles
  /// know how to abort.  The STW comparator leaves it false — its cycle
  /// has no handshake waits and no unwind.
  bool AbortableCycles = false;
  /// Computed per cycle: AbortableCycles and not running degraded.
  bool AllowAbort = false;
  /// This cycle has decided to abort; phase bodies return early and the
  /// pipeline stops (abortPending).
  bool AbortCycleFlag = false;
  /// The abort came from an escalated handshake (vs. an injected fault):
  /// laggards were force-adopted, so the ladder proceeds to degraded mode.
  bool EscalatedAbort = false;
  /// Phase the abort was requested in, and the escalating wait's fire
  /// count (CycleAbort event payload).
  GcPhase AbortPhase = GcPhase::Idle;
  uint64_t AbortEscalation = 0;
  /// Cycles run as the cooperating-STW fallback until one completes with
  /// no forced mutators.  Collector thread only.
  bool InDegradedMode = false;

  /// Resets the per-cycle gray counters of the collector and all mutators.
  void resetGrayCounters();

  /// Sums the per-cycle gray counters into \p Stats (young survivors).
  void sumGrayCounters(CycleStats &Stats);

  /// The color that marks "traced by this cycle": the trace's black and
  /// the verifier's post-trace reachability check.  The DLG and STW
  /// collectors trace with the allocation color; the generational
  /// collector overrides this with Color::Black.
  virtual Color tracedBlackColor() const { return State.allocationColor(); }

  /// Whole-heap set-up, run at the start of the Clear phase of every
  /// whole-heap cycle, before the color toggle.  Nothing for DLG/STW; the
  /// generational collector counts dirty cards and runs its Figure 3 /
  /// Figure 6 InitFullCollection.
  virtual void initWholeHeapCycle(CycleStats &) {}

  /// True for the generational collector (its sweep plan's mode): its
  /// cycles are Full or Partial rather than NonGenerational, record
  /// AllocatedCards, and estimate live bytes from the eager sweep.
  bool generational() const {
    return Plan.Mode != SweepMode::NonGenerational;
  }

  /// A fresh statistics record for one cycle of this collector: kind,
  /// worker lanes and (generational) allocated cards.  \p WholeHeap picks
  /// Full over Partial for the generational collector.
  CycleStats newCycleStats(bool WholeHeap) const;

  /// The AfterPhase callback for runCyclePhases: runs the verifier at every
  /// phase boundary with the sound scope for that boundary.  Returns an
  /// empty function when verification is off (the common case — the phase
  /// runner then skips the hook entirely).  \p FullCycle enables the
  /// post-trace tri-color check, which is only sound when this cycle traced
  /// the whole heap.
  std::function<void(GcPhase)> verifyHook(bool FullCycle);

  /// Builds this collector's SweepPlan from Config (policy, \p Mode, the
  /// tenuring threshold) and, under the lazy policy, constructs the
  /// LazySweepEngine and installs it as the heap's LazySweeper hook.
  /// Called exactly once, from each concrete collector's constructor —
  /// collectors no longer assemble sweep configurations at call sites.
  void initSweepPlan(SweepMode Mode);

  /// The Trace phase of every cycle: traces with tracedBlackColor() and
  /// copies the engine's result into the cycle's statistics.  Skipped
  /// through abortPhaseEntry(TraceAbort).  Sets LiveEstimateBytes to the
  /// bytes traced, unless the eager sweep computes the generational
  /// estimate instead.
  CyclePhase tracePhase();

  /// The reclamation phase of the cycle pipeline, from the plan: the
  /// eager Sweep (whole-heap sweepParallel) or the lazy PublishSweep.
  /// Both charge CycleStats::SweepNanos, so eager-vs-lazy benches compare
  /// the visible sweep-phase cost directly.  The eager generational sweep
  /// computes the live estimate (LiveBytesAfter - AllocColoredBytes).
  CyclePhase sweepPhase();

  /// The SweepResidue phase (lazy only): drains every block the previous
  /// cycle published that no mutator claimed, and harvests the sweep
  /// results accumulated since that publish into this cycle's stats
  /// (one-cycle-lag attribution).  Runs FIRST in the pipeline — before
  /// this cycle's color toggle, which keeps every block swept under its
  /// publish epoch.
  CyclePhase residuePhase();

  /// Prepends residuePhase() under the lazy policy; returns \p Phases.
  std::vector<CyclePhase> withResiduePhase(std::vector<CyclePhase> Phases);

  /// True when this collector runs the lazy sweep policy.
  bool lazySweep() const { return Plan.Policy == SweepPolicy::Lazy; }

  /// Runs one verifier pass of \p Scope now; aborts with a full violation
  /// dump if the heap is inconsistent, emits a VerifyPass event if clean.
  /// No-op when verification is off.
  void runVerifier(VerifyScope Scope);

  Heap &H;
  CollectorState &State;
  MutatorRegistry &Registry;
  GlobalRoots &Roots;
  CollectorConfig Config;

  /// Rings and histograms.  Owned here (not by Runtime) so collectors
  /// constructed directly by tests are observable too; declared before the
  /// engines that take ring pointers from it.
  ObsRegistry Obs;

  HandshakeDriver Handshakes;
  /// The heap-invariant checker; non-null only when Config.VerifyHeap or
  /// GENGC_VERIFY_HEAP enabled it at construction.
  std::unique_ptr<HeapVerifier> Verifier;
  /// Worker lanes for the parallel cycle phases; sized by Config.GcThreads.
  /// Must be declared before the engines that capture it.
  GcWorkerPool Pool;
  ParallelTracer TraceEngine;
  Trigger Trig;
  GrayCounters CollectorGrays;

  /// The validated reclamation strategy (see initSweepPlan).
  SweepPlan Plan;
  /// Per-block sweep engine; non-null only under SweepPolicy::Lazy.
  /// Installed into the heap as its LazySweeper hook for the lifetime of
  /// this collector (cleared in the destructor).
  std::unique_ptr<LazySweepEngine> LazyEngine;

private:
  void threadLoop();
  void runOneCycle(CycleRequest Kind);

  /// True once a cycle numbered above \p Ticket (CyclesBegun read before
  /// the request) that is at least \p Kind completed.
  bool requestSatisfied(CycleRequest Kind, uint64_t Ticket) const;

  /// Invokes every registered observer for \p Cycle.  Runs on the collector
  /// thread with no collector lock held (only ObserverMutex, which
  /// serializes callbacks with add/removeObserver — hence observers must
  /// not register or deregister from inside a callback).
  void notifyObservers(const CycleStats &Cycle, uint64_t CycleIndex);

  std::thread Thread;
  bool Running = false;
  std::atomic<bool> StopFlag{false};

  std::mutex RequestMutex;
  std::condition_variable RequestCv;
  std::condition_variable DoneCv;
  CycleRequest Pending = CycleRequest::None;

  std::atomic<uint64_t> CyclesDone{0};
  std::atomic<uint64_t> MemoryWaits{0};

  /// Cycles begun so far; each cycle takes the next number as it begins.
  std::atomic<uint64_t> CyclesBegun{0};
  /// Begin numbers of the latest completed cycle, and of the latest
  /// completed whole-heap cycle.  Written under RequestMutex after
  /// CyclesDone is bumped; read by requestSatisfied.
  std::atomic<uint64_t> LastCycleDone{0};
  std::atomic<uint64_t> LastWholeHeapDone{0};

  /// An aborted cycle consumed its card / remembered-set information
  /// mid-flight; rather than reconstruct per-generation records, the next
  /// cycle traces everything (abortCycle sets this, runOneCycle consumes
  /// it).  Collector thread only.
  bool ForceFullNext = false;

  /// The cycle-publication lock: runOneCycle pushes each finished cycle's
  /// statistics under it *before* CyclesDone is bumped (with release) under
  /// RequestMutex, and statsSnapshot copies under it — so the completed-
  /// cycle count never runs ahead of the visible statistics, and the
  /// per-lane worker-time vectors inside each CycleStats are never read
  /// while being written.
  mutable std::mutex StatsMutex;
  GcRunStats Stats;

  std::mutex ObserverMutex;
  std::vector<GcObserver *> Observers;
};

} // namespace gengc

#endif // GENGC_GC_COLLECTOR_H
