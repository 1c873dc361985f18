//===- tests/runtime/EscalationTest.cpp ------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// The WatchdogPolicy::Escalate ladder, end to end and without death tests:
// a wedged mutator drives re-fire -> force-adopt -> cycle abort -> the
// cooperating-STW degraded fallback -> recovery back to on-the-fly
// collection, with the heap verifier on at every phase boundary and the
// surviving object graph checksummed against a fault-free run of the same
// workload.  Also covers the capped re-fire schedule's escalation counter
// and per-mutator diagnostics, configuration validation, and the
// fault-injected (TraceAbort) unwind with its forced-Full successor.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/Runtime.h"
#include "runtime/ObjectModel.h"
#include "support/FaultInjector.h"

using namespace gengc;

namespace {

RuntimeConfig manualConfig() {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 8 << 20;
  Config.Choice = CollectorChoice::Generational;
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8 << 20;
  Config.Collector.Trigger.FullFraction = 100.0;
  Config.Collector.VerifyHeap = true;
  return Config;
}

/// Builds NODES list nodes tagged 1..NODES, keeping every one reachable
/// from the mutator's root stack, cooperating as it goes; afterwards walks
/// the list and folds (position, tag) into a checksum.  The structure is
/// identical in every run, so the checksum is too — unless the collector
/// freed or clobbered a live node.
struct ListBuilder {
  static constexpr int Nodes = 2000;

  std::atomic<bool> Ready{false};
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Checksum{0};

  void run(Runtime &RT) {
    auto M = RT.attachMutator();
    size_t Slot = M->pushRoot(NullRef);
    int Built = 0;
    while (!Done.load(std::memory_order_acquire)) {
      if (Built < Nodes) {
        ObjectRef Node =
            M->allocate(/*RefSlots=*/1, /*DataBytes=*/16,
                        /*Tag=*/uint16_t(++Built));
        M->writeRef(Node, 0, M->root(Slot));
        M->setRoot(Slot, Node);
      }
      if (Built == Nodes)
        Ready.store(true, std::memory_order_release);
      M->cooperate();
      if (Built >= Nodes)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    uint64_t Sum = 0;
    uint64_t Position = 0;
    for (ObjectRef Node = M->root(Slot); Node != NullRef;
         Node = M->readRef(Node, 0))
      Sum += (++Position) * 1000003u + objectTag(RT.heap(), Node);
    Checksum.store(Sum, std::memory_order_release);
    M->popRoots();
  }
};

/// Runs the list workload against \p Config, driving \p Cycles synchronous
/// full collections (with an optional wedge thread that sleeps through its
/// handshakes once), and returns the surviving-list checksum.
uint64_t runListWorkload(const RuntimeConfig &Config, int Cycles,
                         bool Wedge) {
  Runtime RT(Config);
  ListBuilder Builder;
  std::thread BuilderThread([&] { Builder.run(RT); });

  std::atomic<bool> WedgeDone{false};
  std::thread WedgeThread;
  if (Wedge)
    WedgeThread = std::thread([&] {
      auto M = RT.attachMutator();
      M->allocate(1, 24);
      // Miss every handshake for 30 ms — long enough to blow through the
      // escalation threshold several times over — then cooperate until
      // the driver is finished, so recovery has a responsive thread to
      // observe.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      while (!WedgeDone.load()) {
        M->cooperate();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });

  while (!Builder.Ready.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));

  for (int I = 0; I < Cycles; ++I)
    RT.collector().collectSync(CycleRequest::Full);

  if (Wedge) {
    // Ride the ladder all the way back: keep collecting until a cycle
    // completes that neither aborted, ran degraded, nor forced anyone.
    for (int I = 0; I < 300; ++I) {
      RT.collector().collectSync(CycleRequest::Full);
      GcRunStats Stats = RT.collector().statsSnapshot();
      const CycleStats &Last = Stats.Cycles.back();
      if (!Last.Aborted && !Last.Degraded && Last.ForcedMutators == 0)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  WedgeDone = true;
  if (WedgeThread.joinable())
    WedgeThread.join();
  Builder.Done = true;
  BuilderThread.join();
  return Builder.Checksum.load();
}

TEST(Escalation, ValidationRejectsEscalateWithoutDeadline) {
  RuntimeConfig Config = manualConfig();
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Escalate;
  Config.Collector.Watchdog.DeadlineNanos = 0;
  EXPECT_NE(Config.validate().find("DeadlineNanos"), std::string::npos);

  Config.Collector.Watchdog.DeadlineNanos = 1'000'000;
  Config.Collector.Watchdog.EscalateAfterFires = 0;
  EXPECT_NE(Config.validate().find("EscalateAfterFires"), std::string::npos);

  Config.Collector.Watchdog.EscalateAfterFires = 3;
  EXPECT_TRUE(Config.validate().empty());
}

TEST(Escalation, RefireCountsUpAndReportsDiagnostics) {
  // Under Callback (no escalation), a wait that stays stalled re-fires on
  // the capped-exponential schedule: the reports carry 1-based escalation
  // indices, the posted-status name, and per-mutator time-since-response.
  RuntimeConfig Config = manualConfig();
  Config.Collector.Watchdog.DeadlineNanos = 1'000'000; // 1 ms
  Config.Collector.Watchdog.RefireCapNanos = 2'000'000;
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Callback;
  std::atomic<uint64_t> MaxEscalation{0};
  std::atomic<bool> SawPostedName{false};
  std::atomic<bool> SawSinceResponse{false};
  Config.Collector.Watchdog.OnStall = [&](const StallReport &Report) {
    uint64_t Seen = MaxEscalation.load();
    while (Report.Escalation > Seen &&
           !MaxEscalation.compare_exchange_weak(Seen, Report.Escalation)) {
    }
    if (Report.PostedName != nullptr && Report.PostedName[0] != '\0')
      SawPostedName = true;
    for (const MutatorDiag &D : Report.Mutators)
      if (D.SinceResponseNanos != 0)
        SawSinceResponse = true;
  };
  Runtime RT(Config);

  std::atomic<bool> Ready{false}, CycleDone{false};
  std::thread Slacker([&] {
    auto M = RT.attachMutator();
    M->allocate(1, 24);
    Ready = true;
    // Stay wedged until the watchdog has demonstrably re-fired (not for a
    // fixed duration: sanitizer builds slow the collector enough that a
    // wall-clock wedge can end before the handshake wait even starts).
    while (MaxEscalation.load() < 2 && !CycleDone.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (!CycleDone.load()) {
      M->cooperate();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    M->cooperate();
  });

  while (!Ready.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  RT.collector().collectSync(CycleRequest::Full);
  CycleDone = true;
  Slacker.join();

  EXPECT_GE(MaxEscalation.load(), 2u)
      << "a 20 ms wedge against a 1 ms deadline re-fires";
  EXPECT_TRUE(SawPostedName.load());
  EXPECT_TRUE(SawSinceResponse.load());
}

TEST(Escalation, AbortDegradeRecoverKeepsChecksum) {
  RuntimeConfig Config = manualConfig();
  Config.Collector.Watchdog.DeadlineNanos = 2'000'000; // 2 ms
  Config.Collector.Watchdog.EscalateAfterFires = 2;
  Config.Collector.Watchdog.Policy = WatchdogPolicy::Escalate;
  Config.Collector.Watchdog.OnStall = [](const StallReport &) {};

  uint64_t FaultFree = runListWorkload(Config, /*Cycles=*/3, /*Wedge=*/false);
  ASSERT_NE(FaultFree, 0u);

  RuntimeConfig Wedged = Config;
  std::atomic<unsigned> Stalls{0};
  Wedged.Collector.Watchdog.OnStall = [&](const StallReport &) { ++Stalls; };
  Runtime RT(Wedged);
  ListBuilder Builder;
  std::thread BuilderThread([&] { Builder.run(RT); });

  std::atomic<bool> WedgeDone{false}, WedgeRelease{false},
      WedgeAttached{false};
  std::thread WedgeThread([&] {
    auto M = RT.attachMutator();
    M->allocate(1, 24);
    WedgeAttached = true;
    // Wedged until the driver has seen the abort land — a fixed sleep is
    // not enough under sanitizer slowdown — then responsive so recovery
    // has something to observe.
    while (!WedgeRelease.load() && !WedgeDone.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (!WedgeDone.load()) {
      M->cooperate();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // The wedge must be registered and idle before the first cycle posts
  // Sync1: a thread that attaches mid-cycle misses the stall, or stalls
  // only at Async, which the escalation completes for it, and no cycle
  // then counts it forced.
  while (!Builder.Ready.load() || !WedgeAttached.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));

  // First cycle against the wedge: the Sync1 wait escalates, the cycle
  // aborts, and the collector enters degraded mode.
  RT.collector().collectSync(CycleRequest::Full);
  WedgeRelease = true;
  // Keep collecting until recovery: a degraded cycle with zero forced
  // mutators flips the collector back to on-the-fly, and the next cycle
  // runs normally.
  bool Recovered = false;
  for (int I = 0; I < 300 && !Recovered; ++I) {
    RT.collector().collectSync(CycleRequest::Full);
    GcRunStats Stats = RT.collector().statsSnapshot();
    const CycleStats &Last = Stats.Cycles.back();
    Recovered = !Last.Aborted && !Last.Degraded && Last.ForcedMutators == 0;
    if (!Recovered)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  WedgeDone = true;
  WedgeThread.join();
  Builder.Done = true;
  BuilderThread.join();

  EXPECT_TRUE(Recovered) << "the ladder must come back to on-the-fly mode";
  EXPECT_GE(Stalls.load(), 1u);

  GcRunStats Stats = RT.collector().statsSnapshot();
  uint64_t Aborted = 0, Degraded = 0, Forced = 0;
  for (const CycleStats &C : Stats.Cycles) {
    Aborted += C.Aborted ? 1 : 0;
    Degraded += C.Degraded ? 1 : 0;
    Forced += C.ForcedMutators;
  }
  EXPECT_GE(Aborted, 1u) << "the wedge must abort at least one cycle";
  EXPECT_GE(Degraded, 1u) << "an escalated abort enters degraded mode";
  EXPECT_GE(Forced, 1u) << "the wedged mutator was force-completed";
  EXPECT_FALSE(Stats.Cycles.back().Aborted);
  EXPECT_FALSE(Stats.Cycles.back().Degraded);

  MetricsSnapshot Metrics = RT.metrics();
  EXPECT_EQ(Metrics.CycleAborts, Aborted);
  EXPECT_EQ(Metrics.DegradedCycles, Degraded);
  EXPECT_EQ(Metrics.ForcedMutators, Forced);

  EXPECT_EQ(Builder.Checksum.load(), FaultFree)
      << "abort + degraded + recovery must not lose or clobber a live node";
}

TEST(Escalation, TraceAbortFaultUnwindsAndForcesFull) {
  // A fault-injected abort (no watchdog, no wedge): the cycle unwinds
  // cleanly, the synchronous waiter is still released, the successor cycle
  // is forced Full, and the list survives bit-exact.
  RuntimeConfig Config = manualConfig();
  uint64_t FaultFree = runListWorkload(Config, /*Cycles=*/3, /*Wedge=*/false);

  FaultInjector::arm(FaultSite::TraceAbort,
                     FaultConfig{.Probability = 1.0, .MaxHits = 1});
  Runtime RT(Config);
  ListBuilder Builder;
  std::thread BuilderThread([&] { Builder.run(RT); });
  while (!Builder.Ready.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));

  RT.collector().collectSync(CycleRequest::Partial); // aborts at trace entry
  RT.collector().collectSync(CycleRequest::Partial); // upgraded to Full
  RT.collector().collectSync(CycleRequest::Partial); // normal partial again

  Builder.Done = true;
  BuilderThread.join();
  FaultInjector::disarmAll();

  GcRunStats Stats = RT.collector().statsSnapshot();
  ASSERT_GE(Stats.Cycles.size(), 3u);
  EXPECT_TRUE(Stats.Cycles[0].Aborted);
  EXPECT_EQ(Stats.Cycles[0].ForcedMutators, 0u)
      << "a fault-injected abort needs no force-adoption";
  EXPECT_FALSE(Stats.Cycles[1].Aborted);
  EXPECT_EQ(Stats.Cycles[1].Kind, CycleKind::Full)
      << "the cycle after an abort traces everything";
  EXPECT_FALSE(Stats.Cycles[2].Degraded)
      << "fault-injected aborts do not enter degraded mode";
  EXPECT_EQ(RT.metrics().CycleAborts, 1u);
  EXPECT_EQ(Builder.Checksum.load(), FaultFree);
}

} // namespace
