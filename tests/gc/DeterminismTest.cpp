//===- tests/gc/DeterminismTest.cpp ----------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// Semantic invariants of the cycle engine on a fixed-seed workload that
// only mutates between cycles.  At one GC lane, every per-cycle statistic
// that reflects *what the collector did* (trace, card scan, sweep,
// promotion counts) must match exactly between two runs, with event
// tracing on or off, and at any prefetch depth.  Across lane counts, what
// was freed, what survived, the dirty cards found and the pages touched
// must match too: the lanes change who does the work, not its outcome.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/Runtime.h"
#include "support/Random.h"

using namespace gengc;

namespace {

RuntimeConfig deterministicConfig(CollectorChoice Choice, bool Aging) {
  RuntimeConfig Config;
  Config.Heap.HeapBytes = 16ull << 20;
  Config.Heap.CardBytes = 16;
  // Figure 15 page accounting, so PagesTouched is a real figure.
  Config.Heap.TrackPages = true;
  Config.Choice = Choice;
  Config.Collector.Aging = Aging;
  Config.Collector.OldestAge = 3;
  // The trigger must never fire on its own: cycles happen only where the
  // workload requests them, so both runs see identical request points.
  Config.Collector.Trigger.YoungBytes = 1ull << 40;
  Config.Collector.Trigger.InitialSoftBytes = 8ull << 20;
  Config.Collector.Trigger.FullFraction = 1.1;
  return Config;
}

/// One deterministic workload: fixed-seed graph churn on a single mutator,
/// with collections requested at fixed operation counts.  The mutator does
/// not allocate while a cycle runs (collectSyncCooperating only polls), so
/// the object graph at each cycle is a pure function of the seed.
GcRunStats runWorkload(CollectorChoice Choice, bool Aging,
                       bool Tracing = false, int PrefetchDepth = -1,
                       unsigned GcThreads = 1) {
  RuntimeConfig Config = deterministicConfig(Choice, Aging);
  Config.Collector.GcThreads = GcThreads;
  Config.Collector.Obs.Tracing = Tracing;
  if (PrefetchDepth >= 0)
    Config.Collector.PrefetchDepth = unsigned(PrefetchDepth);
  Runtime RT(Config);
  auto M = RT.attachMutator();
  Rng Rand(0xD37E12);
  constexpr unsigned Ring = 48;
  for (unsigned I = 0; I < Ring; ++I)
    M->pushRoot(NullRef);

  bool Partial = false;
  for (uint64_t Op = 0; Op < 30000; ++Op) {
    unsigned Slot = unsigned(Rand.nextBelow(Ring));
    switch (Rand.nextBelow(5)) {
    case 0:
    case 1: {
      ObjectRef Node = M->allocate(2, uint32_t(Rand.nextInRange(8, 64)));
      M->writeRef(Node, 0, M->root(Slot));
      M->setRoot(Slot, Node);
      break;
    }
    case 2:
      M->setRoot(Slot, NullRef);
      break;
    case 3: {
      ObjectRef A = M->root(Slot);
      if (A != NullRef)
        M->writeRef(A, 1, M->root(unsigned(Rand.nextBelow(Ring))));
      break;
    }
    case 4:
      break; // breathing room, keeps the op mix seed-stable
    }
    if (Op % 5000 == 4999) {
      RT.collector().collectSyncCooperating(
          Partial ? CycleRequest::Partial : CycleRequest::Full, *M);
      Partial = !Partial;
    }
  }
  M->popRoots(M->numRoots());
  return RT.gcStats();
}

struct DeterminismParam {
  CollectorChoice Choice;
  bool Aging;
  const char *Name;
};

class DeterminismTest : public ::testing::TestWithParam<DeterminismParam> {};

/// Every per-cycle statistic that reflects what the collector *did* must
/// match exactly between \p First and \p Second.
void expectIdenticalCollectionStats(const GcRunStats &First,
                                    const GcRunStats &Second) {
  ASSERT_EQ(First.Cycles.size(), Second.Cycles.size());
  ASSERT_EQ(First.Cycles.size(), 6u);
  for (size_t I = 0; I < First.Cycles.size(); ++I) {
    const CycleStats &A = First.Cycles[I];
    const CycleStats &B = Second.Cycles[I];
    SCOPED_TRACE("cycle " + std::to_string(I));
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.GcWorkers, 1u);
    EXPECT_EQ(A.ObjectsTraced, B.ObjectsTraced);
    EXPECT_EQ(A.BytesTraced, B.BytesTraced);
    EXPECT_EQ(A.YoungSurvivors, B.YoungSurvivors);
    EXPECT_EQ(A.YoungSurvivorBytes, B.YoungSurvivorBytes);
    EXPECT_EQ(A.DirtyCardsAtStart, B.DirtyCardsAtStart);
    EXPECT_EQ(A.OldObjectsScanned, B.OldObjectsScanned);
    EXPECT_EQ(A.CardScanAreaBytes, B.CardScanAreaBytes);
    EXPECT_EQ(A.CardsRemarked, B.CardsRemarked);
    EXPECT_EQ(A.SummaryChunksScanned, B.SummaryChunksScanned);
    EXPECT_EQ(A.CardsSkippedBySummary, B.CardsSkippedBySummary);
    EXPECT_EQ(A.ObjectsFreed, B.ObjectsFreed);
    EXPECT_EQ(A.BytesFreed, B.BytesFreed);
    EXPECT_EQ(A.LiveObjectsAfter, B.LiveObjectsAfter);
    EXPECT_EQ(A.LiveBytesAfter, B.LiveBytesAfter);
    EXPECT_EQ(A.LiveEstimateBytes, B.LiveEstimateBytes);
    EXPECT_EQ(A.TraceSteals, 0u);
    EXPECT_EQ(B.TraceSteals, 0u);
  }
}

TEST_P(DeterminismTest, IdenticalStatsAcrossRunsAtOneGcThread) {
  GcRunStats First = runWorkload(GetParam().Choice, GetParam().Aging);
  GcRunStats Second = runWorkload(GetParam().Choice, GetParam().Aging);
  expectIdenticalCollectionStats(First, Second);
}

TEST_P(DeterminismTest, TracingDoesNotPerturbCollection) {
  // Event tracing must be purely observational: the same workload with the
  // rings enabled produces bit-identical collection statistics.
  GcRunStats Off = runWorkload(GetParam().Choice, GetParam().Aging,
                               /*Tracing=*/false);
  GcRunStats On = runWorkload(GetParam().Choice, GetParam().Aging,
                              /*Tracing=*/true);
  expectIdenticalCollectionStats(Off, On);
}

TEST_P(DeterminismTest, PrefetchWindowDoesNotPerturbCollection) {
  // The software-prefetch window reorders the gray-stack traversal (FIFO
  // within the window instead of pure LIFO) but the traced SET is fixed by
  // the color CAS, so every collection statistic — all order-independent
  // sums — must be identical at depth 0 (a window of one: plain LIFO), the
  // default depth, and the maximum window.
  GcRunStats Off = runWorkload(GetParam().Choice, GetParam().Aging,
                               /*Tracing=*/false, /*PrefetchDepth=*/0);
  GcRunStats Default = runWorkload(GetParam().Choice, GetParam().Aging);
  GcRunStats Wide =
      runWorkload(GetParam().Choice, GetParam().Aging, /*Tracing=*/false,
                  /*PrefetchDepth=*/int(Tracer::MaxPrefetchDepth));
  expectIdenticalCollectionStats(Off, Default);
  expectIdenticalCollectionStats(Off, Wide);
}

TEST_P(DeterminismTest, LaneCountDoesNotChangeOutcome) {
  // One trace driver, card scan and sweep serve every lane count, so what
  // a cycle frees and keeps is independent of it.  ObjectsTraced and
  // OldObjectsScanned are compared at one lane only: at more lanes,
  // clearCardsSimple may re-gray an object straddling a shard boundary
  // twice and count it twice (benign, see its comment).  PagesTouched is
  // compared: the termination scan reads the same allocated ranges at
  // every lane count.
  GcRunStats One = runWorkload(GetParam().Choice, GetParam().Aging,
                               /*Tracing=*/false, /*PrefetchDepth=*/-1,
                               /*GcThreads=*/1);
  GcRunStats Four = runWorkload(GetParam().Choice, GetParam().Aging,
                                /*Tracing=*/false, /*PrefetchDepth=*/-1,
                                /*GcThreads=*/4);
  ASSERT_EQ(One.Cycles.size(), Four.Cycles.size());
  ASSERT_EQ(One.Cycles.size(), 6u);
  for (size_t I = 0; I < One.Cycles.size(); ++I) {
    const CycleStats &A = One.Cycles[I];
    const CycleStats &B = Four.Cycles[I];
    SCOPED_TRACE("cycle " + std::to_string(I));
    EXPECT_EQ(A.GcWorkers, 1u);
    EXPECT_EQ(B.GcWorkers, 4u);
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.ObjectsFreed, B.ObjectsFreed);
    EXPECT_EQ(A.BytesFreed, B.BytesFreed);
    EXPECT_EQ(A.LiveObjectsAfter, B.LiveObjectsAfter);
    EXPECT_EQ(A.LiveBytesAfter, B.LiveBytesAfter);
    EXPECT_EQ(A.YoungSurvivors, B.YoungSurvivors);
    EXPECT_EQ(A.DirtyCardsAtStart, B.DirtyCardsAtStart);
    EXPECT_GT(A.PagesTouched, 0u);
    EXPECT_EQ(A.PagesTouched, B.PagesTouched);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Collectors, DeterminismTest,
    ::testing::Values(
        DeterminismParam{CollectorChoice::Generational, false, "GenSimple"},
        DeterminismParam{CollectorChoice::Generational, true, "GenAging"},
        DeterminismParam{CollectorChoice::NonGenerational, false, "Dlg"},
        DeterminismParam{CollectorChoice::StopTheWorld, false, "Stw"}),
    [](const auto &Info) { return std::string(Info.param.Name); });

} // namespace
