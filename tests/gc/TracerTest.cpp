//===- tests/gc/TracerTest.cpp ---------------------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
// The trace driver (ParallelTracer) on hand-built object graphs.  Every
// case runs at one lane and at four: one driver serves every lane count,
// and the traced set, colors and counts must not depend on it.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "gc/ParallelTrace.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"

using namespace gengc;

namespace {

struct TracerFixture {
  explicit TracerFixture(unsigned Lanes)
      : H(HeapConfig{.HeapBytes = 4 << 20}), Registry(State),
        M(H, State, Registry), Pool(Lanes), Engine(H, State, Pool) {}

  /// Allocates an object with \p Slots ref slots, colored \p C.
  ObjectRef makeObject(Color C, uint32_t Slots = 2) {
    ObjectRef Ref = M.allocate(Slots, 8);
    H.storeColor(Ref, C);
    return Ref;
  }

  /// Links Parent.slot[I] = Child without any barrier.
  void link(ObjectRef Parent, uint32_t I, ObjectRef Child) {
    storeRefSlotRaw(H, Parent, I, Child);
  }

  /// Shades an object gray and queues it, as roots/card scans would.
  void shade(ObjectRef Ref) {
    H.storeColor(Ref, Color::Gray);
    State.Grays.push(Ref);
  }

  ParallelTracer::Result trace(Color BlackColor) {
    return Engine.trace(BlackColor, Counters);
  }

  Heap H;
  CollectorState State;
  MutatorRegistry Registry;
  Mutator M;
  GcWorkerPool Pool;
  ParallelTracer Engine;
  GrayCounters Counters;
};

/// Runs \p Body against a fresh fixture at one lane, then at four.
template <typename Fn> void forEachLaneCount(Fn Body) {
  for (unsigned Lanes : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << Lanes << " lane(s)");
    TracerFixture F(Lanes);
    Body(F);
  }
}

TEST(TracerTest, EmptyTraceTerminates) {
  forEachLaneCount([](TracerFixture &F) {
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 0u);
    EXPECT_GE(R.Passes, 1u) << "at least one verification pass";
  });
}

TEST(TracerTest, TracesLinkedChainFromGrayRoot) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef A = F.makeObject(Clear), B = F.makeObject(Clear),
              C = F.makeObject(Clear);
    F.link(A, 0, B);
    F.link(B, 1, C);
    F.shade(A);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 3u);
    EXPECT_EQ(F.H.loadColor(A), Color::Black);
    EXPECT_EQ(F.H.loadColor(B), Color::Black);
    EXPECT_EQ(F.H.loadColor(C), Color::Black);
  });
}

TEST(TracerTest, DoesNotTraceAllocationColoredSons) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef A = F.makeObject(Clear);
    ObjectRef Yellow = F.makeObject(F.State.allocationColor());
    F.link(A, 0, Yellow);
    F.shade(A);
    F.trace(Color::Black);
    EXPECT_EQ(F.H.loadColor(A), Color::Black);
    EXPECT_EQ(F.H.loadColor(Yellow), F.State.allocationColor())
        << "yellow objects are not traced (Section 4)";
  });
}

TEST(TracerTest, DoesNotRevisitBlackSons) {
  forEachLaneCount([](TracerFixture &F) {
    ObjectRef A = F.makeObject(F.State.clearColor());
    ObjectRef Old = F.makeObject(Color::Black);
    F.link(A, 0, Old);
    F.shade(A);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 1u) << "black sons are already done";
  });
}

TEST(TracerTest, HandlesCyclesInTheObjectGraph) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef A = F.makeObject(Clear), B = F.makeObject(Clear);
    F.link(A, 0, B);
    F.link(B, 0, A);
    F.link(A, 1, A); // self loop too
    F.shade(A);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 2u);
    EXPECT_EQ(F.H.loadColor(A), Color::Black);
    EXPECT_EQ(F.H.loadColor(B), Color::Black);
  });
}

TEST(TracerTest, UnreachedClearObjectsStayClear) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef Garbage = F.makeObject(Clear);
    ObjectRef Live = F.makeObject(Clear);
    F.shade(Live);
    F.trace(Color::Black);
    EXPECT_EQ(F.H.loadColor(Garbage), Clear);
  });
}

TEST(TracerTest, VerificationScanFindsUnqueuedGrays) {
  forEachLaneCount([](TracerFixture &F) {
    // A gray object whose buffer enqueue "got lost" (simulating the
    // in-flight race the verification pass guards against).
    ObjectRef Orphan = F.makeObject(F.State.clearColor());
    F.H.storeColor(Orphan, Color::Gray); // gray but never pushed
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(F.H.loadColor(Orphan), Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 1u);
  });
}

TEST(TracerTest, NonGenerationalBlackIsAllocationColor) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    Color Alloc = F.State.allocationColor();
    ObjectRef A = F.makeObject(Clear), B = F.makeObject(Clear);
    F.link(A, 0, B);
    F.shade(A);
    F.trace(Alloc); // Remark 5.1: black = allocation color
    EXPECT_EQ(F.H.loadColor(A), Alloc);
    EXPECT_EQ(F.H.loadColor(B), Alloc);
  });
}

TEST(TracerTest, CountsBytesAndSurvivors) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef A = F.makeObject(Clear), B = F.makeObject(Clear);
    F.link(A, 0, B);
    F.shade(A);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.BytesTraced, F.H.storageBytesOf(A) + F.H.storageBytesOf(B));
    // B was shaded from clear by the tracer; A was shaded by the test
    // directly (as the collector's root marking would count separately).
    EXPECT_EQ(F.Counters.FromClear.load(), 1u);
  });
}

TEST(TracerTest, TracesLargeObjects) {
  forEachLaneCount([](TracerFixture &F) {
    ObjectRef Run = F.H.allocateLarge(100 << 10);
    ASSERT_NE(Run, NullRef);
    initObject(F.H, Run, 3, 0, 100 << 10);
    ObjectRef Son = F.makeObject(F.State.clearColor());
    F.link(Run, 2, Son);
    F.H.storeColor(Run, Color::Gray);
    F.State.Grays.push(Run);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 2u);
    EXPECT_EQ(F.H.loadColor(Run), Color::Black);
    EXPECT_EQ(F.H.loadColor(Son), Color::Black);
  });
}

TEST(TracerTest, WideFanoutTracesEverything) {
  forEachLaneCount([](TracerFixture &F) {
    Color Clear = F.State.clearColor();
    ObjectRef Hub = F.M.allocate(64, 0);
    F.H.storeColor(Hub, Clear);
    std::vector<ObjectRef> Leaves;
    for (uint32_t I = 0; I < 64; ++I) {
      ObjectRef Leaf = F.makeObject(Clear, 0);
      F.link(Hub, I, Leaf);
      Leaves.push_back(Leaf);
    }
    F.shade(Hub);
    ParallelTracer::Result R = F.trace(Color::Black);
    EXPECT_EQ(R.ObjectsTraced, 65u);
    for (ObjectRef Leaf : Leaves)
      EXPECT_EQ(F.H.loadColor(Leaf), Color::Black);
  });
}

} // namespace
