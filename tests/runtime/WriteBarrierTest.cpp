//===- tests/runtime/WriteBarrierTest.cpp ----------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the Figure 1 / Figure 4 barrier variants, exercising every
// (status, phase) combination the pseudo-code distinguishes.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"
#include "runtime/WriteBarrier.h"

using namespace gengc;

namespace {

struct WriteBarrierTest : ::testing::Test {
  WriteBarrierTest()
      : H(HeapConfig{.HeapBytes = 4 << 20}), Registry(State),
        M(H, State, Registry) {
    A = M.allocate(2, 8);
    B = M.allocate(2, 8);
    C = M.allocate(2, 8);
  }

  /// Walks the registered mutator to \p Target status.
  void advanceTo(HandshakeStatus Target) {
    for (HandshakeStatus S :
         {HandshakeStatus::Sync1, HandshakeStatus::Sync2,
          HandshakeStatus::Async}) {
      State.StatusC.store(S);
      M.cooperate();
      if (S == Target)
        return;
    }
  }

  /// The phases in which an Async mutator runs the barrier's "collector is
  /// tracing" branch: it answers the Async handshake inside Mark, so the
  /// deletion shade must already be on there.
  static constexpr GcPhase TracingPhases[] = {GcPhase::Mark, GcPhase::Trace};

  size_t cardOf(ObjectRef X, uint32_t Slot) {
    return H.cards().cardIndexFor(refSlotOffset(X, Slot));
  }

  Heap H;
  CollectorState State;
  MutatorRegistry Registry;
  Mutator M;
  ObjectRef A, B, C;
};

//===----------------------------------------------------------------------===
// MarkGray primitives.
//===----------------------------------------------------------------------===

TEST_F(WriteBarrierTest, TryMarkGrayOnlyFromMatchingColor) {
  H.storeColor(A, Color::White);
  EXPECT_FALSE(tryMarkGray(H, A, Color::Yellow));
  EXPECT_EQ(H.loadColor(A), Color::White);
  EXPECT_TRUE(tryMarkGray(H, A, Color::White));
  EXPECT_EQ(H.loadColor(A), Color::Gray);
  EXPECT_FALSE(tryMarkGray(H, A, Color::White)) << "already gray";
}

TEST_F(WriteBarrierTest, ShadeGrayEnqueues) {
  H.storeColor(A, State.clearColor());
  EXPECT_TRUE(shadeGray(H, State, A, State.clearColor()));
  std::vector<ObjectRef> Drained;
  EXPECT_TRUE(State.Grays.drainTo(Drained));
  ASSERT_EQ(Drained.size(), 1u);
  EXPECT_EQ(Drained[0], A);
}

TEST_F(WriteBarrierTest, MarkGraySimpleShadesClearColored) {
  GrayCounters Counters;
  H.storeColor(A, State.clearColor());
  markGraySimple(H, State, HandshakeStatus::Async, A, Counters);
  EXPECT_EQ(H.loadColor(A), Color::Gray);
  EXPECT_EQ(Counters.FromClear.load(), 1u);
  EXPECT_EQ(Counters.FromClearBytes.load(), H.storageBytesOf(A));
}

TEST_F(WriteBarrierTest, MarkGraySimpleYellowExceptionDuringSync) {
  GrayCounters Counters;
  H.storeColor(A, State.allocationColor());
  // In async: allocation-colored objects are NOT shaded.
  markGraySimple(H, State, HandshakeStatus::Async, A, Counters);
  EXPECT_EQ(H.loadColor(A), State.allocationColor());
  // In sync1/sync2: they are (the Section 7.1 exception).
  markGraySimple(H, State, HandshakeStatus::Sync1, A, Counters);
  EXPECT_EQ(H.loadColor(A), Color::Gray);
  H.storeColor(B, State.allocationColor());
  markGraySimple(H, State, HandshakeStatus::Sync2, B, Counters);
  EXPECT_EQ(H.loadColor(B), Color::Gray);
  // The exception shades do not count as young survivors from clear.
  EXPECT_EQ(Counters.FromClear.load(), 0u);
}

TEST_F(WriteBarrierTest, MarkGrayClearOnlyIgnoresAllocationColor) {
  GrayCounters Counters;
  H.storeColor(A, State.allocationColor());
  markGrayClearOnly(H, State, A, Counters);
  EXPECT_EQ(H.loadColor(A), State.allocationColor());
  H.storeColor(A, State.clearColor());
  markGrayClearOnly(H, State, A, Counters);
  EXPECT_EQ(H.loadColor(A), Color::Gray);
}

TEST_F(WriteBarrierTest, MarkGrayNullIsNoop) {
  GrayCounters Counters;
  markGraySimple(H, State, HandshakeStatus::Sync1, NullRef, Counters);
  markGrayClearOnly(H, State, NullRef, Counters);
  SUCCEED();
}

//===----------------------------------------------------------------------===
// Figure 1 Update (simple barrier).
//===----------------------------------------------------------------------===

TEST_F(WriteBarrierTest, SimpleAsyncIdleMarksCardOnly) {
  State.Barrier.store(BarrierKind::Simple);
  H.storeColor(B, State.clearColor());
  M.writeRef(A, 0, B);
  EXPECT_EQ(M.readRef(A, 0), B);
  EXPECT_EQ(H.loadColor(B), State.clearColor()) << "no shading when idle";
  EXPECT_TRUE(H.cards().isDirty(cardOf(A, 0)));
}

TEST_F(WriteBarrierTest, SimpleAsyncTracingShadesOldValueAndMarksCard) {
  State.Barrier.store(BarrierKind::Simple);
  for (GcPhase Phase : TracingPhases) {
    SCOPED_TRACE(int(Phase));
    M.writeRef(A, 0, B);
    H.cards().clearAll();
    H.storeColor(B, State.clearColor());
    State.Phase.store(Phase);
    M.writeRef(A, 0, C);
    State.Phase.store(GcPhase::Idle);
    EXPECT_EQ(H.loadColor(B), Color::Gray) << "overwritten value shaded";
    EXPECT_NE(H.loadColor(C), Color::Gray) << "new value not shaded in async";
    EXPECT_TRUE(H.cards().isDirty(cardOf(A, 0)));
  }
}

TEST_F(WriteBarrierTest, SimpleSyncShadesBothValuesNoCard) {
  State.Barrier.store(BarrierKind::Simple);
  M.writeRef(A, 0, B); // old value in place
  H.cards().clearAll();
  H.storeColor(B, State.clearColor());
  H.storeColor(C, State.clearColor());
  advanceTo(HandshakeStatus::Sync1);
  M.writeRef(A, 0, C);
  EXPECT_EQ(H.loadColor(B), Color::Gray);
  EXPECT_EQ(H.loadColor(C), Color::Gray);
  EXPECT_FALSE(H.cards().isDirty(cardOf(A, 0)))
      << "no card marking during sync1/sync2 (Section 7.1)";
}

TEST_F(WriteBarrierTest, SimpleSweepPhaseMarksCardOnly) {
  State.Barrier.store(BarrierKind::Simple);
  H.storeColor(B, State.clearColor());
  State.Phase.store(GcPhase::Sweep);
  M.writeRef(A, 1, B);
  State.Phase.store(GcPhase::Idle);
  EXPECT_EQ(H.loadColor(B), State.clearColor());
  EXPECT_TRUE(H.cards().isDirty(cardOf(A, 1)));
}

//===----------------------------------------------------------------------===
// Figure 4 Update (aging barrier).
//===----------------------------------------------------------------------===

TEST_F(WriteBarrierTest, AgingAlwaysMarksCardEvenInSync) {
  State.Barrier.store(BarrierKind::Aging);
  advanceTo(HandshakeStatus::Sync1);
  M.writeRef(A, 0, B);
  EXPECT_TRUE(H.cards().isDirty(cardOf(A, 0)))
      << "aging marks cards in every state (Figure 4)";
}

TEST_F(WriteBarrierTest, AgingSyncShadesClearOnlyNoYellowException) {
  State.Barrier.store(BarrierKind::Aging);
  H.storeColor(C, State.allocationColor());
  advanceTo(HandshakeStatus::Sync2);
  M.writeRef(A, 0, C);
  EXPECT_EQ(H.loadColor(C), State.allocationColor())
      << "Figure 4 MarkGray has no allocation-color exception";
}

TEST_F(WriteBarrierTest, AgingTracingShadesOldValue) {
  State.Barrier.store(BarrierKind::Aging);
  for (GcPhase Phase : TracingPhases) {
    SCOPED_TRACE(int(Phase));
    M.writeRef(A, 0, B);
    H.storeColor(B, State.clearColor());
    State.Phase.store(Phase);
    M.writeRef(A, 0, C);
    State.Phase.store(GcPhase::Idle);
    EXPECT_EQ(H.loadColor(B), Color::Gray);
  }
}

//===----------------------------------------------------------------------===
// Non-generational barrier.
//===----------------------------------------------------------------------===

TEST_F(WriteBarrierTest, NonGenNeverMarksCards) {
  State.Barrier.store(BarrierKind::NonGenerational);
  advanceTo(HandshakeStatus::Sync1);
  M.writeRef(A, 0, B);
  advanceTo(HandshakeStatus::Async);
  for (GcPhase Phase : TracingPhases) {
    State.Phase.store(Phase);
    M.writeRef(A, 0, C);
  }
  State.Phase.store(GcPhase::Idle);
  M.writeRef(A, 1, B);
  EXPECT_EQ(H.cards().countDirty(), 0u);
}

TEST_F(WriteBarrierTest, NonGenAsyncTracingShadesOldValue) {
  State.Barrier.store(BarrierKind::NonGenerational);
  for (GcPhase Phase : TracingPhases) {
    SCOPED_TRACE(int(Phase));
    M.writeRef(A, 0, B);
    H.storeColor(B, State.clearColor());
    H.storeColor(C, State.clearColor());
    State.Phase.store(Phase);
    M.writeRef(A, 0, C);
    State.Phase.store(GcPhase::Idle);
    EXPECT_EQ(H.loadColor(B), Color::Gray) << "overwritten value shaded";
    EXPECT_EQ(H.loadColor(C), State.clearColor())
        << "new value not shaded in async";
  }
}

TEST_F(WriteBarrierTest, NonGenSyncShadesBothValues) {
  State.Barrier.store(BarrierKind::NonGenerational);
  M.writeRef(A, 0, B);
  H.storeColor(B, State.clearColor());
  H.storeColor(C, State.clearColor());
  advanceTo(HandshakeStatus::Sync2);
  M.writeRef(A, 0, C);
  EXPECT_EQ(H.loadColor(B), Color::Gray);
  EXPECT_EQ(H.loadColor(C), Color::Gray);
}

//===----------------------------------------------------------------------===
// The in-flight shade window.
//===----------------------------------------------------------------------===

TEST_F(WriteBarrierTest, InFlightCounterReturnsToZero) {
  H.storeColor(A, State.clearColor());
  shadeGray(H, State, A, State.clearColor());
  EXPECT_EQ(State.InFlightShades.load(), 0);
}

} // namespace
