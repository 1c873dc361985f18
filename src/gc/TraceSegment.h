//===- gc/TraceSegment.h - Segmented gray stacks ----------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-packet representation of the trace engine's gray stacks: a
/// fixed-capacity, cache-line-aligned segment of object refs, pooled and
/// recycled across cycles.  Lanes keep a doubly-linked chain of segments as
/// their private LIFO stack; moving work between lanes (offload to the
/// shared list, steal from it) is an O(1) segment-pointer swap instead of
/// the element copies and the O(n) vector front-erase the first-draft
/// engine paid.  The same packet design carries MMTk's and Multicore
/// OCaml's parallel markers.
///
/// Ownership: every segment is allocated by exactly one TraceSegmentPool
/// and returns to its free list; the pool's slab vector owns the memory, so
/// segments in flight on a shared work list cannot leak even if a trace is
/// abandoned mid-cycle.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TRACESEGMENT_H
#define GENGC_GC_TRACESEGMENT_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "heap/Ref.h"
#include "support/Assert.h"

namespace gengc {

/// One stealable packet of gray object refs.  The link fields are owned by
/// whichever container currently holds the segment (a lane's stack chain or
/// the shared work list's free-standing stack); a segment is never in two
/// containers at once, so the links need no synchronization.
struct alignas(64) TraceSegment {
  /// Refs per segment.  64 refs = 256 bytes of payload: big enough that
  /// pool and work-list mutexes are touched once per 64 objects traced,
  /// small enough that a stolen packet is a meaningful work quantum.
  static constexpr uint32_t Capacity = 64;

  uint32_t Count = 0;
  /// Toward the bottom of the owning stack (or the next list entry).
  TraceSegment *Below = nullptr;
  /// Toward the top of the owning stack.
  TraceSegment *Above = nullptr;
  ObjectRef Refs[Capacity];
};
static_assert(sizeof(TraceSegment) % 64 == 0,
              "segments must tile cache lines exactly");

/// Free-list pool of trace segments, shared by all lanes of one collector.
/// acquire/release serialize on a mutex (touched once per Capacity pushes
/// on the trace hot path); the statistics counters are atomics so stats
/// readers never take the pool lock mid-cycle.
class TraceSegmentPool {
public:
  /// Returns an empty segment, recycling a pooled one when possible.
  TraceSegment *acquire() {
    NumAcquires.fetch_add(1, std::memory_order_relaxed);
    {
      std::scoped_lock Locked(Mutex);
      if (FreeList != nullptr) {
        TraceSegment *S = FreeList;
        FreeList = S->Below;
        NumFree.fetch_sub(1, std::memory_order_relaxed);
        S->Count = 0;
        S->Below = S->Above = nullptr;
        return S;
      }
    }
    auto Fresh = std::make_unique<TraceSegment>();
    TraceSegment *S = Fresh.get();
    {
      std::scoped_lock Locked(Mutex);
      Slabs.push_back(std::move(Fresh));
    }
    NumAllocated.fetch_add(1, std::memory_order_relaxed);
    return S;
  }

  /// Returns \p S to the free list.
  void release(TraceSegment *S) {
    GENGC_ASSERT(S != nullptr, "releasing a null segment");
    std::scoped_lock Locked(Mutex);
    S->Count = 0;
    S->Above = nullptr;
    S->Below = FreeList;
    FreeList = S;
    NumFree.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total acquire() calls so far (lock-free statistics read).
  uint64_t acquires() const {
    return NumAcquires.load(std::memory_order_relaxed);
  }
  /// Segments ever allocated — the pool's high-water footprint in units of
  /// sizeof(TraceSegment) (lock-free statistics read).
  uint64_t allocatedSegments() const {
    return NumAllocated.load(std::memory_order_relaxed);
  }
  /// Segments currently resting on the free list (lock-free gauge).
  uint64_t pooledSegments() const {
    return NumFree.load(std::memory_order_relaxed);
  }

private:
  std::mutex Mutex;
  TraceSegment *FreeList = nullptr;
  /// Owns every segment this pool ever created.
  std::vector<std::unique_ptr<TraceSegment>> Slabs;
  std::atomic<uint64_t> NumAcquires{0};
  std::atomic<uint64_t> NumAllocated{0};
  std::atomic<uint64_t> NumFree{0};
};

/// A lane-private LIFO gray stack built from pooled segments.  push/pop at
/// the top keep plain LIFO order across segment boundaries
/// (TraceSegmentTest pins it); detachBottom and attachSegment are the O(1)
/// offload/steal primitives.
class SegmentedGrayStack {
public:
  explicit SegmentedGrayStack(TraceSegmentPool &P) : Pool(&P) {}
  ~SegmentedGrayStack() { clear(); }

  SegmentedGrayStack(const SegmentedGrayStack &) = delete;
  SegmentedGrayStack &operator=(const SegmentedGrayStack &) = delete;

  bool empty() const { return NumRefs == 0; }
  size_t size() const { return NumRefs; }
  unsigned segments() const { return NumSegments; }

  void push(ObjectRef Ref) {
    if (Top == nullptr || Top->Count == TraceSegment::Capacity)
      attachEmptyTop();
    Top->Refs[Top->Count++] = Ref;
    ++NumRefs;
  }

  ObjectRef pop() {
    GENGC_ASSERT(NumRefs != 0, "pop from an empty gray stack");
    ObjectRef Ref = Top->Refs[--Top->Count];
    --NumRefs;
    if (Top->Count == 0) {
      TraceSegment *Empty = Top;
      Top = Empty->Below;
      if (Top != nullptr)
        Top->Above = nullptr;
      else
        Bottom = nullptr;
      --NumSegments;
      // One empty segment is kept as a local spare so a push/pop sequence
      // oscillating on a segment boundary does not hit the pool mutex
      // twice per operation.
      if (Spare == nullptr) {
        Empty->Below = nullptr;
        Spare = Empty;
      } else {
        Pool->release(Empty);
      }
    }
    return Ref;
  }

  /// Detaches the bottom (oldest) segment for offloading, or returns null
  /// when fewer than two segments are chained (the active top segment is
  /// never given away).  Bottom entries sit near wide fan-out points, so a
  /// detached segment carries a real subtree — the same heuristic as the
  /// old oldest-half-chunk offload, now without copying a single ref.
  TraceSegment *detachBottom() {
    if (NumSegments < 2)
      return nullptr;
    TraceSegment *S = Bottom;
    Bottom = S->Above;
    Bottom->Below = nullptr;
    --NumSegments;
    NumRefs -= S->Count;
    S->Above = S->Below = nullptr;
    return S;
  }

  /// Attaches a stolen segment on top, so its refs are popped next —
  /// matching the historical append-then-pop order of the vector stack.
  void attachSegment(TraceSegment *S) {
    GENGC_ASSERT(S != nullptr && S->Count > 0,
                 "attaching an empty segment is pointless");
    S->Below = Top;
    S->Above = nullptr;
    if (Top != nullptr)
      Top->Above = S;
    else
      Bottom = S;
    Top = S;
    ++NumSegments;
    NumRefs += S->Count;
  }

  /// Releases every segment (and the spare) back to the pool.
  void clear() {
    while (Top != nullptr) {
      TraceSegment *S = Top;
      Top = S->Below;
      Pool->release(S);
    }
    Bottom = nullptr;
    NumSegments = 0;
    NumRefs = 0;
    if (Spare != nullptr) {
      Pool->release(Spare);
      Spare = nullptr;
    }
  }

private:
  void attachEmptyTop() {
    TraceSegment *S;
    if (Spare != nullptr) {
      S = Spare;
      Spare = nullptr;
    } else {
      S = Pool->acquire();
    }
    S->Count = 0;
    S->Below = Top;
    S->Above = nullptr;
    if (Top != nullptr)
      Top->Above = S;
    else
      Bottom = S;
    Top = S;
    ++NumSegments;
  }

  TraceSegmentPool *Pool;
  TraceSegment *Top = nullptr;
  TraceSegment *Bottom = nullptr;
  TraceSegment *Spare = nullptr;
  size_t NumRefs = 0;
  unsigned NumSegments = 0;
};

} // namespace gengc

#endif // GENGC_GC_TRACESEGMENT_H
