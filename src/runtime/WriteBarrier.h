//===- runtime/WriteBarrier.h - MarkGray and update barriers ----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graying primitives shared by mutators and the collector.
///
/// The paper's MarkGray comes in two variants:
///  - Figure 1 (simple promotion): shade an object whose color is the clear
///    color; during sync1/sync2 *also* shade allocation-colored (yellow)
///    objects — the exception of Section 7.1 that protects objects created
///    during the toggle window.
///  - Figure 4 (aging, also plain DLG): shade clear-colored objects only.
///
/// All color transitions go through a compare-and-swap on the color byte,
/// so the clear->gray (mutator) and clear->blue (sweep) races of Section
/// 7.1 have exactly one winner.  The paper's JVM avoided CAS by a memory-
/// ordering argument specific to its hardware; CAS is the portable, UB-free
/// C++ rendering of the same exactly-once guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_WRITEBARRIER_H
#define GENGC_RUNTIME_WRITEBARRIER_H

#include <atomic>

#include "heap/Heap.h"
#include "runtime/CollectorState.h"

namespace gengc {

/// Counters fed by graying: how many objects (and bytes) were shaded from
/// the clear color.  The collector sums these across mutators to compute
/// the young-survivor counts of Figure 12.
struct GrayCounters {
  std::atomic<uint64_t> FromClear{0};
  std::atomic<uint64_t> FromClearBytes{0};

  void reset() {
    FromClear.store(0, std::memory_order_relaxed);
    FromClearBytes.store(0, std::memory_order_relaxed);
  }
};

/// Attempts the color transition \p From -> gray on \p X.
/// \returns true if this caller performed the transition.
inline bool tryMarkGray(Heap &H, ObjectRef X, Color From) {
  if (From == Color::Gray)
    return false;
  Color Current = H.loadColor(X);
  while (Current == From)
    if (H.casColor(X, Current, Color::Gray))
      return true;
  return false;
}

/// Shades \p X gray if its color is \p From and enqueues it on the shared
/// gray buffer inside the in-flight window (see CollectorState).
/// \returns true if this caller performed the transition.
bool shadeGray(Heap &H, CollectorState &S, ObjectRef X, Color From);

/// Figure 1 MarkGray.  \p StatusM is the calling mutator's own handshake
/// status (its perception, not the collector's).  Winners of the gray CAS
/// enqueue the object on the shared gray buffer for the tracer.
void markGraySimple(Heap &H, CollectorState &S, HandshakeStatus StatusM,
                    ObjectRef X, GrayCounters &Counters);

/// Figure 4 MarkGray; also the DLG baseline's shade routine and the one the
/// collector uses for roots and card scanning.
void markGrayClearOnly(Heap &H, CollectorState &S, ObjectRef X,
                       GrayCounters &Counters);

/// Root shade for a stop-the-world park: shades clear-colored AND
/// allocation-colored roots.  The park precedes the cycle's color toggle,
/// which turns every allocation-colored object clear: an allocation-colored
/// root must be gray by then, or nothing traces it.
void markGrayForStw(Heap &H, CollectorState &S, ObjectRef X,
                    GrayCounters &Counters);

} // namespace gengc

#endif // GENGC_RUNTIME_WRITEBARRIER_H
