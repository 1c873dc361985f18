//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded hashing, a fine-grained latency histogram, trace spans and
/// the per-thread context through which every workload reaches the
/// library.  The context's alloc/write/coop wrappers are the only places
/// the benchmark calls Mutator::allocate, Mutator::writeRef and
/// Mutator::cooperate, so they count every call, time the sampled ones,
/// and keep the allocation tally the conservation check needs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/GenGc.h"

namespace pb {

using gengc::Heap;
using gengc::Mutator;
using gengc::NullRef;
using gengc::ObjectRef;

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// splitmix64 finalizer.
inline uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

inline uint64_t hash3(uint64_t A, uint64_t B, uint64_t C) {
  return mix(A ^ mix(B ^ mix(C)));
}

/// Small deterministic generator; one per operation, seeded from
/// (seed, operation index), so an operation's content never depends on
/// which thread runs it or when.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() { return S = mix(S); }
  uint32_t below(uint32_t N) { return uint32_t((next() >> 32) * N >> 32); }
  bool chance(uint32_t Num, uint32_t Den) { return below(Den) < Num; }
};

/// Log-linear latency histogram: exact below 128 ns, then 64 buckets per
/// power of two (about 1.1% wide).  Quantiles interpolate inside a bucket.
class LatencyHistogram {
public:
  static constexpr unsigned SubBits = 6;
  static constexpr unsigned Sub = 1u << SubBits;
  static constexpr unsigned MaxMsb = 44;
  static constexpr unsigned NumBuckets = 2 * Sub + (MaxMsb - SubBits) * Sub;

  void record(uint64_t Ns) {
    ++Counts[indexOf(Ns)];
    ++N;
  }
  void merge(const LatencyHistogram &O) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      Counts[I] += O.Counts[I];
    N += O.N;
  }
  uint64_t count() const { return N; }

  /// Value at quantile \p Q (0..1); 0 when empty.
  double quantileNs(double Q) const {
    if (N == 0)
      return 0.0;
    double Rank = Q * double(N);
    uint64_t Seen = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      if (Counts[I] == 0)
        continue;
      if (double(Seen + Counts[I]) >= Rank) {
        double Into = (Rank - double(Seen)) / double(Counts[I]);
        return lowOf(I) + Into * (lowOf(I + 1) - lowOf(I));
      }
      Seen += Counts[I];
    }
    return lowOf(NumBuckets);
  }

private:
  static unsigned indexOf(uint64_t V) {
    if (V < 2 * Sub)
      return unsigned(V);
    unsigned Msb = 63 - unsigned(__builtin_clzll(V));
    if (Msb >= MaxMsb)
      return NumBuckets - 1;
    unsigned Shift = Msb - SubBits;
    return 2 * Sub + (Msb - SubBits - 1) * Sub + unsigned((V >> Shift) - Sub);
  }
  static double lowOf(unsigned I) {
    if (I < 2 * Sub)
      return double(I);
    unsigned Octave = (I - 2 * Sub) / Sub; // Msb - SubBits - 1
    unsigned Within = (I - 2 * Sub) % Sub;
    return std::ldexp(double(Sub + Within), int(Octave + 1));
  }

  std::vector<uint64_t> Counts = std::vector<uint64_t>(NumBuckets, 0);
  uint64_t N = 0;
};

/// What a trace span covers.
enum class SpanKind : uint8_t {
  Op,
  Alloc,
  WriteRef,
  Cooperate,
  CyclePartial,
  CycleFull,
  PhaseClear,
  PhaseMark,
  PhaseCardScan,
  PhaseTrace,
  PhaseTermScan,
  PhaseSweep,
};

/// One recorded span; Parent is 0 for a root span.
struct Span {
  uint64_t Start;
  uint64_t End;
  uint32_t Id;
  uint32_t Parent;
  SpanKind Kind;
  uint8_t Thread;
};

/// Calls into one library function and the sampled calls' times.
struct CallStats {
  uint64_t Calls = 0, Timed = 0, Ns = 0, Slow = 0;

  void add(const CallStats &O) {
    Calls += O.Calls;
    Timed += O.Timed;
    Ns += O.Ns;
    Slow += O.Slow;
  }
  double nsPerCall() const { return Timed ? double(Ns) / double(Timed) : 0; }
};

/// Per-thread call statistics for allocate, writeRef and cooperate.
struct LayerCounters {
  CallStats Alloc, Write, Coop;

  void add(const LayerCounters &O) {
    Alloc.add(O.Alloc);
    Write.add(O.Write);
    Coop.add(O.Coop);
  }
};

/// A sampled call slower than this took a slow path (for allocate: cache
/// refill, allocation throttle, memory wait).
inline constexpr uint64_t SlowCallNs = 1000;

/// Most spans one thread keeps in memory; later sampled calls still
/// count toward the per-layer totals.
inline constexpr size_t MaxSpansPerThread = 50000;

/// Per-thread context for workload operations.
struct Ctx {
  Mutator *M = nullptr;
  Heap *H = nullptr;
  uint64_t Seed = 0;
  unsigned Worker = 0;
  /// Objects this thread allocated (the conservation check's tally).
  uint64_t Allocated = 0;
  /// Whether the current operation is sampled: its calls are timed and
  /// recorded as child spans of OpSpan.
  bool Timing = false;
  uint32_t OpSpan = 0;
  uint32_t NextSpanId = 1;
  LayerCounters L;
  std::vector<Span> Spans;

  uint32_t newSpanId() { return (NextSpanId++ << 8) | Worker; }

  void keepSpan(SpanKind K, uint64_t Start, uint64_t End, uint32_t Id,
                uint32_t Parent) {
    if (Spans.size() < MaxSpansPerThread)
      Spans.push_back({Start, End, Id, Parent, K, uint8_t(Worker)});
  }

  /// Accounts a sampled call that started at \p T0 and just returned.
  void timed(SpanKind K, CallStats &St, uint64_t T0) {
    uint64_t T1 = nowNs();
    ++St.Timed;
    St.Ns += T1 - T0;
    St.Slow += T1 - T0 > SlowCallNs;
    keepSpan(K, T0, T1, newSpanId(), OpSpan);
  }

  ObjectRef alloc(uint32_t Refs, uint32_t Bytes, uint16_t Tag) {
    ++L.Alloc.Calls;
    ++Allocated;
    uint64_t T0 = Timing ? nowNs() : 0;
    ObjectRef R = M->allocate(Refs, Bytes, Tag);
    if (Timing)
      timed(SpanKind::Alloc, L.Alloc, T0);
    return R;
  }

  void write(ObjectRef X, uint32_t Slot, ObjectRef Y) {
    ++L.Write.Calls;
    uint64_t T0 = Timing ? nowNs() : 0;
    M->writeRef(X, Slot, Y);
    if (Timing)
      timed(SpanKind::WriteRef, L.Write, T0);
  }

  void coop() {
    ++L.Coop.Calls;
    uint64_t T0 = Timing ? nowNs() : 0;
    M->cooperate();
    if (Timing)
      timed(SpanKind::Cooperate, L.Coop, T0);
  }

  ObjectRef read(ObjectRef X, uint32_t Slot) const {
    return M->readRef(X, Slot);
  }
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
