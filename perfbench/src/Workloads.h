//===- perfbench/src/Workloads.h - Seeded workloads and model --*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads.  Each keeps its long-lived data in tables rooted on
/// the main thread's shadow stack, mirrors every table in a plain C++ model
/// (key and version per slot), and checks every object it reads back
/// against payload derived from (seed, key, version).
///
/// Operation I belongs to worker I % 2 and draws everything it does from
/// (seed, I).  Table slots are split between the workers by parity, so
/// each model slot has one writer and the table contents after N
/// operations do not depend on thread timing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>

#include "Common.h"

namespace pb {

inline constexpr unsigned NumWorkers = 2;

/// A workload: set-up, one seeded operation, and the quiescent model check.
class Workload {
public:
  virtual ~Workload() = default;

  /// Heap size the runtime is built with.
  virtual uint64_t heapBytes() const = 0;

  /// Builds the long-lived data on the main thread and roots it on
  /// \p C's shadow stack; the roots stay until the process ends.
  virtual void setup(Ctx &C) = 0;

  /// Runs operation \p Index on worker Index % NumWorkers.  \returns false
  /// when an object read back did not match the model.
  virtual bool op(Ctx &C, uint64_t Index) = 0;

  /// With every worker detached, checks every table slot against the
  /// model.  \returns the number of slots that did not match.
  virtual uint64_t verifyModel(Ctx &C) = 0;

  /// One line describing the input make-up (sizes, rates), for the log.
  virtual std::string describe() const = 0;

  /// Overwrites one data word of one long-lived object (self-test of the
  /// payload check).
  virtual void corruptOnePayloadWord(Ctx &C) = 0;
};

/// Creates workload \p Name (young-churn, old-cache) for \p Seed;
/// null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
