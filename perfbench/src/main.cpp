//===- perfbench/src/main.cpp - End-to-end collector benchmark ------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload: set-up on the main thread, a closed-loop pass
/// (two mutators issue operations back to back for the whole run), then the
/// quiescent checks: model walk, live set equals reachable set, and
/// allocation conservation.  The last line of standard output is one JSON
/// object; the exit code is 0 unless the run could not run or a check
/// failed.
///
///   perfbench --workload young-churn --seed 1 --seconds 20 --trace 0
///
/// Extra options: --collector gen|dlg|stw, --out-dir DIR (trace files),
/// --inject corrupt-payload|drop-root|miscount-alloc (check self-tests).
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "Workloads.h"

using namespace pb;
using gengc::CycleKind;
using gengc::CycleRequest;
using gengc::CycleStats;
using gengc::HistogramSnapshot;
using gengc::MetricsSnapshot;

namespace {

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  std::string Collector = "gen";
  std::string OutDir = ".";
  std::string Inject = "none";
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--collector gen|dlg|stw] "
               "[--out-dir DIR] [--inject KIND]\n",
               Msg);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::stoull(V);
    else if (A == "--seconds")
      O.Seconds = std::stod(V);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--collector")
      O.Collector = V;
    else if (A == "--out-dir")
      O.OutDir = V;
    else if (A == "--inject")
      O.Inject = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.Inject != "none" && O.Inject != "corrupt-payload" &&
      O.Inject != "drop-root" && O.Inject != "miscount-alloc")
    usage("unknown --inject kind");
  return O;
}

//===----------------------------------------------------------------------===//
// Process measurements
//===----------------------------------------------------------------------===//

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * double(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double currentRssMb() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

HistogramSnapshot histDiff(const HistogramSnapshot &After,
                           const HistogramSnapshot &Before) {
  HistogramSnapshot D = After;
  for (unsigned I = 0; I < gengc::LogHistogram::NumBuckets; ++I)
    D.Buckets[I] -= Before.Buckets[I];
  D.TotalNanos -= Before.TotalNanos;
  return D;
}

//===----------------------------------------------------------------------===//
// Cycle log (GcObserver) and synchronous full collections
//===----------------------------------------------------------------------===//

/// Remembers when each cycle ended, for the cycle spans of a traced run.
class CycleLog final : public gengc::GcObserver {
public:
  struct Entry {
    uint64_t EndNs;
    CycleStats Stats;
  };

  void onGcCycleEnd(const CycleStats &Cycle, uint64_t /*Index*/) override {
    std::scoped_lock Locked(Mu);
    Entries.push_back({nowNs(), Cycle});
  }

  std::vector<Entry> entries() {
    std::scoped_lock Locked(Mu);
    return Entries;
  }

private:
  std::mutex Mu;
  std::vector<Entry> Entries;
};

bool isWholeHeap(CycleKind K) { return K != CycleKind::Partial; }

/// Requests full collections until one that began after this call has
/// completed, and \returns its cycle index.  collectSyncCooperating alone
/// is not enough: it returns once *any* cycle completes after the request,
/// so a Full requested while a Partial runs can return before the Full
/// ran.  \p EarlyReturns counts those returns.
uint64_t fullCollect(gengc::Runtime &RT, Mutator &M, uint64_t &EarlyReturns) {
  gengc::Collector &Gc = RT.collector();
  // Cycle number Gc.completedCycles() may already be running; every cycle
  // after it began after this point.
  uint64_t First = Gc.completedCycles() + 1;
  for (;;) {
    uint64_t Before = Gc.completedCycles();
    Gc.collectSyncCooperating(CycleRequest::Full, M);
    gengc::GcRunStats S = Gc.statsSnapshot();
    bool FullSinceRequest = false;
    for (uint64_t I = Before; I < S.Cycles.size(); ++I)
      FullSinceRequest |= isWholeHeap(S.Cycles[I].Kind);
    EarlyReturns += !FullSinceRequest;
    for (uint64_t I = First; I < S.Cycles.size(); ++I)
      if (isWholeHeap(S.Cycles[I].Kind) && !S.Cycles[I].Aborted)
        return I;
  }
}

//===----------------------------------------------------------------------===//
// Shared run state
//===----------------------------------------------------------------------===//

/// Operations per sampled operation in traced windows.
constexpr uint64_t SampleEvery = 8;
/// Closed-loop window length; a traced run alternates untraced and traced
/// windows so the tracing overhead is measured on the same heap.
constexpr uint64_t TraceWindowNs = 100'000'000;
/// Throughput is the median of the operation rates of the closed-loop
/// pass's whole windows of this length, so a stretch in which the host
/// takes the process's cores moves it little.
constexpr uint64_t ThroughputWindowNs = 250'000'000;

struct WorkerResult {
  Ctx C;
  uint64_t ClosedIters = 0;
  uint64_t TracedWindowIters = 0; // closed-loop operations in traced windows
  uint64_t ClosedLastEnd = 0;
  LayerCounters ClosedL; // the context's counters at the end of the pass
  LatencyHistogram ClosedLat;
  std::vector<uint64_t> WindowOps; // operations ended in each window
  uint64_t Failed = 0;
};

struct Shared {
  Workload *W = nullptr;
  gengc::Runtime *RT = nullptr;
  uint64_t Seed = 0;
  bool Trace = false;

  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  uint64_t ClosedStart = 0;
  uint64_t ClosedEnd = 0;
  std::atomic<unsigned> ClosedDone{0};

  WorkerResult Results[NumWorkers];
};

void workerMain(Shared &S, unsigned W) {
  WorkerResult &Out = S.Results[W];
  {
    std::unique_ptr<Mutator> M = S.RT->attachMutator();
    Ctx &C = Out.C;
    C.M = M.get();
    C.H = &S.RT->heap();
    C.Seed = S.Seed;
    C.Worker = W;
    S.Ready.fetch_add(1);
    while (!S.Go.load(std::memory_order_acquire))
      M->cooperate();

    // Closed loop: operations back to back until the deadline.
    Out.WindowOps.assign((S.ClosedEnd - S.ClosedStart) / ThroughputWindowNs + 1,
                         0);
    uint64_t K = 0;
    for (;;) {
      uint64_t T0 = nowNs();
      if (T0 >= S.ClosedEnd)
        break;
      bool Traced = S.Trace && ((T0 - S.ClosedStart) / TraceWindowNs) % 2;
      C.Timing = Traced && K % SampleEvery == 0;
      if (C.Timing)
        C.OpSpan = C.newSpanId();
      bool Ok = S.W->op(C, NumWorkers * K + W);
      uint64_t T1 = nowNs();
      if (C.Timing)
        C.keepSpan(SpanKind::Op, T0, T1, C.OpSpan, 0);
      C.Timing = false;
      Out.ClosedLat.record(T1 - T0);
      Out.WindowOps[std::min<uint64_t>((T1 - S.ClosedStart) /
                                           ThroughputWindowNs,
                                       Out.WindowOps.size() - 1)] += 1;
      Out.TracedWindowIters += Traced;
      Out.Failed += !Ok;
      Out.ClosedLastEnd = T1;
      ++K;
    }
    Out.ClosedIters = K;
    Out.ClosedL = C.L;
    S.ClosedDone.fetch_add(1, std::memory_order_release);
    C.M = nullptr;
  } // the mutator detaches here
}

/// Sleeps the (blocked) main thread until \p Done() holds.
template <typename Pred> void waitFor(Pred Done) {
  while (!Done())
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

//===----------------------------------------------------------------------===//
// Quiescent checks
//===----------------------------------------------------------------------===//

/// Counts the distinct objects reachable from \p M's shadow stack.
uint64_t countReachable(const Heap &H, const Mutator &M) {
  uint64_t HeapBytes = H.heapBytes();
  std::vector<bool> Seen(HeapBytes / gengc::GranuleBytes, false);
  std::vector<ObjectRef> Stack;
  uint64_t N = 0;
  auto Visit = [&](ObjectRef R) {
    if (R == NullRef || R >= HeapBytes || Seen[R / gengc::GranuleBytes])
      return;
    Seen[R / gengc::GranuleBytes] = true;
    ++N;
    Stack.push_back(R);
  };
  for (size_t I = 0; I < M.numRoots(); ++I)
    Visit(M.root(I));
  while (!Stack.empty()) {
    ObjectRef X = Stack.back();
    Stack.pop_back();
    uint32_t Slots = gengc::objectRefSlots(H, X);
    for (uint32_t I = 0; I < Slots; ++I)
      Visit(gengc::loadRefSlot(H, X, I));
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

const char *spanName(SpanKind K) {
  switch (K) {
  case SpanKind::Op:
    return "op";
  case SpanKind::Alloc:
    return "allocate";
  case SpanKind::WriteRef:
    return "writeRef";
  case SpanKind::Cooperate:
    return "cooperate";
  case SpanKind::CyclePartial:
    return "cycle.partial";
  case SpanKind::CycleFull:
    return "cycle.full";
  case SpanKind::PhaseClear:
    return "phase.clear";
  case SpanKind::PhaseMark:
    return "phase.mark";
  case SpanKind::PhaseCardScan:
    return "phase.card_scan";
  case SpanKind::PhaseTrace:
    return "phase.trace";
  case SpanKind::PhaseTermScan:
    return "phase.term_scan";
  case SpanKind::PhaseSweep:
    return "phase.sweep";
  }
  return "?";
}

void writeTrace(const std::string &Path, const Shared &S,
                const std::vector<CycleLog::Entry> &Cycles, uint64_t From,
                uint64_t To, uint64_t T0) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("info: could not write trace file %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "{\"traceEvents\":[\n");
  bool First = true;
  auto Emit = [&](SpanKind K, uint64_t Start, uint64_t End, unsigned Tid,
                  uint32_t Id, uint32_t Parent) {
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}",
                 First ? "" : ",\n", spanName(K), Tid,
                 double(Start - T0) / 1e3, double(End - Start) / 1e3, Id,
                 Parent);
    First = false;
  };
  for (const WorkerResult &R : S.Results)
    for (const Span &Sp : R.C.Spans)
      Emit(Sp.Kind, Sp.Start, Sp.End, Sp.Thread, Sp.Id, Sp.Parent);
  // Cycle spans: the callback gives the end time and phase durations; the
  // phases are laid out back to back from the cycle's start, with the card
  // scan at the start of mark and the termination scans at the end of
  // trace.
  uint32_t Id = 1;
  for (const CycleLog::Entry &E : Cycles) {
    if (E.EndNs < From || E.EndNs > To)
      continue;
    const CycleStats &C = E.Stats;
    uint64_t Start = E.EndNs - C.DurationNanos;
    uint32_t CycleId = (Id++ << 8) | 0xFF;
    Emit(C.Kind == CycleKind::Partial ? SpanKind::CyclePartial
                                      : SpanKind::CycleFull,
         Start, E.EndNs, 99, CycleId, 0);
    uint64_t T = Start;
    auto Phase = [&](SpanKind K, uint64_t Ns) {
      uint32_t PhaseId = (Id++ << 8) | 0xFF;
      Emit(K, T, T + Ns, 99, PhaseId, CycleId);
      T += Ns;
      return PhaseId;
    };
    Phase(SpanKind::PhaseClear, C.ClearNanos);
    uint64_t MarkStart = T;
    uint32_t Mark = Phase(SpanKind::PhaseMark, C.MarkNanos);
    Emit(SpanKind::PhaseCardScan, MarkStart, MarkStart + C.CardScanNanos, 99,
         (Id++ << 8) | 0xFF, Mark);
    uint32_t Trace = Phase(SpanKind::PhaseTrace, C.TraceNanos);
    Emit(SpanKind::PhaseTermScan, T - C.TraceTermScanNanos, T, 99,
         (Id++ << 8) | 0xFF, Trace);
    Phase(SpanKind::PhaseSweep, C.SweepNanos);
  }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

gengc::CollectorChoice collectorChoice(const std::string &Name) {
  if (Name == "gen")
    return gengc::CollectorChoice::Generational;
  if (Name == "dlg")
    return gengc::CollectorChoice::NonGenerational;
  if (Name == "stw")
    return gengc::CollectorChoice::StopTheWorld;
  usage("unknown --collector (gen, dlg, stw)");
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t MainStart = nowNs();
  Options Opt = parseOptions(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload, Opt.Seed);
  if (!W)
    usage("unknown --workload (young-churn, old-cache)");
  double ClosedNs = Opt.Seconds * 1e9;

  std::printf("info: workload %s seed %" PRIu64 " collector %s: %s\n",
              Opt.Workload.c_str(), Opt.Seed, Opt.Collector.c_str(),
              W->describe().c_str());

  // Runtime construction: the default collector, only the heap sized.
  gengc::RuntimeConfig Config;
  Config.Heap.HeapBytes = W->heapBytes();
  Config.Choice = collectorChoice(Opt.Collector);
  uint64_t InitStart = nowNs();
  gengc::Runtime RT(Config);
  double RuntimeInitMs = double(nowNs() - InitStart) / 1e6;
  double RssAfterInitMb = currentRssMb();
  CycleLog Log;
  RT.addGcObserver(Log);

  std::unique_ptr<Mutator> Main = RT.attachMutator();
  Ctx MainC;
  MainC.M = Main.get();
  MainC.H = &RT.heap();
  MainC.Seed = Opt.Seed;
  MainC.Worker = NumWorkers;
  uint64_t SyncEarlyReturns = 0;

  Shared S;
  S.W = W.get();
  S.RT = &RT;
  S.Seed = Opt.Seed;
  S.Trace = Opt.Trace;

  bool Correct = true;
  std::vector<Metric> E2E, Layer;
  uint64_t Attempted = 0, Failed = 0;
  {
    gengc::RootScope Roots(*Main);
    W->setup(MainC);
    // Tenure the long-lived data: two full collections that began after
    // it was built.
    uint64_t CollectStart = nowNs();
    fullCollect(RT, *Main, SyncEarlyReturns);
    fullCollect(RT, *Main, SyncEarlyReturns);
    double SetupCollectMs = double(nowNs() - CollectStart) / 1e6;

    std::vector<std::thread> Threads;
    MetricsSnapshot M0, M1;
    gengc::GcRunStats Stats1;
    uint64_t Cycles0 = 0, Cycles1 = 0;
    double Cpu0 = 0, Cpu1 = 0;
    double SetupS = 0;
    {
      gengc::BlockedScope Blocked(*Main);
      for (unsigned I = 0; I < NumWorkers; ++I)
        Threads.emplace_back(workerMain, std::ref(S), I);
      waitFor([&] { return S.Ready.load() == NumWorkers; });

      M0 = RT.metrics();
      Cycles0 = RT.collector().completedCycles();
      Cpu0 = cpuSeconds();
      S.ClosedStart = nowNs();
      S.ClosedEnd = S.ClosedStart + uint64_t(ClosedNs);
      SetupS = double(S.ClosedStart - MainStart) / 1e9;
      S.Go.store(true, std::memory_order_release);
      waitFor([&] {
        return S.ClosedDone.load(std::memory_order_acquire) == NumWorkers;
      });
      Cpu1 = cpuSeconds();
      M1 = RT.metrics();
      Stats1 = RT.collector().statsSnapshot();
      Cycles1 = Stats1.Cycles.size();

      for (std::thread &T : Threads)
        T.join();

      uint64_t ClosedOps = 0, LastEnd = 0;
      for (const WorkerResult &R : S.Results) {
        ClosedOps += R.ClosedIters;
        LastEnd = std::max(LastEnd, R.ClosedLastEnd);
      }
      // Median rate over the whole windows; the last, partial one is left
      // out.
      std::vector<double> Rates;
      for (uint64_t I = 0; I < uint64_t(ClosedNs) / ThroughputWindowNs; ++I) {
        uint64_t Ops = 0;
        for (const WorkerResult &R : S.Results)
          Ops += R.WindowOps[I];
        Rates.push_back(double(Ops) * 1e9 / double(ThroughputWindowNs));
      }
      double MeanThroughput =
          double(ClosedOps) / (double(LastEnd - S.ClosedStart) / 1e9);
      std::sort(Rates.begin(), Rates.end());
      auto RateAt = [&](double Q) {
        return Rates.empty() ? MeanThroughput
                             : Rates[size_t(Q * double(Rates.size() - 1))];
      };
      double Throughput = RateAt(0.5);
      std::printf("info: closed loop rate over %zu windows: mean %.0f, "
                  "min %.0f, p25 %.0f, median %.0f, p75 %.0f ops/s\n",
                  Rates.size(), MeanThroughput, RateAt(0), RateAt(0.25),
                  Throughput, RateAt(0.75));

      LatencyHistogram Lat;
      uint64_t TracedIters = 0;
      LayerCounters L;
      for (const WorkerResult &R : S.Results) {
        Lat.merge(R.ClosedLat);
        TracedIters += R.TracedWindowIters;
        L.add(R.ClosedL);
        Attempted += R.ClosedIters;
        Failed += R.Failed;
      }
      std::printf("info: closed loop %" PRIu64 " ops, latency samples %" PRIu64
                  ", p50 %.2f us, p90 %.2f us, p99 %.2f us, p99.9 %.2f us\n",
                  ClosedOps, Lat.count(), Lat.quantileNs(0.5) / 1e3,
                  Lat.quantileNs(0.9) / 1e3, Lat.quantileNs(0.99) / 1e3,
                  Lat.quantileNs(0.999) / 1e3);

      E2E = {
          {"setup_s", SetupS, "s"},
          {"throughput_ops_s", Throughput, "ops/s"},
          {"cpu_us_per_op", (Cpu1 - Cpu0) * 1e6 / double(ClosedOps), "us"},
          {"op_p99_us", Lat.quantileNs(0.99) / 1e3, "us"},
      };

      // Per-layer metrics over the closed-loop pass.
      double ClosedSec = double(LastEnd - S.ClosedStart) / 1e9;
      uint64_t Windows = uint64_t(ClosedSec * 1e9) / TraceWindowNs;
      double Rest = ClosedSec - double(Windows * TraceWindowNs) / 1e9;
      double TracedSec = double(Windows / 2 * TraceWindowNs) / 1e9 +
                         (Windows % 2 ? Rest : 0.0);
      double UntracedSec = ClosedSec - TracedSec;
      double Overhead = 0;
      if (TracedSec > 0 && TracedIters > 0) {
        double TracedRate = double(TracedIters) / TracedSec;
        double UntracedRate = double(ClosedOps - TracedIters) / UntracedSec;
        Overhead = 100.0 * (1.0 - TracedRate / UntracedRate);
      }
      HistogramSnapshot Hs = histDiff(M1.HandshakeNanos, M0.HandshakeNanos);
      HistogramSnapshot St = histDiff(M1.StallNanos, M0.StallNanos);
      uint64_t Part = 0, Full = 0;
      CycleStats Sum;
      for (uint64_t I = Cycles0; I < Cycles1; ++I) {
        const CycleStats &C = Stats1.Cycles[I];
        (C.Kind == CycleKind::Partial ? Part : Full) += 1;
        Sum.ClearNanos += C.ClearNanos;
        Sum.MarkNanos += C.MarkNanos;
        Sum.CardScanNanos += C.CardScanNanos;
        Sum.TraceNanos += C.TraceNanos;
        Sum.TraceTermScanNanos += C.TraceTermScanNanos;
        Sum.SweepNanos += C.SweepNanos;
        Sum.DirtyCardsAtStart += C.DirtyCardsAtStart;
        Sum.OldObjectsScanned += C.OldObjectsScanned;
        Sum.CardScanAreaBytes += C.CardScanAreaBytes;
        Sum.ObjectsTraced += C.ObjectsTraced;
        Sum.ObjectsFreed += C.ObjectsFreed;
      }
      double AllocScale =
          L.Alloc.Timed ? double(L.Alloc.Calls) / double(L.Alloc.Timed) : 0;
      Layer = {
          {"core.runtime_init_ms", RuntimeInitMs, "ms"},
          {"core.rss_after_init_mb", RssAfterInitMb, "MB"},
          {"heap.alloc_calls", double(L.Alloc.Calls), "count"},
          {"heap.alloc_ns_per_call", L.Alloc.nsPerCall(), "ns"},
          {"heap.alloc_slow_calls", double(L.Alloc.Slow) * AllocScale,
           "count"},
          {"heap.refills", double(M1.AllocRefills - M0.AllocRefills),
           "count"},
          {"heap.refill_steals",
           double(M1.AllocRefillSteals - M0.AllocRefillSteals), "count"},
          {"heap.carve_fallbacks",
           double(M1.AllocCarveFallbacks - M0.AllocCarveFallbacks), "count"},
          {"runtime.write_ref_calls", double(L.Write.Calls), "count"},
          {"runtime.write_ref_ns_per_call", L.Write.nsPerCall(), "ns"},
          {"runtime.cooperate_calls", double(L.Coop.Calls), "count"},
          {"runtime.cooperate_ns", L.Coop.nsPerCall(), "ns"},
          {"runtime.handshakes", double(Hs.count()), "count"},
          {"runtime.handshake_us_mean", Hs.meanNanos() / 1e3, "us"},
          {"runtime.handshake_us_p99", Hs.quantileNanos(0.99) / 1e3, "us"},
          {"runtime.stalls", double(St.count()), "count"},
          {"runtime.stall_ms", double(St.TotalNanos) / 1e6, "ms"},
          {"gc.cycles_partial", double(Part), "count"},
          {"gc.cycles_full", double(Full), "count"},
          {"gc.active_ms", double(M1.GcActiveNanos - M0.GcActiveNanos) / 1e6,
           "ms"},
          {"gc.clear_ms", double(Sum.ClearNanos) / 1e6, "ms"},
          {"gc.mark_ms", double(Sum.MarkNanos) / 1e6, "ms"},
          {"gc.setup_collect_ms", SetupCollectMs, "ms"},
          {"gc.sync_full_early_returns", double(SyncEarlyReturns), "count"},
          {"gc.card_scan_ms", double(Sum.CardScanNanos) / 1e6, "ms"},
          {"gc.dirty_cards", double(Sum.DirtyCardsAtStart), "count"},
          {"gc.old_objects_scanned", double(Sum.OldObjectsScanned), "count"},
          {"gc.card_scan_kb", double(Sum.CardScanAreaBytes) / 1024, "KB"},
          {"gc.trace_ms", double(Sum.TraceNanos) / 1e6, "ms"},
          {"gc.trace_term_scan_ms", double(Sum.TraceTermScanNanos) / 1e6,
           "ms"},
          {"gc.objects_traced", double(Sum.ObjectsTraced), "count"},
          {"gc.sweep_ms", double(Sum.SweepNanos) / 1e6, "ms"},
          {"gc.objects_freed", double(Sum.ObjectsFreed), "count"},
          {"gc.freed_per_traced",
           Sum.ObjectsTraced ? double(Sum.ObjectsFreed) /
                                   double(Sum.ObjectsTraced)
                             : 0.0,
           "ratio"},
          {"trace.overhead_pct", Overhead, "%"},
      };

      if (Opt.Trace) {
        std::string Path = Opt.OutDir + "/trace-" + Opt.Workload + "-" +
                           std::to_string(Opt.Seed) + ".json";
        writeTrace(Path, S, Log.entries(), S.ClosedStart, LastEnd,
                   S.ClosedStart);
        std::printf("info: spans written to %s\n", Path.c_str());
      }
    } // main leaves the blocked state

    //===-- Quiescent checks ----------------------------------------------===
    // Every worker has detached.  Wait for a whole-heap cycle that began
    // after that; the main thread's roots are now the only roots.
    if (Opt.Inject == "corrupt-payload")
      W->corruptOnePayloadWord(MainC);
    uint64_t CheckCycle = fullCollect(RT, *Main, SyncEarlyReturns);
    gengc::GcRunStats Final = RT.collector().statsSnapshot();
    const CycleStats &Check = Final.Cycles[CheckCycle];
    uint64_t Live = Check.LiveObjectsAfter;
    uint64_t FreedTotal = 0;
    for (uint64_t I = 0; I <= CheckCycle; ++I)
      FreedTotal += Final.Cycles[I].ObjectsFreed;
    uint64_t ModelBad = W->verifyModel(MainC);
    // The self-test drops a table's root after the check cycle, so the
    // collector's live count includes the table and the walk below does not.
    if (Opt.Inject == "drop-root")
      Main->setRoot(0, NullRef);
    uint64_t Reachable = countReachable(RT.heap(), *Main);
    uint64_t Allocated = MainC.Allocated;
    for (const WorkerResult &R : S.Results)
      Allocated += R.C.Allocated;
    if (Opt.Inject == "miscount-alloc")
      Allocated += 1;

    bool LiveOk = Live == Reachable;
    bool ConservationOk = FreedTotal + Live == Allocated;
    std::printf("info: check cycle %" PRIu64 " (%s): live %" PRIu64
                " objects (%.1f MB), reachable %" PRIu64 " -> %s\n",
                CheckCycle, gengc::cycleKindName(Check.Kind), Live,
                double(Check.LiveBytesAfter) / (1 << 20), Reachable,
                LiveOk ? "ok" : "MISMATCH");
    std::printf("info: conservation: freed %" PRIu64 " + live %" PRIu64
                " vs allocated %" PRIu64 " -> %s\n",
                FreedTotal, Live, Allocated,
                ConservationOk ? "ok" : "MISMATCH");
    std::printf("info: model walk: %" PRIu64 " slots mismatched; %" PRIu64
                " of %" PRIu64 " operations failed their read-back check\n",
                ModelBad, Failed, Attempted);
    std::printf("info: collectSyncCooperating(Full) returned before any "
                "whole-heap cycle ran: %" PRIu64 " times\n",
                SyncEarlyReturns);
    auto Outcome = [](bool Ok) { return Ok ? "ok" : "FAIL"; };
    std::printf("info: checks: readback %s model %s live %s conservation %s\n",
                Outcome(Failed == 0), Outcome(ModelBad == 0), Outcome(LiveOk),
                Outcome(ConservationOk));
    Correct = LiveOk && ConservationOk && ModelBad == 0 && Failed == 0;
  }
  E2E.push_back({"peak_rss_mb", peakRssMb(), "MB"});

  const std::vector<Metric> &Out = Opt.Trace ? Layer : E2E;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit);
  std::printf("}}\n");
  std::fflush(stdout);
  RT.removeGcObserver(Log);
  return Correct ? 0 : 1;
}
