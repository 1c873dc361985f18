//===- perfbench/src/Workloads.cpp - Seeded workloads and model -----------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>

namespace pb {
namespace {

using gengc::objectDataWords;
using gengc::objectRefSlots;
using gengc::objectTag;

enum : uint16_t {
  TagHead = 11,
  TagNode = 12,
  TagDir = 13,
  TagChunk = 14,
};

constexpr uint32_t ChunkSlots = 1024;
constexpr uint32_t HeadWords = 4;

/// Length and payload width of one record's node list.
struct Shape {
  uint32_t Length;
  uint32_t Words;
};

uint32_t payloadWord(uint64_t Seed, uint32_t Key, uint64_t Ver, uint32_t Node,
                     uint32_t Word) {
  return uint32_t(hash3(Seed ^ (uint64_t(Key) << 32), Ver,
                        (uint64_t(Node) << 16) | Word));
}

uint32_t headCheck(uint64_t Seed, uint32_t Key, uint64_t Ver) {
  return uint32_t(hash3(Seed, Key, Ver) >> 32);
}

/// Allocates a record: a head (ref 0: node list, ref 1: link to another
/// record; data: key, version, shape, check word) and Shape.Length nodes
/// whose data words derive from (seed, key, version).  The head is rooted
/// while the list is built; the caller must store it somewhere reachable
/// before its next allocation or cooperate call.
ObjectRef buildRecord(Ctx &C, uint32_t Key, uint64_t Ver, Shape S) {
  Heap &H = *C.H;
  ObjectRef Head = C.alloc(2, HeadWords * 4, TagHead);
  gengc::storeDataWord(H, Head, 0, Key);
  gengc::storeDataWord(H, Head, 1, uint32_t(Ver));
  gengc::storeDataWord(H, Head, 2, S.Length | (S.Words << 16));
  gengc::storeDataWord(H, Head, 3, headCheck(C.Seed, Key, Ver));
  C.M->pushRoot(Head);
  ObjectRef Tail = Head;
  for (uint32_t N = 0; N < S.Length; ++N) {
    ObjectRef Node = C.alloc(1, S.Words * 4, TagNode);
    for (uint32_t W = 0; W < S.Words; ++W)
      gengc::storeDataWord(H, Node, W, payloadWord(C.Seed, Key, Ver, N, W));
    C.write(Tail, 0, Node);
    Tail = Node;
  }
  C.M->popRoots(1);
  return Head;
}

bool checkHead(const Ctx &C, ObjectRef Head, uint32_t Key, uint64_t Ver,
               Shape S) {
  const Heap &H = *C.H;
  return Head != NullRef && objectTag(H, Head) == TagHead &&
         objectRefSlots(H, Head) == 2 &&
         objectDataWords(H, Head) == HeadWords &&
         gengc::loadDataWord(H, Head, 0) == Key &&
         gengc::loadDataWord(H, Head, 1) == uint32_t(Ver) &&
         gengc::loadDataWord(H, Head, 2) == (S.Length | (S.Words << 16)) &&
         gengc::loadDataWord(H, Head, 3) == headCheck(C.Seed, Key, Ver);
}

/// Checks a record's head and every node of its list against the payload
/// derived from (seed, key, version).
bool checkRecord(const Ctx &C, ObjectRef Head, uint32_t Key, uint64_t Ver,
                 Shape S) {
  if (!checkHead(C, Head, Key, Ver, S))
    return false;
  const Heap &H = *C.H;
  ObjectRef Node = C.read(Head, 0);
  for (uint32_t N = 0; N < S.Length; ++N) {
    if (Node == NullRef || objectTag(H, Node) != TagNode ||
        objectRefSlots(H, Node) != 1 || objectDataWords(H, Node) != S.Words)
      return false;
    for (uint32_t W = 0; W < S.Words; ++W)
      if (gengc::loadDataWord(H, Node, W) !=
          payloadWord(C.Seed, Key, Ver, N, W))
        return false;
    Node = C.read(Node, 0);
  }
  return Node == NullRef;
}

/// A slot table: a directory whose reference slots point at chunks of
/// ChunkSlots reference slots each.  Built on the main thread and rooted
/// on its shadow stack, so it is old by the time the workers touch it.
struct Table {
  ObjectRef Dir = NullRef;
  uint32_t Slots = 0;

  void build(Ctx &C, uint32_t NumSlots) {
    Slots = NumSlots;
    uint32_t Chunks = (NumSlots + ChunkSlots - 1) / ChunkSlots;
    Dir = C.alloc(Chunks, 0, TagDir);
    C.M->pushRoot(Dir);
    for (uint32_t I = 0; I < Chunks; ++I)
      C.write(Dir, I, C.alloc(ChunkSlots, 0, TagChunk));
  }
  ObjectRef chunk(const Ctx &C, uint32_t Slot) const {
    return C.read(Dir, Slot / ChunkSlots);
  }
  ObjectRef get(const Ctx &C, uint32_t Slot) const {
    return C.read(chunk(C, Slot), Slot % ChunkSlots);
  }
  void set(Ctx &C, uint32_t Slot, ObjectRef Value) {
    C.write(chunk(C, Slot), Slot % ChunkSlots, Value);
  }
};

/// Model of one table slot: the record it holds and, if the record's link
/// slot was rewired, the record the link pointed at when it was set.
struct ModelSlot {
  uint32_t Key = 0;
  uint64_t Ver = 0;
  bool Linked = false;
  uint32_t LinkKey = 0;
  uint64_t LinkVer = 0;
};

/// A table plus its model, with the record shape derived per slot.
struct ModeledTable {
  Table T;
  std::vector<ModelSlot> Model;
  Shape RecordShape;

  void build(Ctx &C, uint32_t NumSlots, Shape S) {
    RecordShape = S;
    T.build(C, NumSlots);
    Model.assign(NumSlots, ModelSlot());
    for (uint32_t Slot = 0; Slot < NumSlots; ++Slot)
      store(C, Slot, Slot, 0);
  }

  /// A slot owned by worker \p Worker (slots are split by parity).
  uint32_t ownedSlot(Rng &R, unsigned Worker) const {
    return R.below(T.Slots / NumWorkers) * NumWorkers + Worker;
  }

  void store(Ctx &C, uint32_t Slot, uint32_t Key, uint64_t Ver) {
    ObjectRef Head = buildRecord(C, Key, Ver, RecordShape);
    T.set(C, Slot, Head);
    Model[Slot] = {Key, Ver, false, 0, 0};
  }

  bool check(const Ctx &C, uint32_t Slot) const {
    const ModelSlot &M = Model[Slot];
    ObjectRef Head = T.get(C, Slot);
    if (!checkRecord(C, Head, M.Key, M.Ver, RecordShape))
      return false;
    ObjectRef Link = C.read(Head, 1);
    if (!M.Linked)
      return Link == NullRef;
    return checkHead(C, Link, M.LinkKey, M.LinkVer, RecordShape);
  }

  /// Points the link of \p From's record at the record in \p To of
  /// \p Target (a table of the same record shape).
  void rewire(Ctx &C, uint32_t From, const ModeledTable &Target,
              uint32_t To) {
    C.write(T.get(C, From), 1, Target.T.get(C, To));
    ModelSlot &M = Model[From];
    M.Linked = true;
    M.LinkKey = Target.Model[To].Key;
    M.LinkVer = Target.Model[To].Ver;
  }

  /// Checks every slot.
  uint64_t verifyAll(const Ctx &C) const {
    uint64_t Bad = 0;
    for (uint32_t Slot = 0; Slot < T.Slots; ++Slot)
      Bad += !check(C, Slot);
    return Bad;
  }

  void corruptOne(Ctx &C) {
    ObjectRef Node = C.read(T.get(C, 0), 0);
    gengc::storeDataWord(*C.H, Node, 0,
                         gengc::loadDataWord(*C.H, Node, 0) ^ 1u);
  }
};

/// Versions of records built by operation I are I + 1; set-up records
/// have version 0.
uint64_t versionOf(uint64_t Index) { return Index + 1; }

/// Keys of temporary structures, outside every table's key range.
constexpr uint32_t TempKeyBase = 0xF0000000u;

//===----------------------------------------------------------------------===//
// young-churn: short-lived lists over a small, rarely replaced old table.
//===----------------------------------------------------------------------===//

class YoungChurn final : public Workload {
public:
  static constexpr uint32_t OldSlots = 8192;
  static constexpr Shape OldShape{8, 8};
  static constexpr uint32_t ListsPerOp = 2;
  static constexpr uint32_t ReplaceOneIn = 128;

  explicit YoungChurn(uint64_t Seed) : Seed(Seed) {}

  uint64_t heapBytes() const override { return 64ull << 20; }

  void setup(Ctx &C) override { Old.build(C, OldSlots, OldShape); }

  bool op(Ctx &C, uint64_t Index) override {
    Rng R(hash3(Seed, Index, 1));
    bool Ok = true;
    uint64_t Ver = versionOf(Index);
    for (uint32_t L = 0; L < ListsPerOp; ++L) {
      Shape S{8 + R.below(24), 2 + R.below(8)};
      uint32_t Key = TempKeyBase + L;
      ObjectRef List = buildRecord(C, Key, Ver, S);
      C.M->pushRoot(List);
      Ok &= checkRecord(C, List, Key, Ver, S);
      C.M->popRoots(1);
    }
    Ok &= Old.check(C, Old.ownedSlot(R, C.Worker));
    if (R.chance(1, ReplaceOneIn)) {
      uint32_t Slot = Old.ownedSlot(R, C.Worker);
      Old.store(C, Slot, Slot, Ver);
    }
    C.coop();
    return Ok;
  }

  uint64_t verifyModel(Ctx &C) override { return Old.verifyAll(C); }

  void corruptOnePayloadWord(Ctx &C) override { Old.corruptOne(C); }

  std::string describe() const override {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "heap 64 MB; old table %u records x (head + %u nodes of %u "
                  "words); per op %u lists of 8-31 nodes x 2-9 words, 1 old "
                  "read, 1/%u ops replace an old record",
                  OldSlots, OldShape.Length, OldShape.Words, ListsPerOp,
                  ReplaceOneIn);
    return Buf;
  }

private:
  uint64_t Seed;
  ModeledTable Old;
};

//===----------------------------------------------------------------------===//
// old-cache: a large long-lived cache with misses and old-to-old rewiring.
//===----------------------------------------------------------------------===//

class OldCache final : public Workload {
public:
  static constexpr uint32_t Slots = 65536;
  static constexpr Shape RecordShape{8, 10};
  /// Key = slot + Slots * J with J = 0 for 85% of lookups, else 1..3.
  static constexpr uint32_t HomeKeyPercent = 85;
  static constexpr uint32_t LookupsPerOp = 4;
  static constexpr uint32_t RewireOneIn = 4; // per lookup
  /// Records built at set-up and never replaced: the targets of rewired
  /// links.  They are tenured by the set-up full collections, so every
  /// rewire stores a pointer to an old record whatever the thread timing.
  /// A cache record's age depends on when cycles ran, so linking to one
  /// would make an operation's store old-to-young or old-to-old by timing
  /// (and brings in the reclamation fault under "Faults found" in the
  /// README).
  static constexpr uint32_t AnchorSlots = 4096;

  explicit OldCache(uint64_t Seed) : Seed(Seed) {}

  uint64_t heapBytes() const override { return 56ull << 20; }

  void setup(Ctx &C) override {
    Cache.build(C, Slots, RecordShape);
    Anchors.build(C, AnchorSlots, RecordShape);
  }

  bool op(Ctx &C, uint64_t Index) override {
    Rng R(hash3(Seed, Index, 2));
    bool Ok = true;
    for (uint32_t L = 0; L < LookupsPerOp; ++L) {
      uint32_t Slot = Cache.ownedSlot(R, C.Worker);
      uint32_t J = R.chance(HomeKeyPercent, 100) ? 0 : 1 + R.below(3);
      uint32_t Key = Slot + Slots * J;
      if (Cache.Model[Slot].Key == Key)
        Ok &= Cache.check(C, Slot);
      else
        Cache.store(C, Slot, Key, versionOf(Index));
      if (R.chance(1, RewireOneIn))
        Cache.rewire(C, Cache.ownedSlot(R, C.Worker), Anchors,
                     R.below(AnchorSlots));
    }
    C.coop();
    return Ok;
  }

  uint64_t verifyModel(Ctx &C) override {
    return Cache.verifyAll(C) + Anchors.verifyAll(C);
  }

  void corruptOnePayloadWord(Ctx &C) override { Cache.corruptOne(C); }

  std::string describe() const override {
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "heap 56 MB; cache %u records x (head + %u nodes of %u "
                  "words); %u lookups per op, key = slot + %u*J, J=0 for "
                  "%u%% of lookups else 1..3 (miss -> new record); 1/%u "
                  "lookups rewire a cache record's link to one of %u "
                  "anchor records",
                  Slots, RecordShape.Length, RecordShape.Words, LookupsPerOp,
                  Slots, HomeKeyPercent, RewireOneIn, AnchorSlots);
    return Buf;
  }

private:
  uint64_t Seed;
  ModeledTable Cache;
  ModeledTable Anchors;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "young-churn")
    return std::make_unique<YoungChurn>(Seed);
  if (Name == "old-cache")
    return std::make_unique<OldCache>(Seed);
  return nullptr;
}

} // namespace pb
