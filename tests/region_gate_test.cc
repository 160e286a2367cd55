// Exhaustive interleavings of the RegionGate protocol (protect/region_gate.h).
//
// Each gate method is one atomic step, so a schedule is a sequence of
// steps of the actors below. The explorer runs an explicit-state search
// with a visited set over tiny model regions: two bytes per region and a
// one-byte codeword that must equal their XOR whenever no update window is
// open. Every gate step runs the real RegionGate on the model's word.
//
// It checks that no holder's verify and no accepted optimistic read sees
// bytes and codeword out of step, that no reachable state leaves every
// unfinished actor waiting, and that every finished schedule ends with
// matching codewords. Negative controls break one rule of the protocol at a
// time and require the search to catch it.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "protect/region_gate.h"

namespace cwdb {
namespace {

constexpr int kGates = 2;   // One model region per gate.
constexpr int kActors = 4;
constexpr uint8_t kDone = 0xFF;

struct State {
  uint64_t gate[kGates];
  uint64_t snap[kActors];        ///< Reader snapshots.
  uint8_t bytes[kGates][2];
  uint8_t cw[kGates];
  uint8_t pc[kActors];           ///< Phase; kDone when finished.
  uint8_t idx[kActors];          ///< Writer touch / reader attempt.
  uint8_t upd[kActors];          ///< Writer update number.
  uint8_t reg[kActors][4];       ///< Undo bytes, loaded codeword, reads.
  uint8_t pad[6];
};
static_assert(std::has_unique_object_representations_v<State>);

enum class Outcome { kWaiting, kMoved, kViolation };

/// Protocol rules a negative control may break.
struct Faults {
  bool holder_skips_drain = false;
  bool reader_skips_validate = false;
  bool fold_without_fold_bit = false;
};

/// What the search saw happen, for coverage assertions.
struct Events {
  uint64_t verifies = 0;
  uint64_t accepted_reads = 0;
  uint64_t rejected_reads = 0;
  uint64_t backouts = 0;
  std::string violation;
};

/// Runs `op` on a RegionGate holding `word` and stores the result back.
template <typename Op>
auto OnGate(uint64_t& word, Op op) {
  RegionGate gate(word);
  auto result = op(gate);
  word = gate.Snapshot();
  return result;
}

bool InStep(const State& s, int g) {
  return s.cw[g] == (s.bytes[g][0] ^ s.bytes[g][1]);
}

/// One byte written by an update; touches of one update are in ascending
/// gate order, at most one per gate.
struct Touch {
  int gate;
  int byte;
  uint8_t value;
};
struct Update {
  std::vector<Touch> touches;
  bool abort = false;
};

class Actor {
 public:
  virtual ~Actor() = default;
  virtual Outcome Step(State& s, int self, const Faults& f,
                       Events* ev) const = 0;
};

/// Join each gate, write, then per gate: take the fold bit, load and store
/// the codeword, leave. An aborted update restores its bytes and leaves
/// without folding.
class Writer : public Actor {
 public:
  explicit Writer(std::vector<Update> updates) : updates_(std::move(updates)) {}

  Outcome Step(State& s, int self, const Faults& f,
               Events* ev) const override {
    const Update& u = updates_[s.upd[self]];
    uint8_t& i = s.idx[self];
    uint8_t* reg = s.reg[self];
    const Touch& t = u.touches[i];
    uint64_t& word = s.gate[t.gate];
    const bool last = i + 1 == static_cast<int>(u.touches.size());
    switch (s.pc[self]) {
      case kJoin:
        if (OnGate(word, [](RegionGate& g) { return g.TryJoin(); })) {
          Next(s, self, last ? kWrite : kJoin, last ? 0 : i + 1);
        } else {
          s.pc[self] = kBackOut;
        }
        return Outcome::kMoved;
      case kBackOut:
        OnGate(word, [](RegionGate& g) { g.BackOut(); return 0; });
        ++ev->backouts;
        s.pc[self] = kWaitUnblocked;
        return Outcome::kMoved;
      case kWaitUnblocked:
        if ((word & RegionGate::kBlocked) != 0) return Outcome::kWaiting;
        s.pc[self] = kJoin;
        return Outcome::kMoved;
      case kWrite:
        reg[i] = s.bytes[t.gate][t.byte];
        s.bytes[t.gate][t.byte] = t.value;
        if (!last) {
          Next(s, self, kWrite, i + 1);
        } else {
          Next(s, self, u.abort ? kRestore : kFold, 0);
        }
        return Outcome::kMoved;
      case kRestore:
        s.bytes[t.gate][t.byte] = reg[i];
        Next(s, self, last ? kFold : kRestore, last ? 0 : i + 1);
        return Outcome::kMoved;
      case kFold:
        if (f.fold_without_fold_bit ||
            OnGate(word, [](RegionGate& g) { return g.TryTakeFold(); })) {
          s.pc[self] = u.abort ? kLeave : kLoadCw;
        } else {
          s.pc[self] = kWaitFold;
        }
        return Outcome::kMoved;
      case kWaitFold:
        if ((word & RegionGate::kFold) != 0) return Outcome::kWaiting;
        s.pc[self] = kFold;
        return Outcome::kMoved;
      case kLoadCw:
        reg[3] = s.cw[t.gate];
        s.pc[self] = kStoreCw;
        return Outcome::kMoved;
      case kStoreCw:
        s.cw[t.gate] = reg[3] ^ reg[i] ^ t.value;
        s.pc[self] = kLeave;
        return Outcome::kMoved;
      case kLeave:
        if (f.fold_without_fold_bit) {
          // Leave without the fold bit held: drop the writer only.
          word += RegionGate::kGeneration - RegionGate::kWriter;
        } else {
          OnGate(word, [](RegionGate& g) { g.Leave(); return 0; });
        }
        if (!last) {
          Next(s, self, kFold, i + 1);
        } else if (s.upd[self] + 1 < static_cast<int>(updates_.size())) {
          ++s.upd[self];
          Next(s, self, kJoin, 0);
        } else {
          s.pc[self] = kDone;
        }
        return Outcome::kMoved;
    }
    return Outcome::kViolation;
  }

 private:
  enum : uint8_t {
    kJoin, kBackOut, kWaitUnblocked, kWrite, kRestore, kFold, kWaitFold,
    kLoadCw, kStoreCw, kLeave
  };
  static void Next(State& s, int self, uint8_t pc, int idx) {
    s.pc[self] = pc;
    s.idx[self] = static_cast<uint8_t>(idx);
  }

  std::vector<Update> updates_;
};

/// Block, wait for the writers to drain, verify, unblock.
class Holder : public Actor {
 public:
  explicit Holder(int gate) : gate_(gate) {}

  Outcome Step(State& s, int self, const Faults& f,
               Events* ev) const override {
    uint64_t& word = s.gate[gate_];
    switch (s.pc[self]) {
      case kBlock:
        s.pc[self] = OnGate(word, [](RegionGate& g) { return g.TryBlock(); })
                         ? kDrain
                         : kWaitUnblocked;
        return Outcome::kMoved;
      case kWaitUnblocked:
        if ((word & RegionGate::kBlocked) != 0) return Outcome::kWaiting;
        s.pc[self] = kBlock;
        return Outcome::kMoved;
      case kDrain:
        if (!f.holder_skips_drain &&
            !OnGate(word, [](RegionGate& g) { return g.Drained(); })) {
          return Outcome::kWaiting;
        }
        s.pc[self] = kVerify;
        return Outcome::kMoved;
      case kVerify:
        ++ev->verifies;
        if (!InStep(s, gate_)) {
          ev->violation = "holder verified an open update window";
          return Outcome::kViolation;
        }
        s.pc[self] = kUnblock;
        return Outcome::kMoved;
      case kUnblock:
        OnGate(word, [](RegionGate& g) { g.Unblock(); return 0; });
        s.pc[self] = kDone;
        return Outcome::kMoved;
    }
    return Outcome::kViolation;
  }

 private:
  enum : uint8_t { kBlock, kWaitUnblocked, kDrain, kVerify, kUnblock };
  int gate_;
};

/// Snapshot, read both bytes and the codeword (racy), re-check; up to two
/// attempts.
class Reader : public Actor {
 public:
  explicit Reader(int gate) : gate_(gate) {}

  Outcome Step(State& s, int self, const Faults& f,
               Events* ev) const override {
    uint64_t& word = s.gate[gate_];
    uint8_t* reg = s.reg[self];
    switch (s.pc[self]) {
      case kSnapshot:
        s.snap[self] = OnGate(word, [](RegionGate& g) { return g.Snapshot(); });
        if (RegionGate::Quiet(s.snap[self])) {
          s.pc[self] = kRead0;
        } else {
          Retry(s, self);
        }
        return Outcome::kMoved;
      case kRead0:
        reg[0] = s.bytes[gate_][0];
        s.pc[self] = kRead1;
        return Outcome::kMoved;
      case kRead1:
        reg[1] = s.bytes[gate_][1];
        s.pc[self] = kReadCw;
        return Outcome::kMoved;
      case kReadCw:
        reg[2] = s.cw[gate_];
        s.pc[self] = kValidate;
        return Outcome::kMoved;
      case kValidate: {
        const uint64_t snap = s.snap[self];
        if (f.reader_skips_validate ||
            OnGate(word, [snap](RegionGate& g) { return g.Validate(snap); })) {
          ++ev->accepted_reads;
          if (reg[2] != (reg[0] ^ reg[1])) {
            ev->violation = "reader accepted a torn region";
            return Outcome::kViolation;
          }
          s.pc[self] = kDone;
        } else {
          ++ev->rejected_reads;
          Retry(s, self);
        }
        return Outcome::kMoved;
      }
    }
    return Outcome::kViolation;
  }

 private:
  enum : uint8_t { kSnapshot, kRead0, kRead1, kReadCw, kValidate };
  static void Retry(State& s, int self) {
    s.snap[self] = 0;
    s.reg[self][0] = s.reg[self][1] = s.reg[self][2] = 0;
    if (++s.idx[self] == 2) {
      s.pc[self] = kDone;
    } else {
      s.pc[self] = kSnapshot;
    }
  }
  int gate_;
};

struct Model {
  std::vector<const Actor*> actors;
  uint8_t initial[kGates][2];
  uint8_t expected[kGates][2];  ///< Bytes once every actor finished.
};

struct SearchResult {
  uint64_t states = 0;
  Events events;
};

SearchResult Explore(const Model& m, const Faults& faults) {
  SearchResult out;
  State init;
  std::memset(&init, 0, sizeof(init));
  for (int g = 0; g < kGates; ++g) {
    init.bytes[g][0] = m.initial[g][0];
    init.bytes[g][1] = m.initial[g][1];
    init.cw[g] = init.bytes[g][0] ^ init.bytes[g][1];
  }
  const int n = static_cast<int>(m.actors.size());
  for (int a = n; a < kActors; ++a) init.pc[a] = kDone;

  auto key = [](const State& s) {
    return std::string(reinterpret_cast<const char*>(&s), sizeof(s));
  };
  std::unordered_set<std::string> visited{key(init)};
  std::vector<State> stack{init};
  while (!stack.empty() && out.events.violation.empty()) {
    const State s = stack.back();
    stack.pop_back();
    ++out.states;
    bool unfinished = false;
    bool moved = false;
    for (int a = 0; a < n && out.events.violation.empty(); ++a) {
      if (s.pc[a] == kDone) continue;
      unfinished = true;
      State next = s;
      switch (m.actors[a]->Step(next, a, faults, &out.events)) {
        case Outcome::kWaiting:
          break;
        case Outcome::kViolation:
          if (out.events.violation.empty()) {
            out.events.violation = "bad program counter";
          }
          break;
        case Outcome::kMoved:
          moved = true;
          if (visited.insert(key(next)).second) stack.push_back(next);
          break;
      }
    }
    if (!out.events.violation.empty()) break;
    if (unfinished && !moved) {
      out.events.violation = "every unfinished actor is waiting";
    } else if (!unfinished) {
      for (int g = 0; g < kGates; ++g) {
        if (!InStep(s, g)) {
          out.events.violation = "codeword out of step at the end";
        } else if (s.bytes[g][0] != m.expected[g][0] ||
                   s.bytes[g][1] != m.expected[g][1]) {
          out.events.violation = "final bytes differ from the updates";
        }
      }
      for (int g = 0; g < kGates; ++g) {
        if (s.gate[g] & (RegionGate::kWriterMask | RegionGate::kFold |
                         RegionGate::kBlocked)) {
          out.events.violation = "gate not released at the end";
        }
      }
    }
  }
  return out;
}

// Two writers share gate 0 (one commits, then aborts a second update), one
// holder audits it and one optimistic reader prechecks it.
class OneGateModel {
 public:
  OneGateModel()
      : a_({Update{{Touch{0, 0, 0x5A}}, false}}),
        b_({Update{{Touch{0, 1, 0x0C}}, false},
            Update{{Touch{0, 1, 0x77}}, true}}),
        holder_(0),
        reader_(0) {
    model_.actors = {&a_, &b_, &holder_, &reader_};
    model_.initial[0][0] = 0x11;
    model_.initial[0][1] = 0x22;
    model_.expected[0][0] = 0x5A;
    model_.expected[0][1] = 0x0C;
    for (int i = 0; i < 2; ++i) {
      model_.initial[1][i] = model_.expected[1][i] = 0;
    }
  }
  const Model& model() const { return model_; }

 private:
  Writer a_, b_;
  Holder holder_;
  Reader reader_;
  Model model_;
};

// One writer spans gates 0 and 1; a second writer and a holder work on the
// higher gate, and a reader prechecks the lower one.
class TwoGateModel {
 public:
  TwoGateModel()
      : span_({Update{{Touch{0, 0, 0x31}, Touch{1, 0, 0x42}}, false}}),
        high_({Update{{Touch{1, 1, 0x53}}, false}}),
        holder_(1),
        reader_(0) {
    model_.actors = {&span_, &high_, &holder_, &reader_};
    const uint8_t init[kGates][2] = {{0x01, 0x02}, {0x03, 0x04}};
    const uint8_t want[kGates][2] = {{0x31, 0x02}, {0x42, 0x53}};
    std::memcpy(model_.initial, init, sizeof(init));
    std::memcpy(model_.expected, want, sizeof(want));
  }
  const Model& model() const { return model_; }

 private:
  Writer span_, high_;
  Holder holder_;
  Reader reader_;
  Model model_;
};

TEST(RegionGateExplorer, OneGateEveryInterleavingIsSafe) {
  OneGateModel m;
  SearchResult r = Explore(m.model(), Faults{});
  EXPECT_EQ(r.events.violation, "");
  EXPECT_GT(r.states, 1000u);
  // Coverage: every path of the protocol was exercised somewhere.
  EXPECT_GT(r.events.verifies, 0u);
  EXPECT_GT(r.events.accepted_reads, 0u);
  EXPECT_GT(r.events.rejected_reads, 0u);
  EXPECT_GT(r.events.backouts, 0u);
}

TEST(RegionGateExplorer, WriterSpanningTwoGatesIsSafe) {
  TwoGateModel m;
  SearchResult r = Explore(m.model(), Faults{});
  EXPECT_EQ(r.events.violation, "");
  EXPECT_GT(r.states, 1000u);
  EXPECT_GT(r.events.verifies, 0u);
  EXPECT_GT(r.events.accepted_reads, 0u);
  EXPECT_GT(r.events.backouts, 0u);
}

TEST(RegionGateExplorer, CatchesHolderThatSkipsTheDrain) {
  OneGateModel m;
  Faults f;
  f.holder_skips_drain = true;
  EXPECT_EQ(Explore(m.model(), f).events.violation,
            "holder verified an open update window");
}

TEST(RegionGateExplorer, CatchesReaderThatSkipsTheRecheck) {
  OneGateModel m;
  Faults f;
  f.reader_skips_validate = true;
  EXPECT_EQ(Explore(m.model(), f).events.violation,
            "reader accepted a torn region");
}

TEST(RegionGateExplorer, CatchesFoldsWithoutTheFoldBit) {
  OneGateModel m;
  Faults f;
  f.fold_without_fold_bit = true;
  EXPECT_EQ(Explore(m.model(), f).events.violation,
            "codeword out of step at the end");
}

// -- The word's arithmetic, one step at a time. --

TEST(RegionGate, LeaveDropsWriterAndFoldAndBumpsGeneration) {
  RegionGate g;
  ASSERT_TRUE(g.TryJoin());
  ASSERT_TRUE(g.TryJoin());
  ASSERT_TRUE(g.TryTakeFold());
  EXPECT_FALSE(g.TryTakeFold());
  g.Leave();
  EXPECT_EQ(g.Snapshot(), RegionGate::kGeneration + 1);
  ASSERT_TRUE(g.TryTakeFold());
  g.Leave();
  EXPECT_EQ(g.Snapshot(), 2 * RegionGate::kGeneration);
  EXPECT_TRUE(RegionGate::Quiet(g.Snapshot()));
}

TEST(RegionGate, BlockedGateTurnsWritersAwayUntilUnblock) {
  RegionGate g;
  ASSERT_TRUE(g.TryBlock());
  EXPECT_FALSE(g.TryBlock());
  EXPECT_TRUE(g.Drained());
  EXPECT_FALSE(g.TryJoin());
  EXPECT_FALSE(g.Drained());  // The joiner has not backed out yet.
  g.BackOut();
  EXPECT_TRUE(g.Drained());
  const uint64_t snap = g.Snapshot();
  EXPECT_FALSE(RegionGate::Quiet(snap));
  g.Unblock();
  EXPECT_FALSE(g.Validate(snap));
  EXPECT_EQ(g.Snapshot(), RegionGate::kGeneration);
  EXPECT_TRUE(g.TryJoin());
}

}  // namespace
}  // namespace cwdb
