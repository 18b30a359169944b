#ifndef HYPO_ENGINE_VM_EXECUTOR_H_
#define HYPO_ENGINE_VM_EXECUTOR_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "db/database.h"
#include "db/overlay.h"
#include "engine/binding.h"
#include "engine/vm/bytecode.h"

namespace hypo {
namespace vm {

/// Cursor state for one kScan op: up to kMaxSegments storage segments
/// (base database, derived model, overlay additions, DRed vis_plus),
/// visited in order — or, for a kCall op, the call's answer table.
/// Segments are declared at open time but each one is probed lazily when
/// the cursor first reaches it, only after the previous segment is
/// exhausted: the probe counters count only segments actually reached,
/// and a model that grows while scanned is bounded when its segment is
/// first probed.
struct ScanState {
  static constexpr int kMaxSegments = 4;

  struct Segment {
    enum class Kind : uint8_t { kNone, kDb, kAdded, kAnswers };
    Kind kind = Kind::kNone;
    const Database* db = nullptr;               // kDb
    const OverlayDatabase* overlay = nullptr;   // kAdded
    bool opened = false;
    Database::Scan scan;                        // kDb
    const std::vector<Tuple>* all = nullptr;    // kAdded
    const std::vector<RowId>* subset = nullptr; // kAdded, mask != 0
    const std::vector<ConstId>* answers = nullptr;  // kAnswers, row-major
    size_t pos = 0;
  };

  Segment segs[kMaxSegments];
  int num_segs = 0;
  int cur = 0;
  Tuple key;  // Probe-key scratch, rebuilt on every open.

  void Clear() {
    num_segs = 0;
    cur = 0;
  }
  /// Segments are reset field-by-field, NOT `s = Segment{}`: `scan`
  /// carries the cursor's relation/index binding cache across re-opens
  /// (inner joins re-open once per outer row; Scan::Open revalidates
  /// the binding itself), so it must survive the reset.
  void AddDb(const Database* db) {
    Segment& s = segs[num_segs++];
    s.kind = Segment::Kind::kDb;
    s.db = db;
    s.opened = false;
  }
  void AddOverlay(const OverlayDatabase* overlay) {
    Segment& s = segs[num_segs++];
    s.kind = Segment::Kind::kAdded;
    s.overlay = overlay;
    s.opened = false;
    s.all = nullptr;
    s.subset = nullptr;
    s.pos = 0;
  }
  /// A kCall answer table: rows of the op's arity, row-major. The vector
  /// must outlive the scan; it may grow while the scan is suspended.
  void AddAnswers(const std::vector<ConstId>* answers) {
    Segment& s = segs[num_segs++];
    s.kind = Segment::Kind::kAnswers;
    s.answers = answers;
    s.pos = 0;
  }
};

struct OpState {
  ScanState scan;
  size_t enum_idx = 0;
};

/// Reusable execution frames, one per live Run nesting level. Delta
/// fixpoints call Run once per rule per round with only a handful of ops
/// each, so allocating the register file, the per-op scan states, and
/// the negation-probe binding on every call dominates those rounds. A
/// stack keyed by nesting depth keeps each vector's capacity warm across
/// calls while nested runs (hypothetical sub-fixpoints, tabled subproofs
/// re-entering on the same thread) still get a frame of their own. Not
/// thread-safe: stacks live in engines, which serve one query at a
/// time.
class FrameStack {
 public:
  struct Frame {
    std::vector<ConstId> regs;
    std::vector<OpState> states;
    Binding neg{0};  // kNegProbe scratch; all-unbound between uses.
  };

  /// Borrows the frame for the next nesting level: `num_vars` registers
  /// reset to kUnbound, the negation binding grown to match.
  Frame* Push(int num_vars) {
    if (frames_.size() <= depth_) {
      frames_.push_back(std::make_unique<Frame>());
    }
    Frame* f = frames_[depth_++].get();
    f->regs.assign(static_cast<size_t>(num_vars), kUnbound);
    f->neg.EnsureSize(num_vars);
    return f;
  }
  void Pop() { --depth_; }

 private:
  std::vector<std::unique_ptr<Frame>> frames_;
  size_t depth_ = 0;
};

/// RAII lease over FrameStack::Push/Pop.
class FrameLease {
 public:
  FrameLease(FrameStack* stack, int num_vars)
      : stack_(stack), frame_(stack->Push(num_vars)) {}
  ~FrameLease() { stack_->Pop(); }
  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;

  FrameStack::Frame* get() const { return frame_; }
  FrameStack::Frame* operator->() const { return frame_; }

 private:
  FrameStack* stack_;
  FrameStack::Frame* frame_;
};

/// Builds a kScan op's probe key from the registers.
inline void BuildKey(const Op& op, const std::vector<ConstId>& regs,
                     Tuple* key) {
  key->clear();
  for (const KeyAction& ka : op.key) {
    key->push_back(ka.from_reg ? regs[ka.operand]
                               : static_cast<ConstId>(ka.operand));
  }
}

/// Applies one action list to a candidate row. Loads write registers;
/// a failed check leaves any partial loads in place — they are provably
/// dead (every load is rewritten by the next candidate before any read,
/// and ops deeper in the program only read statically bound registers).
template <typename Row>
inline bool MatchActions(const std::vector<MatchAction>& actions,
                         const Row& row, ConstId* regs) {
  for (const MatchAction& a : actions) {
    const ConstId v = row[a.col];
    switch (a.kind) {
      case MatchAction::Kind::kCheckConst:
        if (v != a.operand) return false;
        break;
      case MatchAction::Kind::kCheckReg:
        if (v != regs[a.operand]) return false;
        break;
      case MatchAction::Kind::kLoadReg:
        regs[a.operand] = v;
        break;
    }
  }
  return true;
}

/// Runs `prog` against an engine host. Returns false iff the sink stopped
/// the enumeration early (by returning false), true when the program
/// enumerated to exhaustion.
///
/// The host supplies storage, engine callbacks and metering:
///   Status OpenScan(const Op&, const std::vector<ConstId>& regs,
///                   ScanState*);              // declare segments (kScan,
///                                             // and kCall: the answers)
///   bool AcceptRow(const Op&, const Row&);    // pre-match filter+counters
///   StatusOr<bool> TestGround(const Op&, const std::vector<ConstId>&);
///   StatusOr<bool> ProveCall(const Op&, const std::vector<ConstId>&);
///   StatusOr<bool> HypoTest(const Op&, const std::vector<ConstId>&);
///   StatusOr<bool> NegHolds(const Op&, std::vector<ConstId>&);  // premise
///   StatusOr<bool> Emit(const std::vector<ConstId>& regs);
///   const std::vector<ConstId>& Domain();
///   Status CountEnumeration();
///   void CountSorted(size_t rows);            // a sorted range served a
///                                             // base/model probe
///   void FlushOps(int64_t executed);          // vm_ops_executed delta
template <typename Host>
StatusOr<bool> Run(const Program& prog, Host* host,
                   std::vector<ConstId>* regs_vec,
                   std::vector<OpState>* states) {
  if (states->size() < prog.ops.size()) states->resize(prog.ops.size());
  ConstId* regs = regs_vec->data();
  struct Flusher {
    Host* host;
    int64_t executed = 0;
    ~Flusher() { host->FlushOps(executed); }
  } ops{host};

  int pc = 0;
  bool forward = true;
  while (pc >= 0) {
    const Op& op = prog.ops[pc];
    ++ops.executed;
    switch (op.code) {
      case OpCode::kScan:
      case OpCode::kCall: {
        ScanState& st = (*states)[pc].scan;
        if (forward) {
          st.Clear();
          BuildKey(op, *regs_vec, &st.key);
          HYPO_RETURN_IF_ERROR(host->OpenScan(op, *regs_vec, &st));
        }
        bool matched = false;
        for (; st.cur < st.num_segs && !matched; matched ? 0 : ++st.cur) {
          ScanState::Segment& seg = st.segs[st.cur];
          if (seg.kind == ScanState::Segment::Kind::kDb) {
            if (!seg.opened) {
              seg.scan.Open(*seg.db, op.pred, op.mask, st.key);
              seg.opened = true;
              if (seg.scan.sorted_range()) host->CountSorted(seg.scan.size());
            }
            const std::vector<MatchAction>& actions =
                seg.scan.index_served() ? op.post : op.full;
            while (!seg.scan.AtEnd()) {
              const RowRef row = seg.scan.CurrentRow();
              const bool ok = host->AcceptRow(op, row) &&
                              MatchActions(actions, row, regs);
              seg.scan.Next();
              if (ok) {
                matched = true;
                break;
              }
            }
          } else if (seg.kind == ScanState::Segment::Kind::kAnswers) {
            // Answers match the call's bound (masked) columns by
            // construction. Dynamic bound: a recursive call's table grows
            // while this scan is suspended, and the cursor follows it.
            while ((seg.pos + 1) * op.arity <= seg.answers->size()) {
              const ConstId* row = seg.answers->data() + seg.pos * op.arity;
              ++seg.pos;
              if (MatchActions(op.post, row, regs)) {
                matched = true;
                break;
              }
            }
          } else {
            if (!seg.opened) {
              seg.all = &seg.overlay->AddedTuplesFor(op.pred);
              if (op.mask != 0) {
                seg.subset =
                    seg.overlay->AddedProbe(op.pred, op.mask, st.key);
              }
              seg.pos = 0;
              seg.opened = true;
            }
            // Index-served additions already match the masked columns.
            const bool served = op.mask != 0;
            if (served && seg.subset == nullptr) continue;  // No bucket.
            const std::vector<MatchAction>& actions =
                served ? op.post : op.full;
            // Dynamic bound: proof frames may push/pop additions while
            // this scan is suspended, growing or trimming the tail.
            while (seg.pos <
                   (served ? seg.subset->size() : seg.all->size())) {
              const Tuple& row =
                  served ? (*seg.all)[(*seg.subset)[seg.pos]]
                         : (*seg.all)[seg.pos];
              ++seg.pos;
              if (host->AcceptRow(op, row) &&
                  MatchActions(actions, row, regs)) {
                matched = true;
                break;
              }
            }
          }
        }
        if (matched) {
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kEnumDomain: {
        size_t& idx = (*states)[pc].enum_idx;
        const std::vector<ConstId>& domain = host->Domain();
        if (forward) {
          idx = 0;
        } else {
          ++idx;
        }
        if (idx < domain.size()) {
          // Metered per candidate value; the check precedes the bind.
          HYPO_RETURN_IF_ERROR(host->CountEnumeration());
          regs[op.var] = domain[idx];
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kTestGround: {
        HYPO_ASSIGN_OR_RETURN(bool holds, host->TestGround(op, *regs_vec));
        if (holds) {
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kProveCall: {
        HYPO_ASSIGN_OR_RETURN(bool holds, host->ProveCall(op, *regs_vec));
        if (holds) {
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kHypoTest: {
        HYPO_ASSIGN_OR_RETURN(bool holds, host->HypoTest(op, *regs_vec));
        if (holds) {
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kNegGround:
      case OpCode::kNegProbe:
      case OpCode::kNegCall: {
        HYPO_ASSIGN_OR_RETURN(bool holds, host->NegHolds(op, *regs_vec));
        if (holds) {
          ++pc;
          forward = true;
        } else {
          pc = op.prev_choice;
          forward = false;
        }
        break;
      }
      case OpCode::kEmitHead: {
        HYPO_ASSIGN_OR_RETURN(bool keep, host->Emit(*regs_vec));
        if (!keep) return false;  // Sink stopped the enumeration.
        pc = op.prev_choice;
        forward = false;
        break;
      }
    }
  }
  return true;
}

}  // namespace vm
}  // namespace hypo

#endif  // HYPO_ENGINE_VM_EXECUTOR_H_
