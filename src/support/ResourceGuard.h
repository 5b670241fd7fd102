//===- support/ResourceGuard.h - Budgets, guards, fault injection ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The robustness contract of the pipeline (DESIGN.md, "Robustness
/// contract"): no input may crash or hang an analysis. Every layer —
/// parser, CFG builder, dominators, control dependence, reaching
/// definitions, the slicing traversals, and the interpreter — polls one
/// ResourceGuard at its checkpoints; when a Budget dimension is
/// exhausted the layer stops early and the failure surfaces as a Diag
/// of kind DiagKind::ResourceExhausted through the usual ErrorOr
/// plumbing. Degradation is deterministic: the same input under the
/// same budget trips the same checkpoint.
///
/// FaultInjection is the test hook that proves the error paths work: it
/// deterministically fails the Nth checkpoint process-wide, letting a
/// test (tests/FaultInjectionTest.cpp) iterate every site the pipeline
/// passes through and assert clean failure plus clean recovery.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_RESOURCEGUARD_H
#define JSLICE_SUPPORT_RESOURCEGUARD_H

#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace jslice {

/// Resource limits for one analysis pipeline. A zero in any dimension
/// means "unlimited" for that dimension; the default Budget bounds only
/// nesting depth (the one dimension whose exhaustion mode — stack
/// overflow in the recursive-descent parser — cannot be survived).
struct Budget {
  /// Maximum nesting depth of statements and expressions in the parser.
  /// Bounds recursion frames, so it must stay well under the platform
  /// stack limit; 0 means the generous built-in default still applies
  /// (there is no truly unlimited setting for recursion).
  unsigned MaxNestingDepth = 0;

  /// Maximum CFG nodes built for one program (0 = unlimited).
  uint64_t MaxNodes = 0;

  /// Maximum guard checkpoints over the whole pipeline — a portable
  /// proxy for CPU work across parsing, dataflow fixpoints, slicing
  /// traversals, and interpretation (0 = unlimited).
  uint64_t MaxSteps = 0;

  /// Soft wall-clock deadline in milliseconds, measured from guard
  /// construction and polled every PollStride checkpoints
  /// (0 = no deadline).
  uint64_t DeadlineMs = 0;

  /// How many checkpoints pass between deadline (and cancellation)
  /// polls. Clock reads are much more expensive than the counter
  /// bump, so the guard only looks at the wall between strides — but a
  /// phase with expensive work *between* checkpoints can overshoot the
  /// deadline by up to (stride - 1) checkpoints' worth of it. Latency-
  /// sensitive callers (the slicing service) tighten this; 0 means the
  /// built-in default. Rounded up to a power of two.
  uint64_t PollStride = 0;

  /// External cancellation flag, polled on the same stride as the
  /// deadline; when it reads true the guard trips at the next poll
  /// ("cancelled at <site>"). Not owned; must outlive every guard built
  /// from this budget. The slicing service points one per-request flag
  /// here so `{"cancel": id}` can stop an in-flight analysis.
  const std::atomic<bool> *Cancel = nullptr;

  /// The nesting depth enforced when MaxNestingDepth is 0.
  static constexpr unsigned DefaultNestingDepth = 250;

  /// The poll stride enforced when PollStride is 0 (the historical
  /// `Steps & 255` cadence).
  static constexpr uint64_t DefaultPollStride = 256;

  unsigned effectiveNestingDepth() const {
    return MaxNestingDepth ? MaxNestingDepth : DefaultNestingDepth;
  }

  /// The stride actually used: PollStride (or the default) rounded up
  /// to the next power of two, so the hot path can mask instead of
  /// divide.
  uint64_t effectivePollStride() const {
    uint64_t S = PollStride ? PollStride : DefaultPollStride;
    uint64_t P = 1;
    while (P < S)
      P <<= 1;
    return P;
  }

  /// Everything unlimited except the recursion backstop.
  static Budget unlimited() { return Budget(); }

  /// The stress harness's adversarial setting: small enough that deep
  /// or loop-heavy programs degrade, large enough that typical
  /// generator output completes.
  static Budget tight() {
    Budget B;
    B.MaxNestingDepth = 48;
    B.MaxNodes = 4096;
    B.MaxSteps = 2000000;
    B.DeadlineMs = 2000;
    return B;
  }
};

/// Deterministic process-wide fault hook. When armed at ordinal N, the
/// Nth ResourceGuard checkpoint after arming fails as if its budget had
/// been exhausted. The counters are atomic so concurrent guards (the
/// slicing service runs one per in-flight request) may checkpoint
/// freely, but arming is only *deterministic* when a single pipeline
/// runs between arm() and the trip — fault-sweep drivers serialize
/// their requests. Tests arm it through the RAII ScopedArm.
///
/// The observing rule: checkpoints are counted only once the process
/// has called arm() or resetCount(). The first such call sets a sticky
/// flag; until then shouldFail() returns false after one relaxed load,
/// so a process that never injects faults pays no shared-counter write
/// per checkpoint. Counts since the last arm()/resetCount() — every
/// ordinal a sweep iterates — are the same as if every checkpoint were
/// counted; a checkpoint racing with the first arm()/resetCount() on
/// another thread may go uncounted, as it could be reset away anyway.
class FaultInjection {
public:
  /// Arms the hook: the \p FailAtCheckpoint-th checkpoint (1-based)
  /// observed from now on fails. Resets the observation counter.
  static void arm(uint64_t FailAtCheckpoint);

  /// Disarms the hook; checkpoints keep being counted (once observing).
  static void disarm();

  static bool armed();

  /// Checkpoints observed since the last arm()/resetCount().
  static uint64_t observedCheckpoints();

  /// Restarts the observation counter (for a counting pass that sizes
  /// a pipeline before iterating injection ordinals).
  static void resetCount();

  /// The guard's question: should the checkpoint at \p Site, the
  /// \p SiteCount-th at that site, fail now? Counts every call once
  /// observing (see the observing rule above).
  static bool shouldFail(const char *Site, uint64_t SiteCount) {
    if (!Observing.load(std::memory_order_relaxed))
      return false;
    return countAndTest(Site, SiteCount);
  }

  /// The site name of the checkpoint that last tripped (empty if none).
  static const char *trippedSite();

  /// RAII arming for tests.
  struct ScopedArm {
    explicit ScopedArm(uint64_t FailAtCheckpoint) { arm(FailAtCheckpoint); }
    ~ScopedArm() { disarm(); }
    ScopedArm(const ScopedArm &) = delete;
    ScopedArm &operator=(const ScopedArm &) = delete;
  };

private:
  static bool countAndTest(const char *Site, uint64_t SiteCount);

  static std::atomic<bool> Observing; // Sticky: set by arm()/resetCount().
  static std::atomic<uint64_t> FailAt; // 0 = disarmed.
  static std::atomic<uint64_t> Count;
  static std::atomic<const char *> LastSite;
};

/// One pipeline's running resource meter. Layers call checkpoint() (and
/// countNode() for memory-shaped growth); once any dimension is
/// exhausted the guard latches and every later checkpoint fails fast,
/// so partial phases cannot keep burning budget.
class ResourceGuard {
public:
  ResourceGuard() : ResourceGuard(Budget()) {}
  explicit ResourceGuard(const Budget &B)
      : B(B), StrideMask(B.effectivePollStride() - 1),
        Start(std::chrono::steady_clock::now()) {}

  const Budget &budget() const { return B; }

  /// Polls the guard at \p Site. Returns false — permanently, for every
  /// subsequent call — when the step budget, the deadline, an external
  /// cancellation, or an armed fault injection trips.
  bool checkpoint(const char *Site) {
    if (Exhausted)
      return false;
    ++Steps;
    if (FaultInjection::shouldFail(Site, Steps))
      return trip(Site, "injected fault");
    if (B.MaxSteps && Steps > B.MaxSteps)
      return trip(Site, "step budget exhausted");
    if ((Steps & StrideMask) == 0) {
      if (B.Cancel && B.Cancel->load(std::memory_order_relaxed))
        return trip(Site, "cancelled");
      if (B.DeadlineMs && pastDeadline())
        return trip(Site, "deadline exceeded");
    }
    return true;
  }

  /// Charges \p N checkpoints' worth of steps at \p Site in one call —
  /// the batch engine's per-thread shards flush their locally-counted
  /// checkpoints through this, so the shared guard mutex is taken once
  /// per flush instead of once per checkpoint. A bulk charge is one
  /// fault-injection observation and always polls the deadline and the
  /// cancellation flag (it arrives at stride-sized batches already, so
  /// the per-checkpoint stride mask would be redundant).
  bool charge(uint64_t N, const char *Site) {
    if (Exhausted)
      return false;
    if (N == 0)
      return true;
    Steps += N;
    if (FaultInjection::shouldFail(Site, Steps))
      return trip(Site, "injected fault");
    if (B.MaxSteps && Steps > B.MaxSteps)
      return trip(Site, "step budget exhausted");
    if (B.Cancel && B.Cancel->load(std::memory_order_relaxed))
      return trip(Site, "cancelled");
    if (B.DeadlineMs && pastDeadline())
      return trip(Site, "deadline exceeded");
    return true;
  }

  /// checkpoint() plus the node-count dimension (call once per CFG or
  /// dependence-graph node built).
  bool countNode(const char *Site) {
    if (!checkpoint(Site))
      return false;
    ++Nodes;
    if (B.MaxNodes && Nodes > B.MaxNodes)
      return trip(Site, "node budget exhausted");
    return true;
  }

  bool exhausted() const { return Exhausted; }
  uint64_t steps() const { return Steps; }
  uint64_t nodes() const { return Nodes; }

  /// "step budget exhausted at slicer.traversal" — empty until tripped.
  const std::string &reason() const { return Reason; }

  /// The exhaustion as a diagnostic, classified ResourceExhausted.
  Diag toDiag(SourceLoc Loc = SourceLoc()) const {
    return Diag(Loc, Reason.empty() ? "resource budget exhausted" : Reason,
                DiagKind::ResourceExhausted);
  }

private:
  bool pastDeadline() const {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - Start);
    return static_cast<uint64_t>(Elapsed.count()) >= B.DeadlineMs;
  }

  bool trip(const char *Site, const char *What) {
    Exhausted = true;
    Reason = std::string(What) + " at " + Site;
    return false;
  }

  Budget B;
  uint64_t StrideMask = 0;
  uint64_t Steps = 0;
  uint64_t Nodes = 0;
  bool Exhausted = false;
  std::string Reason;
  std::chrono::steady_clock::time_point Start;
};

} // namespace jslice

#endif // JSLICE_SUPPORT_RESOURCEGUARD_H
