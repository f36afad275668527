// Deliberately injected bugs for mutation-testing the fuzzer (DESIGN.md
// §15). Each enumerator re-introduces one specific, historically plausible
// defect; a run selects one through RunContext::injected_bug, and
// tests/fuzz_test.cpp asserts rtds_fuzz finds and shrinks each within a
// pinned seed budget. kNone (the default) must keep every code path
// bit-identical to the unhooked build — the golden determinism digests
// pin that.
#pragma once

namespace rtds::fault {

enum class InjectedBug {
  kNone,
  /// Dedup-window boundary off-by-one: every 8th fresh sequence is
  /// misreported as already seen, so legitimate protocol messages are
  /// silently dropped (a lost dispatch leaves a guaranteed job short of
  /// its tasks — the end-of-run completion invariant).
  kDedupFalsePositive,
  /// Incremental routing repair under-dirties by one ring: stale routes
  /// survive at the ball edge (repair-consistency / repair-divergence).
  kRepairRadiusOffByOne,
  /// crash() forgets to drop the local PCS lock: the dead site still
  /// "holds" it when the run drains (lock-conservation).
  kCrashKeepsLock,
};

}  // namespace rtds::fault
