// Lint fixture (never compiled): a fully compliant file exercising every
// construct the linter inspects — the clean-tree run must exit 0.
#include <atomic>

#include "check/check.hpp"
#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"

namespace lint_fixture {

inline void drop_status_with_reason(ompmca::Status (*f)()) {
  (void)f();  // fixture: outcome deliberately irrelevant
}

inline void paired_hooks(void* obj, void* region, void* team) {
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, obj, 0);
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiMutex, obj);
  OMPMCA_CHECK_REGION_ENTER(region, team);
  OMPMCA_CHECK_REGION_EXIT(region, team);
}

inline bool recovered_point() {
  bool hit = OMPMCA_FAULT_POINT(kLintFixtureSite);
  if (!hit) OMPMCA_FAULT_RECOVERED(kLintFixtureSite, 1);
  return hit;
}

inline bool waived_point() {
  // fault-policy: caller-handled — fixture demonstrating the waiver form.
  return OMPMCA_FAULT_POINT(kLintFixtureWaived);
}

inline int justified_seq_cst(std::atomic<int>& a) {
  // seq_cst: fixture — demonstrates the justification-comment form.
  return a.load(std::memory_order_seq_cst);
}

// Read through a multi-line call; README.md's knob table lists it.
inline long listed_knob() {
  return ompmca::env_long_clamped(
             "OMPMCA_LINT_CLEAN_KNOB", 0, 100)
      .value_or(0);
}

// tsa: fixture — demonstrates the opt-out justification form.
inline void justified_opt_out() OMPMCA_NO_TSA;

}  // namespace lint_fixture
