// Lint fixture: every rule ompmca-lint enforces is violated here exactly
// once.  This file is NEVER compiled — it exists so tests/lint/lint_test.py
// can assert the linter reports each seeded violation exactly once and
// exits non-zero.  Keep the seed count in sync with lint_test.py.
#include <atomic>

#include "check/check.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"

namespace lint_fixture {

// seed 1 [ignored-status]: a (void)-discarded call with no reason comment.
inline void drop_status(ompmca::Status (*f)()) {
  (void)f();
}

// seed 2 [hook-parity]: an acquire whose class never sees a release here.
inline void acquire_only(void* obj) {
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, obj, 0);
}

// seed 3 [hook-parity]: a region enter with no matching exit.
inline void enter_only(void* region, void* team) {
  OMPMCA_CHECK_REGION_ENTER(region, team);
}

// seed 4 [fault-parity]: a fault point with no recovery hook anywhere in
// this fixture set and no fault-policy waiver.
inline bool unrecovered_point() {
  return OMPMCA_FAULT_POINT(kLintFixtureSite);
}

// seed 5 [no-tsa]: an opt-out with no tsa justification anywhere near it.

inline void naked_opt_out() OMPMCA_NO_TSA;

// seed 6 [env-knob]: a variable the fixture README's knob table does not
// list.  Its neighbour is listed and must stay silent; the table's stale
// row (a variable nothing here reads) is seed 7, reported in README.md.
inline bool read_knobs() {
  return ompmca::env_bool("OMPMCA_LINT_LISTED").value_or(false) ||
         ompmca::env_string("OMPMCA_LINT_UNLISTED").has_value();
}

}  // namespace lint_fixture
