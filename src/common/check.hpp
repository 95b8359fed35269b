// Always-on invariant checks. A cycle-level simulator silently producing
// wrong timing is worse than one that aborts, so these stay enabled in
// release builds; the hot path uses them sparingly.
//
// These macros are for *simulator* invariants only — conditions that can
// never fail unless prosim itself is buggy. Conditions a simulated program
// or configuration can trigger (deadlock, livelock, out-of-range accesses,
// invalid programs) must use PROSIM_REQUIRE (common/sim_error.hpp), which
// throws a recoverable SimException instead of aborting.
#pragma once

#include <cstdio>
#include <cstdlib>

#define PROSIM_CHECK(cond)                                                   \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "PROSIM_CHECK failed: %s at %s:%d\n", #cond,      \
                   __FILE__, __LINE__);                                      \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define PROSIM_CHECK_MSG(cond, msg)                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "PROSIM_CHECK failed: %s (%s) at %s:%d\n", #cond, \
                   msg, __FILE__, __LINE__);                                 \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// PROSIM_DEBUG_CHECKS turns on self-checks too costly for the hot path of a
// release build, such as re-deriving incrementally kept state from scratch
// every cycle. Debug builds define it here; sanitized builds get it from
// CMake (PROSIM_SANITIZE), so the sanitizer runs of the test suite use it.
#if !defined(NDEBUG) && !defined(PROSIM_DEBUG_CHECKS)
#define PROSIM_DEBUG_CHECKS
#endif
