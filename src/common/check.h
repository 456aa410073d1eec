#ifndef POSTBLOCK_COMMON_CHECK_H_
#define POSTBLOCK_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace postblock {

/// Reports a failed PB_CHECK and aborts. Out of line from the check
/// site's fast path (cold, noreturn), so a passing check costs one
/// predicted branch.
[[noreturn, gnu::cold]] inline void CheckFailed(const char* file, int line,
                                                const char* cond,
                                                const char* msg) {
  std::fprintf(stderr, "%s:%d: check failed: %s: %s\n", file, line, cond,
               msg);
  std::fflush(stderr);
  std::abort();
}

}  // namespace postblock

/// A contract that holds in every build type. Unlike `assert`, NDEBUG
/// does not strip it: when `cond` is false the process prints
/// `file:line`, the condition and `msg` to stderr, then aborts. For
/// O(1) seam contracts (sharded-engine lookahead, shard ownership of
/// a plan) whose violation would silently corrupt a schedule; per-event
/// invariants on the single-threaded core stay `assert`s.
#define PB_CHECK(cond, msg)                                         \
  do {                                                              \
    if (__builtin_expect(!(cond), 0)) {                             \
      ::postblock::CheckFailed(__FILE__, __LINE__, #cond, (msg));   \
    }                                                               \
  } while (0)

#endif  // POSTBLOCK_COMMON_CHECK_H_
