// Minimal assertion macros for the dependency-free unit tests: a failed
// CHECK prints the expression and location and exits non-zero (which is
// what ctest keys on).

#pragma once

#include <cstdio>
#include <cstdlib>

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CHECK failed: %s  (%s:%d)\n", #cond,        \
                   __FILE__, __LINE__);                                 \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                           \
  do {                                                                  \
    const double check_a_ = (a);                                        \
    const double check_b_ = (b);                                        \
    const double check_t_ = (tol);                                      \
    if (!((check_a_ - check_b_ <= check_t_) &&                          \
          (check_b_ - check_a_ <= check_t_))) {                         \
      std::fprintf(stderr,                                              \
                   "CHECK_NEAR failed: %s = %g vs %s = %g, tol %g  "    \
                   "(%s:%d)\n",                                         \
                   #a, check_a_, #b, check_b_, check_t_, __FILE__,      \
                   __LINE__);                                           \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

// Passes iff evaluating `expr` throws an exception of type `type`.
#define CHECK_THROWS(expr, type)                                        \
  do {                                                                  \
    bool check_thrown_ = false;                                         \
    try {                                                               \
      (void)(expr);                                                     \
    } catch (const type&) {                                             \
      check_thrown_ = true;                                             \
    }                                                                   \
    if (!check_thrown_) {                                               \
      std::fprintf(stderr, "CHECK_THROWS failed: %s did not throw %s  " \
                   "(%s:%d)\n", #expr, #type, __FILE__, __LINE__);      \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)
