// check.h -- lightweight runtime-check macros used across the library.
//
// DASH_CHECK is always on (it guards logic errors that would silently
// corrupt an experiment); DASH_DCHECK compiles out in NDEBUG builds and is
// used on hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace dash::util {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "DASH_CHECK failed: %s at %s:%d%s%s\n", expr, file,
               line, msg[0] ? " -- " : "", msg);
  std::abort();
}

}  // namespace dash::util

// The file a failed check names: its basename where the compiler has
// __FILE_NAME__ (GCC 12 and later, Clang 9 and later), so the path of
// the checkout a binary was built in never enters it; the full
// __FILE__ on older compilers.
#ifdef __FILE_NAME__
#define DASH_CHECK_FILE __FILE_NAME__
#else
#define DASH_CHECK_FILE __FILE__
#endif

#define DASH_CHECK(expr)                                                  \
  do {                                                                    \
    if (!(expr))                                                          \
      ::dash::util::check_failed(#expr, DASH_CHECK_FILE, __LINE__, "");   \
  } while (0)

#define DASH_CHECK_MSG(expr, msg)                                         \
  do {                                                                    \
    if (!(expr))                                                          \
      ::dash::util::check_failed(#expr, DASH_CHECK_FILE, __LINE__, msg);  \
  } while (0)

#ifdef NDEBUG
#define DASH_DCHECK(expr) ((void)0)
#else
#define DASH_DCHECK(expr) DASH_CHECK(expr)
#endif
