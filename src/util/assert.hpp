// Precondition / invariant checking for the msrp library.
//
// MSRP_REQUIRE  — public-API precondition; always on; throws std::invalid_argument.
// MSRP_CHECK    — internal invariant; always on; throws std::logic_error.
// MSRP_DCHECK   — debug-only invariant; compiled out in NDEBUG builds.
//
// The exception text is "<kind> failed: <expr> — <msg>". It names no source
// file or line: the server sends it verbatim in batch ERROR frames, so it
// must not change when code moves or reveal where the server was built.
#pragma once

#include <stdexcept>
#include <string>

namespace msrp::detail {

inline std::string failure_text(const char* kind, const char* expr, const std::string& msg) {
  std::string text = std::string(kind) + " failed: " + expr;
  if (!msg.empty()) text += " — " + msg;
  return text;
}

[[noreturn]] inline void fail_require(const char* expr, const std::string& msg) {
  throw std::invalid_argument(failure_text("precondition", expr, msg));
}

[[noreturn]] inline void fail_check(const char* expr, const std::string& msg) {
  throw std::logic_error(failure_text("invariant", expr, msg));
}

}  // namespace msrp::detail

#define MSRP_REQUIRE(expr, msg)                                    \
  do {                                                             \
    if (!(expr)) ::msrp::detail::fail_require(#expr, (msg));      \
  } while (false)

#define MSRP_CHECK(expr, msg)                                      \
  do {                                                             \
    if (!(expr)) ::msrp::detail::fail_check(#expr, (msg));        \
  } while (false)

#ifdef NDEBUG
#define MSRP_DCHECK(expr, msg) \
  do {                         \
  } while (false)
#else
#define MSRP_DCHECK(expr, msg) MSRP_CHECK(expr, msg)
#endif
