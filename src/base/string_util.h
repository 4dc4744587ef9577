// String helpers shared across omqc modules.

#ifndef OMQC_BASE_STRING_UTIL_H_
#define OMQC_BASE_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace omqc {

/// Joins the elements of `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Joins `items` with `sep`, stringifying each item with `fn`.
template <typename Container, typename Fn>
std::string JoinMapped(const Container& items, std::string_view sep, Fn fn) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    out += fn(item);
  }
  return out;
}

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// printf-lite: concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace omqc

#endif  // OMQC_BASE_STRING_UTIL_H_
