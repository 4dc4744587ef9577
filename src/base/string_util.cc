#include "base/string_util.h"

#include <cctype>

namespace omqc {

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  return JoinMapped(parts, sep, [](const std::string& s) { return s; });
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace omqc
