#include "conf/strict_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace bcsim::conf {

std::uint64_t parse_u64(const std::string& what, const std::string& s, std::uint64_t min,
                        std::uint64_t max) {
  const bool looks_numeric =
      !s.empty() && std::isdigit(static_cast<unsigned char>(s[0])) != 0;
  if (looks_numeric) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end == '\0' && errno != ERANGE) {
      if (v < min || v > max) {
        throw UsageError(what + " " + s + " is out of range [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]");
      }
      return v;
    }
  }
  throw UsageError(what + " expects a non-negative integer, got '" + s + "'");
}

void split_list(const std::string& list,
                const std::function<void(const std::string&)>& each) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    each(list.substr(pos,
                     comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

std::size_t name_index(std::string_view what, std::string_view name,
                       std::span<const std::string_view> names) {
  std::string list;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
    list += (i == 0 ? "" : ", ") + std::string(names[i]);
  }
  throw UsageError(std::string(what) + " '" + std::string(name) + "' is not one of {" + list +
                   "}");
}

}  // namespace bcsim::conf
