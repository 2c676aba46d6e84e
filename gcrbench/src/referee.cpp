#include "referee.hpp"

#include <fstream>
#include <stdexcept>

namespace gcrbench {

std::optional<Referee> Referee::load(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open referee " + path;
    return std::nullopt;
  }
  Referee r;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    std::size_t used = 0;
    Digest d = 0;
    try {
      if (tab == std::string::npos || line.size() - tab - 1 != 16)
        throw std::invalid_argument("shape");
      d = std::stoull(line.substr(tab + 1), &used, 16);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != 16) {
      *error = path + ":" + std::to_string(lineNo) + ": malformed line";
      return std::nullopt;
    }
    r.expected_[line.substr(0, tab)] = d;
  }
  if (r.expected_.empty()) {
    *error = "referee " + path + " is empty";
    return std::nullopt;
  }
  return r;
}

bool Referee::matches(const std::string& key, Digest actual) const {
  const auto it = expected_.find(key);
  return it != expected_.end() && it->second == actual;
}

bool Referee::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# gcrbench referee: digest of the deterministic fields of each\n"
         "# reply (see src/digest.cpp).  Regenerate with\n"
         "#   python3 gcrbench/run.py --write-referee\n"
         "# only when a change is meant to alter simulated outputs.\n";
  for (const auto& [key, d] : expected_) out << key << '\t' << hex(d) << '\n';
  return static_cast<bool>(out);
}

}  // namespace gcrbench
