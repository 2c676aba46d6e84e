// The committed output referee: expected digest per request key
// (referee.tsv, "key<TAB>digest" lines, '#' comments).  A reply whose digest
// differs from — or whose key is missing in — the referee is a failure and
// counts against the run's error rate.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "digest.hpp"

namespace gcrbench {

class Referee {
 public:
  static std::optional<Referee> load(const std::string& path,
                                     std::string* error);

  /// True iff `key` is known and its expected digest equals `actual`.
  bool matches(const std::string& key, Digest actual) const;

  void set(const std::string& key, Digest d) { expected_[key] = d; }
  std::size_t size() const { return expected_.size(); }
  bool write(const std::string& path) const;

 private:
  std::map<std::string, Digest> expected_;
};

}  // namespace gcrbench
