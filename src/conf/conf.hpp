// Declarative machine/workload configuration files (docs/CONFIGS.md).
//
// The format follows the layered-`.conf` idiom of execution-driven
// simulators (SESC and descendants): INI-style sections, `include "file"`
// sharing with later-assignment-wins layering, integer/boolean parameter
// expressions with `$(key)` references, and `-k key=value` command-line
// overrides applied last. A parsed file resolves into a flat Table of
// `section.key -> typed value`, each value remembering the file:line it
// came from so every schema error (unknown key, bad type, out of range)
// can name its source.
//
//   # configs/paper-baseline.conf
//   include "base.conf"
//   [machine]
//   nodes    = 16
//   network  = omega
//   [workload]
//   kind     = work-queue
//   tasks    = 16 * $(machine.nodes)
//
// Strictness contract: every consumer reads values through the typed
// getters (which mark keys consumed) and finishes with
// expect_all_consumed() — a key the schema never asked for is an error
// naming the key and its file:line, not a silent ignore.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bcsim::conf {

/// Where a value (or directive) came from, for diagnostics.
struct SourceLoc {
  std::string file = "<none>";
  std::size_t line = 0;
  [[nodiscard]] std::string str() const { return file + ":" + std::to_string(line); }
};

/// Every config failure — parse, type, range, or schema — is a ConfError
/// whose message starts with "file:line:". Tools translate it into a
/// usage error (exit 2).
class ConfError : public std::runtime_error {
 public:
  ConfError(const SourceLoc& loc, const std::string& msg)
      : std::runtime_error(loc.str() + ": " + msg) {}
};

/// A resolved configuration value: integer, boolean, or string. Values are
/// evaluated eagerly at assignment (SESC macro semantics): a `$(ref)` sees
/// the referenced key's value as of that point in the layering order.
struct Value {
  enum class Kind : std::uint8_t { kInt, kBool, kString };
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  bool b = false;
  std::string s;
  SourceLoc loc;

  [[nodiscard]] static std::string_view kind_name(Kind k) noexcept {
    switch (k) {
      case Kind::kInt: return "integer";
      case Kind::kBool: return "boolean";
      case Kind::kString: return "string";
    }
    return "?";
  }
  /// Canonical text form (what dump() writes; strings are quoted).
  [[nodiscard]] std::string repr() const;
};

/// A `-k key=value` command-line override (applied after every file).
struct Override {
  std::string key;    ///< full key, e.g. "machine.nodes"
  std::string value;  ///< expression text, evaluated against the table
};

/// The resolved flat table. Keys are "section.key" ("key" alone for
/// assignments before any [section] header). Getters mark keys consumed;
/// expect_all_consumed() then enforces the strict-schema contract.
class Table {
 public:
  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed getters with a default for absent keys. Present-but-wrong-type
  /// throws ConfError naming the value's file:line. A key's range is its
  /// consumer's (conf::scenario_keys(), the harness rows): each checks a
  /// value as the text its flag would take.
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t def) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool def) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view def) const;

  /// Location of a key (for consumers that need to point at it). The key
  /// must exist.
  [[nodiscard]] const SourceLoc& loc(std::string_view key) const;

  /// Throws ConfError for the first (lexicographically smallest)
  /// never-consumed key, naming it and its file:line. Keys whose section
  /// prefix is in `ignored_sections` (e.g. another tool's preset block)
  /// are exempt.
  void expect_all_consumed(
      const std::vector<std::string_view>& ignored_sections = {}) const;

  /// Canonical resolved form: section headers + sorted `key = value`
  /// lines. Reparsing the dump yields a table with identical typed values
  /// (the round-trip property test pins this).
  void dump(std::ostream& os) const;

  /// True when both tables hold the same keys with the same typed values
  /// (source locations and consumption state are ignored).
  [[nodiscard]] bool same_values(const Table& other) const;

  [[nodiscard]] const std::map<std::string, Value>& entries() const noexcept {
    return entries_;
  }

  /// Assigns `key` to the result of evaluating `expr` against the current
  /// table state (parse-time helper; exposed for the override path and
  /// tests).
  void assign(const std::string& key, const std::string& expr, const SourceLoc& loc);

 private:
  friend Table parse_stream(std::istream&, const std::string&,
                            const std::vector<Override>&, std::vector<std::string>*);
  [[nodiscard]] const Value& require(std::string_view key) const;

  std::map<std::string, Value> entries_;
  mutable std::set<std::string, std::less<>> consumed_;
};

/// Parses a config file plus its includes, then applies the overrides.
/// Include paths are resolved relative to the including file; cycles and
/// over-deep nesting are ConfErrors.
[[nodiscard]] Table parse_file(const std::string& path,
                               const std::vector<Override>& overrides = {});

/// Parses config text (tests, dump round-trips). `include` directives are
/// resolved relative to the current directory.
[[nodiscard]] Table parse_string(const std::string& text,
                                 const std::vector<Override>& overrides = {},
                                 const std::string& name = "<string>");

/// Splits a `-k` argument "key=value" into an Override; throws
/// std::invalid_argument when there is no '=' or the key is empty.
[[nodiscard]] Override parse_override(std::string_view arg);

}  // namespace bcsim::conf
