// Strict value parsing shared by every CLI entry point and the config
// resolver: one numeric range check and one enum-name lookup, so the
// usage-error contract (malformed value -> exit 2 with a message naming
// the flag or key) is enforced in exactly one place.
//
// Every parser throws UsageError instead of exiting: main() catches it,
// prints the message, and exits 2 — which keeps the same observable
// behavior the strict-exit-2 tests pin while making the helpers usable
// from the config path too.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "sim/invariants.hpp"

namespace bcsim::conf {

/// A malformed flag or config value: the CLI prints the message and
/// exits 2 (the usage-error status the test suite pins).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict decimal parse: rejects empty strings, signs, non-digits,
/// trailing garbage ("4x"), and values outside [min, max]. `what` names
/// the flag or key for the diagnostic. Every numeric flag and key of every
/// table (the harness sweep knobs, ref::cell_keys(), conf::scenario_keys())
/// is checked here.
[[nodiscard]] std::uint64_t parse_u64(
    const std::string& what, const std::string& s, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Splits a comma-separated list, invoking `each` per element (empty
/// elements included, matching the historical per-tool lambdas).
void split_list(const std::string& list,
                const std::function<void(const std::string&)>& each);

// Every value of each machine enum. A value's name is its to_string, so
// each name is spelled once, in core/config.hpp or sim/invariants.hpp.
inline constexpr core::Consistency kConsistencies[] = {core::Consistency::kSequential,
                                                       core::Consistency::kBuffered};
inline constexpr core::LockImpl kLocks[] = {core::LockImpl::kCbl, core::LockImpl::kTts,
                                            core::LockImpl::kTtsBackoff, core::LockImpl::kTicket,
                                            core::LockImpl::kMcs};
inline constexpr core::BarrierImpl kBarriers[] = {
    core::BarrierImpl::kCbl, core::BarrierImpl::kCentral, core::BarrierImpl::kTree};
inline constexpr core::NetworkKind kNetworks[] = {
    core::NetworkKind::kOmega, core::NetworkKind::kCrossbar, core::NetworkKind::kMesh,
    core::NetworkKind::kIdeal};
inline constexpr core::DirOverflow kDirOverflows[] = {core::DirOverflow::kBroadcast,
                                                      core::DirOverflow::kCoarse};
inline constexpr sim::InvariantLevel kInvariantLevels[] = {
    sim::InvariantLevel::kOff, sim::InvariantLevel::kQuiesce, sim::InvariantLevel::kFull};

/// An overload set of lambdas, to visit a key table's field variant.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// The names of an enum's `Values`, in order.
template <const auto& Values>
inline constexpr auto kNames = [] {
  std::array<std::string_view, std::size(Values)> names{};
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = to_string(Values[i]);
  return names;
}();

/// The position of `name` among `names`. Throws UsageError naming `what`
/// and listing the choices.
[[nodiscard]] std::size_t name_index(std::string_view what, std::string_view name,
                                     std::span<const std::string_view> names);

/// The value of `Values` whose name is `name` (name_index's errors).
template <const auto& Values>
[[nodiscard]] auto parse_enum(std::string_view what, std::string_view name) {
  return Values[name_index(what, name, kNames<Values>)];
}

}  // namespace bcsim::conf
