// The standard litmus battery for `bcsim model` and tests/test_model.cpp.
//
// Ports the scenarios of tests/test_litmus.cpp (MP, SB, IRIW,
// RESET-UPDATE) into the program IR and adds the classic LB/S/R shapes
// plus lock- and barrier-synchronized variants. Bystander threads issue
// unobserved subscribing loads to lengthen a location's update-delivery
// chain — the asymmetry that makes the weak outcomes reachable on the
// real machine (see run_mp in tests/test_litmus.cpp).
#pragma once

#include <vector>

#include "model/litmus.hpp"

namespace bcsim::model {

/// The full battery, in a stable order (the golden table follows it).
[[nodiscard]] std::vector<ir::Program> litmus_battery();

/// The battery entry named `name`, or nullptr.
[[nodiscard]] const ir::Program* find_litmus(const std::vector<ir::Program>& battery,
                                             const std::string& name);

}  // namespace bcsim::model
