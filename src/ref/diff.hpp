// The SC-reference comparison and first-divergence reporting (docs/TESTING.md, "Differential testing").
//
// One comparison = one DRF program (drf_program.hpp) executed on the
// golden SC reference (ref_machine.hpp) and on a full machine flavor
// (ir/run.hpp, ref/cell.hpp) under one schedule seed. A clean comparison means the
// machine's observable behavior is sequentially consistent for that
// properly-synchronized program — the paper's section 3 claim, checked
// end-to-end. ref/cell.hpp turns a comparison into a cell verdict.
#pragma once

#include <cstdint>
#include <string>

#include "ir/run.hpp"
#include "ref/ref_machine.hpp"

namespace bcsim::ref {

/// The first point where a machine execution departed from the reference.
struct Divergence {
  enum class Kind : std::uint8_t {
    kNone,
    kMachineError,  ///< stuck, budget exhausted, or invariant violation
    kObsRead,       ///< an observed read returned a non-SC value
    kObsStream,     ///< observed-read streams have different lengths
    kFinalVar,      ///< final memory mismatch
    kFinalSem,      ///< final semaphore count mismatch
  };

  Kind kind = Kind::kNone;
  std::uint32_t node = 0;
  std::uint32_t op_index = 0;
  std::uint32_t var = 0;
  Addr addr = 0;
  BlockId block = 0;  ///< addr / block_words — names the memory block
  Tick tick = 0;      ///< machine cycle of the diverging read / completion
  Word machine_value = 0;
  Word ref_value = 0;
  std::string detail;  ///< ready-to-print one-line diagnosis

  [[nodiscard]] bool found() const noexcept { return kind != Kind::kNone; }
};

/// Compares a machine run against the reference; returns the earliest
/// divergence (observed reads are ordered by machine tick across nodes).
[[nodiscard]] Divergence compare_runs(const RefResult& ref, const ir::RunResult& mach,
                                      std::uint32_t block_words);

}  // namespace bcsim::ref
