// The hardware primitive vocabulary (paper Table 1, plus the atomic RMW
// used by the software-lock baselines and a compute delay), as a plain
// enum: the common language between the Processor, trace capture/replay,
// and the documentation.
#pragma once

#include <cstdint>
#include <string_view>

namespace bcsim::core {

enum class PrimitiveOp : std::uint8_t {
  kRead,         ///< READ: retrieve data without coherence maintenance
  kWrite,        ///< WRITE: write data without coherence maintenance
  kReadGlobal,   ///< READ-GLOBAL: read from main memory, bypassing the cache
  kWriteGlobal,  ///< WRITE-GLOBAL: write data globally (via the write buffer)
  kReadUpdate,   ///< READ-UPDATE: fetch + subscribe to future updates
  kResetUpdate,  ///< RESET-UPDATE: cancel the subscription
  kFlushBuffer,  ///< FLUSH-BUFFER: stall until all global writes performed
  kReadLock,     ///< READ-LOCK: shared lock on a cache line
  kWriteLock,    ///< WRITE-LOCK: exclusive lock on a cache line
  kUnlock,       ///< UNLOCK: release the lock
  kTestAndSet,   ///< atomic test-and-set (RMW specialization)
  kFetchAdd,     ///< atomic fetch-and-add (RMW specialization)
  kBarrier,      ///< hardware barrier arrival (extension)
  kCompute,      ///< local computation (no memory system interaction)
  kSwap,         ///< atomic swap (RMW specialization)
  kCompareSwap,  ///< atomic compare-and-swap (RMW specialization, two operands)
  kWaitWord,     ///< spin-wait until a cached word differs from a value
  kWaitLine,     ///< spin-wait until a cached line changes or is invalidated
  kPrivate,      ///< probabilistic private-data reference (realized cost)
};

[[nodiscard]] constexpr std::string_view to_string(PrimitiveOp op) noexcept {
  switch (op) {
    case PrimitiveOp::kRead: return "READ";
    case PrimitiveOp::kWrite: return "WRITE";
    case PrimitiveOp::kReadGlobal: return "READ-GLOBAL";
    case PrimitiveOp::kWriteGlobal: return "WRITE-GLOBAL";
    case PrimitiveOp::kReadUpdate: return "READ-UPDATE";
    case PrimitiveOp::kResetUpdate: return "RESET-UPDATE";
    case PrimitiveOp::kFlushBuffer: return "FLUSH-BUFFER";
    case PrimitiveOp::kReadLock: return "READ-LOCK";
    case PrimitiveOp::kWriteLock: return "WRITE-LOCK";
    case PrimitiveOp::kUnlock: return "UNLOCK";
    case PrimitiveOp::kTestAndSet: return "TEST&SET";
    case PrimitiveOp::kFetchAdd: return "FETCH&ADD";
    case PrimitiveOp::kBarrier: return "BARRIER";
    case PrimitiveOp::kCompute: return "COMPUTE";
    case PrimitiveOp::kSwap: return "SWAP";
    case PrimitiveOp::kCompareSwap: return "COMPARE&SWAP";
    case PrimitiveOp::kWaitWord: return "WAIT-WORD";
    case PrimitiveOp::kWaitLine: return "WAIT-LINE";
    case PrimitiveOp::kPrivate: return "PRIVATE";
  }
  return "?";
}

}  // namespace bcsim::core
